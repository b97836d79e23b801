"""Build script: compiles the alignment kernel.

The kernel is compiled from the shipped ``_align_fast.c``, which Cython
generated from ``_align_fast.pyx`` (both files are pinned by sha256 in the
tests).  Set GECEDIT_PURE=1 to skip the extension; the package then runs on
the pure-Python kernel.
"""

import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("GECEDIT_PURE") != "1":
    ext_modules = [Extension("gecedit._align_fast", ["src/gecedit/_align_fast.c"])]

setup(ext_modules=ext_modules)
