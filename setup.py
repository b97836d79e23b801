"""Build script: compiles the alignment kernel.

With Cython installed the kernel is compiled from ``_align_fast.pyx``;
without it, from the shipped ``_align_fast.c`` that Cython generated from it
(both files are pinned by sha256 in the tests).  Set GECEDIT_PURE=1 to skip
the extension; the package then runs on the pure-Python kernel.
"""

import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("GECEDIT_PURE") != "1":
    try:
        from Cython.Build import cythonize
    except ImportError:
        ext_modules = [Extension("gecedit._align_fast", ["src/gecedit/_align_fast.c"])]
    else:
        ext_modules = cythonize(
            ["src/gecedit/_align_fast.pyx"],
            compiler_directives={"language_level": "3"},
        )

setup(ext_modules=ext_modules)
