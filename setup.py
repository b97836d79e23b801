"""Build script: compiles the optional alignment kernel.

``_align_fast.c`` is a hand-written C port of ``_align_py.align_ops`` with the
same output.  It is compiled with ``-ffp-contract=off``, so that no
multiply-add is fused and its float costs match the pure kernel's bit for bit.
The extension is optional: where it cannot be compiled, installation goes on
and the package runs on the pure-Python kernel.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "gecedit._align_fast",
            ["src/gecedit/_align_fast.c"],
            extra_compile_args=["-ffp-contract=off"],
            optional=True,
        )
    ]
)
