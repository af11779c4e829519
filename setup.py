"""Legacy setuptools shim — all metadata lives in ``pyproject.toml``.

Kept because PEP 660 editable installs (``pip install -e .``) need the
``wheel`` package, which offline containers may lack; there,
``python setup.py develop`` (or plain ``PYTHONPATH=src``) still works.

The one thing that *must* live here is the optional native kernel
extension (``repro.anf._ckernel._impl``).  It is marked ``optional`` so a
missing or broken C compiler downgrades the build to a warning: the wheel
installs without the extension, and every kernel in
:mod:`repro.anf.sortkernel` runs its numpy body instead of its C primitive.
Build it in a source checkout with::

    python setup.py build_ext --inplace
"""

import sys

from setuptools import Extension, setup

_ckernel = Extension(
    "repro.anf._ckernel._impl",
    sources=["src/repro/anf/_ckernel/ckernelmodule.c"],
    extra_compile_args=[] if sys.platform == "win32" else ["-O3"],
    optional=True,
)

setup(ext_modules=[_ckernel])
