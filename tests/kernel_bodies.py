"""Choosing which body the packed slab kernels run, for the test suites.

Every public kernel in :mod:`repro.anf.sortkernel` reads the module global
``_C`` on each call: the compiled extension when it imported, ``None``
otherwise.  Pointing it at ``None`` forces the numpy bodies; pointing it at
``cnative._C`` forces the C bodies, which only exist where the extension is
built.  No environment variable is involved.
"""

from contextlib import contextmanager

import pytest

from repro.anf import cnative, sortkernel
from repro.anf.backend import using_backend

#: The parity backends: the ``set`` reference, ``packed`` on its numpy
#: bodies, and ``packed-c`` — ``packed`` on its C bodies (skipped where the
#: extension is not built).
BACKENDS = ("set", "packed", "packed-c")

#: The parity backends this build can run (for hypothesis draws, which
#: cannot skip).
BUILT_BACKENDS = BACKENDS if cnative.available() else BACKENDS[:2]


@contextmanager
def kernel_body(c: bool):
    """Run the block on the C bodies (``c``) or the numpy bodies."""
    saved = sortkernel._C
    sortkernel._C = cnative._C if c else None
    try:
        yield
    finally:
        sortkernel._C = saved


@contextmanager
def running(backend: str):
    """Activate one of :data:`BACKENDS` for the block."""
    c = backend == "packed-c"
    if c and not cnative.available():
        pytest.skip("C extension not built")
    with kernel_body(c), using_backend("set" if backend == "set" else "packed") as active:
        yield active
