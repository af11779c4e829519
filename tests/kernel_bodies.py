"""Choosing which term-set path the kernels run, for the test suites.

Every public kernel in :mod:`repro.anf.sortkernel` reads the module global
``_C`` on each call: the compiled extension when it imported, ``None``
otherwise.  Pointing it at ``None`` forces the numpy bodies; pointing it at
``cnative._C`` forces the C bodies, which only exist where the extension is
built.  No environment variable is involved.

The ``unpacked`` mode makes :meth:`TermMatrix.from_terms` decline every
set, so no expression built inside it packs and every kernel takes the
per-term loop production keeps for terms wider than 64 bits.
"""

from contextlib import contextmanager

import pytest

from repro.anf import cnative, sortkernel
from repro.anf.termmatrix import TermMatrix

#: The parity modes: ``unpacked`` (every kernel on its per-term loop, the
#: reference), ``packed`` on the numpy bodies, and ``packed-c`` — ``packed``
#: on the C bodies (skipped where the extension is not built).
BACKENDS = ("unpacked", "packed", "packed-c")

#: The parity modes this build can run (for hypothesis draws, which
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
def unpacked():
    """Run the block with no term set packing."""
    saved = TermMatrix.__dict__["from_terms"]
    TermMatrix.from_terms = classmethod(lambda cls, terms: None)
    try:
        yield
    finally:
        TermMatrix.from_terms = saved


@contextmanager
def running(backend: str):
    """Run the block in one of the :data:`BACKENDS` modes."""
    if backend == "unpacked":
        with kernel_body(False), unpacked():
            yield
        return
    c = backend == "packed-c"
    if c and not cnative.available():
        pytest.skip("C extension not built")
    with kernel_body(c):
        yield
