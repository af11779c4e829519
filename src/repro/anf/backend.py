"""The name of the term-set storage, for run stamps.

Every term set is stored one way: as a packed
:class:`~repro.anf.termmatrix.TermMatrix` when its terms fit 64-bit rows,
and as a frozenset otherwise.  Each kernel runs its packed path and keeps
an inline per-term loop for sets that decline to pack, so there is no
backend to choose.  The one function here only names that storage for
benchmark run stamps.
"""

from __future__ import annotations

from types import SimpleNamespace

_PACKED = SimpleNamespace(name="packed")


def get_backend() -> SimpleNamespace:
    """The term storage's descriptor; its ``name`` is ``"packed"``."""
    return _PACKED
