"""The ``native`` term-backend kernels: C primitives behind the seam.

``REPRO_TERM_BACKEND=native`` installs this module as
:mod:`repro.anf.sortkernel`'s kernel core (``set_core``), so every public
whole-slab kernel there dispatches to its C-first twin here.  Each one
calls into the compiled extension (:mod:`repro.anf._ckernel._impl`) when it
is built and the input clears the same ``KERNEL_MIN_ROWS`` floor the numpy
kernels use; everything else — missing extension, tiny slabs, masks wider
than ``RADIX_MAX_GROUP_BITS`` — delegates to the sortkernel numpy body, so
the semantics are those of the packed backend bit for bit.

The extension reads the read-only ``uint64`` row vectors of
:class:`~repro.anf.termmatrix.TermMatrix` through the buffer protocol and
writes its results into fresh ``bytearray`` buffers, which come back as
zero-copy (read-only) ``np.frombuffer`` views — the same row type every
sortkernel kernel returns.

The extension build is optional (``setup.py`` marks it ``optional=True``):
importing this module never fails.  :func:`warn_if_missing` — called by the
backend's ``activate`` hook — emits a one-time :class:`RuntimeWarning` when
the native backend is selected without a compiled extension, because the
user asked for native speed and is silently getting numpy speed.
"""

from __future__ import annotations

import warnings
from typing import List, Sequence, Tuple

import numpy as _np

from . import sortkernel
from .sortkernel import ROW_MASK

try:  # pragma: no cover - both arms are covered by the fallback tests
    from ._ckernel import _impl as _C
except ImportError:  # pragma: no cover
    _C = None


def available() -> bool:
    """True when the compiled extension imported (C primitives in use)."""
    return _C is not None


_warned_missing = False


def warn_if_missing() -> None:
    """One-time warning when the native backend runs without the extension."""
    global _warned_missing
    if _C is None and not _warned_missing:
        _warned_missing = True
        warnings.warn(
            "the 'native' term backend was selected but the compiled kernel "
            "extension (repro.anf._ckernel._impl) is not built; falling back "
            "to the numpy kernels — build it with "
            "'python setup.py build_ext --inplace'",
            RuntimeWarning,
            stacklevel=3,
        )


def _rows(raw) -> _np.ndarray:
    """A C-produced ``bytearray`` of rows as a read-only vector (no copy)."""
    return sortkernel._frozen(_np.frombuffer(raw, dtype=_np.uint64))


def _sorted_parity(rows: _np.ndarray) -> _np.ndarray:
    """Radix-sort a writable slab in place down to its odd-count rows.

    ``sort_parity`` compacts the survivors into the prefix; the in-place
    resize reallocates the buffer to them, so the cancelled tail is freed
    instead of pinned behind a view.
    """
    survivors = _C.sort_parity(rows)
    rows.resize(survivors, refcheck=False)
    return rows


# ----------------------------------------------------------------------
# Kernels (signature-compatible with sortkernel's public ones)
# ----------------------------------------------------------------------
def split_runs_by_group(
    words: _np.ndarray, group_mask: int, or_mask: int = 0
) -> Tuple[List[Tuple[int, _np.ndarray]], _np.ndarray]:
    """Fused compress + histogram + gather radix split, in one C pass each.

    ``_impl.split_radix`` returns ``None`` for empty masks and masks wider
    than ``RADIX_MAX_GROUP_BITS`` — the same decline rule as the numpy radix
    path — and the argsort route stays in sortkernel.
    """
    if _C is None or len(words) < sortkernel.KERNEL_MIN_ROWS:
        return sortkernel._split_runs(words, group_mask, or_mask)
    result = _C.split_radix(
        words,
        group_mask & ROW_MASK,
        or_mask & ROW_MASK,
        sortkernel.RADIX_MAX_GROUP_BITS,
    )
    if result is None:
        return sortkernel._split_runs(words, group_mask, or_mask)
    parts, buckets, remainder = result
    if not parts and not or_mask:
        # No row carries a group bit and there is no tag to plant: the
        # input slab *is* the remainder (same no-copy guarantee as the
        # numpy kernel).
        return [], words
    return (
        [(part, _rows(rows)) for part, rows in zip(parts, buckets)],
        _rows(remainder),
    )


def split_build_by_group(
    tagged_slabs: Sequence[Tuple[int, _np.ndarray]], group_mask: int
) -> Tuple[List[Tuple[int, _np.ndarray]], _np.ndarray]:
    return sortkernel._split_build(tagged_slabs, group_mask, split=split_runs_by_group)


def scatter_tag(words: _np.ndarray, bit: int) -> _np.ndarray:
    if (
        _C is None
        or bit > ROW_MASK
        or len(words) < sortkernel.KERNEL_MIN_ROWS
    ):
        return sortkernel._scatter_tag(words, bit)
    return _rows(_C.scatter_tag(words, bit))


def xor_merge(left: _np.ndarray, right: _np.ndarray) -> _np.ndarray:
    if not len(left):
        return right
    if not len(right):
        return left
    if _C is None or len(left) + len(right) < sortkernel.KERNEL_MIN_ROWS:
        return sortkernel._xor_merge(left, right)
    return _rows(_C.xor_merge(left, right))


def parity_merge(slabs: Sequence[_np.ndarray]) -> _np.ndarray:
    alive = [s for s in slabs if len(s)]
    if not alive:
        return sortkernel.EMPTY
    if _C is None or sum(len(s) for s in alive) < sortkernel.KERNEL_MIN_ROWS:
        return sortkernel._parity_merge(alive)
    # One fresh writable slab holding the whole multiset.
    return sortkernel._frozen(_sorted_parity(_np.concatenate(alive)))


def product_rows(large: _np.ndarray, small_terms: Sequence[int]) -> _np.ndarray:
    terms = list(small_terms)
    if _C is None or len(large) * len(terms) < sortkernel.KERNEL_MIN_ROWS:
        return sortkernel._product_rows(large, small_terms)
    return sortkernel._frozen(_product_rec(large, [term & ROW_MASK for term in terms]))


def _product_rec(rows: _np.ndarray, terms: List[int]) -> _np.ndarray:
    """Parity-reduced ``XOR(terms) * rows`` as a canonical row vector.

    Mirrors sortkernel's divide-and-conquer slab budget
    (``PRODUCT_SLAB_ROWS``); the halves are canonical (sorted, distinct), so
    their mod-2 recombination *is* the C two-pointer symmetric difference.
    """
    if len(terms) * len(rows) <= sortkernel.PRODUCT_SLAB_ROWS or len(terms) <= 2:
        n = len(rows)
        out = _np.empty(len(terms) * n, dtype=_np.uint64)
        for i, term in enumerate(terms):
            _np.bitwise_or(rows, _np.uint64(term), out=out[i * n : (i + 1) * n])
        return _sorted_parity(out)
    mid = len(terms) // 2
    return _rows(_C.xor_merge(_product_rec(rows, terms[:mid]), _product_rec(rows, terms[mid:])))


def shared_literal_count(left: _np.ndarray, right: _np.ndarray) -> int:
    if (
        _C is None
        or min(len(left), len(right)) == 0
        or len(left) + len(right) < sortkernel.KERNEL_MIN_ROWS
    ):
        return sortkernel._shared_literal_count(left, right)
    return _C.shared_literal_count(left, right)


def popcount_rows(words) -> int:
    if _C is None or len(words) < sortkernel.KERNEL_MIN_ROWS:
        return sortkernel._popcount_rows(words)
    return _C.popcount_rows(words)
