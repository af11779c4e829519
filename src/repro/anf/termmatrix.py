"""Packed term matrices: contiguous machine-word storage for ANF term sets.

A :class:`TermMatrix` stores every monomial bitmask of an expression as one
row of a read-only, C-contiguous :mod:`numpy` ``uint64`` vector, kept in
strictly ascending order.  That vector is the only packed spelling of a
term set: every kernel in :mod:`repro.anf.sortkernel` (numpy or C body)
takes and returns it, the canonical digest and the cache read it in place,
and read-only rows can be shared between matrices without copies.  Two derived values are cached on demand:

``key``
    The raw little-endian bytes of the rows.  Because rows are sorted and
    distinct, two matrices hold equal term sets *iff* their keys are equal,
    which gives the pair-merging fixpoints an O(n/8) canonical dictionary
    key with no per-term hashing.

``support_mask``
    The OR of every row.

Whole-matrix queries and rewrites (literal count, ``| mask``, ``& ~mask``,
containment) are single sortkernel calls.

Everything here is exact: a ``TermMatrix`` is just another spelling of the
same canonical monomial set, so routing an operation through it can never
change a result.  Terms that do not fit in 64 bits (contexts with more than
64 variables reaching the high indices) simply decline to pack — callers
fall back to the frozenset path.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import sortkernel

#: Terms at or above this value do not fit a row and force the set fallback.
TERM_LIMIT = 1 << 64


class TermMatrix:
    """An immutable, sorted, packed view of a canonical monomial set.

    Invariants: ``words`` is a read-only, C-contiguous ``uint64`` vector of
    distinct terms in strictly ascending order.  All constructors either
    uphold this or return ``None`` (terms too wide to pack).
    """

    __slots__ = ("words", "_key", "_support")

    def __init__(self, words: np.ndarray) -> None:
        self.words = words
        self._key: Optional[bytes] = None
        self._support: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_terms(cls, terms: Iterable[int]) -> Optional["TermMatrix"]:
        """Pack an unordered collection of distinct terms (one vectorised sort)."""
        rows = sortkernel.sort_terms(
            terms, count=len(terms) if hasattr(terms, "__len__") else None
        )
        if rows is None:
            return None
        return cls(rows)

    @classmethod
    def from_sorted(cls, rows: np.ndarray) -> Optional["TermMatrix"]:
        """Adopt a strictly ascending ``uint64`` row vector (sealed, no copy).

        The closed-form spec builders generate their rows already sorted and
        distinct, so nothing is re-sorted or checked here.  Like
        :meth:`from_terms`, it is a point where a term set enters packed
        storage, and the tests' ``unpacked`` mode makes both decline.
        """
        return cls(sortkernel._frozen(np.ascontiguousarray(rows, dtype=np.uint64)))

    # ------------------------------------------------------------------
    # Cheap views
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.words)

    def to_list(self) -> List[int]:
        return self.words.tolist()

    def key(self) -> bytes:
        """Canonical bytes: equal term sets have equal keys (rows are sorted)."""
        value = self._key
        if value is None:
            value = self.words.tobytes()
            self._key = value
        return value

    def literal_count(self) -> int:
        """Total set bits over all rows (one popcount kernel)."""
        return sortkernel.popcount_rows(self.words)

    def support_mask(self) -> int:
        """OR of every row (one fold kernel, cached)."""
        mask = self._support
        if mask is None:
            mask = sortkernel.support_fold(self.words)
            self._support = mask
        return mask

    # ------------------------------------------------------------------
    # Word-parallel rewrites (all order-preserving by construction)
    # ------------------------------------------------------------------
    def or_all(self, mask: int) -> "TermMatrix":
        """OR ``mask`` into every row.

        Precondition: ``mask`` is disjoint from the support, so each row grows
        by the same amount and the ascending order is preserved — this is the
        ``fresh_variable & expression`` product of ``combine_with_tags`` and
        the rewrite step.
        """
        if not self.count:
            return self
        if mask & self.support_mask():
            raise ValueError("or_all requires a mask disjoint from the support")
        if mask >= TERM_LIMIT or mask < 0:
            raise ValueError("mask does not fit a 64-bit row")
        result = TermMatrix(sortkernel.or_into_all(self.words, mask))
        if self._support is not None:
            result._support = self._support | mask
        return result

    def strip_all(self, mask: int) -> "TermMatrix":
        """Clear ``mask`` from every row.

        Precondition: every row contains all of ``mask`` (checked via
        :meth:`contains_all` by callers), so each row shrinks by the same
        amount and the order is preserved — the tag-component extraction of
        ``rewriteExpr``.
        """
        if not self.count:
            return self
        return TermMatrix(sortkernel.clear_bits_all(self.words, mask))

    def equal_rows(self, other: "TermMatrix") -> bool:
        """True when both matrices hold the same rows (one vector compare).

        Rows are sorted and distinct, so row equality is term-set equality.
        Cached canonical keys are compared when both sides already have
        them; otherwise the rows compare element-wise without materialising
        any bytes copy.
        """
        if self.count != other.count:
            return False
        if self._key is not None and other._key is not None:
            return self._key == other._key
        return bool(np.array_equal(self.words, other.words))

    def contains_all(self, mask: int) -> bool:
        """True when every row contains every bit of ``mask``."""
        if not self.count or mask == 0:
            return True
        if mask >= TERM_LIMIT or mask < 0:
            return False
        return sortkernel.rows_contain_all(self.words, mask)


def concat_sorted(matrices: Sequence[TermMatrix]) -> TermMatrix:
    """Union of pairwise-disjoint matrices, re-sorted into canonical order.

    Sorted slabs whose row ranges do not interleave concatenate as-is; the
    rest merge with one run-friendly stable sort.  Callers are responsible
    for disjointness (e.g. every operand is marked by a distinct variable
    bit), which is what makes the union equal to the XOR of the operands.
    """
    return TermMatrix(sortkernel.merge_disjoint([m.words for m in matrices]))


def xor_sorted(left: TermMatrix, right: TermMatrix) -> TermMatrix:
    """Symmetric difference of two matrices (terms appearing in exactly one).

    Each operand holds distinct terms, so a shared term appears exactly
    twice in the sorted concatenation and the adjacent duplicates cancel.
    """
    if not left.count:
        return right
    if not right.count:
        return left
    return TermMatrix(sortkernel.xor_merge(left.words, right.words))
