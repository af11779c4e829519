"""Packed term matrices: contiguous machine-word storage for ANF term sets.

PR 1's truth-bitset kernel (:mod:`repro.anf.bitset`) showed that packing
semantic state into machine words turns per-term Python loops into a handful
of C-level big-integer operations.  This module applies the same idea to the
*term sets themselves*: a :class:`TermMatrix` stores every monomial bitmask of
an expression in one flat ``array('Q')`` of unsigned 64-bit words, kept in
ascending order.  Two derived views are cached on demand:

``packed``
    The whole matrix as a single big integer (row ``i`` occupies bits
    ``[64*i, 64*i+64)``).  One ``int.bit_count()`` over it is the literal
    count of the expression; ``packed | replicate(bit)`` multiplies a fresh
    disjoint variable into every term at memory bandwidth — the operations
    that dominate the comparator's first-iteration floor.

``key``
    The raw little-endian bytes of the word array.  Because rows are sorted
    and distinct, two matrices hold equal term sets *iff* their keys are
    equal, which gives the pair-merging fixpoints an O(n/8) canonical
    dictionary key with no per-term hashing.

Everything here is exact: a ``TermMatrix`` is just another spelling of the same canonical monomial set,
so routing an operation through it can never change a result.  Terms that do
not fit in 64 bits (contexts with more than 64 variables reaching the high
indices) simply decline to pack — callers fall back to the frozenset path.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Sequence

from . import sortkernel

#: Array typecode for the row storage.  ``Q`` is guaranteed to be exactly
#: 64 bits by the :mod:`array` documentation, unlike ``L``.
WORD_CODE = "Q"
WORD_BITS = 64
WORD_BYTES = 8

#: Terms at or above this value do not fit a row and force the set fallback.
TERM_LIMIT = 1 << WORD_BITS


def replicate(mask: int, count: int) -> int:
    """``mask`` repeated in each of ``count`` 64-bit rows, as one big integer.

    Built by repeating the 8-byte pattern at C speed (one ``bytes.__mul__``
    plus one ``int.from_bytes``).
    """
    if count <= 0 or mask == 0:
        return 0
    return int.from_bytes(mask.to_bytes(WORD_BYTES, "little") * count, "little")


class TermMatrix:
    """An immutable, sorted, packed view of a canonical monomial set.

    Invariants: ``words`` is an ``array('Q')`` of distinct terms in strictly
    ascending order.  All constructors either uphold this or return ``None``
    (terms too wide to pack).
    """

    __slots__ = ("words", "_packed", "_key", "_support")

    def __init__(self, words: array) -> None:
        self.words = words
        self._packed: Optional[int] = None
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
    def from_sorted(cls, rows: Sequence[int]) -> "TermMatrix":
        """Pack a list that is already strictly ascending (trusted)."""
        if isinstance(rows, array):
            return cls(rows)
        return cls(array(WORD_CODE, rows))

    # ------------------------------------------------------------------
    # Cheap views
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.words)

    def to_list(self) -> List[int]:
        return self.words.tolist()

    def packed(self) -> int:
        """The matrix as one big integer (row ``i`` at bit offset ``64*i``)."""
        value = self._packed
        if value is None:
            value = int.from_bytes(self.words.tobytes(), "little")
            self._packed = value
        return value

    def key(self) -> bytes:
        """Canonical bytes: equal term sets have equal keys (rows are sorted)."""
        value = self._key
        if value is None:
            value = self.words.tobytes()
            self._key = value
        return value

    def literal_count(self) -> int:
        """Total set bits over all rows — one vectorised (or big-int) popcount.

        Reuses the packed big integer when it is already cached, but never
        *builds* it for this query: on multi-million-row slabs the packed
        construction costs more than the count itself.
        """
        if self._packed is not None:
            return self._packed.bit_count()
        return sortkernel.popcount_rows(self.words)

    def support_mask(self) -> int:
        """OR of every row (one vector fold; big-integer halving below the
        kernel floor)."""
        mask = self._support
        if mask is None:
            if len(self.words) >= sortkernel.KERNEL_MIN_ROWS:
                mask = sortkernel.support_fold(self.words)
            else:
                value = self.packed()
                width = len(self.words)
                while width > 1:
                    half = (width + 1) // 2
                    high = value >> (half * WORD_BITS)
                    value = (value ^ (high << (half * WORD_BITS))) | high
                    width = half
                mask = value
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
        if not self.words:
            return self
        if mask & self.support_mask():
            raise ValueError("or_all requires a mask disjoint from the support")
        if mask >= TERM_LIMIT or mask < 0:
            raise ValueError("mask does not fit a 64-bit row")
        if len(self.words) >= sortkernel.KERNEL_MIN_ROWS:
            result = TermMatrix(sortkernel.or_into_all(self.words, mask))
        else:
            merged = self.packed() | replicate(mask, len(self.words))
            result = TermMatrix(_array_from_packed(merged, len(self.words)))
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
        if not self.words:
            return self
        if len(self.words) >= sortkernel.KERNEL_MIN_ROWS:
            return TermMatrix(sortkernel.clear_bits_all(self.words, mask))
        cleared = self.packed() & ~replicate(mask, len(self.words))
        return TermMatrix(_array_from_packed(cleared, len(self.words)))

    def equal_rows(self, other: "TermMatrix") -> bool:
        """True when both matrices hold the same rows (one C array compare).

        Rows are sorted and distinct, so row equality is term-set equality.
        Cached canonical keys are compared when both sides already have
        them; otherwise the raw arrays compare element-wise at C speed
        without materialising any bytes copy.
        """
        if len(self.words) != len(other.words):
            return False
        if self._key is not None and other._key is not None:
            return self._key == other._key
        return self.words == other.words

    def contains_all(self, mask: int) -> bool:
        """True when every row contains every bit of ``mask`` (one popcount)."""
        if not self.words:
            return True
        if mask == 0:
            return True
        if mask >= TERM_LIMIT or mask < 0:
            return False
        if len(self.words) >= sortkernel.KERNEL_MIN_ROWS:
            return sortkernel.rows_contain_all(self.words, mask)
        selected = self.packed() & replicate(mask, len(self.words))
        return selected.bit_count() == mask.bit_count() * len(self.words)


def _array_from_packed(value: int, count: int) -> array:
    """Rebuild the row array of a packed big integer (C-level conversion)."""
    rows = array(WORD_CODE)
    rows.frombytes(value.to_bytes(count * WORD_BYTES, "little"))
    return rows


def concat_sorted(matrices: Sequence[TermMatrix]) -> TermMatrix:
    """Union of pairwise-disjoint matrices, re-sorted into canonical order.

    The concatenation of sorted runs is Timsort's best case, so the merge
    runs at C speed.  Callers are responsible for disjointness (e.g. every
    operand is marked by a distinct variable bit), which is what makes the
    union equal to the XOR of the operands.
    """
    return TermMatrix(sortkernel.merge_disjoint([m.words for m in matrices]))


def xor_sorted(left: TermMatrix, right: TermMatrix) -> TermMatrix:
    """Symmetric difference of two matrices (terms appearing in exactly one).

    Concatenate, merge-sort (two sorted runs — C speed), then cancel adjacent
    duplicates in one pass: each operand holds distinct terms, so a shared
    term appears exactly twice and the duplicates are adjacent after sorting.
    """
    if not left.words:
        return right
    if not right.words:
        return left
    return TermMatrix(sortkernel.xor_merge(left.words, right.words))
