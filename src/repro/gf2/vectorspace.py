"""Incremental GF(2) spans and dependence detection on bitmask vectors."""

from __future__ import annotations

from typing import Iterable, Sequence


class XorSpan:
    """An incrementally built GF(2) vector space of integer bitmask vectors.

    Supports adding vectors one at a time, testing membership, and recovering
    which previously inserted vectors combine to a given one.
    """

    __slots__ = ("_basis", "_num_inserted")

    def __init__(self, vectors: Iterable[int] = ()) -> None:
        # Triangular basis keyed by the lowest set bit of each stored row:
        # low_bit -> (reduced_vector, combination_over_inserted_indices)
        self._basis: dict[int, tuple[int, int]] = {}
        self._num_inserted = 0
        for vector in vectors:
            self.add(vector)

    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Rank of the span."""
        return len(self._basis)

    def _reduce(self, vector: int, combo: int) -> tuple[int, int]:
        basis = self._basis
        while vector:
            lead = vector & -vector
            entry = basis.get(lead)
            if entry is None:
                break
            reduced, reduced_combo = entry
            vector ^= reduced
            combo ^= reduced_combo
        return vector, combo

    def contains(self, vector: int) -> bool:
        """True when ``vector`` is an XOR of already-inserted vectors."""
        reduced, _ = self._reduce(vector, 0)
        return reduced == 0

    def combination_for(self, vector: int) -> int | None:
        """Bitmask over inserted indices whose XOR equals ``vector``.

        Returns ``None`` when ``vector`` is outside the span.  The returned
        combination refers to insertion order (bit *i* = the *i*-th vector
        given to :meth:`add`).
        """
        reduced, combo = self._reduce(vector, 0)
        if reduced:
            return None
        return combo

    def add(self, vector: int) -> bool:
        """Insert a vector.

        Returns ``True`` when the vector enlarged the span, ``False`` when it
        was already dependent on previous insertions.
        """
        index = self._num_inserted
        self._num_inserted += 1
        reduced, combo = self._reduce(vector, 1 << index)
        if reduced == 0:
            return False
        self._basis[reduced & -reduced] = (reduced, combo)
        return True

    def add_and_explain(self, vector: int) -> int | None:
        """Insert a vector; if dependent, return the combination explaining it.

        The combination is a bitmask over previously inserted indices (it does
        not include the vector just offered).  Returns ``None`` when the
        vector was independent (and is now part of the span).
        """
        index = self._num_inserted
        self._num_inserted += 1
        reduced, combo = self._reduce(vector, 1 << index)
        if reduced == 0:
            return combo ^ (1 << index)
        self._basis[reduced & -reduced] = (reduced, combo)
        return None


def find_linear_dependency(vectors: Sequence[int]) -> tuple[int, int] | None:
    """Find one linear dependency among the given vectors.

    Returns ``(index, combination)`` meaning ``vectors[index]`` equals the XOR
    of the vectors selected by ``combination`` (a bitmask over indices smaller
    than ``index``), or ``None`` when the vectors are linearly independent.
    The zero vector is reported as depending on the empty combination.
    """
    span = XorSpan()
    for index, vector in enumerate(vectors):
        combo = span.add_and_explain(vector)
        if combo is not None:
            return index, combo
    return None


def are_linearly_independent(vectors: Sequence[int]) -> bool:
    """True when no vector is an XOR of the others (and none is zero)."""
    return find_linear_dependency(vectors) is None


def span_rank(vectors: Iterable[int]) -> int:
    """Rank of the span of the given vectors."""
    return XorSpan(vectors).dimension
