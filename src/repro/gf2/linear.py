"""GF(2) linear algebra lifted to Reed-Muller expressions.

A set of ANF expressions is linearly dependent exactly when one of them is the
XOR of a subset of the others (paper, section 4: "a set of Boolean expressions
is linearly dependent if one of these expressions can be written as the XOR of
a subset of the rest").  These helpers convert expressions into bitmask
vectors over their joint monomial space and reuse :mod:`repro.gf2.vectorspace`.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..anf import sortkernel
from ..anf.expression import Anf
from .vectorspace import XorSpan, find_linear_dependency


class MonomialIndexer:
    """Assigns consecutive indices to the distinct monomials it has seen."""

    __slots__ = ("_index_of",)

    def __init__(self) -> None:
        self._index_of: dict[int, int] = {}

    def vector_of(self, expr: Anf) -> int:
        """Bitmask vector of ``expr`` over the (growing) monomial basis."""
        index_of = self._index_of
        indices = []
        for monomial in expr.term_list():
            index = index_of.get(monomial)
            if index is None:
                index = len(index_of)
                index_of[monomial] = index
            indices.append(index)
        if not indices:
            return 0
        # Assemble the vector through a bytearray: OR-ing ``1 << index`` into
        # a growing bigint is quadratic in the monomial count, which bites on
        # the wide combined expressions of the basis-minimisation step.
        packed = bytearray((max(indices) >> 3) + 1)
        for index in indices:
            packed[index >> 3] |= 1 << (index & 7)
        return int.from_bytes(packed, "little")

    @property
    def num_monomials(self) -> int:
        return len(self._index_of)


class MonomialVocabulary:
    """Monomial-coordinate assignment vectorised over shared matrix views.

    Same contract as :class:`MonomialIndexer` — every distinct monomial is
    assigned one stable coordinate for the vocabulary's lifetime — but a
    matrix-backed expression is encoded in a handful of vectorised passes
    over its sorted row slab (binary-search lookup against the sorted base
    vocabulary, bulk assignment of fresh coordinates, one scatter into the
    vector's byte buffer) instead of a dict lookup per term.

    Coordinates are assigned in a different order than a fresh
    :class:`MonomialIndexer` would choose, but linear (in)dependence and the
    unique combination over an independent prefix are basis-independent, so
    every consumer of the vectors computes identical results (the contract
    :class:`repro.core.optimize._DependencyFinder` already relies on for its
    cross-round cache).
    """

    __slots__ = ("_base", "_base_ids", "_pending", "_wide", "_next")

    def __init__(self) -> None:
        self._base = None  # sorted uint64 vocabulary rows
        self._base_ids = None  # coordinate of each base row, aligned
        self._pending: Dict[int, int] = {}  # packable rows awaiting a merge
        self._wide: Dict[int, int] = {}  # rows that do not fit 64 bits
        self._next = 0

    # ------------------------------------------------------------------
    def _flush_pending(self) -> None:
        """Merge scalar-assigned packable rows into the sorted base."""
        if not self._pending:
            return
        rows = np.fromiter(self._pending.keys(), dtype=np.uint64, count=len(self._pending))
        ids = np.fromiter(self._pending.values(), dtype=np.int64, count=len(self._pending))
        self._pending.clear()
        self._merge(rows, ids)

    def _merge(self, rows, ids) -> None:
        if self._base is None or not len(self._base):
            order = np.argsort(rows, kind="stable")
            self._base, self._base_ids = rows[order], ids[order]
            return
        merged = np.concatenate((self._base, rows))
        merged_ids = np.concatenate((self._base_ids, ids))
        order = np.argsort(merged, kind="stable")
        self._base, self._base_ids = merged[order], merged_ids[order]

    def _scalar_id(self, monomial: int) -> int:
        if monomial > sortkernel.ROW_MASK:
            index = self._wide.get(monomial)
            if index is None:
                self._wide[monomial] = index = self._next
                self._next += 1
            return index
        index = self._pending.get(monomial)
        if index is not None:
            return index
        if self._base is not None and len(self._base):
            position = int(np.searchsorted(self._base, np.uint64(monomial)))
            if position < len(self._base) and int(self._base[position]) == monomial:
                return int(self._base_ids[position])
        self._pending[monomial] = index = self._next
        self._next += 1
        return index

    @staticmethod
    def _vector_from_ids(ids) -> int:
        if not len(ids):
            return 0
        buffer = np.zeros((int(ids.max()) >> 3) + 1, dtype=np.uint8)
        bits = np.left_shift(
            np.uint8(1), (ids & 7).astype(np.uint8), dtype=np.uint8
        )
        np.bitwise_or.at(buffer, ids >> 3, bits)
        return int.from_bytes(buffer.tobytes(), "little")

    # ------------------------------------------------------------------
    #: Term count below which the dict path beats the vectorised one (the
    #: numpy call overhead is fixed per expression, not per term).
    BULK_MIN_TERMS = 256

    def vector_of(self, expr: Anf) -> int:
        """Bitmask vector of ``expr`` over the (growing) monomial basis."""
        matrix = None
        if expr.num_terms >= self.BULK_MIN_TERMS:
            matrix = expr.term_matrix(build=True)
        if matrix is None or matrix.count == 0:
            # Scalar path: small or unpackable expressions.
            indices = [self._scalar_id(monomial) for monomial in expr.term_list()]
            if not indices:
                return 0
            packed = bytearray((max(indices) >> 3) + 1)
            for index in indices:
                packed[index >> 3] |= 1 << (index & 7)
            return int.from_bytes(packed, "little")
        self._flush_pending()
        rows = matrix.words
        ids = np.empty(len(rows), dtype=np.int64)
        if self._base is None or not len(self._base):
            found = np.zeros(len(rows), dtype=bool)
        else:
            positions = np.searchsorted(self._base, rows)
            positions[positions == len(self._base)] = 0
            found = self._base[positions] == rows
            ids[found] = self._base_ids[positions[found]]
        fresh = rows[~found]
        if len(fresh):
            fresh_ids = self._next + np.arange(len(fresh), dtype=np.int64)
            self._next += len(fresh)
            ids[~found] = fresh_ids
            self._merge(fresh, fresh_ids)
        return self._vector_from_ids(ids)

    @property
    def num_monomials(self) -> int:
        return self._next


def expressions_to_vectors(exprs: Sequence[Anf]) -> list[int]:
    """Encode expressions as GF(2) vectors over their joint monomial space."""
    indexer = MonomialIndexer()
    return [indexer.vector_of(expr) for expr in exprs]


def find_expression_dependency(exprs: Sequence[Anf]) -> tuple[int, list[int]] | None:
    """Find one linear dependency among expressions.

    Returns ``(index, others)`` meaning ``exprs[index]`` equals the XOR of
    ``exprs[j]`` for ``j`` in ``others`` (all ``j < index``), or ``None`` when
    the expressions are linearly independent.  A zero expression is reported
    as depending on the empty list.
    """
    vectors = expressions_to_vectors(exprs)
    dependency = find_linear_dependency(vectors)
    if dependency is None:
        return None
    index, combination = dependency
    others = [j for j in range(index) if combination >> j & 1]
    return index, others


def expression_in_span(target: Anf, exprs: Sequence[Anf]) -> list[int] | None:
    """Express ``target`` as an XOR of some of ``exprs``.

    Returns the list of participating indices, or ``None`` when ``target`` is
    not in the GF(2) span of ``exprs``.
    """
    indexer = MonomialIndexer()
    span = XorSpan()
    for expr in exprs:
        span.add(indexer.vector_of(expr))
    combination = span.combination_for(indexer.vector_of(target))
    if combination is None:
        return None
    # ``combination`` refers to insertion order, which matches ``exprs`` order,
    # but it may use reduced basis bookkeeping; recover participating indices.
    return [j for j in range(len(exprs)) if combination >> j & 1]


def expressions_rank(exprs: Sequence[Anf]) -> int:
    """Rank of the expression set viewed as GF(2) vectors."""
    indexer = MonomialIndexer()
    span = XorSpan()
    for expr in exprs:
        span.add(indexer.vector_of(expr))
    return span.dimension
