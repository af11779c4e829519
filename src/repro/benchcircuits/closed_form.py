"""Row generation for the specs built from their closed forms.

The comparator, LZD, counter and majority specs are fixed functions with
closed-form Reed-Muller expansions, so their builders write each output's
sorted ``uint64`` rows directly instead of emulating a circuit in the
Boolean ring.  Rows are generated over the builder's inputs in declaration
order (input ``i`` is bit ``i``) and then placed at the context's indices
(:func:`place_rows`); for a fresh context the placement is the identity.

``tests/reference_builders.py`` keeps the ring-emulating builders these
replaced, and ``tests/test_spec_builders.py`` pins every spec to them.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..anf import sortkernel
from ..anf.context import Context
from ..anf.expression import Anf
from ..anf.termmatrix import TERM_LIMIT


def input_indices(ctx: Context, names: Sequence[str]) -> List[int]:
    """The context indices of a builder's inputs, each of which must fit a row."""
    indices = [ctx.index(name) for name in names]
    if 1 << max(indices) >= TERM_LIMIT:
        raise ValueError(
            f"input {ctx.name(max(indices))!r} has context index {max(indices)}; "
            "spec builders need every input to fit a 64-bit row"
        )
    return indices


def place_rows(rows: np.ndarray, indices: Sequence[int]) -> np.ndarray:
    """Rows over inputs ``0..n-1`` moved to the context's ``indices``.

    Input ``i`` becomes bit ``indices[i]``, one shift per run of inputs
    whose indices are consecutive.  Ascending indices keep the rows sorted;
    any other placement (inputs declared out of order, or two inputs naming
    one variable) is a substitution of variables by variables, so the rows
    are re-sorted and the monomials that coincide cancel in pairs.
    """
    n = len(indices)
    if list(indices) == list(range(n)):
        return rows
    placed = np.zeros_like(rows)
    start = 0
    while start < n:
        end = start + 1
        while end < n and indices[end] == indices[end - 1] + 1:
            end += 1
        part = rows & np.uint64(((1 << (end - start)) - 1) << start)
        shift = indices[start] - start
        placed |= part << np.uint64(shift) if shift >= 0 else part >> np.uint64(-shift)
        start = end
    if all(indices[i] < indices[i + 1] for i in range(n - 1)):
        return placed
    return sortkernel.parity_merge([placed])


def rows_anf(ctx: Context, indices: Sequence[int], rows: np.ndarray) -> Anf:
    """The expression whose rows over the builder's inputs are ``rows``."""
    return Anf.from_rows(ctx, place_rows(rows, indices))


def symmetric_rows(width: int, tables: Sequence[Sequence[int]]) -> List[np.ndarray]:
    """Rows of symmetric functions of ``width`` inputs, one per value table.

    ``table[j]`` is the function's value when ``j`` inputs are one.  By
    Lucas' theorem the monomial of weight ``d`` has coefficient
    ``XOR of table[j]`` over every ``j`` that is a bitwise subset of ``d``,
    so the rows are the monomials ``0..2^width-1`` whose weight has a set
    coefficient.
    """
    monomials = np.arange(1 << width, dtype=np.uint64)
    weights = np.bitwise_count(monomials)
    result = []
    for table in tables:
        coefficients = np.array([
            sum(table[j] for j in range(d + 1) if j & d == j) & 1
            for d in range(width + 1)
        ], dtype=bool)
        result.append(monomials[coefficients[weights]])
    return result
