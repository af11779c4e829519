"""Algebraic (weak) division over XOR-of-products expressions.

The paper contrasts its null-space based Boolean factorisation with classical
*algebraic* division (Brayton & McMullen).  Algebraic division treats the
expression as a polynomial: it never invents Boolean identities such as
``x·x = x`` across the divisor/quotient boundary, which is exactly why it
performs poorly on XOR-dominated arithmetic circuits.  We implement it over
the Reed-Muller form so that both the classical baseline and the paper's
algorithm operate on the same representation.
"""

from __future__ import annotations

from ..anf.expression import Anf


def common_cube(expr: Anf) -> int:
    """Largest cube (variable mask) dividing every monomial of ``expr``.

    Returns 0 for constants and for expressions containing the constant-1
    monomial (nothing divides the empty monomial).
    """
    if expr.is_zero:
        return 0
    cube = None
    for term in expr.terms:
        cube = term if cube is None else cube & term
        if cube == 0:
            return 0
    return cube or 0


def divide_by_cube(expr: Anf, cube_mask: int) -> tuple[Anf, Anf]:
    """Divide by a single cube: ``expr = cube·quotient ⊕ remainder``.

    The quotient collects the monomials containing the cube (with the cube's
    variables removed); the remainder collects the rest.
    """
    if cube_mask == 0:
        return expr, Anf.zero(expr.ctx)
    quotient_terms = []
    remainder_terms = []
    for term in expr.terms:
        if term & cube_mask == cube_mask:
            quotient_terms.append(term & ~cube_mask)
        else:
            remainder_terms.append(term)
    # Distinct monomials stay distinct when a shared cube is stripped, so
    # both term lists are already canonical.
    return (
        Anf._raw(expr.ctx, frozenset(quotient_terms)),
        Anf._raw(expr.ctx, frozenset(remainder_terms)),
    )


def make_cube_free(expr: Anf) -> tuple[int, Anf]:
    """Strip the largest common cube: returns ``(cube_mask, cube_free_expr)``."""
    cube = common_cube(expr)
    if cube == 0:
        return 0, expr
    quotient, _ = divide_by_cube(expr, cube)
    return cube, quotient


def is_cube_free(expr: Anf) -> bool:
    """True when no single literal divides every monomial."""
    return common_cube(expr) == 0


def weak_divide(expr: Anf, divisor: Anf) -> tuple[Anf, Anf]:
    """Weak (algebraic) division: ``expr = divisor·quotient ⊕ remainder``.

    The quotient is the intersection, over the divisor's monomials ``d``, of
    ``{m \\ d : m ∈ expr, d ⊆ m, (m \\ d) ∩ d = ∅}``.  The identity always
    holds exactly in the Boolean ring because the remainder is computed as
    ``expr ⊕ divisor·quotient``.
    """
    ctx = expr.ctx
    ctx.require_same(divisor.ctx)
    if divisor.is_zero:
        raise ZeroDivisionError("algebraic division by the zero expression")
    if divisor.is_one:
        return expr, Anf.zero(ctx)
    quotient_set: set[int] | None = None
    for d_term in divisor.terms:
        candidates = set()
        for term in expr.terms:
            if term & d_term == d_term:
                rest = term & ~d_term
                candidates.add(rest)
        if quotient_set is None:
            quotient_set = candidates
        else:
            quotient_set &= candidates
        if not quotient_set:
            return Anf.zero(ctx), expr
    quotient = Anf._raw(ctx, frozenset(quotient_set or ()))
    remainder = expr ^ (quotient & divisor)
    return quotient, remainder


def literal_frequencies(expr: Anf) -> dict[int, int]:
    """How many monomials each variable (by index) appears in."""
    counts: dict[int, int] = {}
    for term in expr.terms:
        remaining = term
        while remaining:
            low = remaining & -remaining
            index = low.bit_length() - 1
            counts[index] = counts.get(index, 0) + 1
            remaining ^= low
    return counts


def most_frequent_literal(expr: Anf) -> int | None:
    """Variable index appearing in the most monomials (ties: lowest index).

    Returns ``None`` when no variable appears in two or more monomials.
    """
    counts = literal_frequencies(expr)
    best_index = None
    best_count = 1
    for index in sorted(counts):
        if counts[index] > best_count:
            best_count = counts[index]
            best_index = index
    return best_index
