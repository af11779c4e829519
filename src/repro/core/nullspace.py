"""Null-spaces of Boolean expressions, represented as principal ideals.

Section 4 of the paper defines ``N(P) = {X : P·X = 0}`` and uses two facts:

* ``N(P) ⊕ N(Q)`` is closed under the ring operations, and
* ``N(P) · N(Q) ⊆ N(P ⊕ Q)``.

In a Boolean ring every finitely generated ideal is principal:
``ideal(g1, …, gt) = ideal(g1 ∨ … ∨ gt)``.  We therefore represent each
(known subset of a) null-space by a single generator ``G``; membership of
``D`` is then the exact test ``D·G == D``, and the decomposition
``D = u ⊕ v`` with ``u ∈ ideal(G_a)``, ``v ∈ ideal(G_b)`` needed by the
pair-merging step is ``u = D·G_a``, ``v = D ⊕ u``.

All generators are *conservative*: they describe elements known to annihilate
the expression (coming from product identities discovered in earlier
iterations), never the full null-space.  This mirrors the paper's
"conservatively assume the two identical" treatment of ``rC(N(P)·N(Q))``.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..anf.bitset import kernel_for_support
from ..anf.context import Context
from ..anf.expression import Anf

#: Below this symbolic product size the term-by-term test is cheaper than
#: packing truth bitsets; above it the word-parallel kernel wins.
_BITSET_PRODUCT_THRESHOLD = 16


def ideal_contains(generator: Anf, element: Anf) -> bool:
    """Exact membership test ``element ∈ ideal(generator)``.

    In a Boolean ring ``D`` is a multiple of ``G`` iff ``D·G = D``.  When the
    joint support is narrow the test runs word-parallel on packed truth
    bitsets (one AND over all assignments at once) instead of forming the
    symbolic product.
    """
    if element.is_zero:
        return True
    if generator.is_zero:
        return False
    if len(element.terms) * len(generator.terms) >= _BITSET_PRODUCT_THRESHOLD:
        kernel = kernel_for_support(
            generator.ctx, generator.support_mask | element.support_mask
        )
        if kernel is not None:
            return kernel.divides(generator, element)
    return (element & generator) == element


def ideal_product_generator(left: Anf, right: Anf) -> Anf:
    """Generator of the product ideal ``N(P)·N(Q)`` (conservative for ``N(P⊕Q)``).

    The equal-part merge combines the same generators over and over across
    its fixpoint rounds, so the product goes through the context memo.
    """
    return left.cached_and(right)


def split_over_ideals(element: Anf, gen_left: Anf, gen_right: Anf) -> tuple[Anf, Anf] | None:
    """Split ``element = u ⊕ v`` with ``u ∈ ideal(gen_left)``, ``v ∈ ideal(gen_right)``.

    Returns ``None`` when ``element`` is not in the sum of the two ideals.
    This is the membership check that licenses the paper's aggressive pair
    merge ``(α,γ1),(β,γ2) → (α⊕β, γ1⊕u)``.

    When every monomial of ``element`` individually belongs to one of the two
    ideals, the split assigns monomials term-wise (this keeps the witness —
    and therefore the merged pair's second element — as small as possible,
    matching the worked example in the paper).  Otherwise the principal-ideal
    split ``u = element·gen_left`` is used.
    """
    combined = gen_left | gen_right
    if not ideal_contains(combined, element):
        return None
    ctx = element.ctx
    left_terms: list[int] = []
    termwise_ok = True
    for term in element.terms:
        monomial = Anf._raw(ctx, frozenset({term}))
        if ideal_contains(gen_left, monomial):
            left_terms.append(term)
        elif ideal_contains(gen_right, monomial):
            continue
        else:
            termwise_ok = False
            break
    if termwise_ok:
        # The terms come from one canonical expression, so they are distinct.
        u = Anf._raw(ctx, frozenset(left_terms))
    else:
        u = element & gen_left
    v = element ^ u
    return u, v


class NullSpaceTable:
    """Known null-space generators for the variables of the current level.

    Product identities of the form ``x·y·… = 0`` (found in previous
    iterations) seed the table: every variable appearing in such a monomial
    gains the remaining product as a generator element.
    """

    def __init__(self, ctx: Context) -> None:
        self._ctx = ctx
        self._generators: Dict[str, Anf] = {}
        self._monomial_cache: Dict[int, Anf] = {}

    @classmethod
    def from_identities(cls, ctx: Context, identities: Iterable[Anf]) -> "NullSpaceTable":
        """Build the table from zero-identities (only single-monomial ones matter)."""
        table = cls(ctx)
        for identity in identities:
            ctx.require_same(identity.ctx)
            if identity.num_terms != 1:
                continue
            (monomial,) = identity.terms
            if monomial == 0:
                continue
            names = ctx.names_of(monomial)
            if len(names) < 2:
                # ``x = 0`` means the variable itself is constant zero; it still
                # annihilates everything, so give every variable generator 1?
                # This situation does not arise from findIdentities (constant
                # basis elements are filtered out), so simply skip it.
                continue
            for name in names:
                rest_mask = monomial & ~(1 << ctx.index(name))
                table.add_generator(name, Anf._raw(ctx, frozenset({rest_mask})))
        return table

    def add_generator(self, name: str, element: Anf) -> None:
        """Record that ``element`` annihilates the variable ``name``."""
        current = self._generators.get(name)
        if current is None:
            self._generators[name] = element
        else:
            self._generators[name] = current | element
        self._monomial_cache.clear()

    def generator_for_variable(self, name: str) -> Anf:
        """Known null-space generator of a single variable (0 when unknown)."""
        return self._generators.get(name, Anf.zero(self._ctx))

    def generator_for_monomial(self, mask: int) -> Anf:
        """Conservative generator for a product of variables.

        ``N(v)`` is contained in ``N(v·w)`` for any ``w``, so the union of the
        factors' generators is a sound (conservative) generator for the
        product.  ``initial_pairs`` asks for the same group monomials every
        iteration, so the unions are cached per mask.
        """
        cached = self._monomial_cache.get(mask)
        if cached is not None:
            return cached
        result = Anf.zero(self._ctx)
        for name in self._ctx.names_of(mask):
            result = result | self.generator_for_variable(name)
        self._monomial_cache[mask] = result
        return result
