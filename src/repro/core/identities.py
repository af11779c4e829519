"""``findIdentities`` / ``reduceBasisUsingIdentities`` (paper section 5.5).

Given the basis elements (their definitions over the current level's
variables) the procedure searches bounded-depth expression trees over the
prospective new variables that are identically zero.  Two families are used,
exactly as in the paper:

* *definitional* identities ``s_i ⊕ f(others) = 0`` — these shrink the basis
  (the block for ``s_i`` is never built; ``f`` is used instead), e.g. the
  hidden 4-bit counter in the majority function where ``s3 = s1·s2``;
* *product* identities ``s_i·s_j·… = 0`` — these seed the null-space table of
  the next iteration, enabling the Boolean-division style pair merges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Sequence

from ..anf.bitset import kernel_for_exprs
from ..anf.context import Context
from ..anf.expression import Anf


@dataclass(frozen=True)
class Identity:
    """An expression over (prospective) basis variables that is identically zero."""

    expr: Anf          # over the new basis variable names
    kind: str          # "product" | "definition" | "xor"
    description: str


@dataclass
class IdentityAnalysis:
    """Identities found for a basis, and the basis reduction they allow."""

    identities: List[Identity]
    replacements: Dict[str, Anf]  # removed variable name -> expression over kept names
    kept: List[str]               # basis variable names that remain


def find_identities(
    names: Sequence[str],
    definitions: Sequence[Anf],
    ctx: Context,
    max_products: int = 3,
) -> List[Identity]:
    """Enumerate small identities among the basis definitions.

    ``names`` are the prospective variable names of the basis elements and
    ``definitions`` their expressions over the current level's variables.
    """
    if len(names) != len(definitions):
        raise ValueError("names and definitions must have the same length")
    identities: List[Identity] = []
    n = len(names)

    def var(i: int) -> Anf:
        return Anf.var(ctx, names[i])

    # Semantic queries go through the word-parallel truth-bitset kernel when
    # the joint support is narrow enough (it always is for the paper's k = 4
    # groups); every test below is an exact replacement for the symbolic one.
    kernel = kernel_for_exprs(definitions, ctx)
    truths = [kernel.truth(expr) for expr in definitions] if kernel else None
    supports = [expr.support_mask for expr in definitions]
    nonzero = [not expr.is_zero for expr in definitions]

    def pair_product_is_zero(i: int, j: int) -> bool:
        if supports[i] & supports[j] == 0:
            # Nonzero factors over disjoint supports multiply to a nonzero
            # product (the term-pair map is injective), so only a zero factor
            # can annihilate the pair.
            return not (nonzero[i] and nonzero[j])
        if truths is not None:
            return truths[i] & truths[j] == 0
        return (definitions[i] & definitions[j]).is_zero

    # --- product identities: s_i · s_j (· s_k) = 0 ------------------------
    zero_pairs: set[tuple[int, int]] = set()
    for i, j in combinations(range(n), 2):
        if not pair_product_is_zero(i, j):
            continue
        zero_pairs.add((i, j))
        identities.append(
            Identity(var(i) & var(j), "product", f"{names[i]}*{names[j]} = 0")
        )
    if max_products >= 3:
        for i, j, k in combinations(range(n), 3):
            if (i, j) in zero_pairs or (i, k) in zero_pairs or (j, k) in zero_pairs:
                continue
            if (
                nonzero[i] and nonzero[j] and nonzero[k]
                and supports[i] & supports[j] == 0
                and (supports[i] | supports[j]) & supports[k] == 0
            ):
                continue  # pairwise-disjoint nonzero factors: product nonzero
            if truths is not None:
                is_zero = truths[i] & truths[j] & truths[k] == 0
            else:
                is_zero = (definitions[i] & definitions[j] & definitions[k]).is_zero
            if is_zero:
                identities.append(
                    Identity(
                        var(i) & var(j) & var(k),
                        "product",
                        f"{names[i]}*{names[j]}*{names[k]} = 0",
                    )
                )

    # --- XOR identities: s_i ⊕ s_j ⊕ s_k = 0 ------------------------------
    for i, j in combinations(range(n), 2):
        if definitions[i] == definitions[j]:
            identities.append(
                Identity(var(i) ^ var(j), "definition", f"{names[i]} = {names[j]}")
            )
    lengths = [expr.num_terms for expr in definitions]
    for i, j, k in combinations(range(n), 3):
        # A zero XOR needs every monomial to cancel, so the term counts must
        # have an even sum — a cheap filter before any set work.
        if (lengths[i] + lengths[j] + lengths[k]) & 1:
            continue
        if truths is not None:
            is_zero = truths[i] ^ truths[j] ^ truths[k] == 0
        else:
            is_zero = (definitions[i] ^ definitions[j] ^ definitions[k]).is_zero
        if is_zero:
            identities.append(
                Identity(
                    var(i) ^ var(j) ^ var(k),
                    "definition",
                    f"{names[i]} = {names[j]} ^ {names[k]}",
                )
            )

    # --- definitional identities: s_i = s_j · s_k --------------------------
    # The product s_j·s_k is hoisted out of the s_i scan (the seed recomputed
    # it once per candidate i); matches are re-sorted to the seed's (i, j, k)
    # emission order so downstream greedy reduction sees the same stream.
    matches: List[tuple[int, int, int]] = []
    if truths is not None:
        index_of_truth: Dict[int, List[int]] = {}
        for i, value in enumerate(truths):
            index_of_truth.setdefault(value, []).append(i)
        for j, k in combinations(range(n), 2):
            for i in index_of_truth.get(truths[j] & truths[k], ()):
                if i not in (j, k):
                    matches.append((i, j, k))
    else:
        index_of_terms: Dict[frozenset, List[int]] = {}
        for i, expr in enumerate(definitions):
            index_of_terms.setdefault(expr.terms, []).append(i)
        for j, k in combinations(range(n), 2):
            product = definitions[j] & definitions[k]
            for i in index_of_terms.get(product.terms, ()):
                if i not in (j, k):
                    matches.append((i, j, k))
    matches.sort()
    for i, j, k in matches:
        identities.append(
            Identity(
                var(i) ^ (var(j) & var(k)),
                "definition",
                f"{names[i]} = {names[j]}*{names[k]}",
            )
        )
    return identities


def reduce_basis_using_identities(
    names: Sequence[str],
    definitions: Sequence[Anf],
    identities: Sequence[Identity],
    ctx: Context,
) -> IdentityAnalysis:
    """Drop basis elements that definitional identities express via the others.

    Greedy: an element is removed when an identity rewrites it purely in terms
    of elements that are being kept.  Product identities are carried through
    (rewritten over the kept names when possible) so the next iteration can
    use them for null-space reasoning.
    """
    name_list = list(names)
    replacements: Dict[str, Anf] = {}

    for identity in identities:
        if identity.kind != "definition":
            continue
        # Try to solve the identity for one variable that appears linearly
        # (as a lone literal monomial) and is not yet removed.
        expr = identity.expr
        for name in name_list:
            if name in replacements:
                continue
            # Never remove a variable that an earlier replacement refers to,
            # otherwise replacements would chain onto removed blocks.
            if any(replacement.depends_on(name) for replacement in replacements.values()):
                continue
            bit = 1 << ctx.add_var(name)
            if frozenset({bit}) <= expr.terms and not any(
                term != bit and term & bit for term in expr.terms
            ):
                rest = expr ^ Anf.var(ctx, name)
                # The replacement may only use kept variables.
                rest_support = set(rest.support)
                if rest_support & set(replacements):
                    continue
                if name in rest_support:
                    continue
                replacements[name] = rest
                break

    kept = [name for name in name_list if name not in replacements]

    # Rewrite the surviving identities over kept names only.
    rewritten: List[Identity] = []
    substitution = dict(replacements)
    for identity in identities:
        expr = identity.expr.substitute(substitution) if substitution else identity.expr
        if expr.is_zero:
            continue
        rewritten.append(Identity(expr, identity.kind, identity.description))
    return IdentityAnalysis(identities=rewritten, replacements=replacements, kept=kept)
