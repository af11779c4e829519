"""``rewriteExpr``: rewrite the output list in terms of the new basis.

After the basis has been optimised, every pair's first element is replaced by
either a fresh block variable, an existing literal (when the basis element is
already a single variable), or an expression over other block variables (when
an identity eliminated the block).  The per-output expressions are recovered
from the tagged pair list by extracting each output's tag component.

The per-term work here — splitting every pair second into tag components and
accumulating ``replacement · γ`` products per port — runs on packed term
matrices.  The common shape (every replacement a single variable) is fully
word-parallel: tag components are bit-strips of the term matrix, each
product ORs one marker bit into a component, and the accumulated XOR is a
concatenation because every product is uniquely marked by its replacement
variable (the components themselves never mention any replacement variable,
so the marked term sets are pairwise disjoint).  Term sets that do not pack
take a per-term loop with the same result.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..anf import sortkernel
from ..anf.context import Context
from ..anf.expression import Anf
from ..anf.termmatrix import TermMatrix, concat_sorted
from .basis import BasisExtraction


def scatter_by_tags(expr: Anf, tags_mask: int) -> Dict[int, Anf]:
    """Split ``expr`` into per-tag components in a single traversal.

    Returns ``{tag_bit: component}`` where ``component`` holds every
    monomial of ``expr`` containing that tag bit, with the bit stripped.
    Distinct terms stay distinct after stripping a shared bit, so no
    cancellation is possible and every component is non-empty.
    """
    ctx = expr.ctx
    matrix = expr.term_matrix(build=True)
    if matrix is None:
        rows_of: Dict[int, List[int]] = {}
        for term in expr.terms:
            tags = term & tags_mask
            while tags:
                bit = tags & -tags
                rows = rows_of.get(bit)
                if rows is None:
                    rows_of[bit] = rows = []
                rows.append(term & ~bit)
                tags ^= bit
        return {bit: Anf._raw(ctx, frozenset(rows)) for bit, rows in rows_of.items()}
    if tags_mask and tags_mask & (tags_mask - 1) == 0:
        # One tag (the overwhelmingly common single-output case): either
        # every monomial carries it (strip word-parallel) or none does.
        if matrix.contains_all(tags_mask):
            if matrix.count == 0:
                return {}
            return {tags_mask: Anf._from_matrix(ctx, matrix.strip_all(tags_mask))}
        if matrix.support_mask() & tags_mask == 0:
            return {}
    # Multi-tag path: one boolean-mask selection per tag bit actually
    # present in the support (a term may carry several tags, so the
    # components overlap and a single sort cannot slice them).
    result: Dict[int, Anf] = {}
    present = matrix.support_mask() & tags_mask
    while present:
        bit = present & -present
        present ^= bit
        rows = sortkernel.scatter_tag(matrix.words, bit)
        if len(rows):
            result[bit] = Anf._from_matrix(ctx, TermMatrix(rows))
    return result


def _disjoint_union(pieces: Sequence[Anf], ctx: Context) -> Anf:
    """XOR expressions whose term sets are pairwise disjoint."""
    matrices: List[TermMatrix] = []
    for piece in pieces:
        matrix = piece.term_matrix(build=True)
        if matrix is None:
            break
        matrices.append(matrix)
    else:
        return Anf._from_matrix(ctx, concat_sorted(matrices))
    total = Anf.zero(ctx)
    for piece in pieces:
        total = total ^ piece
    return total


def extract_tag_component(expr: Anf, tag_name: str, ctx: Context) -> Anf:
    """Monomials of ``expr`` containing the tag variable, with the tag removed."""
    if tag_name not in ctx:
        return Anf.zero(ctx)
    bit = 1 << ctx.index(tag_name)
    component = scatter_by_tags(expr, bit).get(bit)
    return component if component is not None else Anf.zero(ctx)


def rewrite_outputs(
    extraction: BasisExtraction,
    substitutions: Sequence[Anf],
    ctx: Context,
) -> Dict[str, Anf]:
    """Rewrite every output, substituting ``substitutions[i]`` for pair ``i``'s first.

    The invariant is exact: substituting each block variable by its definition
    in the result reproduces the original expression (verified by
    ``Decomposition.verify``).  Each pair's second element is decomposed into
    all of its per-port tag components in one traversal.
    """
    pairs = extraction.pair_list.pairs
    if len(substitutions) != len(pairs):
        raise ValueError("one substitution per pair is required")
    tag_bit_of_port: Dict[str, int] = {}
    tags_mask = 0
    for port in extraction.ports:
        tag = extraction.tag_of_port[port]
        if tag in ctx:
            bit = 1 << ctx.index(tag)
            tag_bit_of_port[port] = bit
            tags_mask |= bit

    remainder = extraction.pair_list.remainder
    remainder_parts = (
        scatter_by_tags(remainder, tags_mask) if remainder is not None else {}
    )
    pair_parts = [scatter_by_tags(pair.second, tags_mask) for pair in pairs]

    # The accumulated XOR per port degenerates to a disjoint union when every
    # replacement is a single variable that no component mentions: each
    # product's terms then all contain their own marker bit, the markers are
    # pairwise distinct, and the remainder component contains none of them.
    markers = 0
    disjoint = True
    for replacement, parts in zip(substitutions, pair_parts):
        if not parts:
            continue
        if not replacement.is_literal:
            disjoint = False
            break
        (marker,) = replacement.term_list()
        if marker & markers:
            disjoint = False
            break
        markers |= marker
    if disjoint and markers:
        for pair, parts in zip(pairs, pair_parts):
            if parts and pair.second.support_mask & markers:
                disjoint = False
                break
        if disjoint and remainder is not None and remainder.support_mask & markers:
            disjoint = False

    outputs: Dict[str, Anf] = {}
    for port, bit in tag_bit_of_port.items():
        if disjoint:
            pieces: List[Anf] = []
            component = remainder_parts.get(bit)
            if component is not None and not component.is_zero:
                pieces.append(component)
            for replacement, parts in zip(substitutions, pair_parts):
                component = parts.get(bit)
                if component is None or component.is_zero:
                    continue
                pieces.append(replacement.cached_and(component))
            outputs[port] = _disjoint_union(pieces, ctx)
        else:
            total = remainder_parts.get(bit) or Anf.zero(ctx)
            for replacement, parts in zip(substitutions, pair_parts):
                component = parts.get(bit)
                if component is None or component.is_zero:
                    continue
                total = total ^ replacement.cached_and(component)
            outputs[port] = total
    for port in extraction.ports:
        if port not in outputs:
            outputs[port] = Anf.zero(ctx)
    return outputs


def rewrite_identities(identities: Sequence[Anf], group: Sequence[str], ctx: Context) -> List[Anf]:
    """Carry forward the identities that do not mention the consumed group.

    Identities over variables that just left the expressions (the group) can
    no longer seed null-spaces of anything visible, so they are dropped;
    identities over surviving variables are kept unchanged.
    """
    group_mask = ctx.mask_of(group)
    kept = []
    for identity in identities:
        if identity.support_mask & group_mask:
            continue
        kept.append(identity)
    return kept
