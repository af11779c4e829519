"""``findBasis``: extract the leader expressions of a variable group.

Multi-output handling follows the paper exactly: the expression list
``P1 … Pm`` is combined into ``X = K_{P1}·P1 ⊕ … ⊕ K_{Pm}·Pm`` using fresh tag
variables, the basis of ``X`` with respect to the group is computed, and the
individual outputs are later recovered by extracting each tag's component
from the pair seconds (see :mod:`repro.core.rewrite`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from ..anf import sortkernel
from ..anf.context import Context
from ..anf.expression import Anf
from ..anf.termmatrix import TERM_LIMIT, TermMatrix, concat_sorted
from .nullspace import NullSpaceTable
from .pairs import (
    PairList,
    initial_pairs,
    merge_equal_parts,
    merge_with_nullspaces,
    pairs_from_buckets,
)

TAG_PREFIX = "_K_"


@dataclass
class BasisExtraction:
    """The result of ``findBasis`` on a list of expressions."""

    group: List[str]
    group_mask: int
    ports: List[str]
    tag_of_port: Dict[str, str]
    pair_list: PairList
    nullspaces: NullSpaceTable

    @property
    def basis(self) -> List[Anf]:
        """The candidate basis: the first element of every pair."""
        return self.pair_list.firsts()


def tag_name_for(port: str) -> str:
    """The tag variable name used for an output port."""
    return f"{TAG_PREFIX}{port}"


def _tag_items(
    outputs: Mapping[str, Anf], ctx: Context
) -> tuple[list[tuple[int, Anf]], Dict[str, str]]:
    """Allocate (or re-find) one fresh tag variable per output port.

    ``ctx.add_var`` is idempotent, so calling this again on the same outputs
    returns the same bits — the fused and two-step paths below evolve the
    context identically.
    """
    tag_of_port: Dict[str, str] = {}
    items: list[tuple[int, Anf]] = []
    for port, expr in outputs.items():
        ctx.require_same(expr.ctx)
        tag = tag_name_for(port)
        tag_of_port[port] = tag
        items.append((1 << ctx.add_var(tag), expr))
    return items, tag_of_port


def _tag_slabs(
    items: Sequence[tuple[int, Anf]], group_mask: int = 0
) -> list[tuple[int, TermMatrix]] | None:
    """Each port's matrix with its tag bit, when the tag products pack.

    Port expressions never mention tag variables (the rewrite strips them),
    so each tag product ORs one fresh bit into every row of its port, and
    the per-port results are pairwise disjoint term sets.  ``None`` when
    that does not hold word-parallel: a tag past the 64-bit row, a port
    that does not pack, a port mentioning a tag, or a tag inside
    ``group_mask``.
    """
    tags = 0
    for bit, _ in items:
        tags |= bit
    if tags >= TERM_LIMIT or tags & group_mask:
        return None
    slabs: list[tuple[int, TermMatrix]] = []
    for bit, expr in items:
        matrix = expr.term_matrix(build=True)
        if matrix is None or expr.support_mask & tags:
            return None
        slabs.append((bit, matrix))
    return slabs


def combine_with_tags(outputs: Mapping[str, Anf], ctx: Context) -> tuple[Anf, Dict[str, str]]:
    """Build ``X = XOR_port K_port · P_port`` with one fresh tag per port.

    When the tag products pack (:func:`_tag_slabs`), each ORs its tag bit
    into every row of its port's matrix and, the results being pairwise
    disjoint, their XOR is a concatenation.  Otherwise the products are
    XORed one by one.
    """
    items, tag_of_port = _tag_items(outputs, ctx)
    slabs = _tag_slabs(items)
    if slabs is not None:
        tagged = [matrix.or_all(bit) for bit, matrix in slabs]
        return Anf._from_matrix(ctx, concat_sorted(tagged)), tag_of_port
    combined = Anf.zero(ctx)
    for port, expr in outputs.items():
        # The tag products recur (findGroup and findBasis both combine the
        # same outputs each iteration); the context memo makes the repeat free.
        combined = combined ^ Anf.var(ctx, tag_of_port[port]).cached_and(expr)
    return combined, tag_of_port


def split_with_tags(
    outputs: Mapping[str, Anf], group_mask: int, ctx: Context
) -> tuple[Dict[int, Anf], Anf, Dict[str, str]]:
    """``split_by_group(combine_with_tags(outputs))`` without the middle man.

    When the tag products pack and no tag lies in the group, the tagged
    combination — the largest slab the old pipeline ever allocated — never
    materialises: the fused split→build kernel buckets each port's matrix,
    strips the group bits and ORs the tag in one pass, and the buckets come
    out as the next iteration's sorted matrices.  Otherwise the outputs are
    combined, then split, which is definitionally the same result.
    """
    items, tag_of_port = _tag_items(outputs, ctx)
    slabs = _tag_slabs(items, group_mask)
    if slabs is None:
        combined, _ = combine_with_tags(outputs, ctx)
        buckets, remainder = combined.split_by_group(group_mask)
        return buckets, remainder, tag_of_port
    runs, rest = sortkernel.split_build_by_group(
        [(bit, matrix.words) for bit, matrix in slabs], group_mask
    )
    buckets = {
        group_part: Anf._from_matrix(ctx, TermMatrix(rows)) for group_part, rows in runs
    }
    return buckets, Anf._from_matrix(ctx, TermMatrix(rest)), tag_of_port


def extract_basis(
    outputs: Mapping[str, Anf],
    group: Sequence[str],
    identities: Sequence[Anf],
    ctx: Context,
    use_nullspaces: bool = True,
    pre_split: tuple[Dict[int, Anf], Anf, Dict[str, str]] | None = None,
) -> BasisExtraction:
    """Run ``findBasis`` for the given group over a list of output expressions.

    ``pre_split`` optionally supplies a ``(buckets, remainder,
    tag_of_port)`` triple from :func:`split_with_tags` on the same outputs
    (the engine's per-iteration tagged split), letting the fused
    split→build kernel feed the pair list without the combination ever
    existing.
    """
    group = list(group)
    if not group:
        raise ValueError("findBasis needs a non-empty group")
    group_mask = ctx.mask_of(group)
    if pre_split is not None:
        buckets, remainder, tag_of_port = pre_split
        nullspaces = NullSpaceTable.from_identities(ctx, identities)
        pair_list = pairs_from_buckets(ctx, buckets, remainder, nullspaces)
        pair_list = merge_equal_parts(pair_list)
        if use_nullspaces:
            pair_list = merge_with_nullspaces(pair_list)
        return BasisExtraction(
            group=group,
            group_mask=group_mask,
            ports=list(outputs),
            tag_of_port=tag_of_port,
            pair_list=pair_list,
            nullspaces=nullspaces,
        )
    combined, tag_of_port = combine_with_tags(outputs, ctx)
    nullspaces = NullSpaceTable.from_identities(ctx, identities)
    pair_list = initial_pairs(combined, group_mask, nullspaces)
    pair_list = merge_equal_parts(pair_list)
    if use_nullspaces:
        pair_list = merge_with_nullspaces(pair_list)
    return BasisExtraction(
        group=group,
        group_mask=group_mask,
        ports=list(outputs),
        tag_of_port=tag_of_port,
        pair_list=pair_list,
        nullspaces=nullspaces,
    )
