"""Pair lists: the working representation of ``findBasis`` (paper section 5.2).

Every monomial of the expression under decomposition is split into its
group-variable part ``α`` and its remaining part ``γ``; the expression is the
XOR over pairs of ``α·γ`` (plus a remainder containing no group variable).
``findBasis`` repeatedly *merges* pairs — by equal parts, and, when null-space
information is available, by the Boolean-division style merge of section 4 —
until the set of first elements is the candidate basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

from ..anf.backend import PackedBackend, get_backend
from ..anf.expression import Anf
from .nullspace import NullSpaceTable, ideal_product_generator, split_over_ideals


@dataclass
class Pair:
    """One ``(first, second)`` pair with the known null-space of ``first``.

    ``first`` only uses group variables; ``second`` only non-group variables
    (and, in multi-output mode, the output tag variables).  ``null_generator``
    generates a known sub-ideal of ``N(first)``.
    """

    first: Anf
    second: Anf
    null_generator: Anf

    @property
    def literal_count(self) -> int:
        return self.first.literal_count + self.second.literal_count

    def contribution(self) -> Anf:
        """The product ``first & second`` this pair contributes to the expression."""
        return self.first & self.second


@dataclass
class PairList:
    """A list of pairs plus the group-free remainder of the expression."""

    pairs: List[Pair] = field(default_factory=list)
    remainder: Anf | None = None

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def literal_count(self) -> int:
        total = sum(pair.literal_count for pair in self.pairs)
        if self.remainder is not None:
            total += self.remainder.literal_count
        return total

    def firsts(self) -> list[Anf]:
        return [pair.first for pair in self.pairs]

    def seconds(self) -> list[Anf]:
        return [pair.second for pair in self.pairs]

    def reconstruct(self) -> Anf:
        """XOR of all pair contributions plus the remainder (for verification)."""
        if self.remainder is not None:
            total = self.remainder
        elif self.pairs:
            total = Anf.zero(self.pairs[0].first.ctx)
        else:
            raise ValueError("cannot reconstruct an empty pair list without a remainder")
        for pair in self.pairs:
            total = total ^ pair.contribution()
        return total


def initial_pairs(expr: Anf, group_mask: int, nullspaces: NullSpaceTable) -> PairList:
    """Split an expression into its initial pair list for a variable group.

    Monomials are bucketed by their group part, which already performs the
    first family of merges (pairs with identical first elements).
    """
    buckets, remainder = expr.split_by_group(group_mask)
    return pairs_from_buckets(expr.ctx, buckets, remainder, nullspaces)


def pairs_from_buckets(ctx, buckets, remainder: Anf, nullspaces: NullSpaceTable) -> PairList:
    """Build the initial pair list from an already-bucketed split.

    ``buckets`` maps each non-zero group part to its second element — exactly
    what ``split_by_group`` produces, and what the fused split→build kernel
    emits directly without materialising the combined expression first.
    """
    pairs = []
    for group_part in sorted(buckets, key=lambda mask: (mask.bit_count(), mask)):
        first = Anf._raw(ctx, frozenset({group_part}))
        second = buckets[group_part]
        pairs.append(Pair(first, second, nullspaces.generator_for_monomial(group_part)))
    return PairList(pairs, remainder)


#: Smallest second (in terms) for which the fingerprint probe of
#: ``merge_equal_parts`` beats hashing the canonical key directly.
PROBE_MIN_TERMS = 1 << 14


def _second_fingerprint(expr: Anf) -> tuple:
    """Cheap exact invariant of a pair second's term set (probe mode only).

    Equal term sets always fingerprint equal, so distinct fingerprints need
    no canonical-key comparison.  The probe samples three rows of the
    (built-on-demand, cached) sorted matrix — equal sets have identical
    matrices, so sampled rows are set invariants.  Probing is enabled
    uniformly per ``merge_equal_parts`` call, so one representation never
    splits equal sets across fingerprint shapes; unpackable sets (which can
    never equal a packable one) use the term count alone and degrade to the
    full-key path on collision.
    """
    matrix = expr.term_matrix(build=True)
    if matrix is not None:
        words = matrix.words
        if not len(words):
            return (0,)
        return (len(words), int(words[0]), int(words[len(words) // 2]), int(words[-1]))
    return (expr.num_terms,)


def merge_equal_parts(pair_list: PairList) -> PairList:
    """Merge pairs sharing a first or a second element until a fixed point.

    ``(α, γ), (β, γ) → (α ⊕ β, γ)`` and ``(α, β), (α, γ) → (α, β ⊕ γ)``
    (paper section 5.2, the identity-free merge).
    """
    pairs = list(pair_list.pairs)
    # The seconds carry the giant term sets; the backend supplies an O(n/8)
    # canonical key (packed matrix bytes) instead of per-term frozenset
    # hashing.  Keys are equal exactly when the term sets are, so the merge
    # decisions — and hence the results — are backend-independent.  Before
    # building (and hashing) a second's potentially megabytes-long
    # canonical bytes, an O(1) probe fingerprint — term count plus three
    # sampled rows of the sorted matrix — rules out non-equal sets: equal
    # sets always fingerprint equal, so the full key is only needed within
    # fingerprint collisions.
    backend = get_backend()
    second_key = backend.pair_key
    # Probing only pays when the seconds are big enough that building and
    # hashing their canonical bytes dominates; tiny pair lists keep the
    # direct-key path (same decisions either way).
    probe = isinstance(backend, PackedBackend) and any(
        pair.second.num_terms >= PROBE_MIN_TERMS for pair in pairs
    )
    changed = True
    while changed:
        changed = False
        # Merge pairs with equal second elements.
        fingerprint_count: dict[tuple, int] = {}
        fingerprints: list = []
        if probe:
            for pair in pairs:
                fingerprint = _second_fingerprint(pair.second)
                fingerprints.append(fingerprint)
                fingerprint_count[fingerprint] = fingerprint_count.get(fingerprint, 0) + 1
        else:
            fingerprints = [None] * len(pairs)
        by_second: dict = {}
        merged: list[Pair] = []
        for pair, fingerprint in zip(pairs, fingerprints):
            if fingerprint is None:
                key = second_key(pair.second)
            elif fingerprint_count[fingerprint] == 1:
                key = fingerprint
            else:
                key = (fingerprint, second_key(pair.second))
            existing = by_second.get(key)
            if existing is None:
                by_second[key] = pair
            else:
                combined = Pair(
                    existing.first ^ pair.first,
                    existing.second,
                    ideal_product_generator(existing.null_generator, pair.null_generator),
                )
                by_second[key] = combined
                changed = True
        merged = [pair for pair in by_second.values() if not pair.first.is_zero]
        # Merge pairs with equal first elements.
        by_first: dict[frozenset[int], Pair] = {}
        for pair in merged:
            key = pair.first.terms
            existing = by_first.get(key)
            if existing is None:
                by_first[key] = pair
            else:
                by_first[key] = Pair(
                    existing.first,
                    existing.second ^ pair.second,
                    existing.null_generator,
                )
                changed = True
        pairs = [pair for pair in by_first.values() if not pair.second.is_zero and not pair.first.is_zero]
    return PairList(pairs, pair_list.remainder)


def merge_with_nullspaces(pair_list: PairList) -> PairList:
    """Null-space driven merging (the Boolean-division style merge).

    Two pairs ``(α, γ1)`` and ``(β, γ2)`` merge into ``(α ⊕ β, γ1 ⊕ u)``
    whenever ``γ1 ⊕ γ2 ∈ N(α) ⊕ N(β)`` with witness ``u ∈ N(α)``; the merged
    pair's null-space generator is conservatively ``G_α · G_β``.
    """
    pairs = list(pair_list.pairs)
    changed = True
    while changed:
        changed = False
        merged_index: tuple[int, int] | None = None
        replacement: Pair | None = None
        for i in range(len(pairs)):
            gen_i = pairs[i].null_generator
            for j in range(i + 1, len(pairs)):
                gen_j = pairs[j].null_generator
                if gen_i.is_zero and gen_j.is_zero:
                    continue
                difference = pairs[i].second ^ pairs[j].second
                if difference.is_zero:
                    continue
                split = split_over_ideals(difference, gen_i, gen_j)
                if split is None:
                    continue
                u, _ = split
                new_first = pairs[i].first ^ pairs[j].first
                if new_first.is_zero:
                    continue
                replacement = Pair(
                    new_first,
                    pairs[i].second ^ u,
                    ideal_product_generator(gen_i, gen_j),
                )
                merged_index = (i, j)
                break
            if merged_index is not None:
                break
        if merged_index is not None and replacement is not None:
            i, j = merged_index
            pairs = [pairs[idx] for idx in range(len(pairs)) if idx not in (i, j)]
            pairs.append(replacement)
            changed = True
            # A null-space merge can enable further equal-part merges.
            pair_list = merge_equal_parts(PairList(pairs, pair_list.remainder))
            pairs = list(pair_list.pairs)
    return PairList(pairs, pair_list.remainder)
