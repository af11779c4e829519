"""``findGroup``: choose the next group of k variables (paper section 5.1).

While primary input bits are still visible in the expressions, the group is
formed from the ``k/r`` least significant *available* bits of each of the
``r`` input integers.  Once the primary inputs are exhausted the groups are
chosen among the derived (block) variables: exhaustively for small supports
— scored by the size of the rewritten expression, as the paper prescribes —
and by a co-occurrence heuristic when exhaustive search would be too costly.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Callable, Dict, List, Mapping, Sequence

from ..anf.context import Context
from ..anf.expression import Anf
from .basis import combine_with_tags

MAX_EXHAUSTIVE_CANDIDATES = 300


def support_of_outputs(outputs: Mapping[str, Anf], ctx: Context) -> List[str]:
    """Union of the supports of all output expressions (context order)."""
    mask = 0
    for expr in outputs.values():
        mask |= expr.support_mask
    return list(ctx.names_of(mask))


def group_from_primary_inputs(
    available: Sequence[str],
    input_words: Sequence[Sequence[str]],
    k: int,
) -> List[str]:
    """The ``k/r`` least significant available bits of each input word."""
    available_set = set(available)
    words_with_bits = [
        [bit for bit in word if bit in available_set]
        for word in input_words
    ]
    words_with_bits = [word for word in words_with_bits if word]
    if not words_with_bits:
        return []
    per_word = max(1, k // len(words_with_bits))
    group: List[str] = []
    for word in words_with_bits:
        for bit in word[:per_word]:
            if len(group) >= k:
                break
            group.append(bit)
        if len(group) >= k:
            break
    return group


def score_group(
    outputs: Mapping[str, Anf],
    group: Sequence[str],
    ctx: Context,
    identities: Sequence[Anf] = (),
) -> int:
    """Estimated size (in literals) of the rewritten expressions for a group.

    Each basis element is replaced by a single new literal, so the estimate is
    ``#pairs + Σ |second_i| + |remainder|`` after the cheap equal-part merge.
    ``identities`` is accepted for call-site compatibility but cannot change
    the estimate: null-space generators never steer the equal-part merge.
    """
    combined, _ = combine_with_tags(outputs, ctx)
    return _score_combined(combined.term_list(), ctx.mask_of(group))


def _score_combined(terms: Sequence[int], group_mask: int) -> int:
    """Score one candidate group against a pre-built tagged combination.

    This replays ``initial_pairs`` + ``merge_equal_parts`` on raw term sets
    — no Anf/Pair/null-space objects, since none of them influence the score:
    null generators never steer the equal-part merge, and the merge fixpoint
    is order-independent.  The combined expression only depends on the
    outputs, not on the candidate group, so exhaustive search tokenises it
    once and calls this for every subset (the seed rebuilt everything per
    candidate, which dominated the comparator benchmarks).
    """
    # Bucket each monomial by its group part.  Terms are distinct and the
    # (group, rest) split is injective, so no cancellation is possible here.
    buckets: defaultdict[int, list[int]] = defaultdict(list)
    remainder_literals = 0
    for term in terms:
        group_part = term & group_mask
        if group_part == 0:
            remainder_literals += term.bit_count()
        else:
            buckets[group_part].append(term ^ group_part)
    # merge_equal_parts on (first, second) frozenset pairs: XOR-merge equal
    # seconds, drop empty firsts, XOR-merge equal firsts, drop empty seconds.
    pairs: list[tuple[frozenset, frozenset]] = [
        (frozenset((group_part,)), frozenset(rest)) for group_part, rest in buckets.items()
    ]
    changed = True
    while changed:
        changed = False
        by_second: dict[frozenset, frozenset] = {}
        for first, second in pairs:
            existing = by_second.get(second)
            if existing is None:
                by_second[second] = first
            else:
                by_second[second] = existing ^ first
                changed = True
        merged = [(first, second) for second, first in by_second.items() if first]
        by_first: dict[frozenset, frozenset] = {}
        for first, second in merged:
            existing = by_first.get(first)
            if existing is None:
                by_first[first] = second
            else:
                by_first[first] = existing ^ second
                changed = True
        pairs = [(first, second) for first, second in by_first.items() if second]
    total = len(pairs) + remainder_literals
    for _, second in pairs:
        for term in second:
            total += term.bit_count()
    return total


def _cooccur_counts(
    outputs: Mapping[str, Anf], candidates: Sequence[str], ctx: Context
) -> tuple[Dict[str, int], Dict[tuple[str, str], int]]:
    """Occurrence and pairwise co-occurrence counts of ``candidates``.

    ``occurrence`` is seeded in candidate order, which is the order ``max``
    breaks its ties in.  Terms are walked in sorted order so the
    co-occurrence tie-breaks are canonical regardless of storage.
    """
    candidate_mask = 0
    name_of_bit: Dict[int, str] = {}
    for name in candidates:
        bit = 1 << ctx.index(name)
        candidate_mask |= bit
        name_of_bit[bit] = name
    occurrence: Dict[str, int] = {name: 0 for name in candidates}
    cooccur: Dict[tuple[str, str], int] = {}
    for expr in outputs.values():
        for term in sorted(expr.term_list()):
            present_mask = term & candidate_mask
            if not present_mask:
                continue
            # Iterating set bits walks ascending variable indices, which is
            # the candidates' own order (they come from ``names_of``).
            present = []
            while present_mask:
                bit = present_mask & -present_mask
                present.append(name_of_bit[bit])
                present_mask ^= bit
            for name in present:
                occurrence[name] += 1
            for left, right in combinations(present, 2):
                cooccur[(left, right)] = cooccur.get((left, right), 0) + 1
    return occurrence, cooccur


def _cooccurrence_group(outputs: Mapping[str, Anf], candidates: Sequence[str], ctx: Context, k: int) -> List[str]:
    """Greedy group construction by monomial co-occurrence."""
    occurrence, cooccur = _cooccur_counts(outputs, candidates, ctx)
    if not candidates:
        return []
    # Seed with the most co-occurring pair (or the most frequent variable).
    if cooccur:
        seed = max(cooccur, key=cooccur.get)
        group = [seed[0], seed[1]]
    else:
        group = [max(occurrence, key=occurrence.get)]
    while len(group) < min(k, len(candidates)):
        best_name = None
        best_score = -1
        for name in candidates:
            if name in group:
                continue
            score = sum(
                cooccur.get((min(name, other), max(name, other)), 0)
                + cooccur.get((max(name, other), min(name, other)), 0)
                for other in group
            ) + occurrence[name]
            if score > best_score:
                best_score = score
                best_name = name
        if best_name is None:
            break
        group.append(best_name)
    return group


def find_group(
    outputs: Mapping[str, Anf],
    k: int,
    ctx: Context,
    primary_inputs: Sequence[str],
    input_words: Sequence[Sequence[str]],
    identities: Sequence[Anf] = (),
    tagged_combination: Callable[[], tuple] | None = None,
) -> List[str]:
    """Select the next group of (at most) ``k`` variables.

    ``tagged_combination`` optionally supplies a zero-argument callable
    returning ``(combined, tag_of_port)`` for ``outputs`` (the engine's
    per-iteration cache); it is only invoked when the exhaustive scoring
    branch actually needs the combined expression.
    """
    support = support_of_outputs(outputs, ctx)
    if not support:
        return []
    primary_available = [name for name in support if name in set(primary_inputs)]
    if primary_available:
        group = group_from_primary_inputs(primary_available, input_words, k)
        if group:
            return group
    # Derived-variable stage: exhaustive scoring when affordable.
    candidates = support
    size = min(k, len(candidates))
    from math import comb

    if comb(len(candidates), size) <= MAX_EXHAUSTIVE_CANDIDATES:
        # One shared term-matrix view of the combined expression scores every
        # candidate subset; ``combine_with_tags`` builds it word-parallel (tag
        # OR + concatenation) instead of symbolic products per call.  ``min``
        # keeps the first minimum in enumeration order.
        if tagged_combination is not None:
            combined, _ = tagged_combination()
        else:
            combined, _ = combine_with_tags(outputs, ctx)
        combined_terms = combined.term_list()
        best_group = min(
            combinations(candidates, size),
            key=lambda subset: _score_combined(combined_terms, ctx.mask_of(subset)),
        )
        return list(best_group) or candidates[:size]
    return _cooccurrence_group(outputs, candidates, ctx, size)
