"""Property tests for the word-parallel bitset kernel and the hot-path
rewrites that ride on it.

Every fast path introduced for the performance work (truth-bitset semantics,
memoised products, the disjoint-support product shortcut, bucketed
``split_by_group``, the identity-search restructuring, the tag scatter in
``rewrite_outputs``, and the literal-count arithmetic of the size-reduction
optimiser) is checked here against a naive reference implementation on
seeded random expressions and on the seed benchmark circuits.  The fast
paths must be observationally identical, not approximately right.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.anf import Anf, Context, kernel_for_exprs, kernel_for_support, truth_table
from repro.benchcircuits import counter_spec, lzd_spec, majority_spec
from repro.core import (
    NullSpaceTable,
    extract_basis,
    find_identities,
    ideal_contains,
    improve_basis_by_size_reduction,
    progressive_decomposition,
    rewrite_outputs,
)
from repro.core.grouping import _cooccurrence_group, find_group, score_group
from repro.core.pairs import Pair, PairList, initial_pairs, merge_equal_parts
from repro.core.rewrite import extract_tag_component
from repro.gf2 import GF2Matrix
from repro.gf2.linear import MonomialIndexer


def random_anf(rng, ctx, num_vars, max_terms):
    terms = [rng.randrange(0, 1 << num_vars) for _ in range(rng.randrange(0, max_terms))]
    return Anf(ctx, terms)


def fresh_ctx(num_vars):
    return Context([f"x{i}" for i in range(num_vars)])


# ---------------------------------------------------------------------------
# The kernel itself
# ---------------------------------------------------------------------------
def test_truth_bitset_matches_pointwise_evaluation():
    rng = random.Random(1234)
    for _ in range(200):
        ctx = fresh_ctx(6)
        expr = random_anf(rng, ctx, 6, 12)
        kernel = kernel_for_support(ctx, expr.support_mask | rng.randrange(0, 64))
        bits = []
        mask = kernel.support_mask
        while mask:
            low = mask & -mask
            bits.append(low)
            mask ^= low
        packed = kernel.truth(expr)
        for point in range(kernel.num_points):
            ones = 0
            for position, bit in enumerate(bits):
                if point >> position & 1:
                    ones |= bit
            assert (packed >> point) & 1 == expr.evaluate_mask(ones)


def test_kernel_semantic_queries_match_symbolic():
    rng = random.Random(99)
    for _ in range(300):
        ctx = fresh_ctx(6)
        a = random_anf(rng, ctx, 6, 10)
        b = random_anf(rng, ctx, 6, 10)
        c = random_anf(rng, ctx, 6, 10)
        kernel = kernel_for_exprs([a, b, c], ctx)
        assert kernel.product_is_zero(a, b) == (a & b).is_zero
        assert kernel.product_is_zero(a, b, c) == (a & b & c).is_zero
        assert kernel.xor_is_zero(a, b, c) == (a ^ b ^ c).is_zero
        assert kernel.contains_product(b, c, a) == (a == (b & c))
        if not a.is_zero:
            expected = b.is_zero or (b & a) == b
            assert kernel.divides(a, b) == expected


def test_kernel_rejects_uncovered_expressions():
    ctx = fresh_ctx(4)
    kernel = kernel_for_support(ctx, 0b0011)
    with pytest.raises(ValueError):
        kernel.truth(Anf(ctx, [0b1000]))


def test_truth_table_convenience():
    ctx = fresh_ctx(2)
    a = Anf.var(ctx, "x0")
    support, packed = truth_table(a)
    assert support == 0b01
    assert packed == 0b10  # true exactly when x0 is set


# ---------------------------------------------------------------------------
# Operator fast paths
# ---------------------------------------------------------------------------
def naive_product(a, b):
    acc = set()
    for left in a.terms:
        for right in b.terms:
            product = left | right
            if product in acc:
                acc.discard(product)
            else:
                acc.add(product)
    return Anf(a.ctx, acc)


def test_product_fast_paths_match_naive_reference():
    rng = random.Random(2024)
    for _ in range(300):
        ctx = fresh_ctx(8)
        a = random_anf(rng, ctx, 8, 12)
        b = random_anf(rng, ctx, 8, 12)
        expected = naive_product(a, b)
        assert (a & b) == expected
        assert a.cached_and(b) == expected
        assert a.cached_and(b) == expected  # memo hit returns the same value
        # Disjoint supports exercise the injective shortcut explicitly.
        lo = Anf(ctx, [term & 0b00001111 for term in a.terms])
        hi = Anf(ctx, [(term & 0b00001111) << 4 for term in b.terms])
        assert (lo & hi) == naive_product(lo, hi)


def test_split_by_group_reconstructs_expression():
    rng = random.Random(7)
    for _ in range(200):
        ctx = fresh_ctx(8)
        expr = random_anf(rng, ctx, 8, 16)
        group_mask = rng.randrange(0, 1 << 8)
        buckets, remainder = expr.split_by_group(group_mask)
        total = remainder
        for group_part, rest in buckets.items():
            assert group_part != 0
            assert not rest.is_zero
            assert rest.support_mask & group_mask == 0
            total = total ^ (Anf(ctx, [group_part]) & rest)
        assert total == expr


def test_cached_metrics_match_fresh_computation():
    rng = random.Random(5)
    for _ in range(200):
        ctx = fresh_ctx(10)
        expr = random_anf(rng, ctx, 10, 20)
        support = 0
        literals = 0
        degree = 0
        for term in expr.terms:
            support |= term
            literals += bin(term).count("1")
            degree = max(degree, bin(term).count("1"))
        assert expr.support_mask == support
        assert expr.literal_count == literals
        assert expr.degree == degree
        # Second read hits the cache and must agree.
        assert expr.support_mask == support
        assert expr.literal_count == literals
        assert expr.degree == degree


# ---------------------------------------------------------------------------
# Identity discovery
# ---------------------------------------------------------------------------
def naive_find_identity_descriptions(names, definitions, ctx, max_products=3):
    """The seed's O(n^3) symbolic identity search, kept as the oracle."""
    found = []
    n = len(names)
    zero_pairs = set()
    for i, j in combinations(range(n), 2):
        if (definitions[i] & definitions[j]).is_zero:
            zero_pairs.add((i, j))
            found.append(f"{names[i]}*{names[j]} = 0")
    if max_products >= 3:
        for i, j, k in combinations(range(n), 3):
            if (i, j) in zero_pairs or (i, k) in zero_pairs or (j, k) in zero_pairs:
                continue
            if (definitions[i] & definitions[j] & definitions[k]).is_zero:
                found.append(f"{names[i]}*{names[j]}*{names[k]} = 0")
    for i, j in combinations(range(n), 2):
        if definitions[i] == definitions[j]:
            found.append(f"{names[i]} = {names[j]}")
    for i, j, k in combinations(range(n), 3):
        if (definitions[i] ^ definitions[j] ^ definitions[k]).is_zero:
            found.append(f"{names[i]} = {names[j]} ^ {names[k]}")
    for i in range(n):
        for j, k in combinations(range(n), 2):
            if i in (j, k):
                continue
            if definitions[i] == (definitions[j] & definitions[k]):
                found.append(f"{names[i]} = {names[j]}*{names[k]}")
    return found


def test_find_identities_matches_naive_reference():
    rng = random.Random(31337)
    for trial in range(120):
        num_vars = rng.choice([3, 4, 5])
        ctx = fresh_ctx(num_vars)
        n = rng.randrange(2, 6)
        definitions = [random_anf(rng, ctx, num_vars, 6) for _ in range(n)]
        names = [f"s{i}" for i in range(n)]
        identities = find_identities(names, definitions, ctx)
        expected = naive_find_identity_descriptions(names, definitions, ctx)
        assert [identity.description for identity in identities] == expected
        for identity in identities:
            assert identity.kind in ("product", "definition")


def test_find_identities_reports_known_families():
    # Hand-built cases for each identity family, mirroring the paper's
    # examples: a zero product, a duplicate definition, and a definitional
    # product s1 = s2*s3.
    ctx = fresh_ctx(4)
    a = Anf.var(ctx, "x0")
    b = Anf.var(ctx, "x1")
    definitions = [a & b, a, b, a]
    names = ["s0", "s1", "s2", "s3"]
    descriptions = [
        identity.description for identity in find_identities(names, definitions, ctx)
    ]
    assert "s1 = s3" in descriptions          # duplicate definitions
    assert "s0 = s1*s2" in descriptions       # definitional product
    # And a disjoint-support zero product never appears (ab, a, b share vars
    # and none of the products vanish).
    assert not any(description.endswith("= 0") for description in descriptions)


# ---------------------------------------------------------------------------
# Ideal membership
# ---------------------------------------------------------------------------
def test_ideal_contains_fast_path_matches_naive():
    rng = random.Random(777)
    for _ in range(300):
        ctx = fresh_ctx(8)
        generator = random_anf(rng, ctx, 8, 12)
        element = random_anf(rng, ctx, 8, 12)
        if element.is_zero:
            expected = True
        elif generator.is_zero:
            expected = False
        else:
            expected = (element & generator) == element
        assert ideal_contains(generator, element) == expected
        # Multiples must always be members.
        product = element & generator
        assert ideal_contains(generator, product)


# ---------------------------------------------------------------------------
# Rewrite step
# ---------------------------------------------------------------------------
def naive_rewrite_outputs(extraction, substitutions, ctx):
    """The seed's per-(port, pair) extraction loop, kept as the oracle."""
    outputs = {}
    remainder = extraction.pair_list.remainder
    for port in extraction.ports:
        tag = extraction.tag_of_port[port]
        if remainder is not None:
            acc = extract_tag_component(remainder, tag, ctx)
        else:
            acc = Anf.zero(ctx)
        for pair, replacement in zip(extraction.pair_list.pairs, substitutions):
            gamma = extract_tag_component(pair.second, tag, ctx)
            if gamma.is_zero:
                continue
            acc = acc ^ (replacement & gamma)
        outputs[port] = acc
    return outputs


@pytest.mark.parametrize("spec_builder,width", [(lzd_spec, 4), (counter_spec, 4), (majority_spec, 5)])
def test_rewrite_outputs_matches_naive_on_benchmarks(spec_builder, width):
    spec = spec_builder(width)
    ctx = next(iter(spec.outputs.values())).ctx
    group = list(spec.outputs[next(iter(spec.outputs))].support[:3]) or list(ctx)[:3]
    extraction = extract_basis(spec.outputs, group, (), ctx)
    substitutions = []
    for index, _pair in enumerate(extraction.pair_list.pairs):
        substitutions.append(Anf.var(ctx, f"blk{index}"))
    fast = rewrite_outputs(extraction, substitutions, ctx)
    naive = naive_rewrite_outputs(extraction, substitutions, ctx)
    assert fast == naive


def test_rewrite_outputs_random_tagged_expressions():
    rng = random.Random(4242)
    for _ in range(100):
        ctx = fresh_ctx(6)
        ports = ["p0", "p1", "p2"]
        outputs = {port: random_anf(rng, ctx, 6, 10) for port in ports}
        group = ["x0", "x1"]
        extraction = extract_basis(outputs, group, (), ctx)
        substitutions = [
            random_anf(rng, ctx, 6, 4) for _ in extraction.pair_list.pairs
        ]
        fast = rewrite_outputs(extraction, substitutions, ctx)
        naive = naive_rewrite_outputs(extraction, substitutions, ctx)
        assert fast == naive


# ---------------------------------------------------------------------------
# Group scoring and size reduction
# ---------------------------------------------------------------------------
def naive_score_group(outputs, group, ctx):
    """The seed's score: pairs + seconds + remainder after the cheap merge."""
    from repro.core.basis import combine_with_tags

    combined, _ = combine_with_tags(outputs, ctx)
    pair_list = merge_equal_parts(
        initial_pairs(combined, ctx.mask_of(group), NullSpaceTable(ctx))
    )
    total = len(pair_list.pairs)
    total += sum(pair.second.literal_count for pair in pair_list.pairs)
    if pair_list.remainder is not None:
        total += pair_list.remainder.literal_count
    return total


def test_score_group_matches_pairlist_reference():
    rng = random.Random(1001)
    for _ in range(100):
        ctx = fresh_ctx(6)
        outputs = {f"p{i}": random_anf(rng, ctx, 6, 12) for i in range(2)}
        names = [f"x{i}" for i in range(6)]
        group = rng.sample(names, rng.randrange(1, 4))
        assert score_group(outputs, group, ctx) == naive_score_group(outputs, group, ctx)


def naive_cooccurrence_group(outputs, candidates, ctx, k):
    """Greedy co-occurrence grouping, written from its definition.

    Counts are over the walk of every output's terms (outputs in order,
    terms ascending).  The seed is the pair found together in the most
    terms, ties going to the pair met first in the walk, then to the lower
    variable indices; with no pair it is the most frequent candidate, ties
    going to the earliest.  Growth adds the candidate with the most
    co-occurrences with the group plus its own occurrences, ties going to
    the earliest candidate.
    """
    if not candidates:
        return []
    walk = [term for expr in outputs.values() for term in sorted(expr.terms)]

    def together(*names):
        mask = ctx.mask_of(names)
        return sum(1 for term in walk if term & mask == mask)

    def first_seen(pair):
        mask = ctx.mask_of(pair)
        return next(at for at, term in enumerate(walk) if term & mask == mask)

    pairs = [
        tuple(sorted(pair, key=ctx.index))
        for pair in combinations(candidates, 2)
        if together(*pair)
    ]
    if pairs:
        seed = min(
            pairs,
            key=lambda pair: (
                -together(*pair), first_seen(pair), ctx.index(pair[0]), ctx.index(pair[1])
            ),
        )
        group = list(seed)
    else:
        group = [max(candidates, key=together)]
    while len(group) < min(k, len(candidates)):
        rest = [name for name in candidates if name not in group]
        group.append(
            max(
                rest,
                key=lambda name: together(name)
                + sum(together(name, other) for other in group),
            )
        )
    return group


def naive_find_group(outputs, k, ctx):
    """Derived-variable ``findGroup``: exhaustive scoring (first minimum in
    enumeration order) when affordable, co-occurrence growth otherwise."""
    from math import comb

    from repro.core.grouping import MAX_EXHAUSTIVE_CANDIDATES

    mask = 0
    for expr in outputs.values():
        mask |= expr.support_mask
    candidates = list(ctx.names_of(mask))
    if not candidates:
        return []
    size = min(k, len(candidates))
    if comb(len(candidates), size) > MAX_EXHAUSTIVE_CANDIDATES:
        return naive_cooccurrence_group(outputs, candidates, ctx, size)
    return list(
        min(
            combinations(candidates, size),
            key=lambda subset: naive_score_group(outputs, subset, ctx),
        )
    )


grouping_outputs_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), unique=True, max_size=20),
    min_size=1,
    max_size=3,
)


@given(outputs_terms=grouping_outputs_strategy, k=st.integers(min_value=2, max_value=5))
@settings(max_examples=60, deadline=None)
def test_cooccurrence_group_matches_naive_reference(outputs_terms, k):
    ctx = fresh_ctx(10)
    outputs = {f"o{i}": Anf(ctx, terms) for i, terms in enumerate(outputs_terms)}
    candidates = [f"x{i}" for i in range(10)]
    assert _cooccurrence_group(outputs, candidates, ctx, k) == naive_cooccurrence_group(
        outputs, candidates, ctx, k
    )


@given(outputs_terms=grouping_outputs_strategy)
@settings(max_examples=25, deadline=None)
def test_exhaustive_find_group_matches_naive_reference(outputs_terms):
    ctx = fresh_ctx(10)
    outputs = {f"o{i}": Anf(ctx, terms) for i, terms in enumerate(outputs_terms)}
    inputs = [f"x{i}" for i in range(10)]
    # No primary inputs, so the group comes from the derived-variable stage;
    # C(10, 4) = 210 subsets keeps every example on the exhaustive branch.
    assert find_group(outputs, 4, ctx, [], [inputs]) == naive_find_group(outputs, 4, ctx)


def naive_size_reduction(pair_list, max_rounds=200):
    """The seed's candidate scan building full Pair objects per candidate."""
    from repro.core.nullspace import ideal_product_generator

    pairs = list(pair_list.pairs)
    for _ in range(max_rounds):
        best_gain = 0
        best_action = None
        for i in range(len(pairs)):
            for j in range(len(pairs)):
                if i == j:
                    continue
                left, right = pairs[i], pairs[j]
                before = left.literal_count + right.literal_count
                new_left = Pair(
                    left.first ^ right.first,
                    left.second,
                    ideal_product_generator(left.null_generator, right.null_generator),
                )
                new_right = Pair(right.first, left.second ^ right.second, right.null_generator)
                if new_left.first.is_zero or new_right.second.is_zero:
                    continue
                after = new_left.literal_count + new_right.literal_count
                gain = before - after
                if gain > best_gain:
                    best_gain = gain
                    best_action = (i, j, new_left, new_right)
        if best_action is None:
            break
        i, j, new_left, new_right = best_action
        pairs[i] = new_left
        pairs[j] = new_right
    return PairList(pairs, pair_list.remainder)


def test_size_reduction_matches_naive_reference():
    rng = random.Random(909)
    for _ in range(60):
        ctx = fresh_ctx(8)
        zero = Anf.zero(ctx)
        pairs = []
        for _ in range(rng.randrange(2, 6)):
            first = random_anf(rng, ctx, 4, 4)
            second = random_anf(rng, ctx, 8, 6)
            if first.is_zero or second.is_zero:
                continue
            pairs.append(Pair(first, second, zero))
        pair_list = PairList(pairs, None)
        fast = improve_basis_by_size_reduction(pair_list)
        naive = naive_size_reduction(pair_list)
        assert [(p.first, p.second) for p in fast.pairs] == [
            (p.first, p.second) for p in naive.pairs
        ]


# ---------------------------------------------------------------------------
# Supporting structures
# ---------------------------------------------------------------------------
def test_gf2matrix_validation_uses_bit_length():
    matrix = GF2Matrix([0b101, 0b011], 3)
    assert matrix.num_rows == 2
    with pytest.raises(ValueError):
        GF2Matrix([0b1000], 3)
    with pytest.raises(ValueError):
        GF2Matrix([-1], 3)
    # Wide matrices no longer materialise 2^cols.
    wide = GF2Matrix([1 << 9999], 10000)
    assert wide.num_cols == 10000


def test_monomial_indexer_vector_assembly():
    rng = random.Random(55)
    for _ in range(100):
        ctx = fresh_ctx(8)
        expr = random_anf(rng, ctx, 8, 20)
        indexer = MonomialIndexer()
        vector = indexer.vector_of(expr)
        assert vector.bit_count() == expr.num_terms
        # Re-encoding with the same indexer yields the identical vector.
        assert indexer.vector_of(expr) == vector


# ---------------------------------------------------------------------------
# End to end: the fast paths preserve the decomposition exactly
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec_builder,width",
    [(lzd_spec, 8), (majority_spec, 7), (counter_spec, 8)],
)
def test_progressive_decomposition_still_exact(spec_builder, width):
    spec = spec_builder(width)
    decomposition = progressive_decomposition(spec.outputs, input_words=spec.input_words)
    assert decomposition.verify()
