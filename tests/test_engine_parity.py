"""Parity property tests: the pass-pipeline engine vs the seed loop.

``reference_loop.reference_decomposition`` is the seed's monolithic Fig. 5
loop kept verbatim; every test here runs it next to the pipeline engine on
independently built (but identically declared) contexts and asserts the
results are bit-identical — outputs, blocks, and the complete per-iteration
trace — across every ``DecompositionOptions`` ablation.

Every ablation runs in three modes (``kernel_bodies.BACKENDS``): with no
term set packing, so every kernel takes its per-term loop, and packed on
both kernel bodies (numpy, and C where the extension is built).  The
reference loop always runs unpacked, while the engine runs in the mode under
test, so the packed term-matrix kernels and the per-term fallbacks are held
to the same bit-identical standard as the pipeline itself.  Specs are built
inside the mode they run in, so an unpacked run never sees a packed input.
"""

import pytest
from hypothesis import given, settings, strategies as st

from kernel_bodies import BACKENDS, BUILT_BACKENDS, running
from reference_loop import reference_decomposition

from repro.anf import Anf, Context, Word, carry_save_reduce, majority, sortkernel, variables
from repro.circuit import check_netlist_against_anf
from repro.core import DecompositionOptions, progressive_decomposition
from repro.core.structure import decomposition_to_netlist
from repro.engine import (
    BasisExtractionPass,
    GroupingPass,
    IdentityAnalysisPass,
    LinearDependencePass,
    NullspaceMergePass,
    Pipeline,
    RewritePass,
    SizeReductionPass,
)

ABLATIONS = [
    DecompositionOptions(),
    DecompositionOptions(use_nullspaces=False),
    DecompositionOptions(use_identities=False),
    DecompositionOptions(use_size_reduction=False),
    DecompositionOptions(use_linear_dependence=False),
    DecompositionOptions(
        use_nullspaces=False, use_identities=False,
        use_size_reduction=False, use_linear_dependence=False,
    ),
    DecompositionOptions(k=3),
    DecompositionOptions(k=5, identity_products=2),
]


def assert_bit_identical(expected, actual):
    """Field-by-field comparison of two decompositions built in twin contexts.

    The contexts are distinct objects but declare the same variables in the
    same order, so monomial bitmasks are directly comparable.
    """
    assert expected.ctx.names == actual.ctx.names
    assert expected.primary_inputs == actual.primary_inputs
    assert set(expected.outputs) == set(actual.outputs)
    for port in expected.outputs:
        assert expected.outputs[port].terms == actual.outputs[port].terms, port
    assert len(expected.blocks) == len(actual.blocks)
    for left, right in zip(expected.blocks, actual.blocks):
        assert (left.name, left.level, left.group) == (right.name, right.level, right.group)
        assert left.definition.terms == right.definition.terms, left.name
    assert len(expected.iterations) == len(actual.iterations)
    for left, right in zip(expected.iterations, actual.iterations):
        assert left.index == right.index
        assert left.group == right.group
        assert left.block_names == right.block_names
        assert [e.terms for e in left.basis_definitions] == [
            e.terms for e in right.basis_definitions
        ]
        assert [e.terms for e in left.substitutions] == [
            e.terms for e in right.substitutions
        ]
        assert [
            (identity.kind, identity.description, identity.expr.terms)
            for identity in left.identities_found
        ] == [
            (identity.kind, identity.description, identity.expr.terms)
            for identity in right.identities_found
        ]
        assert {
            name: expr.terms for name, expr in left.removed_blocks.items()
        } == {name: expr.terms for name, expr in right.removed_blocks.items()}
        assert (left.size_before, left.size_after) == (right.size_before, right.size_after)


def _majority(width):
    """A builder of the ``width``-input majority spec."""

    def build():
        ctx = Context()
        bits = ctx.bus("a", width)
        return {"maj": majority(variables(ctx, bits), ctx)}, [bits]

    return build


def _benchmark(circuit, width):
    """A builder of one benchmark spec: ``(outputs, input_words)``."""
    import repro.benchcircuits as benchcircuits

    def build():
        spec = getattr(benchcircuits, f"{circuit}_spec")(width)
        return spec.outputs, spec.input_words

    return build


def _check_parity(build, options, backend):
    """The engine in mode ``backend`` against the unpacked reference loop,
    each on its own fresh (identically declared) build of the spec."""
    with running("unpacked"):
        ref_outputs, ref_words = build()
        expected = reference_decomposition(ref_outputs, options, input_words=ref_words)
    with running(backend):
        outputs, words = build()
        actual = progressive_decomposition(outputs, options, input_words=words)
    assert_bit_identical(expected, actual)
    return actual


class TestAblationParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("options", ABLATIONS, ids=lambda o: repr(o))
    def test_majority7_parity(self, options, backend):
        assert _check_parity(_majority(7), options, backend).verify()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("options", ABLATIONS[:4], ids=lambda o: repr(o))
    def test_multi_output_adder_parity(self, options, backend):
        _check_parity(_benchmark("adder", 4), options, backend)


class TestVectorKernelParity:
    """The ablations again with ``KERNEL_MIN_ROWS = 0``.  These specs are
    small enough that the default threshold keeps every ``Anf.__and__`` on
    the frozenset product; here every product with a packable small operand
    builds a matrix and distributes over it (``product_rows``), on both
    kernel bodies."""

    @pytest.fixture(autouse=True)
    def vector_kernels(self, monkeypatch):
        monkeypatch.setattr(sortkernel, "KERNEL_MIN_ROWS", 0)

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    @pytest.mark.parametrize("options", ABLATIONS, ids=lambda o: repr(o))
    def test_majority7_parity(self, options, backend):
        assert _check_parity(_majority(7), options, backend).verify()

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    @pytest.mark.parametrize("options", ABLATIONS[:4], ids=lambda o: repr(o))
    def test_multi_output_adder_parity(self, options, backend):
        _check_parity(_benchmark("adder", 4), options, backend)


class TestPairMergeProbe:
    """The fingerprint probe of ``merge_equal_parts`` (count plus three
    sampled rows of each second) only short-cuts key hashing: forced on
    (``PROBE_MIN_TERMS = 0``) or off, both packed kernel bodies merge to the same
    pairs.  Two of the seconds collide on the fingerprint but differ, so the
    full-key fallback inside a collision is exercised too."""

    SECOND_A = [1, 2, 4, 8, 16]
    SECOND_B = [1, 3, 4, 8, 16]  # same count, first, middle and last row as A
    SECOND_C = [5, 6, 32]

    def _merged(self, backend):
        from repro.core.nullspace import NullSpaceTable
        from repro.core.pairs import initial_pairs, merge_equal_parts

        ctx = Context([f"v{i}" for i in range(12)])
        a, b, c, d = (1 << 8), (1 << 9), (1 << 10), (1 << 11)
        placed = [
            (a, self.SECOND_A), (b, self.SECOND_A), (c, self.SECOND_B),
            (a | b, self.SECOND_B), (d, self.SECOND_C), (a | c, self.SECOND_A),
        ]
        terms = [part | row for part, rows in placed for row in rows] + [7, 64]
        with running(backend):
            merged = merge_equal_parts(
                initial_pairs(Anf(ctx, terms), a | b | c | d, NullSpaceTable(ctx))
            )
        return (
            sorted(
                (sorted(p.first.terms), sorted(p.second.terms), sorted(p.null_generator.terms))
                for p in merged.pairs
            ),
            sorted(merged.remainder.terms),
        )

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_probe_on_and_off_merge_identically(self, monkeypatch, backend):
        from repro.core import pairs

        probed = []
        fingerprint = pairs._second_fingerprint
        monkeypatch.setattr(
            pairs, "_second_fingerprint", lambda expr: probed.append(expr) or fingerprint(expr)
        )
        results = {}
        for threshold in (0, 1 << 62):
            monkeypatch.setattr(pairs, "PROBE_MIN_TERMS", threshold)
            probed.clear()
            results[threshold] = self._merged(backend)
            assert bool(probed) == (threshold == 0)
        assert results[0] == results[1 << 62]
        assert results[0] == self._merged("unpacked")
        assert len(results[0][0]) == 3  # A, B and C each merged to one pair


class TestRandomisedParity:
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=5), max_size=4).map(frozenset),
            min_size=1, max_size=10,
        ),
        st.lists(
            st.lists(st.integers(min_value=0, max_value=5), max_size=3).map(frozenset),
            min_size=0, max_size=6,
        ),
        st.sampled_from(ABLATIONS),
        st.sampled_from(BUILT_BACKENDS),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_specs_parity(self, subsets_f, subsets_g, options, backend):
        results = []
        for _ in range(2):
            ctx = Context(["v0", "v1", "v2", "v3", "v4", "v5"])

            def build(subsets):
                terms = []
                for subset in subsets:
                    mask = 0
                    for i in subset:
                        mask |= 1 << i
                    terms.append(mask)
                return Anf(ctx, terms)

            outputs = {"f": build(subsets_f)}
            if subsets_g:
                outputs["g"] = build(subsets_g)
            results.append((ctx, outputs))
        (_, ref_outputs), (_, new_outputs) = results
        # Some degenerate (spec, ablation) combinations legitimately stall
        # (e.g. every optimisation disabled); parity then means both
        # implementations fail identically.
        try:
            with running("unpacked"):
                expected = reference_decomposition(ref_outputs, options)
        except RuntimeError as reference_error:
            with running(backend):
                with pytest.raises(RuntimeError) as caught:
                    progressive_decomposition(new_outputs, options)
                assert str(caught.value) == str(reference_error)
            return
        with running(backend):
            actual = progressive_decomposition(new_outputs, options)
        assert_bit_identical(expected, actual)
        assert actual.verify()


#: The ``Word`` operations the differential fuzzer draws specs from.
WORD_OPS = ("add", "sub", "greater_than", "equals", "select", "carry_save_reduce")


def _word_spec(op, widths, keep, compare_select):
    """Build one ``Word``-arithmetic spec in a fresh context.

    ``op`` runs on input words of the given ``widths`` (``select`` steers
    on a fresh input bit, or on ``a > b`` when ``compare_select``); the spec
    keeps the output ports whose bit is set in ``keep``.  Returns
    ``(outputs, input_words)``.
    """
    ctx = Context()
    names = [ctx.bus(chr(ord("a") + i), width) for i, width in enumerate(widths)]
    words = [Word(ctx, [Anf.var(ctx, name) for name in bus]) for bus in names]
    a, b = words[0], words[1]
    if op == "add":
        ports = (a + b).as_outputs("s")
    elif op == "sub":
        difference, borrow = a.sub(b)
        ports = {**difference.as_outputs("d"), "borrow": borrow}
    elif op == "greater_than":
        ports = {"gt": a.greater_than(b)}
    elif op == "equals":
        ports = {"eq": a.equals(b)}
    elif op == "select":
        condition = a.greater_than(b) if compare_select else words[2].bit(0)
        ports = a.select(condition, b).as_outputs("m")
    else:
        total, carries = carry_save_reduce(ctx, words)
        ports = {**total.as_outputs("s"), **carries.as_outputs("c")}
    kept = {
        port: expr for i, (port, expr) in enumerate(sorted(ports.items()))
        if keep >> (i % 16) & 1
    }
    return kept or ports, names


@st.composite
def word_spec_params(draw, op):
    """Parameters of a random ``op`` spec over 8–12 input bits."""
    bits = draw(st.integers(min_value=8, max_value=12))
    compare_select = op == "select" and draw(st.booleans())
    if op == "carry_save_reduce":
        first = draw(st.integers(min_value=2, max_value=bits - 4))
        second = draw(st.integers(min_value=2, max_value=bits - first - 2))
        widths = (first, second, bits - first - second)
    elif op == "select" and not compare_select:
        first = draw(st.integers(min_value=2, max_value=bits - 3))
        widths = (first, bits - 1 - first, 1)
    else:
        first = draw(st.integers(min_value=2, max_value=bits - 2))
        widths = (first, bits - first)
    keep = draw(st.integers(min_value=1, max_value=(1 << 16) - 1))
    options = draw(st.sampled_from(ABLATIONS[:1] + ABLATIONS[6:7]))
    return (op, widths, keep, compare_select), options


#: The cold-small jobs of the whole-job benchmark whose spec slabs all hold
#: fewer than 1024 rows: the jobs that ran the per-term kernel paths until
#: the vector bodies took every size.
SMALL_JOBS = (
    [("adder", w) for w in (4, 6, 8, 10)]
    + [("comparator", w) for w in (4, 6)]
    + [("counter", w) for w in (4, 6, 8, 10, 12)]
    + [("lod", w) for w in (4, 8, 12, 16, 18, 20)]
    + [("lzd", w) for w in (4, 6, 8, 10)]
    + [("majority", w) for w in (5, 7, 9, 11)]
    + [("three_input_adder", w) for w in (3, 4, 5)]
)


def _decompose_in_every_mode(build, options=DecompositionOptions()):
    """Decompose a fresh build of one spec in every built mode.  Each result
    verifies, and the packed ones equal the unpacked one bit for bit."""
    results = {}
    for backend in BUILT_BACKENDS:
        with running(backend):
            outputs, words = build()
            results[backend] = progressive_decomposition(outputs, options, input_words=words)
        assert results[backend].verify(), backend
    for backend in BUILT_BACKENDS[1:]:
        assert_bit_identical(results["unpacked"], results[backend])
    return results


class TestSmallJobParity:
    """Every small benchmark job decomposes bit-identically on the packed
    kernel bodies and unpacked, and verifies."""

    @pytest.mark.parametrize("circuit, width", SMALL_JOBS,
                             ids=[f"{c}-{w}" for c, w in SMALL_JOBS])
    def test_small_job(self, circuit, width):
        results = _decompose_in_every_mode(_benchmark(circuit, width))
        original = results["packed"].original
        assert max(e.num_terms for e in original.values()) < 1024


#: The cold-small jobs whose contexts pass 64 variables: block names take
#: indices past 63, so some of their term sets cannot pack and the packed
#: modes run the per-term fallbacks on them too.
WIDE_INDEX_JOBS = [("adder", 10), ("adder", 12), ("three_input_adder", 7)]


class TestWideIndexJobParity:
    """The jobs that reach the per-term fallback in production decompose
    bit-identically packed (numpy and C bodies) and unpacked."""

    @pytest.mark.parametrize("circuit, width", WIDE_INDEX_JOBS,
                             ids=[f"{c}-{w}" for c, w in WIDE_INDEX_JOBS])
    def test_wide_index_job(self, circuit, width):
        results = _decompose_in_every_mode(_benchmark(circuit, width))
        packed = results["packed"]
        assert len(packed.ctx.names) > 64
        assert any(e.term_matrix(build=True) is None for e in packed.outputs.values())


@pytest.mark.parametrize("circuit, width", [("adder", 10), ("counter", 12),
                                            ("three_input_adder", 7)])
def test_unpacked_substitution_builds_no_empty_matrix(monkeypatch, circuit, width):
    """``xor_accumulate`` starts its per-term fold from the first unpackable
    piece itself, not from an empty matrix of the nothing batched before it."""
    built = []
    real = Anf.__dict__["_from_matrix"].__func__

    def spy(cls, ctx, matrix):
        built.append(matrix.count)
        return real(cls, ctx, matrix)

    monkeypatch.setattr(Anf, "_from_matrix", classmethod(spy))
    with running("unpacked"):
        outputs, words = _benchmark(circuit, width)()
        result = progressive_decomposition(outputs, DecompositionOptions(), input_words=words)
        assert result.verify()
    assert 0 not in built


class TestWordArithmeticFuzz:
    """Differential fuzzer over random ``Word``-arithmetic specs at 8–12
    input bits.  Each spec decomposes unpacked, packed on the numpy bodies
    and packed on the C bodies (where built); every result must pass the
    DAG verify, the ``flatten`` verify and netlist simulation against the
    spec, and the modes must agree bit for bit.  The packed
    kernels run their vector bodies here on slabs of a few to a few hundred
    rows — the sizes real small jobs send them."""

    @pytest.mark.parametrize("op", WORD_OPS)
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_backends_agree_and_verify(self, op, data):
        params, options = data.draw(word_spec_params(op))
        self._check(lambda: _word_spec(*params), options)

    @given(
        sum_op=st.sampled_from(["add", "sub"]),
        check_op=st.sampled_from(["greater_than", "equals", "select"]),
        widths=st.tuples(*[st.integers(min_value=2, max_value=4)] * 3).filter(
            lambda w: 8 <= sum(w) <= 12
        ),
        options=st.sampled_from(ABLATIONS[:1] + ABLATIONS[6:7]),
    )
    @settings(max_examples=6, deadline=None)
    def test_composed_specs(self, sum_op, check_op, widths, options):
        """An arithmetic result fed into a comparison or a select against a
        third operand: ``(a + b) > c``, ``(a - b) == c``, ``c if a + b > c
        else a + b`` and so on."""

        def build():
            ctx = Context()
            names = [ctx.bus(chr(ord("a") + i), w) for i, w in enumerate(widths)]
            a, b, c = (Word(ctx, [Anf.var(ctx, n) for n in bus]) for bus in names)
            left = a + b if sum_op == "add" else a.sub(b)[0]
            if check_op == "greater_than":
                outputs = {"gt": left.greater_than(c)}
            elif check_op == "equals":
                outputs = {"eq": left.equals(c)}
            else:
                outputs = c.select(left.greater_than(c), left).as_outputs("m")
            return outputs, names

        self._check(build, options)

    @staticmethod
    def _check(build, options):
        """Decompose ``build()``'s spec in every built mode, check each
        result three ways, and hold the packed ones to the unpacked result."""
        results = {}
        for backend in BUILT_BACKENDS:
            with running(backend):
                outputs, words = build()
                results[backend] = progressive_decomposition(
                    outputs, options, input_words=words
                )
            decomposition = results[backend]
            assert decomposition.verify(), backend
            assert decomposition.verify(method="flatten"), backend
            netlist = decomposition_to_netlist(decomposition)
            assert check_netlist_against_anf(
                netlist, outputs, max_exhaustive_inputs=8, random_vectors=256
            ).equivalent, backend
        for backend in BUILT_BACKENDS[1:]:
            assert_bit_identical(results["unpacked"], results[backend])


class TestPipelineAssembly:
    def test_from_options_matches_hand_assembly(self):
        pipeline = Pipeline.from_options(DecompositionOptions())
        assert [type(p) for p in pipeline.passes] == [
            GroupingPass,
            BasisExtractionPass,
            NullspaceMergePass,
            LinearDependencePass,
            SizeReductionPass,
            IdentityAnalysisPass,
            RewritePass,
        ]

    def test_flags_become_pass_presence(self):
        pipeline = Pipeline.from_options(
            DecompositionOptions(use_nullspaces=False, use_size_reduction=False)
        )
        types = {type(p) for p in pipeline.passes}
        assert NullspaceMergePass not in types
        assert SizeReductionPass not in types
        assert LinearDependencePass in types

    def test_to_options_round_trips(self):
        for options in ABLATIONS:
            assert Pipeline.from_options(options).to_options() == options

    def test_config_key_distinguishes_configurations(self):
        keys = {Pipeline.from_options(options).config_key() for options in ABLATIONS}
        assert len(keys) == len(ABLATIONS)
        # ... and is stable for equal configurations.
        assert (
            Pipeline.from_options(DecompositionOptions()).config_key()
            == Pipeline.from_options(DecompositionOptions()).config_key()
        )

    def test_pipeline_requires_core_passes(self):
        with pytest.raises(ValueError):
            Pipeline([GroupingPass(), BasisExtractionPass()])
        with pytest.raises(ValueError):
            Pipeline([GroupingPass(), RewritePass(), BasisExtractionPass()])

    def test_pipeline_rejects_mismatched_block_prefixes(self):
        with pytest.raises(ValueError):
            Pipeline([
                GroupingPass(),
                BasisExtractionPass(),
                IdentityAnalysisPass(block_prefix="t"),
                RewritePass(block_prefix="u"),
            ])

    def test_subclassed_passes_are_recognised(self):
        class TweakedGrouping(GroupingPass):
            pass

        pipeline = Pipeline([TweakedGrouping(3), BasisExtractionPass(), RewritePass()])
        options = pipeline.to_options()
        assert options.k == 3
        assert not options.use_identities

    def test_hand_assembled_ablation_runs(self):
        ctx = Context()
        bits = ctx.bus("a", 7)
        spec = {"maj": majority(variables(ctx, bits), ctx)}
        pipeline = Pipeline([
            GroupingPass(4),
            BasisExtractionPass(),
            LinearDependencePass(),
            RewritePass(),
        ])
        decomposition = pipeline.run(spec, input_words=[bits])
        assert decomposition.verify()
        assert decomposition.options == pipeline.to_options()
