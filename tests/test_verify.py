"""Parity suite for the DAG-structured verification engine.

``Decomposition.verify()`` (the DAG engine) must return exactly the verdict
of ``Decomposition.verify(method="flatten")`` (the whole-spec re-expansion
kept as the reference) — on valid decompositions, on deliberately corrupted
ones, and both packed and with nothing packing.  The
level-substitution kernel itself is checked against ``Anf.substitute`` on
arbitrary inputs, and the per-iteration rewrite gate
(``RewritePass(verify_steps=True)``) must accept every engine-produced step
and reject a sabotaged one.
"""

import pytest
from hypothesis import given, settings, strategies as st
from kernel_bodies import running

from repro.anf import Anf, Context
from repro.core import (
    DecompositionOptions,
    VerificationError,
    check_rewrite_invariant,
    flatten_port_via_dag,
    progressive_decomposition,
    semantically_equal,
    substitute_bits,
    verify_decomposition,
    verify_ports,
)
from repro.core.decompose import Block
from repro.core.verify import _block_layers
from repro.engine import (
    BasisExtractionPass,
    GroupingPass,
    Pipeline,
    RewritePass,
)

BACKENDS = ("unpacked", "packed")


def _decompose(outputs_terms, num_vars=6, options=None):
    ctx = Context([f"v{i}" for i in range(num_vars)])
    outputs = {
        f"o{i}": Anf(ctx, terms) for i, terms in enumerate(outputs_terms)
    }
    return progressive_decomposition(outputs, options or DecompositionOptions())


terms_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=(1 << 6) - 1), unique=True, max_size=14),
    min_size=1,
    max_size=2,
)


class TestSubstituteBits:
    @given(
        terms=st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1),
                       unique=True, max_size=30),
        replaced=st.dictionaries(
            st.integers(min_value=0, max_value=7),
            st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1),
                     unique=True, max_size=5),
            max_size=4,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_anf_substitute(self, terms, replaced):
        ctx = Context([f"v{i}" for i in range(8)])
        expr = Anf(ctx, terms)
        name_mapping = {f"v{i}": Anf(ctx, rep) for i, rep in replaced.items()}
        bit_mapping = {1 << i: Anf(ctx, rep) for i, rep in replaced.items()}
        expected = expr.substitute(name_mapping)
        actual = substitute_bits(expr, bit_mapping, ctx)
        assert actual.terms == expected.terms

    def test_empty_mapping_is_identity(self):
        ctx = Context(["a", "b"])
        expr = Anf(ctx, [1, 2, 3])
        assert substitute_bits(expr, {}, ctx) is expr

    def test_semantically_equal_matches_eq(self):
        ctx = Context(["a", "b", "c"])
        left = Anf(ctx, [1, 6])
        assert semantically_equal(left, Anf(ctx, [6, 1]))
        assert not semantically_equal(left, Anf(ctx, [1, 2]))
        assert not semantically_equal(left, Anf(ctx, [1]))


class TestVerdictParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(outputs_terms=terms_strategy)
    @settings(max_examples=25, deadline=None)
    def test_valid_decompositions_verify_on_both_engines(self, backend, outputs_terms):
        with running(backend):
            try:
                decomposition = _decompose(outputs_terms)
            except RuntimeError:
                return  # degenerate spec stalled; nothing to verify
            assert decomposition.verify() is True
            assert decomposition.verify(method="flatten") is True
            assert verify_decomposition(decomposition) is True
            assert all(verify_ports(decomposition).values())

    @given(outputs_terms=terms_strategy)
    @settings(max_examples=25, deadline=None)
    def test_port_expansion_with_and_without_shared_layers(self, outputs_terms):
        """``flatten_port_via_dag`` called per port, the exported form,
        expands exactly as with the block layers computed once and passed
        in; both equal the ``flatten`` reference."""
        try:
            decomposition = _decompose(outputs_terms)
        except RuntimeError:
            return
        layers = _block_layers(decomposition.blocks, decomposition.ctx)
        reference = decomposition.flatten()
        for port, expr in decomposition.outputs.items():
            alone = flatten_port_via_dag(decomposition, expr)
            shared = flatten_port_via_dag(decomposition, expr, {}, layers)
            assert alone.terms == shared.terms == reference[port].terms

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        outputs_terms=terms_strategy,
        block_choice=st.integers(min_value=0, max_value=10 ** 6),
        flip=st.integers(min_value=0, max_value=(1 << 6) - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_corrupted_definitions_fail_on_both_engines(
        self, backend, outputs_terms, block_choice, flip
    ):
        with running(backend):
            try:
                decomposition = _decompose(outputs_terms)
            except RuntimeError:
                return
            if not decomposition.blocks:
                return
            block = decomposition.blocks[block_choice % len(decomposition.blocks)]
            block.definition = block.definition ^ Anf(decomposition.ctx, [flip])
            # The corruption may or may not survive to the outputs (a change
            # can cancel through a nonlinear composition); what must hold is
            # that both engines reach the *same* verdict.  The deterministic
            # tests below pin must-fail corruptions.
            assert decomposition.verify() == decomposition.verify(method="flatten")

    def test_corrupted_block_definition_must_fail(self):
        """A hand-built hierarchy where the corruption provably reaches the
        output: both engines must reject it."""
        ctx = Context(["a", "b"])
        a, b = Anf.var(ctx, "a"), Anf.var(ctx, "b")
        decomposition = _decompose([[1, 2, 3]])  # shell, rebuilt below
        decomposition.ctx = ctx
        decomposition.primary_inputs = ["a", "b"]
        decomposition.blocks = [Block("t", 1, a & b)]
        decomposition.original = {"f": (a & b) ^ a}
        decomposition.outputs = {"f": Anf.var(ctx, "t") ^ a}
        assert decomposition.verify() is True
        decomposition.blocks[0].definition = (a & b) ^ Anf.one(ctx)
        assert decomposition.verify() is False
        assert decomposition.verify(method="flatten") is False

    def test_corrupted_output_fails_identically(self):
        decomposition = _decompose([[1, 2, 3], [5, 6]])
        port = next(iter(decomposition.outputs))
        decomposition.outputs[port] = decomposition.outputs[port] ^ Anf.one(
            decomposition.ctx
        )
        assert decomposition.verify() is False
        assert decomposition.verify(method="flatten") is False
        verdicts = verify_ports(decomposition)
        assert verdicts[port] is False

    def test_missing_block_fails_identically(self):
        decomposition = _decompose([[1, 2, 3, 7], [5, 6]])
        if not decomposition.blocks:
            pytest.skip("decomposition produced no blocks")
        # Replace the whole list (a supported mutation) minus one block: the
        # dangling variable is then treated as free by both engines.
        removed_name = decomposition.blocks[-1].name
        referenced = any(
            expr.depends_on(removed_name) for expr in decomposition.outputs.values()
        ) or any(
            block.definition.depends_on(removed_name)
            for block in decomposition.blocks[:-1]
        )
        decomposition.blocks = decomposition.blocks[:-1]
        dag = decomposition.verify()
        flatten = decomposition.verify(method="flatten")
        assert dag == flatten
        if referenced:
            assert dag is False

    def test_non_levelled_hierarchy_falls_back_to_flatten(self):
        """A same-level (acyclic) reference defeats the levelled sweep; the
        engine must defer to the flatten reference, not loop or misreport."""
        ctx = Context(["a", "b"])
        a, b = Anf.var(ctx, "a"), Anf.var(ctx, "b")
        t0 = Anf.var(ctx, "t0")
        t1 = Anf.var(ctx, "t1")
        decomposition = _decompose([[1, 2, 3]])  # throwaway, rebuilt below
        decomposition.ctx = ctx
        decomposition.primary_inputs = ["a", "b"]
        decomposition.blocks = [
            Block("t0", 1, t1 ^ a),   # t0 defined via its level-1 sibling
            Block("t1", 1, a & b),
        ]
        decomposition.original = {"f": (a & b) ^ a}
        decomposition.outputs = {"f": t0}
        assert decomposition.verify() is True
        assert decomposition.verify(method="flatten") is True

    def test_flatten_and_dag_agree_on_swapped_definitions(self):
        decomposition = _decompose([[1, 2, 3, 6], [5, 6, 7]])
        blocks = decomposition.blocks
        if len(blocks) < 2 or blocks[0].definition == blocks[1].definition:
            pytest.skip("not enough distinct blocks to swap")
        blocks[0].definition, blocks[1].definition = (
            blocks[1].definition,
            blocks[0].definition,
        )
        decomposition.blocks = list(blocks)  # new list: supported mutation
        assert decomposition.verify() == decomposition.verify(method="flatten")


class TestRewriteGate:
    def test_gated_pipeline_accepts_engine_steps(self, monkeypatch):
        import repro.engine.passes as passes_module

        checked = []
        check = passes_module.check_rewrite_invariant
        monkeypatch.setattr(
            passes_module, "check_rewrite_invariant",
            lambda *args: checked.append(args) or check(*args),
        )
        ctx = Context([f"v{i}" for i in range(6)])
        outputs = {"o0": Anf(ctx, [1, 2, 3, 6, 9]), "o1": Anf(ctx, [5, 6])}
        ungated = Pipeline.from_options(DecompositionOptions()).passes
        pipeline = Pipeline([*ungated[:-1], RewritePass(verify_steps=True)])
        decomposition = pipeline.run(outputs)
        assert decomposition.verify()
        assert len(checked) == len(decomposition.iterations) > 0

    def test_gate_is_off_by_default(self):
        assert RewritePass().verify_steps is False
        assert RewritePass(verify_steps=True).verify_steps is True

    def test_gate_rejects_sabotaged_rewrite(self):
        class SabotagedRewrite(RewritePass):
            """Flips a monomial in one rewritten output before the gate."""

            def run(self, state):
                from repro.core.rewrite import rewrite_outputs as real

                def sabotaged(extraction, substitutions, ctx):
                    outputs = real(extraction, substitutions, ctx)
                    port = next(iter(outputs))
                    outputs[port] = outputs[port] ^ Anf.one(ctx)
                    return outputs

                import repro.engine.passes as passes_module

                original = passes_module.rewrite_outputs
                passes_module.rewrite_outputs = sabotaged
                try:
                    super().run(state)
                finally:
                    passes_module.rewrite_outputs = original

        ctx = Context([f"v{i}" for i in range(6)])
        outputs = {"f": Anf(ctx, [1, 2, 4, 7, 11, 33])}
        pipeline = Pipeline(
            [GroupingPass(4), BasisExtractionPass(), SabotagedRewrite(verify_steps=True)]
        )
        with pytest.raises(VerificationError):
            pipeline.run(outputs)

    def test_check_rewrite_invariant_reports_port(self):
        ctx = Context(["a", "b"])
        a, b = Anf.var(ctx, "a"), Anf.var(ctx, "b")
        block = Block("t", 1, a & b)
        t = Anf.var(ctx, "t")
        active = {"f": (a & b) ^ b}
        good = {"f": t ^ b}
        bad = {"f": t ^ a}
        assert check_rewrite_invariant(active, good, [block], ctx) is None
        assert check_rewrite_invariant(active, bad, [block], ctx) == "f"


class TestBlockMapStaleness:
    def test_append_only_updates_are_seen(self):
        decomposition = _decompose([[1, 2, 3]])
        ctx = decomposition.ctx
        assert not decomposition._is_block("fresh")
        ctx.add_var("fresh")
        decomposition.blocks.append(Block("fresh", 99, Anf(ctx, [1])))
        assert decomposition._is_block("fresh")
        assert decomposition.block_by_name("fresh").level == 99

    def test_list_replacement_rebuilds_the_index(self):
        decomposition = _decompose([[1, 2, 3, 6]])
        if not decomposition.blocks:
            pytest.skip("no blocks")
        name = decomposition.blocks[0].name
        assert decomposition._is_block(name)
        decomposition.blocks = [b for b in decomposition.blocks if b.name != name]
        assert not decomposition._is_block(name)

    def test_in_place_mutation_fails_loudly(self):
        decomposition = _decompose([[1, 2, 3, 6]])
        if not decomposition.blocks:
            pytest.skip("no blocks")
        decomposition.block_by_name(decomposition.blocks[0].name)  # build index
        renamed = Block("rogue", 1, decomposition.blocks[0].definition)
        decomposition.blocks[0] = renamed  # same list, same length: unsupported
        with pytest.raises(AssertionError):
            decomposition.block_by_name("rogue")
