"""Property tests for the packed term-matrix backend.

Two layers are exercised: the :class:`TermMatrix` data structure itself
(packed views must agree with per-term computation), and the backend kernels
(``split_by_group``, ``combine_with_tags``, ``scatter_by_tags``,
``disjoint_xor``, ``pair_key``) whose set- and packed-backend implementations
must compute identical canonical term sets on arbitrary expressions.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.anf import Anf, Context
from repro.anf.backend import (
    PackedBackend,
    SetBackend,
    get_backend,
    set_backend,
    using_backend,
)
from repro.anf.termmatrix import (
    TERM_LIMIT,
    TermMatrix,
    concat_sorted,
    xor_sorted,
)

terms_strategy = st.lists(
    st.integers(min_value=0, max_value=(1 << 40) - 1), unique=True, max_size=60
)


class TestTermMatrix:
    @given(terms_strategy)
    def test_roundtrip_and_views(self, terms):
        matrix = TermMatrix.from_terms(terms)
        assert matrix is not None
        assert matrix.count == len(terms)
        assert matrix.to_list() == sorted(terms)
        assert matrix.literal_count() == sum(t.bit_count() for t in terms)
        support = 0
        for t in terms:
            support |= t
        assert matrix.support_mask() == support

    @given(terms_strategy, terms_strategy)
    def test_key_equality_is_set_equality(self, left, right):
        lm = TermMatrix.from_terms(left)
        rm = TermMatrix.from_terms(right)
        assert (lm.key() == rm.key()) == (set(left) == set(right))

    @given(terms_strategy, st.integers(min_value=0, max_value=(1 << 63) - 1))
    def test_or_all_matches_per_term(self, terms, mask):
        matrix = TermMatrix.from_terms(terms)
        mask &= ~matrix.support_mask()
        result = matrix.or_all(mask)
        assert result.to_list() == sorted(t | mask for t in terms)

    def test_or_all_rejects_overlapping_mask(self):
        matrix = TermMatrix.from_terms([0b01, 0b10])
        with pytest.raises(ValueError):
            matrix.or_all(0b10)

    @given(terms_strategy, st.integers(min_value=0, max_value=(1 << 40) - 1))
    def test_strip_and_contains(self, terms, mask):
        marked = {t | mask for t in terms}
        matrix = TermMatrix.from_terms(marked)
        assert matrix.contains_all(mask)
        assert matrix.strip_all(mask).to_list() == sorted({t & ~mask for t in marked})

    @given(terms_strategy, terms_strategy)
    def test_xor_sorted_is_symmetric_difference(self, left, right):
        lm = TermMatrix.from_terms(left)
        rm = TermMatrix.from_terms(right)
        assert set(xor_sorted(lm, rm).to_list()) == set(left) ^ set(right)

    @given(st.lists(terms_strategy, max_size=4))
    def test_concat_sorted_of_disjoint_runs(self, groups):
        # Tag each group's rows with a distinct low marker so the groups are
        # disjoint by construction (the precondition of concat_sorted).
        marked = [
            TermMatrix.from_terms({(t << 3) | i for t in group})
            for i, group in enumerate(groups)
        ]
        union = set()
        for matrix in marked:
            union |= set(matrix.to_list())
        assert concat_sorted(marked).to_list() == sorted(union)

    def test_from_terms_declines_wide_terms(self):
        assert TermMatrix.from_terms([0, TERM_LIMIT]) is None


def _expr(ctx, subsets):
    terms = []
    for subset in subsets:
        mask = 0
        for i in subset:
            mask |= 1 << i
        terms.append(mask)
    return Anf(ctx, terms)


subsets_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), max_size=5).map(frozenset),
    max_size=24,
)


class TestBackendKernelParity:
    """The two backends must compute identical canonical term sets."""

    @given(subsets_strategy, st.integers(min_value=0, max_value=255))
    @settings(max_examples=80)
    def test_split_by_group(self, subsets, group_mask):
        ctx = Context([f"v{i}" for i in range(8)])
        expr = _expr(ctx, subsets)
        set_buckets, set_rem = SetBackend().split_by_group(expr, group_mask)
        packed_buckets, packed_rem = PackedBackend().split_by_group(expr, group_mask)
        assert set_rem.terms == packed_rem.terms
        assert set(set_buckets) == set(packed_buckets)
        for part in set_buckets:
            assert set_buckets[part].terms == packed_buckets[part].terms

    @given(subsets_strategy, subsets_strategy)
    @settings(max_examples=60)
    def test_combine_and_scatter(self, subsets_f, subsets_g):
        from repro.core.basis import combine_with_tags

        results = {}
        for name in ("set", "packed"):
            ctx = Context([f"v{i}" for i in range(8)])
            outputs = {"f": _expr(ctx, subsets_f), "g": _expr(ctx, subsets_g)}
            with using_backend(name):
                combined, tag_of_port = combine_with_tags(outputs, ctx)
                tags_mask = sum(1 << ctx.index(t) for t in tag_of_port.values())
                scattered = get_backend().scatter_by_tags(combined, tags_mask)
            results[name] = (
                combined.terms,
                {bit: comp.terms for bit, comp in scattered.items()},
            )
        assert results["set"] == results["packed"]

    @given(subsets_strategy)
    @settings(max_examples=40)
    def test_pair_key_equality_semantics(self, subsets):
        ctx = Context([f"v{i}" for i in range(8)])
        built = _expr(ctx, subsets)
        twin = Anf(ctx, list(built.terms))
        matrix_backed = Anf._from_matrix(ctx, TermMatrix.from_terms(built.terms))
        backend = PackedBackend()
        assert backend.pair_key(built) == backend.pair_key(twin)
        assert backend.pair_key(built) == backend.pair_key(matrix_backed)

    @given(subsets_strategy)
    @settings(max_examples=40)
    def test_matrix_backed_anf_behaves_identically(self, subsets):
        ctx = Context([f"v{i}" for i in range(8)])
        plain = _expr(ctx, subsets)
        lazy = Anf._from_matrix(ctx, TermMatrix.from_terms(plain.terms))
        assert lazy == plain and plain == lazy
        assert hash(lazy) == hash(plain)
        assert lazy.num_terms == plain.num_terms
        assert lazy.literal_count == plain.literal_count
        assert lazy.support_mask == plain.support_mask
        assert lazy.degree == plain.degree
        assert lazy.is_zero == plain.is_zero
        assert lazy.is_one == plain.is_one
        assert lazy.is_literal == plain.is_literal
        assert sorted(lazy.term_list()) == sorted(plain.term_list())
        other = _expr(ctx, [frozenset({0, 3}), frozenset({1})])
        assert (lazy ^ other).terms == (plain ^ other).terms
        assert (lazy & other).terms == (plain & other).terms


class TestBackendSelection:
    def test_set_backend_round_trip(self):
        previous = get_backend().name
        try:
            assert set_backend("set").name == "set"
            assert get_backend().name == "set"
        finally:
            set_backend(previous)

    def test_unknown_backend_rejected(self):
        for name in ("bogus", "threaded", "native"):
            with pytest.raises(ValueError):
                set_backend(name)

    def test_using_backend_restores(self):
        before = get_backend().name
        with using_backend("set"):
            assert get_backend().name == "set"
        assert get_backend().name == before

    def test_using_backend_restores_after_an_error(self):
        before = get_backend().name
        with pytest.raises(RuntimeError):
            with using_backend("set"):
                raise RuntimeError("boom")
        assert get_backend().name == before

    def test_packed_is_active_at_import(self):
        """A fresh interpreter starts on ``packed``: nothing but a call
        selects the backend."""
        import subprocess
        import sys

        import repro

        src = str(Path(repro.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-c",
             "from repro.anf.backend import get_backend; print(get_backend().name)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.stdout.strip() == "packed"


class TestWideContexts:
    """Terms over 64 variable indices cannot pack; everything must fall back."""

    def test_decomposition_with_high_variable_indices(self):
        from repro.core import DecompositionOptions, progressive_decomposition

        results = {}
        from repro.anf import majority

        for backend in ("set", "packed"):
            ctx = Context([f"w{i}" for i in range(70)])
            names = [f"w{i}" for i in range(62, 70)]  # bits 62..69 cross word size
            maj = majority([Anf.var(ctx, n) for n in names], ctx)
            with using_backend(backend):
                d = progressive_decomposition({"m": maj}, DecompositionOptions(), input_words=[names])
            assert d.verify()
            results[backend] = (
                [(b.name, sorted(b.definition.terms)) for b in d.blocks],
                {p: sorted(e.terms) for p, e in d.outputs.items()},
            )
        assert results["set"] == results["packed"]

    def test_wide_anf_fast_paths_degrade(self):
        ctx = Context([f"w{i}" for i in range(70)])
        wide = Anf(ctx, [1 << 69, (1 << 68) | (1 << 2), 5])
        assert wide.term_matrix(build=True) is None
        assert wide.term_key() == wide.terms
        assert wide.literal_count == 5
        assert wide.support_mask == (1 << 69) | (1 << 68) | 5
        buckets, remainder = PackedBackend().split_by_group(wide, 0b100)
        assert sorted(buckets) == [0b100]
        assert set(buckets[0b100].terms) == {1 << 68, 1}
        assert set(remainder.terms) == {1 << 69}


class TestWideMasksOnPackedRows:
    """A matrix-backed expression in a context of more than 64 variables: its
    rows fit a word, but the masks it is queried with need not.  Python-int
    masks past bit 63 overflow ``np.uint64`` arithmetic, so every query must
    agree with the set backend on both kernel bodies."""

    WIDTH = 72

    @given(
        terms=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), unique=True, max_size=40),
        ones_mask=st.integers(min_value=0, max_value=(1 << WIDTH) - 1),
        var=st.integers(min_value=0, max_value=WIDTH - 1),
        value=st.booleans(),
        tags_mask=st.integers(min_value=0, max_value=(1 << WIDTH) - 1),
    )
    @settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_set_backend(
        self, kernel_mode, terms, ones_mask, var, value, tags_mask
    ):
        ctx = Context([f"w{i}" for i in range(self.WIDTH)])
        plain = Anf(ctx, terms)
        matrix = TermMatrix.from_terms(terms)
        lazy = Anf._from_matrix(ctx, matrix)
        assert lazy.evaluate_mask(ones_mask) == plain.evaluate_mask(ones_mask)
        assert lazy.evaluate_mask(ones_mask | 1 << 70) == plain.evaluate_mask(
            ones_mask | 1 << 70
        )
        name = f"w{var}"
        assert lazy.cofactor(name, value).terms == plain.cofactor(name, value).terms
        assert {
            bit: comp.terms
            for bit, comp in PackedBackend().scatter_by_tags(lazy, tags_mask).items()
        } == {
            bit: comp.terms
            for bit, comp in SetBackend().scatter_by_tags(plain, tags_mask).items()
        }
        for mask in (tags_mask, tags_mask & ((1 << 64) - 1), 1 << var):
            contained = all(t & mask == mask for t in terms)
            assert matrix.contains_all(mask) == contained
            if contained and mask < TERM_LIMIT:
                stripped = matrix.strip_all(mask)
                assert stripped.to_list() == sorted(t & ~mask for t in terms)
                assert isinstance(stripped.words, np.ndarray)
                assert not stripped.words.flags.writeable
