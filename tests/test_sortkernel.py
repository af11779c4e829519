"""Property tests for the whole-matrix sort/scan kernel layer.

Every split/scatter kernel must agree on arbitrary inputs with the
per-term loops the term-set kernels keep for sets that do not pack (run
with nothing packing, ``kernel_bodies.unpacked``) and with the per-term
oracles ``sortkernel._split_runs_python`` /
``sortkernel._split_build_python``.  The ``kernel_mode`` fixture runs each
property on the numpy bodies and on the C bodies (where the extension is
built); both run at every input size.

The construction kernels (``sort_terms``/``merge_disjoint``/``xor_merge``/
``parity_merge``/``product_rows``) are checked against brute-force multiset
semantics, and the vectorised monomial vocabulary against the dict indexer.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from kernel_bodies import unpacked

from repro.anf import Anf, Context
from repro.anf import sortkernel
from repro.anf.expression import xor_accumulate
from repro.anf.termmatrix import TermMatrix
from repro.gf2.linear import MonomialIndexer, MonomialVocabulary
from repro.gf2.vectorspace import find_linear_dependency

terms_strategy = st.lists(
    st.integers(min_value=0, max_value=(1 << 40) - 1), unique=True, max_size=80
)
mask_strategy = st.integers(min_value=0, max_value=(1 << 40) - 1)


def _slab(terms):
    """A sorted read-only ``uint64`` row vector (the ``TermMatrix.words`` type)."""
    rows = np.array(sorted(terms), dtype=np.uint64)
    rows.setflags(write=False)
    return rows


def _plain(value):
    """Kernel results with every row vector as a list, for ``==``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(item) for item in value)
    return value


def _assert_rows(rows):
    """The row invariant: a read-only, C-contiguous, 1-D ``uint64`` vector."""
    assert isinstance(rows, np.ndarray)
    assert rows.dtype == np.uint64 and rows.ndim == 1
    assert rows.flags.c_contiguous and not rows.flags.writeable


class TestSplitKernel:
    @given(terms=terms_strategy, group_mask=mask_strategy)
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_split_runs_match_reference(self, kernel_mode, terms, group_mask):
        slab = _slab(terms)
        runs, remainder = _plain(sortkernel.split_runs_by_group(slab, group_mask))
        ref_runs, ref_remainder = _plain(
            sortkernel._split_runs_python(slab.tolist(), group_mask)
        )
        assert sorted(remainder) == sorted(ref_remainder)
        assert {p: sorted(r) for p, r in runs} == {
            p: sorted(r) for p, r in ref_runs
        }
        # Born-sorted: every bucket (and the remainder) must ascend strictly.
        for _, rows in runs:
            assert rows == sorted(set(rows))
        assert remainder == sorted(set(remainder))

    @given(terms=terms_strategy)
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_group_mask_zero_is_all_remainder(self, kernel_mode, terms):
        runs, remainder = _plain(sortkernel.split_runs_by_group(_slab(terms), 0))
        assert runs == []
        assert remainder == sorted(terms)

    @given(terms=terms_strategy)
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_all_bits_mask_buckets_every_term(self, kernel_mode, terms):
        mask = (1 << 64) - 1
        runs, remainder = _plain(sortkernel.split_runs_by_group(_slab(terms), mask))
        assert remainder == ([0] if 0 in terms else [])
        assert sorted(p for p, _ in runs) == sorted(t for t in terms if t)
        assert all(rows == [0] for _, rows in runs)


    @given(terms=terms_strategy, group_mask=mask_strategy)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_or_mask_is_planted_in_every_row(self, kernel_mode, terms, group_mask):
        """The fused path's tag: ``or_mask`` ORed into every emitted row."""
        tag = 1 << 50
        runs, remainder = _plain(
            sortkernel.split_runs_by_group(_slab(terms), group_mask, or_mask=tag)
        )
        ref_runs, ref_remainder = _plain(
            sortkernel._split_runs_python(sorted(terms), group_mask, or_mask=tag)
        )
        assert remainder == sorted(ref_remainder)
        assert dict(runs) == {p: sorted(r) for p, r in ref_runs}


class TestRadixSplit:
    """The counting/radix bucketing vs the stable argsort it replaced."""

    # Literal bound (== sortkernel.RADIX_MAX_GROUP_BITS): the strategy must
    # not read the module attribute, which one test monkeypatches.
    narrow_mask = st.integers(min_value=1, max_value=(1 << 40) - 1).filter(
        lambda m: m.bit_count() <= 6
    )

    @given(terms=terms_strategy, group_mask=narrow_mask)
    @settings(max_examples=60)
    def test_radix_matches_python_reference(self, terms, group_mask):
        slab = _slab(terms)
        runs, remainder = _plain(sortkernel._split_runs_radix(
            slab, sortkernel._mask_bit_positions(group_mask)
        ))
        ref_runs, ref_remainder = _plain(
            sortkernel._split_runs_python(slab.tolist(), group_mask)
        )
        assert remainder == sorted(ref_remainder)
        assert dict(runs) == {p: sorted(r) for p, r in ref_runs}
        # Buckets come out in ascending group-part order, born-sorted.
        assert [p for p, _ in runs] == sorted(p for p, _ in runs)
        for _, rows in runs:
            assert rows == sorted(set(rows))

    @given(terms=terms_strategy, group_mask=narrow_mask)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_radix_matches_argsort_path(self, monkeypatch, terms, group_mask):
        """Same inputs through the dispatcher's two vectorised paths."""
        slab = _slab(terms)
        radix = sortkernel.split_runs_by_group(slab, group_mask)
        # Forcing the width guard to 0 sends the same call down the argsort
        # branch; both paths must emit identical bucket lists (order included).
        # Scoped patch: hypothesis reruns this body many times per fixture.
        with monkeypatch.context() as scoped:
            scoped.setattr(sortkernel, "RADIX_MAX_GROUP_BITS", 0)
            argsort = sortkernel.split_runs_by_group(slab, group_mask)
        assert _plain(radix) == _plain(argsort)

    def test_wide_masks_keep_the_argsort_path(self):
        wide_mask = sum(1 << i for i in range(sortkernel.RADIX_MAX_GROUP_BITS + 2))
        terms = list(range(1, 600))
        runs, remainder = _plain(sortkernel.split_runs_by_group(_slab(terms), wide_mask))
        ref_runs, ref_remainder = _plain(sortkernel._split_runs_python(terms, wide_mask))
        assert remainder == sorted(ref_remainder)
        assert dict(runs) == {p: sorted(r) for p, r in ref_runs}

    def test_all_rows_groupless_returns_input_slab(self, kernel_mode):
        slab = _slab([2, 4, 6])
        runs, remainder = sortkernel.split_runs_by_group(slab, 1)
        assert runs == [] and remainder is slab


class TestFusedSplitBuild:
    """``split_build_by_group`` vs its per-term oracle and the two-step path.

    Tags are fresh single bits above the term range (bits 50+), group masks
    stay below bit 40 — the preconditions the backend seam enforces before
    calling the fused kernel.
    """

    tagged_slabs = st.lists(terms_strategy, min_size=1, max_size=3).map(
        lambda groups: [
            (1 << (50 + i), _slab(group)) for i, group in enumerate(groups)
        ]
    )

    @given(slabs=tagged_slabs, group_mask=mask_strategy)
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_python_oracle(self, kernel_mode, slabs, group_mask):
        runs, remainder = _plain(sortkernel.split_build_by_group(slabs, group_mask))
        ref_runs, ref_remainder = _plain(sortkernel._split_build_python(
            [(tag, rows.tolist()) for tag, rows in slabs], group_mask
        ))
        assert remainder == ref_remainder
        assert runs == ref_runs
        # Born-canonical: ascending parts, strictly ascending rows.
        assert [p for p, _ in runs] == sorted(p for p, _ in runs)
        for _, rows in runs:
            assert rows == sorted(set(rows))

    @given(slabs=tagged_slabs, group_mask=mask_strategy)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_combine_then_split(self, kernel_mode, slabs, group_mask):
        """The fused kernel equals tag-OR + disjoint merge + split."""
        combined = sortkernel.merge_disjoint(
            [sortkernel.or_into_all(rows, tag) for tag, rows in slabs]
        )
        two_step = _plain(sortkernel.split_runs_by_group(combined, group_mask))
        fused = _plain(sortkernel.split_build_by_group(slabs, group_mask))
        assert fused[1] == sorted(two_step[1])
        assert dict(fused[0]) == {p: sorted(r) for p, r in two_step[0]}

    @given(slabs=tagged_slabs)
    @settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_zero_mask_tags_everything_into_remainder(self, kernel_mode, slabs):
        runs, remainder = _plain(sortkernel.split_build_by_group(slabs, 0))
        assert runs == []
        expected = sorted(t | tag for tag, rows in slabs for t in rows.tolist())
        assert remainder == expected

    def test_empty_slabs_are_skipped(self, kernel_mode):
        empty = _slab([])
        runs, remainder = _plain(sortkernel.split_build_by_group(
            [(1 << 50, empty), (1 << 51, _slab([3, 4]))], 0b1
        ))
        assert remainder == [(1 << 51) | 4]
        assert runs == [(1, [2 | (1 << 51)])]


def _split_terms(buckets, remainder):
    return {p: b.terms for p, b in buckets.items()}, remainder.terms


class TestFusedSplit:
    """``split_with_tags`` vs combine-then-split, and the inputs that must
    skip the fused kernel."""

    @staticmethod
    def _two_step(outputs, group_mask, ctx):
        from repro.core.basis import combine_with_tags

        combined, _ = combine_with_tags(outputs, ctx)
        return _split_terms(*combined.split_by_group(group_mask))

    @staticmethod
    def _fused(outputs, group_mask, ctx):
        from repro.core.basis import split_with_tags

        buckets, remainder, _ = split_with_tags(outputs, group_mask, ctx)
        return _split_terms(buckets, remainder)

    @given(outputs_terms=st.lists(st.lists(st.integers(min_value=0, max_value=255),
                                           unique=True, max_size=20), min_size=1, max_size=3),
           group_mask=st.integers(min_value=0, max_value=255))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_split_with_tags_matches_two_step(self, outputs_terms, group_mask):
        def spec():
            ctx = Context([f"v{i}" for i in range(8)])
            outputs = {f"o{i}": Anf(ctx, terms) for i, terms in enumerate(outputs_terms)}
            return outputs, group_mask, ctx

        with unpacked():
            expected = self._two_step(*spec())
        assert self._fused(*spec()) == expected

    @pytest.mark.parametrize("case", ["wide-terms", "group-holds-a-tag"])
    def test_declining_inputs_skip_the_fused_kernel(self, monkeypatch, case):
        if case == "wide-terms":
            ctx = Context([f"w{i}" for i in range(70)])
            outputs, group_mask = {"o": Anf(ctx, [1 << 69, 5])}, 0b100
        else:
            ctx = Context(["a", "b"])
            outputs = {"o": Anf(ctx, [1, 2])}
            group_mask = (1 << ctx.add_var("_K_o")) | 1
        expected = self._two_step(outputs, group_mask, ctx)

        def fused_kernel(*args):
            raise AssertionError("the fused kernel ran on a declining input")

        monkeypatch.setattr(sortkernel, "split_build_by_group", fused_kernel)
        assert self._fused(outputs, group_mask, ctx) == expected


class TestPerTermParity:
    """The per-term loops vs the packed kernels."""

    @given(terms=terms_strategy, group_mask=st.integers(min_value=0, max_value=255))
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_split_by_group(self, terms, group_mask):
        ctx = Context([f"v{i}" for i in range(8)])
        with unpacked():
            expected = _split_terms(*Anf(ctx, terms).split_by_group(group_mask))
        assert _split_terms(*Anf(ctx, terms).split_by_group(group_mask)) == expected

    @given(terms=terms_strategy, tags_mask=st.integers(min_value=0, max_value=(1 << 8) - 1))
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_scatter_by_tags(self, terms, tags_mask):
        from repro.core.rewrite import scatter_by_tags

        ctx = Context([f"v{i}" for i in range(8)])
        with unpacked():
            reference = scatter_by_tags(Anf(ctx, terms), tags_mask)
        fast = scatter_by_tags(Anf(ctx, terms), tags_mask)
        assert {bit: comp.terms for bit, comp in reference.items()} == {
            bit: comp.terms for bit, comp in fast.items()
        }

    def test_wide_terms_fall_back_to_per_term_loops(self):
        from repro.core.rewrite import scatter_by_tags

        ctx = Context([f"w{i}" for i in range(70)])
        wide = Anf(ctx, [1 << 69, (1 << 68) | (1 << 2), 5])
        buckets, remainder = wide.split_by_group(0b100)
        assert sorted(buckets) == [0b100]
        assert set(buckets[0b100].terms) == {1 << 68, 1}
        assert set(remainder.terms) == {1 << 69}
        assert wide.term_matrix() is None
        scattered = scatter_by_tags(wide, 0b101)
        assert {b: c.terms for b, c in scattered.items()} == {
            0b1: {0b100}, 0b100: {1 << 68, 1},
        }


class TestConstructionKernels:
    @given(terms=terms_strategy)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_sort_terms(self, kernel_mode, terms):
        rows = sortkernel.sort_terms(frozenset(terms))
        assert rows is not None and rows.tolist() == sorted(terms)

    def test_sort_terms_declines_wide_rows(self, kernel_mode):
        assert sortkernel.sort_terms([0, 1 << 64]) is None

    @given(groups=st.lists(terms_strategy, max_size=4))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_merge_disjoint(self, kernel_mode, groups):
        marked = [_slab({(t << 3) | i for t in group}) for i, group in enumerate(groups)]
        union = set()
        for slab in marked:
            union |= set(slab.tolist())
        assert sortkernel.merge_disjoint(marked).tolist() == sorted(union)

    @given(left=terms_strategy, right=terms_strategy)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_xor_merge(self, kernel_mode, left, right):
        merged = sortkernel.xor_merge(_slab(left), _slab(right))
        assert merged.tolist() == sorted(set(left) ^ set(right))

    @given(slabs=st.lists(st.lists(st.integers(min_value=0, max_value=255), max_size=12), max_size=6))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_parity_merge(self, kernel_mode, slabs):
        counts = {}
        for slab in slabs:
            for row in slab:
                counts[row] = counts.get(row, 0) + 1
        expected = sorted(r for r, c in counts.items() if c & 1)
        got = sortkernel.parity_merge(
            [np.array(slab, dtype=np.uint64) for slab in slabs]
        )
        assert got.tolist() == expected

    @given(large=terms_strategy, small=st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1),
                                               unique=True, min_size=1, max_size=8))
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_product_rows(self, kernel_mode, large, small):
        counts = {}
        for t in small:
            for r in large:
                key = r | t
                counts[key] = counts.get(key, 0) + 1
        expected = sorted(r for r, c in counts.items() if c & 1)
        got = sortkernel.product_rows(_slab(large), small)
        assert got.tolist() == expected

    def test_product_rows_divide_and_conquer(self, kernel_mode, monkeypatch):
        """A slab budget small enough to split the product into halves that
        recombine by ``xor_merge``: same rows as the brute-force product."""
        monkeypatch.setattr(sortkernel, "PRODUCT_SLAB_ROWS", 64)
        large = list(range(1, 200))
        small = [1 << 45, (1 << 46) | 3, 7, (1 << 47) | 1, 11, 1 << 48]
        counts = {}
        for t in small:
            for r in large:
                counts[r | t] = counts.get(r | t, 0) + 1
        expected = sorted(r for r, c in counts.items() if c & 1)
        assert sortkernel.product_rows(_slab(large), small).tolist() == expected

    @given(left=terms_strategy, right=terms_strategy)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_shared_literal_count(self, kernel_mode, left, right):
        shared = set(left) & set(right)
        expected = sum(r.bit_count() for r in shared)
        assert sortkernel.shared_literal_count(_slab(left), _slab(right)) == expected

    @given(terms=terms_strategy)
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_support_fold_and_or_into_all(self, kernel_mode, terms):
        slab = _slab(terms)
        mask = 0
        for t in terms:
            mask |= t
        assert sortkernel.support_fold(slab) == mask
        disjoint = (1 << 41)
        assert sortkernel.or_into_all(slab, disjoint).tolist() == sorted(
            t | disjoint for t in terms
        )

    @given(terms=terms_strategy, bit=st.sampled_from([1, 1 << 7, 1 << 39, 1 << 63]))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_scatter_tag(self, kernel_mode, terms, bit):
        assert sortkernel.scatter_tag(_slab(terms), bit).tolist() == sorted(
            t & ~bit for t in terms if t & bit
        )

    @given(terms=terms_strategy)
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_popcount_rows(self, kernel_mode, terms):
        assert sortkernel.popcount_rows(_slab(terms)) == sum(t.bit_count() for t in terms)

    @given(terms=terms_strategy, mask=mask_strategy)
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_clear_bits_all_and_rows_contain_all(self, kernel_mode, terms, mask):
        slab = _slab(terms)
        assert sortkernel.rows_contain_all(slab, mask) == all(
            t & mask == mask for t in terms
        )
        tag = (1 << 41) | (1 << 45)
        tagged = sortkernel.or_into_all(slab, tag)
        assert sortkernel.rows_contain_all(tagged, tag)
        assert sortkernel.clear_bits_all(tagged, tag).tolist() == slab.tolist()


def _odd_product(large, small):
    """Brute-force ``XOR(small) * large``: count every ``row | term`` pair."""
    counts = {}
    for t in small:
        for r in large:
            counts[r | t] = counts.get(r | t, 0) + 1
    return sorted(r for r, c in counts.items() if c & 1)


def _refuse_sweep(*args, **kwargs):
    raise AssertionError("a disjoint product reached the parity sweep")


def _refuse_fold(*args, **kwargs):
    raise AssertionError("product_rows folded a slab whose support it was given")


#: Large rows above bit 8 and small terms below it: disjoint supports whose
#: slabs ``large | term`` interleave row by row.
high_rows = st.lists(st.integers(min_value=1, max_value=(1 << 32) - 1).map(lambda r: r << 8),
                     unique=True, min_size=1, max_size=60)
low_terms = st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1), min_size=1, max_size=8)


class TestStructurePaths:
    """Each shortcut the construction kernels take on structured inputs —
    disjoint products, sweeps with nothing or only pairs to cancel —
    against the brute-force oracles, on both bodies."""

    @given(large=terms_strategy, small=st.lists(
        st.integers(min_value=0, max_value=(1 << 12) - 1), min_size=1, max_size=6))
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_duplicated_small_terms_cancel(self, kernel_mode, large, small):
        """A term listed twice cancels, whether or not the operands overlap."""
        doubled = small + small[:1] + small[:1] + small[1:2]
        assert sortkernel.product_rows(_slab(large), doubled).tolist() == _odd_product(
            large, doubled)

    @given(large=high_rows, small=low_terms)
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_disjoint_product_never_sweeps(self, kernel_mode, monkeypatch, large, small):
        """Disjoint supports: interleaving slabs (constant-1 term and repeats
        included) merge as sorted runs without reaching ``_odd_rows``."""
        monkeypatch.setattr(sortkernel, "_odd_rows", _refuse_sweep)
        for terms in (small, [0, *small], small + small[:1]):
            got = sortkernel.product_rows(_slab(large), terms)
            _assert_rows(got)
            assert got.tolist() == _odd_product(large, terms)

    @given(large=terms_strategy, small=st.lists(
        st.integers(min_value=0, max_value=(1 << 12) - 1), min_size=1, max_size=6))
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_cached_support_replaces_the_fold(self, kernel_mode, monkeypatch, large, small):
        """A caller-supplied support (``Anf.__and__`` passes its cached
        one) picks the same path and rows without folding the slab again."""
        support = 0
        for row in large:
            support |= row
        monkeypatch.setattr(sortkernel, "support_fold", _refuse_fold)
        assert sortkernel.product_rows(_slab(large), small, support).tolist() == _odd_product(
            large, small)

    def test_anf_product_folds_each_operand_once(self, kernel_mode, monkeypatch):
        """``Anf.__and__`` hands its cached support to ``product_rows``."""
        ctx = Context([f"v{i}" for i in range(24)])
        large = Anf._from_matrix(ctx, TermMatrix(_slab([r << 4 for r in range(1, 1500)])))
        small = Anf._raw(ctx, frozenset({1, 2, 3}))
        folds = []
        real_fold = sortkernel.support_fold
        monkeypatch.setattr(sortkernel, "support_fold",
                            lambda words: folds.append(1) or real_fold(words))
        product = large & small
        assert len(folds) == 1  # the large operand's cached support mask
        assert sorted(product.terms) == _odd_product(
            [r << 4 for r in range(1, 1500)], [1, 2, 3])

    @pytest.mark.parametrize("terms", [[0], [0, 1], [1, 0, 2, 3], [3, 3], [0, 5, 0]])
    def test_constant_one_term(self, kernel_mode, terms):
        large = [r << 4 for r in (1, 2, 7, 9, 30)]
        assert sortkernel.product_rows(_slab(large), terms).tolist() == _odd_product(
            large, terms)

    def test_disjoint_slabs_in_term_order(self, kernel_mode):
        """Terms above the support: each slab starts above the previous one's
        end, so the buffer is sorted as written."""
        large = list(range(1, 300))
        small = [1 << 20, 1 << 21, (1 << 20) | (1 << 21)]
        assert sortkernel.product_rows(_slab(large), small).tolist() == _odd_product(
            large, small)

    @pytest.mark.parametrize("most", [1, 2, 5], ids=["distinct", "pairs", "up-to-5"])
    @given(data=st.data())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_odd_runs(self, kernel_mode, most, data):
        """Multiplicities of 1, at most 2, and 3 to 5: the sweep keeps the
        odd ones; the parity merge of the same rows agrees."""
        counts = data.draw(st.dictionaries(
            st.integers(min_value=0, max_value=(1 << 40) - 1),
            st.integers(min_value=1, max_value=most), max_size=40), label="counts")
        if most == 5 and counts:
            counts[min(counts)] = 3  # at least one run of three or more
        rows = np.array(sorted(r for r, c in counts.items() for _ in range(c)),
                        dtype=np.uint64)
        expected = sorted(r for r, c in counts.items() if c & 1)
        result = sortkernel._odd_runs(rows.copy())
        assert result.tolist() == expected
        if most == 1:
            kept = rows.copy()
            assert sortkernel._odd_runs(kept) is kept  # nothing repeats: no copy
        halves = [rows[::2].copy(), rows[1::2].copy()]
        assert sortkernel.parity_merge(halves).tolist() == expected


class TestMemoryCeilings:
    """Peak traced allocation of the numpy bodies on structured inputs.

    tracemalloc counts numpy's array buffers, and their peak is
    deterministic for fixed inputs, so these ceilings hold on any machine.
    They cover array allocations only: the merge scratch numpy's timsort
    takes with plain ``malloc`` is not traced.  The disjoint product and the
    parity merge below interleave, so their timsorts run; measured as
    ``ru_maxrss`` growth in a fresh process, the product peaks at 96 MB
    (1.5x its output) and the parity merge at 48 MB (1.5x its input).  The
    overlapping product sorts in place with the default sort, so no merge
    scratch hides from the trace: it peaks at 104 MB traced and 119 MB of
    ``ru_maxrss`` growth, for a 64 MB slab buffer (1.6x and 1.9x)."""

    @staticmethod
    def peak_bytes(kernel, *args):
        tracemalloc.start()
        try:
            result = kernel(*args)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_disjoint_product_peaks_at_its_output(self, monkeypatch):
        monkeypatch.setattr(sortkernel, "_C", None)
        large = np.arange(1 << 20, dtype=np.uint64) << np.uint64(3)
        peak, out = self.peak_bytes(sortkernel.product_rows, large, list(range(8)))
        assert len(out) == 8 << 20
        assert peak <= 1.25 * out.nbytes

    def test_overlapping_product_peaks_near_its_slab_buffer(self, monkeypatch):
        """1M rows x 8 overlapping terms, rows occurring 1 to 4 times: the
        sweep's boolean masks stay small next to the 64 MB slab buffer."""
        monkeypatch.setattr(sortkernel, "_C", None)
        large = np.arange(1 << 20, dtype=np.uint64) << np.uint64(2)
        terms = list(range(1, 9))  # 4 to 8 share bits 2 and 3 with the slab
        peak, out = self.peak_bytes(sortkernel.product_rows, large, terms)
        # Slab rows occur one to four times, so runs of three and four reach
        # the run-end sweep; 3M distinct rows of the 8M survive.
        assert len(out) == 3 << 20
        assert peak <= 2.5 * len(terms) * large.nbytes

    def test_cancel_free_parity_merge_peaks_near_its_input(self, monkeypatch):
        monkeypatch.setattr(sortkernel, "_C", None)
        evens = np.arange(0, 4 << 20, 2, dtype=np.uint64)
        odds = evens + np.uint64(1)
        peak, out = self.peak_bytes(sortkernel.parity_merge, [evens, odds])
        assert len(out) == 4 << 20
        assert peak <= 2.5 * (evens.nbytes + odds.nbytes)


class TestFullWidthRows:
    """Rows that use bit 63, the top of a ``uint64``.  The per-term paths
    once answered every small slab in Python ints; the vector bodies now do,
    so small slabs of full-width rows go through ``uint64`` arithmetic."""

    wide_terms = st.lists(
        st.integers(min_value=0, max_value=(1 << 64) - 1), unique=True, max_size=60
    )
    top_mask = st.integers(min_value=1, max_value=63).map(
        lambda low: (1 << 63) | (1 << low) | 1
    )

    @given(terms=wide_terms, group_mask=top_mask)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_split_and_scatter(self, kernel_mode, terms, group_mask):
        slab = _slab(terms)
        runs, remainder = _plain(sortkernel.split_runs_by_group(slab, group_mask))
        ref_runs, ref_remainder = _plain(
            sortkernel._split_runs_python(slab.tolist(), group_mask)
        )
        assert remainder == sorted(ref_remainder)
        assert dict(runs) == {p: sorted(r) for p, r in ref_runs}
        top = 1 << 63
        assert sortkernel.scatter_tag(slab, top).tolist() == sorted(
            t & ~top for t in terms if t & top
        )

    @given(left=wide_terms, right=wide_terms)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_construction(self, kernel_mode, left, right):
        assert sortkernel.sort_terms(list(left)).tolist() == sorted(left)
        assert sortkernel.xor_merge(_slab(left), _slab(right)).tolist() == sorted(
            set(left) ^ set(right)
        )
        assert sortkernel.parity_merge(
            [np.array(left, dtype=np.uint64), np.array(right, dtype=np.uint64)]
        ).tolist() == sorted(set(left) ^ set(right))
        union = sorted(set(left) | set(right))
        half = len(union) // 2
        assert sortkernel.merge_disjoint(
            [_slab(union[half:]), _slab(union[:half])]
        ).tolist() == union

    @given(large=wide_terms, small=st.lists(
        st.integers(min_value=0, max_value=(1 << 64) - 1), unique=True, min_size=1, max_size=4
    ))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_product_and_scans(self, kernel_mode, large, small):
        counts = {}
        for t in small:
            for r in large:
                counts[r | t] = counts.get(r | t, 0) + 1
        expected = sorted(r for r, c in counts.items() if c & 1)
        assert sortkernel.product_rows(_slab(large), small).tolist() == expected
        slab = _slab(large)
        assert sortkernel.popcount_rows(slab) == sum(t.bit_count() for t in large)
        fold = 0
        for t in large:
            fold |= t
        assert sortkernel.support_fold(slab) == fold
        shared = set(large) & set(small)
        assert sortkernel.shared_literal_count(slab, _slab(small)) == sum(
            t.bit_count() for t in shared
        )

    @given(terms=st.lists(st.integers(min_value=0, max_value=(1 << 62) - 1),
                          unique=True, max_size=60))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_top_bit_rewrites(self, kernel_mode, terms):
        tag = (1 << 63) | (1 << 62)
        tagged = sortkernel.or_into_all(_slab(terms), tag)
        assert tagged.tolist() == sorted(t | tag for t in terms)
        assert sortkernel.rows_contain_all(tagged, tag)
        assert sortkernel.rows_contain_all(_slab(terms), tag) == (not terms)
        assert sortkernel.clear_bits_all(tagged, tag).tolist() == sorted(terms)


#: Every public kernel with small arguments, and the C primitive it calls
#: when the extension is built (``None``: the kernel has only a numpy body).
KERNEL_CALLS = [
    ("split_runs_by_group", (_slab([1, 2, 3, 6]), 0b10), "split_radix"),
    ("split_build_by_group", ([(1 << 50, _slab([1, 2, 3]))], 0b10), "split_radix"),
    ("scatter_tag", (_slab([1, 3, 4]), 0b1), None),
    ("xor_merge", (_slab([1, 2]), _slab([2, 5])), "xor_merge"),
    ("parity_merge", ([_slab([1, 2]), _slab([2, 5])],), None),
    ("product_rows", (_slab([1, 2]), [4, 6]), None),
    ("shared_literal_count", (_slab([3, 5]), _slab([5, 6])), "shared_literal_count"),
    ("popcount_rows", (_slab([3, 5, 8]),), None),
    ("sort_terms", ([6, 1, 3],), None),
    ("merge_disjoint", ([_slab([1, 4]), _slab([2, 3])],), None),
    ("or_into_all", (_slab([1, 2]), 1 << 50), None),
    ("support_fold", (_slab([1, 6]),), None),
    ("clear_bits_all", (_slab([5, 7]), 0b1), None),
    ("rows_contain_all", (_slab([5, 7]), 0b1), None),
]


class _PrimitiveCalled(Exception):
    pass


class _RecordingExtension:
    """Stands in for the compiled module: every primitive records its name
    and raises, so a test sees which primitive a kernel reached for."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        def primitive(*args):
            self.calls.append(name)
            raise _PrimitiveCalled(name)

        return primitive


def row_kernel_results(rows):
    """Every row vector the public row-producing kernels return on
    ``rows``-row inputs."""
    terms = list(range(1, rows + 1))
    half = rows // 2
    tag = 1 << 50
    results = [
        sortkernel.scatter_tag(_slab(terms), 0b1),
        sortkernel.xor_merge(_slab(terms[:half]), _slab(terms[half - 1:])),
        sortkernel.parity_merge([_slab(terms[:half]), _slab(terms[half:])]),
        sortkernel.product_rows(_slab(terms), [tag]),
        sortkernel.sort_terms(reversed(terms)),
        sortkernel.merge_disjoint([_slab(terms[::2]), _slab(terms[1::2])]),
        sortkernel.merge_disjoint([_slab(terms[:half]), _slab(terms[half:])]),
        sortkernel.or_into_all(_slab(terms), tag),
        sortkernel.clear_bits_all(_slab([t | tag for t in terms]), tag),
    ]
    for mask in (0b11, (1 << 8) - 1):  # radix and wide-mask argsort routes
        for runs, remainder in (
            sortkernel.split_runs_by_group(_slab(terms), mask),
            sortkernel.split_build_by_group([(tag, _slab(terms))], mask),
        ):
            results += [r for _, r in runs] + [remainder]
    return results


class TestKernelBodies:
    """Each public kernel has at most two bodies: the C primitive when the
    extension imported, the numpy body otherwise — chosen by ``_C`` alone."""

    @pytest.mark.parametrize("rows", [0, 40], ids=["empty", "rows"])
    def test_kernels_return_read_only_u64_rows(self, kernel_mode, rows):
        """Every body returns the ``TermMatrix.words`` type, empty slabs
        included: a read-only, C-contiguous ``uint64`` vector."""
        for result in row_kernel_results(rows):
            _assert_rows(result)

    @pytest.mark.parametrize("name, args, primitive", KERNEL_CALLS,
                             ids=[call[0] for call in KERNEL_CALLS])
    def test_kernel_picks_its_body_by_the_import_guard(
        self, monkeypatch, name, args, primitive
    ):
        """With ``_C`` set a packed kernel calls its C primitive; with ``_C``
        unset it runs the numpy body; a kernel with no primitive never
        touches ``_C``."""
        kernel = getattr(sortkernel, name)
        monkeypatch.setattr(sortkernel, "_C", None)
        numpy_result = _plain(kernel(*args))
        extension = _RecordingExtension()
        monkeypatch.setattr(sortkernel, "_C", extension)
        if primitive is None:
            assert _plain(kernel(*args)) == numpy_result
            assert extension.calls == []
        else:
            with pytest.raises(_PrimitiveCalled):
                kernel(*args)
            assert extension.calls == [primitive]


class TestExpressionAccumulation:
    @given(st.lists(st.lists(st.integers(min_value=0, max_value=255), max_size=10), max_size=8))
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_xor_accumulate_matches_fold(self, pieces_terms):
        ctx = Context([f"v{i}" for i in range(8)])
        pieces = [Anf(ctx, terms) for terms in pieces_terms]
        folded = Anf.zero(ctx)
        for piece in pieces:
            folded = folded ^ piece
        assert xor_accumulate(pieces, ctx).terms == folded.terms

    @given(st.lists(st.lists(st.integers(min_value=0, max_value=255), max_size=10), max_size=8))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_xor_accumulate_flushes_batches(self, kernel_mode, monkeypatch, pieces_terms):
        """A row budget of a few rows makes the accumulation flush its batch
        into the running parity slab over and over; same set as the fold."""
        monkeypatch.setattr(sortkernel, "PRODUCT_SLAB_ROWS", 3)
        ctx = Context([f"v{i}" for i in range(8)])
        pieces = [Anf(ctx, terms) for terms in pieces_terms]
        folded = Anf.zero(ctx)
        for piece in pieces:
            folded = folded ^ piece
        assert xor_accumulate(pieces, ctx).terms == folded.terms

    @pytest.mark.parametrize("rows", [sortkernel.KERNEL_MIN_ROWS - 1, sortkernel.KERNEL_MIN_ROWS])
    def test_and_distributes_over_a_matrix_from_kernel_min_rows(self, rows):
        """``KERNEL_MIN_ROWS`` still decides how ``Anf.__and__`` multiplies:
        from that many terms on, the large operand becomes a matrix and the
        product comes back matrix-backed; below it, the frozenset product
        runs.  Both give the same terms."""
        ctx = Context([f"v{i}" for i in range(16)])
        large = Anf(ctx, [t << 2 for t in range(1, rows + 1)])
        small = Anf(ctx, [0b101, 0b10])  # overlaps the large support
        product = large & small
        expected = {}
        for left in large.terms:
            for right in small.terms:
                expected[left | right] = expected.get(left | right, 0) ^ 1
        assert product.terms == frozenset(t for t, odd in expected.items() if odd)
        packed = product.term_matrix(build=False) is not None
        assert packed == (rows >= sortkernel.KERNEL_MIN_ROWS)

    @given(large_terms=terms_strategy, small_terms=st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1),
                                                           unique=True, min_size=1, max_size=6))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matrix_product_matches_set_product(self, monkeypatch, large_terms, small_terms):
        ctx = Context([f"v{i}" for i in range(41)])
        reference = Anf(ctx, large_terms) & Anf(ctx, small_terms)
        monkeypatch.setattr(sortkernel, "KERNEL_MIN_ROWS", 0)
        fast_large = Anf._from_matrix(ctx, TermMatrix.from_terms(large_terms))
        fast = fast_large & Anf(ctx, small_terms)
        assert fast.terms == reference.terms


class TestMonomialVocabulary:
    @given(st.lists(st.lists(st.integers(min_value=0, max_value=(1 << 30) - 1),
                             unique=True, max_size=30), min_size=1, max_size=8))
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_dependencies_match_indexer(self, exprs_terms):
        ctx = Context([f"v{i}" for i in range(30)])
        exprs = [Anf(ctx, terms) for terms in exprs_terms]
        indexer, vocabulary = MonomialIndexer(), MonomialVocabulary()
        by_indexer = find_linear_dependency([indexer.vector_of(e) for e in exprs])
        by_vocabulary = find_linear_dependency([vocabulary.vector_of(e) for e in exprs])
        assert by_indexer == by_vocabulary

    @given(terms=st.lists(st.integers(min_value=0, max_value=(1 << 30) - 1),
                          unique=True, max_size=40))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_equal_sets_equal_vectors(self, monkeypatch, terms):
        monkeypatch.setattr(MonomialVocabulary, "BULK_MIN_TERMS", 1)
        ctx = Context([f"v{i}" for i in range(30)])
        vocabulary = MonomialVocabulary()
        first = vocabulary.vector_of(Anf(ctx, terms))
        # Same set again, scalar path this time — coordinates must agree.
        monkeypatch.setattr(MonomialVocabulary, "BULK_MIN_TERMS", 10 ** 9)
        second = vocabulary.vector_of(Anf(ctx, list(reversed(terms))))
        assert first == second

    def test_wide_monomials_share_the_id_space(self):
        ctx = Context([f"w{i}" for i in range(70)])
        vocabulary = MonomialVocabulary()
        wide = Anf(ctx, [1 << 69, 5])
        narrow = Anf(ctx, [5])
        v_wide = vocabulary.vector_of(wide)
        v_narrow = vocabulary.vector_of(narrow)
        # XOR must cancel the shared monomial 5 exactly.
        assert (v_wide ^ v_narrow).bit_count() == 1
