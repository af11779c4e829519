"""Property tests for the compiled kernel extension and its wrapper.

Two layers are under test:

* ``repro.anf._ckernel._impl`` — the raw C primitives, checked against
  brute-force multiset semantics on arbitrary inputs (including the
  decline rules: empty masks, masks wider than the radix bound);
* ``repro.anf.cnative`` — the seam wrapper, checked for bit-identity with
  the sortkernel numpy kernels it shadows, for the no-copy guarantee on
  groupless slabs, and for the graceful no-extension degrade (numpy path
  plus a one-time warning when the ``native`` backend activates without
  the compiled module).

The whole module skips when the extension is not built — except the
fallback tests, which force the import guard off and must pass anywhere.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_sortkernel import _assert_rows, _plain, _slab, row_kernel_results

from repro.anf import Anf, Context, cnative, sortkernel
from repro.anf.backend import get_backend, using_backend

terms_strategy = st.lists(
    st.integers(min_value=0, max_value=(1 << 40) - 1), unique=True, max_size=100
)
mask_strategy = st.integers(min_value=0, max_value=(1 << 40) - 1)
narrow_mask = st.integers(min_value=1, max_value=(1 << 40) - 1).filter(
    lambda m: m.bit_count() <= 6
)


def _rows(raw):
    """A raw C result buffer's rows as a list of ints."""
    return np.frombuffer(raw, dtype=np.uint64).tolist()


needs_ext = pytest.mark.skipif(
    not cnative.available(), reason="C extension not built"
)


@needs_ext
class TestRawPrimitives:
    """``_impl`` vs brute force, on the raw buffer-level contracts."""

    @given(terms=terms_strategy, group_mask=narrow_mask)
    @settings(max_examples=60)
    def test_split_radix_matches_python_reference(self, terms, group_mask):
        tag = 1 << 50
        result = cnative._C.split_radix(_slab(terms), group_mask, tag, 6)
        assert result is not None
        parts, buckets, remainder = result
        ref_runs, ref_rest = _plain(sortkernel._split_runs_python(
            sorted(terms), group_mask, or_mask=tag
        ))
        assert _rows(remainder) == sorted(ref_rest)
        assert {p: _rows(b) for p, b in zip(parts, buckets)} == {
            p: sorted(r) for p, r in ref_runs
        }
        # Ascending part order, born-sorted buckets.
        assert parts == sorted(parts)
        for bucket in buckets:
            rows = _rows(bucket)
            assert rows == sorted(set(rows))

    @given(terms=terms_strategy)
    @settings(max_examples=20)
    def test_split_radix_declines_empty_and_wide_masks(self, terms):
        slab = _slab(terms)
        assert cnative._C.split_radix(slab, 0, 0, 6) is None
        wide = (1 << 7) - 1  # 7 bits > max_bits=6
        assert cnative._C.split_radix(slab, wide, 0, 6) is None
        # the hard 16-bit cap holds even when max_bits allows more
        assert cnative._C.split_radix(slab, (1 << 17) - 1, 0, 64) is None

    def test_split_radix_empty_slab(self):
        parts, buckets, remainder = cnative._C.split_radix(_slab([]), 0b11, 0, 6)
        assert parts == [] and buckets == [] and _rows(remainder) == []

    @given(left=terms_strategy, right=terms_strategy)
    @settings(max_examples=50)
    def test_xor_merge_is_symmetric_difference(self, left, right):
        merged = cnative._C.xor_merge(_slab(left), _slab(right))
        assert _rows(merged) == sorted(set(left) ^ set(right))

    @given(slabs=st.lists(
        st.lists(st.integers(min_value=0, max_value=(1 << 40) - 1), max_size=30),
        max_size=6,
    ))
    @settings(max_examples=50)
    def test_sort_parity_keeps_odd_count_rows(self, slabs):
        rows = [r for s in slabs for r in s]
        buf = bytearray(np.array(rows, dtype=np.uint64).tobytes())
        survivors = cnative._C.sort_parity(buf)
        counts = Counter(rows)
        assert _rows(memoryview(buf)[: survivors * 8]) == sorted(
            r for r, c in counts.items() if c & 1
        )

    @given(terms=terms_strategy, bit=st.sampled_from([1, 1 << 7, 1 << 39]))
    @settings(max_examples=30)
    def test_scatter_tag(self, terms, bit):
        selected = cnative._C.scatter_tag(_slab(terms), bit)
        assert _rows(selected) == sorted(t & ~bit for t in terms if t & bit)

    @given(left=terms_strategy, right=terms_strategy)
    @settings(max_examples=30)
    def test_shared_literal_count_and_popcount(self, left, right):
        shared = set(left) & set(right)
        assert cnative._C.shared_literal_count(
            _slab(left), _slab(right)
        ) == sum(t.bit_count() for t in shared)
        assert cnative._C.popcount_rows(_slab(left)) == sum(
            t.bit_count() for t in left
        )

    def test_rejects_misaligned_buffers(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            cnative._C.popcount_rows(b"\x01\x02\x03")


@needs_ext
class TestSerialWrapperParity:
    """cnative's kernels vs sortkernel's numpy bodies, bit for bit."""

    @pytest.fixture(autouse=True)
    def forced_kernels(self, monkeypatch):
        monkeypatch.setattr(sortkernel, "KERNEL_MIN_ROWS", 0)

    @given(terms=terms_strategy, group_mask=mask_strategy,
           tag=st.sampled_from([0, 1 << 50]))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_split_runs(self, terms, group_mask, tag):
        slab = _slab(terms)
        ours = _plain(cnative.split_runs_by_group(slab, group_mask, or_mask=tag))
        ref = _plain(sortkernel._split_runs(slab, group_mask, or_mask=tag))
        assert ours[1] == ref[1]
        assert ours[0] == sorted(ref[0])

    @given(groups=st.lists(terms_strategy, min_size=1, max_size=3),
           group_mask=mask_strategy)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_split_build(self, groups, group_mask):
        slabs = [(1 << (50 + i), _slab(g)) for i, g in enumerate(groups)]
        ours = cnative.split_build_by_group(slabs, group_mask)
        ref = sortkernel._split_build(slabs, group_mask)
        assert _plain(ours) == _plain(ref)

    @given(slabs=st.lists(
        st.lists(st.integers(min_value=0, max_value=255), max_size=20),
        max_size=8,
    ))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_parity_merge(self, slabs):
        arrays = [np.array(s, dtype=np.uint64) for s in slabs]
        assert cnative.parity_merge(arrays).tolist() == (
            sortkernel._parity_merge(arrays).tolist()
        )

    @given(large=terms_strategy,
           small=st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1),
                          unique=True, min_size=1, max_size=6))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_product_rows(self, large, small):
        assert cnative.product_rows(_slab(large), small).tolist() == (
            sortkernel._product_rows(_slab(large), small).tolist()
        )

    def test_product_divide_and_conquer_path(self, monkeypatch):
        """Shrink the slab budget so the D&C + C xor_merge recombination
        actually runs, and check it against the one-shot parity sweep."""
        monkeypatch.setattr(sortkernel, "PRODUCT_SLAB_ROWS", 64)
        large = _slab(range(1, 200))
        small = [1 << 45, (1 << 46) | 3, 7, (1 << 47) | 1, 11, 1 << 48]
        expected = sortkernel._product_rows(large, small)
        assert cnative.product_rows(large, small).tolist() == expected.tolist()

    def test_groupless_slab_is_returned_uncopied(self):
        slab = _slab([2, 4, 6])
        runs, remainder = cnative.split_runs_by_group(slab, 1)
        assert runs == [] and remainder is slab

    @pytest.mark.parametrize("rows", [31, 32], ids=["below-floor", "at-floor"])
    def test_kernels_return_read_only_u64_rows(self, monkeypatch, rows):
        """Below the floor cnative delegates to sortkernel, at it the C
        primitives run: both return the ``TermMatrix.words`` row type."""
        monkeypatch.setattr(sortkernel, "KERNEL_MIN_ROWS", 32)
        for result in row_kernel_results(cnative, rows):
            _assert_rows(result)

    def test_empty_slab_and_empty_operands(self):
        empty = _slab([])
        runs, remainder = cnative.split_runs_by_group(empty, 0b11)
        assert runs == [] and remainder is empty
        some = _slab([1, 2, 3])
        assert cnative.xor_merge(empty, some) is some
        assert cnative.xor_merge(some, empty) is some
        assert cnative.parity_merge([]).tolist() == []
        assert cnative.shared_literal_count(empty, some) == 0
        assert cnative.popcount_rows(empty) == 0


class TestNativeBackend:
    def test_activation_installs_the_kernel_core(self):
        with using_backend("packed"):
            assert sortkernel._core is None
            with using_backend("native"):
                assert sortkernel._core is cnative
                assert get_backend().name == "native"
            assert sortkernel._core is None

    def test_wide_terms_fall_back_to_set_path(self):
        """>64-var terms cannot pack; the native backend must decline to the
        set kernels exactly like the packed backend does."""
        ctx = Context([f"w{i}" for i in range(70)])
        wide = Anf(ctx, [1 << 69, (1 << 68) | (1 << 2), 5])
        with using_backend("native"):
            buckets, remainder = get_backend().split_by_group(wide, 0b100)
        assert sorted(buckets) == [0b100]
        assert set(buckets[0b100].terms) == {1 << 68, 1}
        assert set(remainder.terms) == {1 << 69}

    def test_missing_extension_falls_back_with_one_warning(self, monkeypatch):
        """Import guard forced off: activation warns once, kernels run the
        numpy path, results unchanged."""
        monkeypatch.setattr(cnative, "_C", None)
        monkeypatch.setattr(cnative, "_warned_missing", False)
        assert not cnative.available()
        # Step out to packed first: activating "native" must be a genuine
        # transition even when the session backend is already native.
        with using_backend("packed"):
            with pytest.warns(RuntimeWarning, match="not built"):
                with using_backend("native"):
                    slab = _slab(range(1, 50))
                    runs, remainder = _plain(sortkernel.split_runs_by_group(slab, 0b11))
        ref_runs, ref_rest = _plain(sortkernel._split_runs_python(slab.tolist(), 0b11))
        assert dict(runs) == {p: sorted(r) for p, r in ref_runs}
        assert remainder == sorted(ref_rest)
        # Second activation stays silent (one-time warning).
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            with using_backend("native"):
                pass

    def test_missing_extension_serial_kernels_delegate(self, monkeypatch):
        monkeypatch.setattr(cnative, "_C", None)
        monkeypatch.setattr(sortkernel, "KERNEL_MIN_ROWS", 0)
        slab = _slab([1, 2, 3, 9])
        assert cnative.xor_merge(slab, _slab([2, 4])).tolist() == [1, 3, 4, 9]
        assert cnative.popcount_rows(slab) == 6
        runs, remainder = cnative.split_runs_by_group(slab, 0b1)
        assert [p for p, _ in runs] == [1]
        assert remainder.tolist() == [2]

    @needs_ext
    def test_engine_parity_native_vs_packed(self):
        """Full decomposition, native vs packed, bit for bit (kernels forced
        through the C path by the session-wide thresholds)."""
        from repro.anf import majority, variables
        from repro.anf.expression import xor_accumulate
        from repro.core import DecompositionOptions, progressive_decomposition

        results = {}
        for backend in ("packed", "native"):
            ctx = Context()
            bits = variables(ctx, [f"x{i}" for i in range(8)])
            outputs = {
                "maj": majority(bits, ctx),
                "parity": xor_accumulate(bits, ctx),
            }
            with using_backend(backend):
                d = progressive_decomposition(
                    outputs,
                    DecompositionOptions(),
                    input_words=[[f"x{i}" for i in range(8)]],
                )
            assert d.verify()
            results[backend] = (
                [(b.name, sorted(b.definition.terms)) for b in d.blocks],
                {p: sorted(e.terms) for p, e in d.outputs.items()},
            )
        assert results["packed"] == results["native"]
