"""Property tests for the compiled kernel extension and the kernels' C bodies.

Three layers are under test:

* ``repro.anf._ckernel._impl`` — the raw C primitives, checked against
  brute-force multiset semantics on arbitrary inputs (including the
  decline rules: empty masks, masks wider than the radix bound), and its
  export list, which holds exactly the primitives some kernel calls;
* the C bodies of the ``repro.anf.sortkernel`` kernels, checked for
  bit-identity with their numpy bodies, for the no-copy guarantee on
  groupless slabs, and on full decompositions;
* ``repro.anf.cnative`` — the import guard both bodies hang on.

Everything that needs the extension skips where it is not built; the
empty-operand and import-guard tests run everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from kernel_bodies import kernel_body
from test_sortkernel import KERNEL_CALLS, _plain, _slab

from repro.anf import Context, cnative, sortkernel

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

    @given(left=terms_strategy, right=terms_strategy)
    @settings(max_examples=30)
    def test_shared_literal_count(self, left, right):
        shared = set(left) & set(right)
        assert cnative._C.shared_literal_count(
            _slab(left), _slab(right)
        ) == sum(t.bit_count() for t in shared)

    def test_rejects_misaligned_buffers(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            cnative._C.xor_merge(b"\x01\x02\x03", _slab([1]))

    def test_exports_only_the_primitives_kernels_call(self):
        """Every public callable of the extension is some kernel's C body
        (``KERNEL_CALLS``), so no primitive outlives its caller."""
        exported = {
            name for name in dir(cnative._C)
            if not name.startswith("_") and callable(getattr(cnative._C, name))
        }
        assert exported == {primitive for _, _, primitive in KERNEL_CALLS if primitive}


@needs_ext
class TestBodyParity:
    """Each kernel's C body vs its numpy body, bit for bit."""

    @staticmethod
    def both(kernel, *args, **kwargs):
        """``(C body result, numpy body result)`` of one call, as lists."""
        with kernel_body(c=True):
            ours = _plain(kernel(*args, **kwargs))
        with kernel_body(c=False):
            ref = _plain(kernel(*args, **kwargs))
        return ours, ref

    @given(terms=terms_strategy, group_mask=mask_strategy,
           tag=st.sampled_from([0, 1 << 50]))
    @settings(max_examples=60)
    def test_split_runs(self, terms, group_mask, tag):
        ours, ref = self.both(
            sortkernel.split_runs_by_group, _slab(terms), group_mask, or_mask=tag
        )
        assert ours[1] == ref[1]
        assert ours[0] == sorted(ref[0])

    @given(groups=st.lists(terms_strategy, min_size=1, max_size=3),
           group_mask=mask_strategy)
    @settings(max_examples=40)
    def test_split_build(self, groups, group_mask):
        slabs = [(1 << (50 + i), _slab(g)) for i, g in enumerate(groups)]
        ours, ref = self.both(sortkernel.split_build_by_group, slabs, group_mask)
        assert ours == ref

    @given(slabs=st.lists(
        st.lists(st.integers(min_value=0, max_value=255), max_size=20),
        max_size=8,
    ))
    @settings(max_examples=40)
    def test_parity_merge(self, slabs):
        arrays = [np.array(s, dtype=np.uint64) for s in slabs]
        ours, ref = self.both(sortkernel.parity_merge, arrays)
        assert ours == ref

    @given(large=terms_strategy,
           small=st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1),
                          unique=True, min_size=1, max_size=6))
    @settings(max_examples=40)
    def test_product_rows(self, large, small):
        ours, ref = self.both(sortkernel.product_rows, _slab(large), small)
        assert ours == ref

    def test_groupless_slab_is_returned_uncopied(self):
        slab = _slab([2, 4, 6])
        with kernel_body(c=True):
            runs, remainder = sortkernel.split_runs_by_group(slab, 1)
        assert runs == [] and remainder is slab

    def test_engine_parity_c_vs_numpy(self):
        """Full decomposition on the C bodies vs the numpy bodies, bit for bit."""
        from repro.anf import majority, variables
        from repro.anf.expression import xor_accumulate
        from repro.core import DecompositionOptions, progressive_decomposition

        results = {}
        for c in (False, True):
            ctx = Context()
            bits = variables(ctx, [f"x{i}" for i in range(8)])
            outputs = {
                "maj": majority(bits, ctx),
                "parity": xor_accumulate(bits, ctx),
            }
            with kernel_body(c):
                d = progressive_decomposition(
                    outputs,
                    DecompositionOptions(),
                    input_words=[[f"x{i}" for i in range(8)]],
                )
            assert d.verify()
            results[c] = (
                [(b.name, sorted(b.definition.terms)) for b in d.blocks],
                {p: sorted(e.terms) for p, e in d.outputs.items()},
            )
        assert results[True] == results[False]


def test_empty_slab_and_empty_operands(kernel_mode):
    empty = _slab([])
    runs, remainder = sortkernel.split_runs_by_group(empty, 0b11)
    assert runs == [] and remainder is empty
    some = _slab([1, 2, 3])
    assert sortkernel.xor_merge(empty, some) is some
    assert sortkernel.xor_merge(some, empty) is some
    assert sortkernel.parity_merge([]).tolist() == []
    assert sortkernel.parity_merge([empty, empty]).tolist() == []
    assert sortkernel.product_rows(some, []) is sortkernel.EMPTY
    assert sortkernel.product_rows(empty, [1, 6]) is sortkernel.EMPTY
    assert sortkernel.shared_literal_count(empty, some) == 0
    assert sortkernel.popcount_rows(empty) == 0


def test_kernels_hang_on_the_import_guard():
    """sortkernel's ``_C`` is the guard's module, and ``available()`` — what
    benchmark stamps read — says whether the extension imported."""
    assert sortkernel._C is cnative._C
    assert cnative.available() == (cnative._C is not None)
