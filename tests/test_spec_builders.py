"""The closed-form spec builders, pinned to the oracles they replaced.

``repro.benchcircuits`` builds the comparator, LZD, counter, majority and
three-input adder specs from their algebra; ``reference_builders`` keeps the
ring-emulating builders as oracles.  Specs key the result cache by their
canonical digest and the job index by builder and arguments, so a builder
may change how it computes a spec but never the spec: output names and
order, context names, inputs, input words, term sets and digest must all
match the oracle's.

The oracle widths that take seconds (counter-18 about 7 s, three-input
adder 9 about 2 s) run only under ``REPRO_FULL_SWEEP=all``, which the
no-compiler CI job and the nightly job set.
"""

import os

import numpy as np
import pytest

import reference_builders
from kernel_bodies import unpacked

from repro import benchcircuits
from repro.anf import Context, canonical
from repro.anf.canonical import canonical_spec_digest
from repro.service.jobs import CIRCUITS

FULL = os.environ.get("REPRO_FULL_SWEEP", "1") == "all"

FAMILIES = ("comparator", "lzd", "counter", "majority", "three_input_adder")

#: Widths whose oracle builds in well under a second.
TIER1_WIDTHS = {
    "comparator": range(1, 13),
    "lzd": range(2, 17),
    "counter": range(1, 15),
    "majority": range(1, 16),
    "three_input_adder": range(1, 8),
}

#: Widths whose oracle takes up to seconds.
SLOW_WIDTHS = {
    "comparator": (13, 14),
    "lzd": (18, 19, 20),
    "counter": (16, 17, 18),
    "three_input_adder": (8, 9),
}

#: Canonical digests of every perfbench spec, as the ring-emulating
#: builders produced them.  A changed digest would orphan every cached
#: record of the spec without an ``ENGINE_CACHE_EPOCH`` bump.
PERFBENCH_DIGESTS = {
    "adder-4": "48f85bf565cd2ec560d1b8e8bcb077ffb01fc66c9eb93983574f8a7c6892ee8e",
    "adder-6": "82287259d55b7e1788f99b627cde682463bb96923a2d08e6437543d22561b0ae",
    "adder-8": "e01c2f46b6a39eb6135a29ff5e16b70015da326414209ec48388b44247fdc6e7",
    "adder-10": "0df305ebf3d041725c1fd86c43d56f4fd2dabcd29f9e6eb624c8a7cadc15ac05",
    "adder-12": "10fa8f67ae9dab98d093057d05828bc90a7c8808580845874595f43b4688ea5c",
    "comparator-4": "9c9f2d53cc5124932f2d5cc098b18c70c79744d438a4430ce536d806df4ad1b6",
    "comparator-6": "5f39423a6cc746c59ca89b2a2bb0b2301bebcf3d6b74cb5ff35c07c15c6b83cc",
    "comparator-8": "44b061d76f2701329688e9d59b5675394d8efef42131f6502fa531de461f7cf0",
    "comparator-9": "b73c818460577f165884a2032dc7e4b69b6cb79a03a19176434c4aac0af9b603",
    "comparator-10": "1058b992ee1906bedb9c30d4020e93c1e81a6bf6459207337784aa2bc0d11fb8",
    "comparator-12": "e6b2a7a97a6c74f456528503147f30951ea66db93cad1678918a6c374ec35fc8",
    "comparator-13": "03569c62048a3b78ffd3f1da402420c686f0ff70262d104b4ed221ebd92ae992",
    "comparator-14": "a5f2329df697bf08ecfeb5d030e333d114dde4828942cd48a66f2da48788aa5c",
    "counter-4": "89e21fb04d8c21639180a2b687c6a045b981f687ea8cc794ce2f0d05f4be6a73",
    "counter-6": "cc7ed8de7232796b9baf77a559b583524c79cb632afcf1285a944c3d74cccc96",
    "counter-8": "c6dc4190c421c4109b6b7ad700b5b4fef7e5c8ccb21c3b24756b2b7e8b36aa6d",
    "counter-10": "a3ae5c8403a7efa7d87fbd50c62c97f8c7d33d32d3202890b158679255df41c7",
    "counter-12": "0d82135c4af4d1aa2c92dd7c21c8bfb6e1866f454b1536c72c6798f8ca2ea994",
    "counter-14": "5697b31e8f8a6cc093ece0176ad1ccf800cbf8f94680b3317a5bf59e6af7fa6e",
    "counter-16": "096b3d6dcb6c721465bb168350c0b8715c997018edddedbfe5d8476e23f12282",
    "lod-4": "f18621b3c09c660184e281442121715f12111c8284c7a8b4a70bdcfb1c37d60b",
    "lod-8": "e9791b32c58da802bb6e768c1668c0a056cc1fbb216fd3c1fab196d05042947a",
    "lod-12": "966bf8cc9c08f211de9d9c7519ef31d4df6059b47fae74ca6922b50734aa727c",
    "lod-16": "5440daf8c99096dff2285aba5aa91666b31b303c414cb27f5079677f5d666256",
    "lod-18": "67e2f659f80cf448c80de8654369a13cd05c66342f9857bbe87456693d67c61c",
    "lod-20": "a6404e5d8a5fb8096416775b26e4f9551e89b6b7b5741177777c051b44dbeee7",
    "lzd-4": "964cc3865dc4596c5fc879bd738551355b03b01f71e86144afe3ba5343dad4eb",
    "lzd-6": "49b03798e55c845da13483cf02e91fcf76bea2d0816f0ba5fdf9990b4b38f7f2",
    "lzd-8": "5a88b9fbfc1aecc1b42771517d8533498f1746c3049e3c17fa6a81cb3e334d8b",
    "lzd-10": "3f80792a94964f83cd8af1ab68c2664dda6dfe2973c749d662a1bd5342f7c5fd",
    "lzd-12": "d8d856c3bde6cc2de27692059a7b257a40cf14845a197089e030678f83ceb0d5",
    "lzd-14": "7ce7e0253a25c1355d9b727d57455ce44882f88d204498224b401466649077dd",
    "lzd-20": "63fa1546b32c101ea03b744475d37c4fd17a096efa63ff337c528c69ca909a73",
    "majority-5": "ab5b8c10ff34043335dd9387f68360c495483eb14d8a44e8c8941c18370658c1",
    "majority-7": "871eb2c1841c8a152827bc80ed8a85e98cf2719dcce0ceee93ed6d85a454daa7",
    "majority-9": "4b4999c300b22ffdc9b07be84ed74af5f0c5e8301fd0cf8b6e0894a414d4605b",
    "majority-11": "5d5b2e0a937308b59ea0029da89a964cccbab25df715ccefa236f89b7fa36911",
    "majority-12": "5ee042f2a6c0a0cb6ca7e747a5da89ee0c7fc21f8ce89205117e0cdfd8aae56d",
    "majority-15": "9ce21f4aa8ca6e014de3c83692ae078b44a13e5adbd8248241ae4b74078029dc",
    "majority-16": "bb3e0444fa9ecaf3d9bf0e6396b463f94a1d82cfb682e3d4c628b0a376df17d5",
    "majority-17": "ae32a21e1d5f57af9a5f9a670afd6bc2a5c7a55ab18b199987fb2471bd1a2d34",
    "three_input_adder-3": "d53d8de2a57ac5281cd202e7276887622100c6a437004a94dfde0a18256e94d9",
    "three_input_adder-4": "8bedad85364408d4c281d07c74623a5d8484164eebc2cacd922b269ae806994a",
    "three_input_adder-5": "3287a44aa207da61a9979f8a035b8d2276082d468cb5927eabf44826fe191fd3",
    "three_input_adder-6": "a536c2b79eb4a73fd0bb5bf1c2d677944222846176ee231225a6b33f9ff3e639",
    "three_input_adder-7": "5fd0f3a1c15f72fb5c4452ad5428e797a9b6e0db70bd38f1f2cb562292c88a02",
}


def build(family, width, **kwargs):
    """The spec from the closed-form builder and from its oracle."""
    new = getattr(benchcircuits, f"{family}_spec")(width, **kwargs)
    old = getattr(reference_builders, f"{family}_spec")(width, **kwargs)
    return new, old


def assert_same_spec(spec, oracle):
    assert list(spec.outputs) == list(oracle.outputs)
    assert spec.ctx.names == oracle.ctx.names
    assert spec.inputs == oracle.inputs
    assert spec.input_words == oracle.input_words
    for port, expr in spec.outputs.items():
        assert expr.term_key() == oracle.outputs[port].term_key(), port
    assert (canonical_spec_digest(spec.outputs, spec.input_words)
            == canonical_spec_digest(oracle.outputs, oracle.input_words))


def cases(widths):
    return [(family, width) for family, family_widths in widths.items()
            for width in family_widths]


@pytest.mark.parametrize("family,width", cases(TIER1_WIDTHS))
def test_builder_matches_oracle(family, width):
    assert_same_spec(*build(family, width))


@pytest.mark.skipif(not FULL, reason="slow oracle widths run under REPRO_FULL_SWEEP=all")
@pytest.mark.parametrize("family,width", cases(SLOW_WIDTHS))
def test_builder_matches_oracle_at_slow_widths(family, width):
    assert_same_spec(*build(family, width))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("declared", [
    ("x", "y", "z"),  # every input shifted up by three
    ("a3", "q", "a1", "b0"),  # inputs declared out of order: rows re-sort
])
def test_builder_on_a_populated_context(family, declared):
    new, old = build(family, 5, ctx=Context(declared))
    assert new.ctx.names[:len(declared)] == declared
    assert_same_spec(new, old)


@pytest.mark.parametrize("family,kwargs", [
    ("comparator", {"prefix_a": "a", "prefix_b": "a"}),
    ("three_input_adder", {"prefix_a": "a", "prefix_b": "b", "prefix_c": "a"}),
])
def test_aliased_inputs_cancel_like_the_oracle(family, kwargs):
    """Two operands naming one variable substitute it for the other."""
    assert_same_spec(*build(family, 4, **kwargs))


@pytest.mark.parametrize("family", FAMILIES)
def test_input_index_past_a_row_is_refused(family):
    ctx = Context([f"t{i}" for i in range(62)])
    with pytest.raises(ValueError, match="index"):
        getattr(benchcircuits, f"{family}_spec")(4, ctx=ctx)


@pytest.mark.parametrize("family", FAMILIES)
def test_unpacked_specs_carry_no_matrix(family):
    """Inside ``unpacked()`` a spec stays frozenset-backed, so the parity
    suites keep a per-term reference even for closed-form rows."""
    with unpacked():
        new, old = build(family, 6)
        for port, expr in new.outputs.items():
            assert expr.term_matrix() is None, port
            assert expr.terms == old.outputs[port].terms, port


def test_perfbench_spec_digests_are_unchanged():
    for name, digest in PERFBENCH_DIGESTS.items():
        circuit, width = name.rsplit("-", 1)
        spec = CIRCUITS[circuit](int(width))
        assert canonical_spec_digest(spec.outputs, spec.input_words) == digest, name


def sliced_row_bytes(rows, mask_bytes):
    """The digest's row bytes as a strided slice of every row's low bytes."""
    little = rows.astype("<u8").view(np.uint8).reshape(-1, 8)
    return little[:, :mask_bytes].tobytes()


@pytest.mark.parametrize("mask_bytes", range(1, 9))
def test_row_bytes_equal_the_sliced_bytes(mask_bytes):
    rng = np.random.default_rng(mask_bytes)
    high = 1 << (8 * mask_bytes) if mask_bytes < 8 else 1 << 63
    rows = np.unique(rng.integers(0, high, size=5000, dtype=np.uint64))
    rows[-1] = (1 << (8 * mask_bytes)) - 1  # the widest row a mask holds
    rows.setflags(write=False)
    assert bytes(canonical._row_bytes(rows, mask_bytes)) == sliced_row_bytes(rows, mask_bytes)
