"""Tests for canonical spec hashing, the on-disk cache, and the orchestrator."""

import functools
import gc
import hashlib
import json
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernel_bodies import running
from reference_loop import reference_decomposition
from test_engine_parity import assert_bit_identical

from repro.anf import (
    Anf,
    Context,
    TermMatrix,
    canonical_spec_digest,
    canonical_spec_payload,
    majority,
    parse,
    sortkernel,
    variables,
)
from repro.benchcircuits import adder_spec, counter_spec, lzd_spec, majority_spec
from repro.core import DecompositionOptions, progressive_decomposition
from repro.core.decompose import Decomposition
from repro.engine import (
    BatchJob,
    BatchOrchestrator,
    DecompositionCache,
    Pipeline,
    cache_key,
    decompose_cached,
    deserialize_decomposition,
    serialize_decomposition,
)
from repro.engine.cache import decode_record, encode_record
from repro.service.jobs import CIRCUITS


def _majority_outputs(width=7):
    ctx = Context()
    bits = ctx.bus("a", width)
    return {"maj": majority(variables(ctx, bits), ctx)}, [bits]


class TestCanonicalDigest:
    def test_independent_of_context_identity_and_unused_vars(self):
        c1 = Context(["a", "b", "c"])
        c2 = Context(["a", "b", "c", "unused_tag"])
        e1 = {"f": parse(c1, "a*b ^ c"), "g": parse(c1, "b ^ 1")}
        e2 = {"f": parse(c2, "a*b ^ c"), "g": parse(c2, "b ^ 1")}
        assert canonical_spec_digest(e1) == canonical_spec_digest(e2)
        assert canonical_spec_payload(e1) == canonical_spec_payload(e2)

    def test_declaration_order_is_part_of_the_key(self):
        # findGroup iterates candidates in declaration order, so the same
        # functions declared differently may decompose differently — the
        # digest must keep such specs apart (a warm hit must always be what
        # the cold run would have produced).
        c1 = Context(["a", "b", "c"])
        c2 = Context(["c", "b", "a"])
        e1 = {"f": parse(c1, "a*b ^ c")}
        e2 = {"f": parse(c2, "a*b ^ c")}
        assert canonical_spec_digest(e1) != canonical_spec_digest(e2)

    def test_distinguishes_functions_ports_and_words(self):
        ctx = Context(["a", "b", "c"])
        base = {"f": parse(ctx, "a*b ^ c")}
        assert canonical_spec_digest(base) != canonical_spec_digest(
            {"f": parse(ctx, "a*b ^ c ^ 1")}
        )
        assert canonical_spec_digest(base) != canonical_spec_digest(
            {"h": parse(ctx, "a*b ^ c")}
        )
        assert canonical_spec_digest(base, [["a", "b"], ["c"]]) != canonical_spec_digest(
            base, [["a", "b", "c"]]
        )

    def test_same_builder_same_digest_across_contexts(self):
        first = counter_spec(6)
        second = counter_spec(6)
        assert canonical_spec_digest(
            first.outputs, first.input_words
        ) == canonical_spec_digest(second.outputs, second.input_words)

    def test_wide_spec_same_digest_across_contexts(self):
        spec = adder_spec(10)
        twin = adder_spec(10)
        assert canonical_spec_digest(spec.outputs) == canonical_spec_digest(twin.outputs)

    def test_constant_spec(self):
        ctx = Context()
        digest = canonical_spec_digest({"zero": parse(ctx, "0"), "one": parse(ctx, "1")})
        assert isinstance(digest, str) and len(digest) == 64


#: Hex spec digest and default-pipeline cache key of every service circuit
#: family at two widths.  Cache records are addressed by these keys, so any
#: change to the canonical form orphans every stored result: the values are
#: frozen, not recomputed.
PINNED_DIGESTS = {
    ("adder", 4): (
        "48f85bf565cd2ec560d1b8e8bcb077ffb01fc66c9eb93983574f8a7c6892ee8e",
        "4d5e7a616609c5ab3aae6b2433b17f54c0aadb3c2842bbcea857c363e52e4e75",
    ),
    ("adder", 10): (
        "0df305ebf3d041725c1fd86c43d56f4fd2dabcd29f9e6eb624c8a7cadc15ac05",
        "a3e5680d49decc35a3bccd6bc5ae0f0548a0da57bafe31a791e2b0db46bfa682",
    ),
    ("comparator", 6): (
        "5f39423a6cc746c59ca89b2a2bb0b2301bebcf3d6b74cb5ff35c07c15c6b83cc",
        "4f175ae4e7a689e4eeeb758604d6393020d0c31fc9b835055def2c8bc07117e0",
    ),
    ("comparator", 12): (
        "e6b2a7a97a6c74f456528503147f30951ea66db93cad1678918a6c374ec35fc8",
        "68b694b341167a42381f9d303f0d9d1d7b3c11b5778424df3608cc3011ca637f",
    ),
    ("counter", 5): (
        "ad9b197839bde63597e836a40e5917c5e733547a07a64c2395ae775ddaa56cc8",
        "911ba7d89cf606c6fe1b0bfde4e7808e3a328df74d109e3a275b668c123c8a77",
    ),
    ("counter", 9): (
        "89b9e840c91f6a4f5d53545bb6e1ff342950f1ec1c4ad8deec5a0aaf860ef701",
        "25d9c2a0e170018bb371711a7558d563a2732a603f95eccbdf0b5522f0a28696",
    ),
    ("lod", 8): (
        "e9791b32c58da802bb6e768c1668c0a056cc1fbb216fd3c1fab196d05042947a",
        "04f92e625b4b30c2d5d822dead6f09ebcd70ced2e01c2750ae4e8432bc14660e",
    ),
    ("lod", 16): (
        "5440daf8c99096dff2285aba5aa91666b31b303c414cb27f5079677f5d666256",
        "94cf535ab7d364e0fdd1b7888722a1a63ae43c159a94904f189c47f7248c1384",
    ),
    ("lzd", 8): (
        "5a88b9fbfc1aecc1b42771517d8533498f1746c3049e3c17fa6a81cb3e334d8b",
        "c67c6e41ad3c049a4462ed64bc7d54ba88efaf04166baa35644d1b9bcb0d2c6e",
    ),
    ("lzd", 12): (
        "d8d856c3bde6cc2de27692059a7b257a40cf14845a197089e030678f83ceb0d5",
        "3da8906f8c6aee9e44c92d43f3e2a2b656d05f85eeef8e64d07887e683d325e8",
    ),
    ("majority", 5): (
        "ab5b8c10ff34043335dd9387f68360c495483eb14d8a44e8c8941c18370658c1",
        "53f500e99a65a9345f91c10498d24a5f7fa82b16306127ade72c89c841007b9b",
    ),
    ("majority", 9): (
        "4b4999c300b22ffdc9b07be84ed74af5f0c5e8301fd0cf8b6e0894a414d4605b",
        "a223676afba3b30cdfd406325edf52884fb62a7a89990a0ae4d6b2c5c675fb91",
    ),
    ("three_input_adder", 3): (
        "d53d8de2a57ac5281cd202e7276887622100c6a437004a94dfde0a18256e94d9",
        "37af53bc8e1aeae6df270ccfd5f21bb00058f28add39ad98df639704506e2d98",
    ),
    ("three_input_adder", 5): (
        "3287a44aa207da61a9979f8a035b8d2276082d468cb5927eabf44826fe191fd3",
        "d10a7881bf383bc8634932684b9be6c525ac823f79d62e4dde8de9dc591c5921",
    ),
}


class TestPinnedDigests:
    def test_every_circuit_family_is_pinned(self):
        assert {family for family, _ in PINNED_DIGESTS} == set(CIRCUITS)

    @pytest.mark.parametrize(
        "family,width", sorted(PINNED_DIGESTS), ids=lambda value: str(value)
    )
    def test_circuit_digest_and_cache_key(self, family, width):
        spec = CIRCUITS[family](width)
        digest = canonical_spec_digest(spec.outputs, spec.input_words)
        key = cache_key(digest, Pipeline.from_options(None).config_key())
        assert (digest, key) == PINNED_DIGESTS[(family, width)]

    def test_permuted_declaration_with_an_unused_variable(self):
        ctx = Context(["c", "t", "a", "d", "b"])
        outputs = {"f": parse(ctx, "a*b ^ c*d ^ a ^ 1"), "g": parse(ctx, "b*c ^ d")}
        words = [["a", "b"], ["c", "d"]]
        assert canonical_spec_payload(outputs, words) == {
            "support": ["c", "a", "d", "b"],
            "outputs": {"f": [0, 2, 5, 10], "g": [4, 9]},
            "input_words": words,
        }
        assert canonical_spec_digest(outputs, words) == (
            "8cc05d0e2be67b1ddb4ac58d48f77eb605bfe2e9d4cfe6d5def519a6822e10fa"
        )

    def test_inputs_behind_seventy_tags(self):
        # Source masks reach bit 75, beyond any 64-bit row.
        ctx = Context([f"tag{i}" for i in range(70)] + [f"x{i}" for i in range(6)])
        outputs = {"f": parse(ctx, "x0*x1 ^ x2*x3*x4 ^ x5 ^ 1"), "g": parse(ctx, "x1*x5 ^ x0")}
        assert canonical_spec_payload(outputs) == {
            "support": [f"x{i}" for i in range(6)],
            "outputs": {"f": [0, 3, 28, 32], "g": [1, 34]},
        }
        assert canonical_spec_digest(outputs) == (
            "46b01a5808a7c1dbc2917deb257041406fcc6c04fc7bcf72628fd3efa42c06b2"
        )

    def test_support_wider_than_a_row(self):
        # 72 support variables: canonical masks need 9 bytes each.
        ctx = Context([f"v{i}" for i in range(72)])
        outputs = {
            "f": parse(ctx, " ^ ".join(f"v{i}*v{(i * 7 + 3) % 72}" for i in range(72))),
            "g": parse(ctx, "v71 ^ v0*v64 ^ 1"),
        }
        assert canonical_spec_digest(outputs) == (
            "3712bad5655ac8dc4cf0f463c494324a5f5968be579adff0477fd306193a2f14"
        )


def _reference_remap(outputs):
    """Per-term oracle: relabel each support bit to its declaration rank."""
    ctx = next(iter(outputs.values())).ctx
    support = 0
    for expr in outputs.values():
        support |= expr.support_mask
    names = list(ctx.names_of(support))
    rank = {ctx.index(name): position for position, name in enumerate(names)}
    rendered = {}
    for port in sorted(outputs):
        rendered[port] = sorted(
            sum(1 << rank[bit] for bit in range(mask.bit_length()) if mask >> bit & 1)
            for mask in outputs[port].terms
        )
    return names, rendered


def _reference_payload(outputs, input_words):
    names, rendered = _reference_remap(outputs)
    payload = {"support": names, "outputs": rendered}
    if input_words is not None:
        payload["input_words"] = [list(word) for word in input_words]
    return payload


def _reference_digest(outputs, input_words):
    names, rendered = _reference_remap(outputs)
    header = {"support": names, "ports": sorted(rendered)}
    if input_words is not None:
        header["input_words"] = [list(word) for word in input_words]
    digest = hashlib.sha256(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    width = (len(names) + 7) // 8 or 1
    for port in sorted(rendered):
        digest.update(port.encode("utf-8") + b"\0")
        digest.update(b"".join(mask.to_bytes(width, "little") for mask in rendered[port]))
    return digest.hexdigest()


@st.composite
def _interleaved_specs(draw):
    """Specs whose inputs sit among extra context variables in random order.

    With ``wide`` set, 64 more tags join the shuffle, so some source masks
    no longer fit a 64-bit row.  Each output is set-backed, set-backed with
    an attached matrix, or matrix-only.
    """
    n_inputs = draw(st.integers(1, 10))
    n_tags = draw(st.integers(0, 8)) + (64 if draw(st.booleans()) else 0)
    names = [f"x{i}" for i in range(n_inputs)] + [f"t{i}" for i in range(n_tags)]
    ctx = Context(draw(st.permutations(names)))
    bits = [1 << ctx.index(f"x{i}") for i in range(n_inputs)]
    outputs = {}
    for port in draw(st.lists(st.sampled_from("fghk"), min_size=1, max_size=3, unique=True)):
        subsets = draw(st.lists(st.integers(0, (1 << n_inputs) - 1), max_size=40))
        expr = Anf(ctx, [sum(bit for i, bit in enumerate(bits) if s >> i & 1) for s in subsets])
        storage = draw(st.sampled_from(["set", "both", "matrix"]))
        if storage == "both":
            expr.term_matrix(build=True)
        elif storage == "matrix":
            matrix = TermMatrix.from_terms(expr.terms)
            if matrix is not None:
                expr = Anf._from_matrix(ctx, matrix)
        outputs[port] = expr
    words = [[f"x{i}" for i in range(n_inputs)]] if draw(st.booleans()) else None
    return outputs, words


class TestCanonicalRemapOracle:
    @settings(max_examples=80, deadline=None)
    @given(_interleaved_specs())
    def test_digest_and_payload_match_per_term_remap(self, spec):
        outputs, words = spec
        assert canonical_spec_payload(outputs, words) == _reference_payload(outputs, words)
        assert canonical_spec_digest(outputs, words) == _reference_digest(outputs, words)


class TestSerialization:
    def test_round_trip_is_bit_identical(self):
        outputs, words = _majority_outputs(7)
        decomposition = progressive_decomposition(outputs, input_words=words)
        rebuilt = deserialize_decomposition(serialize_decomposition(decomposition))
        assert_bit_identical(decomposition, rebuilt)
        assert rebuilt.verify()
        assert rebuilt.describe() == decomposition.describe()
        assert rebuilt.trace() == decomposition.trace()

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            deserialize_decomposition({"schema": "bogus"})


def _bare_decomposition(outputs):
    """A decomposition with no blocks: just a spec to (de)serialise."""
    ctx = next(iter(outputs.values())).ctx
    return Decomposition(
        ctx=ctx, original=dict(outputs), outputs=dict(outputs), blocks=[],
        iterations=[], options=DecompositionOptions(), primary_inputs=list(ctx.names),
    )


def _is_matrix_backed(expr):
    return expr._terms is None and expr.term_matrix() is not None


class TestPackedSerialization:
    """Digest and record I/O keep wide specs packed, and records stay sorted."""

    def test_digest_and_store_build_no_second_storage(self):
        source = lzd_spec(12).outputs["v"]
        terms = source.term_list()
        outputs = {
            "packed": Anf._from_matrix(source.ctx, TermMatrix.from_terms(terms)),
            "plain": Anf(source.ctx, terms),
        }
        canonical_spec_digest(outputs)
        serialize_decomposition(_bare_decomposition(outputs))
        assert outputs["packed"]._terms is None
        assert outputs["plain"].term_matrix() is None

    def test_store_after_decomposition_keeps_originals_packed(self):
        spec = lzd_spec(12)
        decomposition = progressive_decomposition(spec.outputs, input_words=spec.input_words)
        packed = [p for p, e in decomposition.original.items() if _is_matrix_backed(e)]
        assert packed
        serialize_decomposition(decomposition)
        assert all(decomposition.original[p]._terms is None for p in packed)

    def test_set_backed_expression_with_attached_matrix_serialises_sorted(self):
        ctx = Context([f"v{i}" for i in range(24)])
        terms = [(1 << 20) | 1, 3, 1 << 22, (1 << 10) | 1, 17, 1 << 16, 0]
        expr = Anf(ctx, terms)
        assert list(expr.terms) != sorted(terms)  # frozenset order is not sorted
        assert expr.term_matrix(build=True) is not None
        record = serialize_decomposition(_bare_decomposition({"f": expr}))
        assert record["original"]["f"].tolist() == sorted(terms)
        assert record["outputs"]["f"].tolist() == sorted(terms)

    def test_wide_round_trip_is_byte_identical_and_packed(self):
        spec = lzd_spec(12)
        decomposition = progressive_decomposition(spec.outputs, input_words=spec.input_words)
        record = serialize_decomposition(decomposition)
        rebuilt = deserialize_decomposition(record)
        assert encode_record(serialize_decomposition(rebuilt)) == encode_record(record)
        wide = [p for p, e in rebuilt.original.items()
                if e.num_terms >= sortkernel.KERNEL_MIN_ROWS]
        assert wide
        for port, expr in rebuilt.original.items():
            assert _is_matrix_backed(expr) == (port in wide), port
        assert_bit_identical(decomposition, rebuilt)
        assert rebuilt.verify()

    @pytest.mark.parametrize(
        "edit", ["reversed", "duplicated", "too-wide", "float", "negative", "string"]
    )
    def test_hand_edited_wide_list_decodes_through_the_set_path(self, edit):
        spec = lzd_spec(12)
        record = serialize_decomposition(_bare_decomposition(spec.outputs))
        terms = record["original"]["v"].tolist()
        assert len(terms) >= sortkernel.KERNEL_MIN_ROWS
        # The float truncates back to the row it replaced and the string
        # parses as that row: numpy's uint64 conversion would accept both.
        edited = {
            "reversed": terms[::-1],
            "duplicated": terms + terms[:1],
            "too-wide": terms + [1 << 70],
            "float": [terms[0], terms[1] + 0.5, *terms[2:]],
            "negative": [-1, *terms[1:]],
            "string": [terms[0], str(terms[1]), *terms[2:]],
        }[edit]
        record["original"]["v"] = edited
        decoded = deserialize_decomposition(record).original["v"]
        assert decoded.term_matrix() is None
        assert decoded.terms == frozenset(edited)


def _tolisted(value):
    """``value`` with every ndarray turned into its ``tolist()``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _tolisted(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_tolisted(item) for item in value]
    return value


def _widest(value):
    """The largest int anywhere in a list-form record."""
    if isinstance(value, dict):
        return max(map(_widest, value.values()), default=0)
    if isinstance(value, list):
        return max(map(_widest, value), default=0)
    return value if type(value) is int else 0


class TestRecordWriter:
    """Stored bytes equal the stdlib ``json`` rendering of the list form."""

    @pytest.mark.parametrize("circuit,width,backend", [
        ("lzd", 12, "packed"),        # wide packed rows through orjson
        ("adder", 10, "packed"),      # masks of 2**64 or more: stdlib fallback
        ("majority", 7, "unpacked"),  # set-backed lists
    ])
    def test_stored_bytes_equal_stdlib_json(self, tmp_path, circuit, width, backend):
        with running(backend):
            spec = CIRCUITS[circuit](width)
            decomposition = progressive_decomposition(
                spec.outputs, input_words=spec.input_words)
            cache = DecompositionCache(tmp_path)
            record = cache.store("k", decomposition)
        stored = cache._path("k").read_bytes()
        plain = _tolisted(record)
        assert stored == json.dumps(plain, separators=(",", ":")).encode()
        # Only adder's block variables widen its context past 64 variables.
        assert (_widest(plain) >= 1 << 64) == (circuit == "adder")
        if circuit == "lzd":
            assert any(len(terms) >= sortkernel.KERNEL_MIN_ROWS
                       for terms in record["original"].values()
                       if isinstance(terms, np.ndarray))
        if backend == "unpacked":
            assert not any(isinstance(terms, np.ndarray)
                           for terms in record["original"].values())

    def test_non_ascii_names_round_trip(self, tmp_path):
        ctx = Context()
        bits = ctx.bus("\u00e4", 5)
        outputs = {"gr\u00f6\u00dfe": majority(variables(ctx, bits), ctx)}
        decomposition = progressive_decomposition(outputs, input_words=[bits])
        cache = DecompositionCache(tmp_path)
        cache.store("k", decomposition)
        stored = cache._path("k").read_bytes()
        assert json.loads(stored) == json.loads(
            json.dumps(_tolisted(serialize_decomposition(decomposition))))
        rebuilt = cache.load("k")
        assert rebuilt.ctx.names == decomposition.ctx.names
        assert_bit_identical(decomposition, rebuilt)
        assert rebuilt.verify()


class TestArrayDecode:
    """``deserialize_decomposition`` on records that hold row arrays."""

    @staticmethod
    def _decode(rows):
        record = serialize_decomposition(_bare_decomposition(lzd_spec(12).outputs))
        record["original"]["v"] = rows
        return deserialize_decomposition(record).original["v"]

    @staticmethod
    def _wide_rows():
        rows = np.asarray(lzd_spec(12).outputs["v"].term_list(), dtype=np.uint64)
        rows.sort()
        assert len(rows) >= sortkernel.KERNEL_MIN_ROWS
        return rows

    def test_ascending_array_becomes_a_read_only_matrix(self):
        rows = self._wide_rows()
        assert rows.flags.writeable  # as an unpickled array comes back
        decoded = self._decode(rows)
        assert _is_matrix_backed(decoded)
        words = decoded.term_matrix().words
        assert not words.flags.writeable
        assert words.tolist() == rows.tolist()

    @pytest.mark.parametrize("edit", ["reversed", "duplicated"])
    def test_unsorted_array_decodes_through_the_set_path(self, edit):
        rows = self._wide_rows()
        edited = {
            "reversed": rows[::-1].copy(),
            "duplicated": np.concatenate([rows, rows[:1]]),
        }[edit]
        decoded = self._decode(edited)
        assert decoded.term_matrix() is None
        assert decoded.terms == frozenset(edited.tolist())


@functools.lru_cache(maxsize=None)
def _lzd12_record():
    """The lzd-12 decomposition record, as a dict and as its stored bytes."""
    spec = lzd_spec(12)
    decomposition = progressive_decomposition(spec.outputs, input_words=spec.input_words)
    record = serialize_decomposition(decomposition)
    return record, encode_record(record)


def _lzd12_record_bytes():
    return _lzd12_record()[1]


#: Row arrays as the writer renders them, found independently of the reader.
_ROW_SPAN = re.compile(rb"\[([0-9][0-9,]*)\]")


def _row_spans(raw):
    """``(start, end)`` of every written span of at least ``KERNEL_MIN_ROWS`` rows."""
    return [match.span(1) for match in _ROW_SPAN.finditer(raw)
            if match.group(1).count(b",") + 1 >= sortkernel.KERNEL_MIN_ROWS]


def _arrays(value):
    """Every ndarray under a decoded record, in document order."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _arrays(item)


class TestDecodeRecord:
    """``decode_record`` is ``json.loads`` with canonical row spans as arrays."""

    #: Edits of one row token: the record stays valid JSON (or stops being
    #: JSON for both parsers) but the span is no longer what the writer emits.
    TOKEN_EDITS = {
        "leading-zero": lambda token: b"0" + token,
        "plus": lambda token: b"+" + token,
        "minus": lambda token: b"-" + token,
        "space": lambda token: b" " + token,
        "vertical-tab": lambda token: b"\x0b" + token,
        "duplicated": lambda token: token + b"," + token,
    }
    #: New last rows: still ascending, but only the first is a row the
    #: writer can emit (``fromstring`` reads the last two as 2**64-1).
    LAST_ROWS = {"twenty-digits": 10**19 + 7, "max-row": 2**64 - 1, "overflow": 2**64}

    @staticmethod
    def _check(raw, arrays):
        """Same answer as ``json.loads`` (or the same ``ValueError``), with
        exactly ``arrays`` read-only ``uint64`` row arrays in it."""
        try:
            expected = json.loads(raw)
        except ValueError:
            with pytest.raises(ValueError):
                decode_record(raw)
            return
        decoded = decode_record(raw)
        assert _tolisted(decoded) == expected
        found = list(_arrays(decoded))
        assert len(found) == arrays
        for rows in found:
            assert rows.dtype == np.uint64 and rows.ndim == 1
            assert not rows.flags.writeable

    def test_exactly_the_canonical_spans_come_back_as_arrays(self):
        record, raw = _lzd12_record()
        decoded = decode_record(raw)
        wide = [(port, rows) for port, rows in record["original"].items()
                if isinstance(rows, np.ndarray) and len(rows) >= sortkernel.KERNEL_MIN_ROWS]
        assert len(wide) == len(_row_spans(raw)) == 2
        for port, rows in wide:
            assert isinstance(decoded["original"][port], np.ndarray)
            assert decoded["original"][port].tolist() == rows.tolist()
        self._check(raw, arrays=2)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_truncation(self, data):
        raw = _lzd12_record_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        self._check(raw[:cut], arrays=0)

    @pytest.mark.parametrize("edit", sorted(TOKEN_EDITS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_edited_row_token(self, edit, data):
        raw = _lzd12_record_bytes()
        spans = _row_spans(raw)
        start, end = spans[data.draw(st.integers(0, len(spans) - 1))]
        tokens = raw[start:end].split(b",")
        at = data.draw(st.integers(0, len(tokens) - 1))
        tokens[at] = self.TOKEN_EDITS[edit](tokens[at])
        edited = raw[:start] + b",".join(tokens) + raw[end:]
        self._check(edited, arrays=len(spans) - 1)

    @pytest.mark.parametrize("edit", ["reversed", "trailing-comma", *LAST_ROWS])
    def test_edited_span(self, edit):
        raw = _lzd12_record_bytes()
        for start, end in _row_spans(raw):
            span = raw[start:end]
            if edit in self.LAST_ROWS:
                span = span.rsplit(b",", 1)[0] + b",%d" % self.LAST_ROWS[edit]
            else:
                span = {"reversed": b",".join(span.split(b",")[::-1]),
                        "trailing-comma": span + b","}[edit]
            self._check(raw[:start] + span + raw[end:],
                        arrays=1 + (edit == "twenty-digits"))

    @pytest.mark.parametrize("forged", [False, True])
    def test_span_as_a_key(self, forged):
        # Invalid JSON whose skeleton parses: the sentinel lands on a key,
        # so the walk misses it and the reader defers to ``json.loads`` —
        # also when a name forges the missing sentinel's text.
        raw = _lzd12_record_bytes()
        start, end = _row_spans(raw)[-1]
        if forged:
            raw = raw.replace(b'"name":"t1_0"', b'"name":"\\u0000rows:2"')
        self._check(raw[:-1] + b",[" + raw[start:end] + b"]:0}", arrays=0)

    def test_duplicate_key_drops_a_span(self):
        # The later ``v`` wins in both parsers, so one sentinel is never met.
        raw = _lzd12_record_bytes()
        start, end = _row_spans(raw)[-1]
        assert raw[start - len(b'"v":['):start] == b'"v":['
        self._check(raw[:end + 1] + b',"v":[1,2]' + raw[end + 1:], arrays=0)

    @pytest.mark.parametrize("where", ["variable", "block"])
    @pytest.mark.parametrize("name", [
        pytest.param("[" + ",".join(map(str, range(2048))) + "]", id="digit-list"),
        *(pytest.param(f"\\u0000rows:{k}", id=f"sentinel-{k}") for k in range(3)),
    ])
    def test_name_that_looks_like_rows(self, name, where):
        # A span inside a string, or a foreign sentinel before (a variable
        # name) or after (a block name) the real spans: the reader declines
        # the whole record to ``json.loads``.
        raw = _lzd12_record_bytes()
        target = {"variable": b'"names":["a0"', "block": b'"name":"t1_0"'}[where]
        assert raw.count(target) == 1
        quoted = b'"' + name.encode() + b'"'
        self._check(raw.replace(target, target.rsplit(b'"', 2)[0] + quoted), arrays=0)

    @pytest.mark.parametrize("position", ["first", "last"])
    def test_duplicate_original_key(self, position):
        raw = _lzd12_record_bytes()
        start, end = _row_spans(raw)[-1]
        duplicate = b'"original":{"v":[' + raw[start:end] + b"]}"
        if position == "first":
            edited = b"{" + duplicate + b"," + raw[1:]
        else:
            edited = raw[:-1] + b"," + duplicate + b"}"
        self._check(edited, arrays=0)


class TestDecompositionCache:
    def test_miss_then_hit(self, tmp_path):
        cache = DecompositionCache(tmp_path)
        outputs, words = _majority_outputs(7)
        first, hit_first = decompose_cached(outputs, input_words=words, cache=cache)
        assert not hit_first
        assert len(cache) == 1
        outputs2, words2 = _majority_outputs(7)
        second, hit_second = decompose_cached(outputs2, input_words=words2, cache=cache)
        assert hit_second
        assert_bit_identical(first, second)

    def test_different_pipeline_config_misses(self, tmp_path):
        cache = DecompositionCache(tmp_path)
        outputs, words = _majority_outputs(7)
        decompose_cached(outputs, input_words=words, cache=cache)
        _, hit = decompose_cached(
            outputs, DecompositionOptions(use_identities=False),
            input_words=words, cache=cache,
        )
        assert not hit
        assert len(cache) == 2

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cache = DecompositionCache(tmp_path)
        outputs, words = _majority_outputs(5)
        pipeline = Pipeline.from_options(None)
        key = cache_key(canonical_spec_digest(outputs, words), pipeline.config_key())
        decompose_cached(outputs, input_words=words, cache=cache)
        (tmp_path / f"{key}.json").write_text("{truncated")
        assert cache.load(key) is None
        _, hit = decompose_cached(outputs, input_words=words, cache=cache)
        assert not hit

    def test_clear(self, tmp_path):
        cache = DecompositionCache(tmp_path)
        outputs, words = _majority_outputs(5)
        decompose_cached(outputs, input_words=words, cache=cache)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestBatchOrchestrator:
    def test_results_match_in_process_runs(self, tmp_path):
        orchestrator = BatchOrchestrator(tmp_path, processes=2)
        results = orchestrator.run([
            BatchJob("maj7", majority_spec, (7,)),
            BatchJob("counter6", counter_spec, (6,)),
            BatchJob(
                "maj7-noident", majority_spec, (7,),
                options=DecompositionOptions(use_identities=False),
            ),
        ])
        assert set(results) == {"maj7", "counter6", "maj7-noident"}
        for name, outcome in results.items():
            assert not outcome.cache_hit, name
            assert outcome.decomposition.verify(), name

        spec = majority_spec(7)
        expected = progressive_decomposition(spec.outputs, input_words=spec.input_words)
        assert_bit_identical(expected, results["maj7"].decomposition)

        with running("unpacked"):
            spec = majority_spec(7)
            reference = reference_decomposition(
                spec.outputs,
                DecompositionOptions(use_identities=False),
                input_words=spec.input_words,
            )
        assert_bit_identical(reference, results["maj7-noident"].decomposition)

    def test_pooled_matrices_come_back_read_only(self, tmp_path):
        jobs = [BatchJob("lzd12", lzd_spec, (12,)), BatchJob("maj7", majority_spec, (7,))]
        cold = BatchOrchestrator(tmp_path, processes=2).run(jobs)
        warm = BatchOrchestrator(tmp_path, processes=2).run(jobs)
        for name in ("lzd12", "maj7"):
            assert not cold[name].cache_hit and warm[name].cache_hit
            assert_bit_identical(cold[name].decomposition, warm[name].decomposition)
        spec = lzd_spec(12)
        expected = progressive_decomposition(spec.outputs, input_words=spec.input_words)
        assert_bit_identical(expected, cold["lzd12"].decomposition)
        matrices = [
            expr.term_matrix()
            for results in (cold, warm)
            for expr in results["lzd12"].decomposition.original.values()
            if _is_matrix_backed(expr)
        ]
        assert len(matrices) >= 2
        assert not any(matrix.words.flags.writeable for matrix in matrices)

    def test_second_run_hits_the_cache(self, tmp_path):
        jobs = [BatchJob("maj7", majority_spec, (7,))]
        cold = BatchOrchestrator(tmp_path, processes=1).run(jobs)
        warm = BatchOrchestrator(tmp_path, processes=1).run(jobs)
        assert not cold["maj7"].cache_hit
        assert warm["maj7"].cache_hit
        assert_bit_identical(cold["maj7"].decomposition, warm["maj7"].decomposition)

    def test_duplicate_job_names_rejected(self):
        orchestrator = BatchOrchestrator(processes=1)
        with pytest.raises(ValueError):
            orchestrator.run([
                BatchJob("same", majority_spec, (5,)),
                BatchJob("same", majority_spec, (7,)),
            ])

    def test_mapping_spec_builder(self, tmp_path):
        def build_mapping(width):
            outputs, _ = _majority_outputs(width)
            return outputs

        results = BatchOrchestrator(tmp_path, processes=1).run(
            [BatchJob("plain", build_mapping, (5,))]
        )
        assert results["plain"].decomposition.verify()

    def test_warm_cache_beats_sequential_cold_2x(self, tmp_path):
        """Acceptance check: the orchestrator with a warm cache re-runs
        Table 1 decomposition rows at least 2x faster than sequential cold
        runs.  Uses the rows where decomposition dominates the job (spec
        construction is common to both sides); the observed margin there is
        ~5-8x, so the 2x threshold keeps the test robust to timer noise.

        Each timed run starts from a fresh collection: a full collection of
        the heap the earlier tests left behind costs tens of ms, as much as
        the cold run, and lands in whichever run crosses the collector's
        threshold."""
        circuits = [("majority", 15), ("counter", 16), ("adder", 12)]
        builders = {
            "majority": majority_spec, "counter": counter_spec, "adder": adder_spec,
        }
        jobs = [
            BatchJob(name, builders[name], (width,)) for name, width in circuits
        ]
        orchestrator = BatchOrchestrator(tmp_path, processes=1)

        gc.collect()
        start = time.perf_counter()
        cold = orchestrator.run(jobs)  # sequential (1 process), empty cache
        sequential_cold = time.perf_counter() - start
        assert not any(outcome.cache_hit for outcome in cold.values())

        gc.collect()
        start = time.perf_counter()
        warm = orchestrator.run(jobs)
        warm_elapsed = time.perf_counter() - start
        assert all(outcome.cache_hit for outcome in warm.values())
        for name, _ in circuits:
            assert_bit_identical(cold[name].decomposition, warm[name].decomposition)
        assert warm_elapsed * 2 < sequential_cold, (
            f"warm batch {warm_elapsed:.3f}s vs sequential cold {sequential_cold:.3f}s"
        )


class TestCacheRobustness:
    """Corrupted or stale cache state must fall back to recompute, not crash."""

    def _content_key(self, outputs, words):
        pipeline = Pipeline.from_options(None)
        return cache_key(canonical_spec_digest(outputs, words), pipeline.config_key())

    def test_wrong_schema_record_is_a_miss(self, tmp_path):
        cache = DecompositionCache(tmp_path)
        outputs, words = _majority_outputs(5)
        key = self._content_key(outputs, words)
        decompose_cached(outputs, input_words=words, cache=cache)
        (tmp_path / f"{key}.json").write_text('{"schema": "not-a-decomposition"}')
        assert cache.load(key) is None
        assert cache.load_raw(key) is None

    def test_missing_sections_record_is_a_miss(self, tmp_path):
        cache = DecompositionCache(tmp_path)
        outputs, words = _majority_outputs(5)
        key = self._content_key(outputs, words)
        decompose_cached(outputs, input_words=words, cache=cache)
        (tmp_path / f"{key}.json").write_text(
            '{"schema": "repro-decomposition-v1", "names": []}'
        )
        assert cache.load(key) is None

    def test_binary_garbage_record_is_a_miss(self, tmp_path):
        cache = DecompositionCache(tmp_path)
        outputs, words = _majority_outputs(5)
        key = self._content_key(outputs, words)
        decompose_cached(outputs, input_words=words, cache=cache)
        (tmp_path / f"{key}.json").write_bytes(b"\x00\xff\xfe not json at all")
        assert cache.load(key) is None
        _, hit = decompose_cached(outputs, input_words=words, cache=cache)
        assert not hit

    def test_structurally_invalid_record_recomputes(self, tmp_path):
        # Parses, has the right schema and sections, but the payload is junk:
        # deserialisation raises and load() must translate that into a miss.
        cache = DecompositionCache(tmp_path)
        outputs, words = _majority_outputs(5)
        key = self._content_key(outputs, words)
        decompose_cached(outputs, input_words=words, cache=cache)
        import json as _json
        broken = cache.load_raw(key)
        broken["blocks"] = [{"definitely": "not a block"}]
        (tmp_path / f"{key}.json").write_text(_json.dumps(broken))
        assert cache.load(key) is None
        result, hit = decompose_cached(outputs, input_words=words, cache=cache)
        assert not hit
        assert result.verify()

    def test_wrongly_typed_section_record_recomputes(self, tmp_path):
        # A dict section turned into a list fails with AttributeError on
        # decode; that is a miss and a quarantine like any other breakage.
        cache = DecompositionCache(tmp_path)
        outputs, words = _majority_outputs(5)
        key = self._content_key(outputs, words)
        decompose_cached(outputs, input_words=words, cache=cache)
        broken = cache.load_raw(key)
        broken["iterations"][0]["removed_blocks"] = []
        (tmp_path / f"{key}.json").write_text(json.dumps(broken))
        assert cache.load(key) is None
        assert (tmp_path / f"{key}.json.corrupt").exists()
        result, hit = decompose_cached(outputs, input_words=words, cache=cache)
        assert not hit
        assert result.verify()

    def test_stale_job_index_recomputes(self, tmp_path):
        # A job index pointing at a content record that no longer exists must
        # fall through to a full rebuild, then repair both layers.
        jobs = [BatchJob("maj5", majority_spec, (5,))]
        cold = BatchOrchestrator(tmp_path, processes=1).run(jobs)
        for record in tmp_path.glob("*.json"):
            record.unlink()
        assert list((tmp_path / "index").glob("*.key")), "job index missing"
        rerun = BatchOrchestrator(tmp_path, processes=1).run(jobs)
        assert not rerun["maj5"].cache_hit
        assert rerun["maj5"].decomposition.verify()
        assert_bit_identical(cold["maj5"].decomposition, rerun["maj5"].decomposition)
        warm = BatchOrchestrator(tmp_path, processes=1).run(jobs)
        assert warm["maj5"].cache_hit

    def test_corrupt_job_index_entry_recomputes(self, tmp_path):
        jobs = [BatchJob("maj5", majority_spec, (5,))]
        BatchOrchestrator(tmp_path, processes=1).run(jobs)
        for index_file in (tmp_path / "index").glob("*.key"):
            index_file.write_text("0123deadbeef-not-a-real-content-key")
        rerun = BatchOrchestrator(tmp_path, processes=1).run(jobs)
        assert rerun["maj5"].decomposition.verify()

    def test_truncated_record_behind_fresh_index(self, tmp_path):
        # Index hit -> truncated content record -> worker must rebuild.
        jobs = [BatchJob("maj5", majority_spec, (5,))]
        BatchOrchestrator(tmp_path, processes=1).run(jobs)
        for record in tmp_path.glob("*.json"):
            record.write_text(record.read_text()[: 40])
        rerun = BatchOrchestrator(tmp_path, processes=1).run(jobs)
        assert not rerun["maj5"].cache_hit
        assert rerun["maj5"].decomposition.verify()
