"""Crash-consistency tests for the shared on-disk caches.

Every test answers one question: if a writer is interrupted (killed between
write and rename, tears its payload, or a foreign/damaged file lands at a
record path), do readers (a) never crash, (b) never serve torn data, and
(c) quarantine exactly the damaged records to ``*.corrupt`` sidecars?

The interruption points come from two directions: a byte-level truncation
sweep driven by hypothesis (any prefix of a committed record), and the
``REPRO_FAULT_SPEC`` harness tearing the write path itself at its named
fault sites (``cache.store.payload``, ``cache.store.rename``,
``cache.index.*``).
"""

import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from test_engine_parity import assert_bit_identical

from repro import faults
from repro.anf import Context, canonical_spec_digest, majority, variables
from repro.benchcircuits import lzd_spec
from repro.engine import (
    CacheTelemetry,
    DecompositionCache,
    Pipeline,
    SynthesisCache,
    cache_key,
    corrupt_record_count,
    decompose_cached,
)
from repro.engine.cache import FSYNC_ENV, LOCK_ENV
from repro.eval.flows import run_baseline_flow
from repro.service import parse_job_spec
from repro.service.jobs import execute_job


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    monkeypatch.delenv(faults.ENV, raising=False)
    monkeypatch.delenv(LOCK_ENV, raising=False)
    monkeypatch.delenv(FSYNC_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


def arm(monkeypatch, spec: str) -> None:
    monkeypatch.setenv(faults.ENV, spec)
    faults.reset()


def _majority_outputs(width: int):
    ctx = Context()
    bits = ctx.bus("a", width)
    return {"maj": majority(variables(ctx, bits), ctx)}, [bits]


def _lzd_outputs(width: int):
    spec = lzd_spec(width)
    return spec.outputs, spec.input_words


#: Record sources: majority-5 holds only short term lists; lzd-12 holds two
#: row spans of at least ``KERNEL_MIN_ROWS`` rows, which the reader parses
#: with numpy.
SPECS = {"majority-5": lambda: _majority_outputs(5), "lzd-12": lambda: _lzd_outputs(12)}


def _stored_record(cache_dir, spec="majority-5"):
    """A real committed record: (cache, key, record_path, decomposition)."""
    cache = DecompositionCache(cache_dir, telemetry=CacheTelemetry())
    outputs, words = SPECS[spec]()
    pipeline = Pipeline.from_options(None)
    key = cache_key(canonical_spec_digest(outputs, words), pipeline.config_key())
    outcome = decompose_cached(outputs, input_words=words, cache=cache)
    assert not outcome.cache_hit and outcome.content_key == key
    return cache, key, cache._path(key), outcome.decomposition


def _stored_synthesis_record(cache_dir):
    """A real committed synthesis record: (cache, key, record_path, metrics)."""
    cache = SynthesisCache(cache_dir, telemetry=CacheTelemetry())
    outputs, _ = _majority_outputs(5)
    run_baseline_flow(outputs, synthesis_cache=cache)
    (path,) = cache.root.glob("*.json")
    metrics = json.loads(path.read_bytes())
    del metrics["schema"]
    return cache, path.stem, path, metrics


# ----------------------------------------------------------------------
# Byte-level truncation sweep: any prefix of a record is survivable
# ----------------------------------------------------------------------
class TestTruncationSweep:
    @pytest.mark.parametrize("spec", sorted(SPECS) + ["synthesis"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_prefix_is_a_quarantined_miss(self, tmp_path_factory, spec, data):
        tmp_path = tmp_path_factory.mktemp("trunc")
        if spec == "synthesis":
            cache, key, path, value = _stored_synthesis_record(tmp_path)
        else:
            cache, key, path, value = _stored_record(tmp_path, spec)
        payload = path.read_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        path.write_bytes(payload[:cut])

        assert cache.load(key) is None  # never crashes, never serves torn data
        assert not path.exists()  # the torn record was moved aside ...
        assert path.with_name(path.name + ".corrupt").exists()
        assert cache.telemetry.corrupt == 1

        # ... and the key is immediately writable again with a good record.
        cache.store(key, value)
        assert path.read_bytes() == payload
        if spec == "synthesis":
            assert cache.load(key) == json.loads(payload)
        else:
            assert_bit_identical(cache.load(key), value)

    def test_full_record_loads_bit_identical(self, tmp_path):
        cache, key, _, decomposition = _stored_record(tmp_path)
        assert_bit_identical(cache.load(key), decomposition)
        assert cache.telemetry.corrupt == 0


class TestNestedTooDeep:
    """A record nested past the parser's recursion limit is a quarantined
    miss (``RecursionError``), not an error every job for the key repeats."""

    def _assert_quarantined(self, cache, path, lookup):
        assert lookup() is None
        assert not path.exists()
        assert corrupt_record_count(path.parent) == 1
        assert cache.telemetry.corrupt == 1

    def test_decomposition_record(self, tmp_path):
        cache, key, path, _ = _stored_record(tmp_path)
        path.write_bytes(b"[" * 100000)
        self._assert_quarantined(cache, path, lambda: cache.load(key))

    def test_synthesis_record(self, tmp_path):
        cache = SynthesisCache(tmp_path, telemetry=CacheTelemetry())
        path = tmp_path / "k.json"
        path.write_bytes(b'{"a":' * 100000)
        self._assert_quarantined(cache, path, lambda: cache.load("k"))

    @pytest.mark.parametrize("opening", [b"[", b"[1,"], ids=["brackets", "row-openings"])
    def test_long_run_of_openings_quarantines_promptly(self, tmp_path, opening):
        # Every ``[1,`` opens a candidate row span ending at the same ``]``:
        # a reader that searched for it afresh each time would be quadratic.
        cache, key, path, _ = _stored_record(tmp_path)
        path.write_bytes(opening * 10**6 + b"]")
        began = time.perf_counter()
        self._assert_quarantined(cache, path, lambda: cache.load(key))
        assert time.perf_counter() - began < 10.0


class TestUndecodableRecord:
    def test_job_quarantines_recomputes_then_hits(self, tmp_path):
        # The record parses and has every section, but a block lost its
        # level: the job must quarantine it and recompute, not fail forever.
        payload = parse_job_spec({"circuit": "majority", "width": 7, "verify": True}).payload()
        cold = execute_job(payload, str(tmp_path))
        path = tmp_path / f"{cold['content_key']}.json"
        record = json.loads(path.read_bytes())
        del record["blocks"][0]["level"]
        path.write_text(json.dumps(record))

        rerun = execute_job(payload, str(tmp_path))
        assert rerun["decomposition_cached"] is False
        assert rerun["verified"] is True
        assert corrupt_record_count(tmp_path) == 1
        assert path.with_name(path.name + ".corrupt").exists()
        for field_name in ("content_key", "blocks", "levels", "block_literals"):
            assert rerun[field_name] == cold[field_name]
        assert execute_job(payload, str(tmp_path))["decomposition_cached"] is True


# ----------------------------------------------------------------------
# Fault-injected write path
# ----------------------------------------------------------------------
class TestTornStores:
    def test_skipped_rename_never_publishes_the_record(self, tmp_path, monkeypatch):
        cache, key, path, decomposition = _stored_record(tmp_path)
        path.unlink()
        arm(monkeypatch, "cache.store.rename:skip")
        cache.store(key, decomposition)  # "crashes" between write and rename
        assert not path.exists()
        assert cache.load(key) is None
        assert len(cache) == 0
        # Only the writer's tmp file remains; it is invisible to readers.
        leftovers = list(tmp_path.glob("*.tmp"))
        assert len(leftovers) == 1
        # A later healthy writer lands the record normally.
        monkeypatch.delenv(faults.ENV)
        cache.store(key, decomposition)
        assert_bit_identical(cache.load(key), decomposition)

    def test_torn_payload_is_quarantined_on_read(self, tmp_path, monkeypatch):
        cache, key, path, decomposition = _stored_record(tmp_path)
        path.unlink()
        arm(monkeypatch, "cache.store.payload:truncate")
        cache.store(key, decomposition)  # the rename publishes a torn payload
        monkeypatch.delenv(faults.ENV)
        assert cache.load(key) is None
        assert path.with_name(path.name + ".corrupt").exists()
        assert corrupt_record_count(tmp_path) == 1

    def test_corrupted_payload_is_quarantined_on_read(self, tmp_path, monkeypatch):
        cache, key, path, decomposition = _stored_record(tmp_path)
        path.unlink()
        arm(monkeypatch, "cache.store.payload:corrupt")
        cache.store(key, decomposition)
        monkeypatch.delenv(faults.ENV)
        assert cache.load(key) is None
        assert corrupt_record_count(tmp_path) == 1

    def test_store_io_error_leaves_no_partial_record(self, tmp_path, monkeypatch):
        cache, key, path, decomposition = _stored_record(tmp_path)
        path.unlink()
        arm(monkeypatch, "cache.store:err")
        with pytest.raises(OSError):
            cache.store(key, decomposition)
        assert len(cache) == 0
        assert list(tmp_path.glob("*.tmp")) == []  # tmp cleaned up on failure

    def test_quarantine_is_exact_healthy_neighbours_survive(self, tmp_path, monkeypatch):
        cache, key, path, decomposition = _stored_record(tmp_path)
        healthy_key = "0" * len(key)
        cache.store_raw(healthy_key, json.loads(path.read_text()))
        path.write_text("{torn")
        assert cache.load(key) is None
        assert corrupt_record_count(tmp_path) == 1  # exactly the damaged one
        assert_bit_identical(cache.load(healthy_key), decomposition)

    def test_corrupt_sidecars_are_never_reread_and_clear_removes_them(
        self, tmp_path, monkeypatch
    ):
        cache, key, path, decomposition = _stored_record(tmp_path)
        path.write_text("{torn")
        assert cache.load(key) is None
        assert cache.load(key) is None  # second read: plain miss, one sidecar
        assert corrupt_record_count(tmp_path) == 1
        assert cache.telemetry.corrupt == 1
        assert cache.clear() == 0
        assert corrupt_record_count(tmp_path) == 0


class TestTornIndexStores:
    def test_skipped_index_rename_is_a_plain_index_miss(self, tmp_path, monkeypatch):
        cache, key, _, _ = _stored_record(tmp_path)
        arm(monkeypatch, "cache.index.rename:skip")
        cache.store_index("job-fp", key)
        assert cache.load_index("job-fp") is None
        monkeypatch.delenv(faults.ENV)
        cache.store_index("job-fp", key)
        assert cache.load_index("job-fp") == key

    def test_truncated_index_payload_is_a_plain_index_miss(self, tmp_path, monkeypatch):
        cache, key, _, _ = _stored_record(tmp_path)
        arm(monkeypatch, "cache.index.payload:truncate:0")
        cache.store_index("job-fp", key)
        assert cache.load_index("job-fp") is None


class TestSynthesisCacheFaults:
    METRICS = {"design": "d", "area": 1.0, "delay": 2.0, "cells": 3, "depth": 4}

    def test_torn_record_quarantined(self, tmp_path):
        telemetry = CacheTelemetry()
        cache = SynthesisCache(tmp_path, telemetry=telemetry)
        cache.store("k", self.METRICS)
        (tmp_path / "k.json").write_text('{"schema": "repro-synthesis-v1", "area"')
        assert cache.load("k") is None
        assert telemetry.corrupt == 1
        assert corrupt_record_count(tmp_path) == 1
        assert cache.clear() == 0
        assert corrupt_record_count(tmp_path) == 0

    def test_non_numeric_metric_quarantined(self, tmp_path):
        cache = SynthesisCache(tmp_path, telemetry=CacheTelemetry())
        cache.store("k", self.METRICS)
        record = dict(self.METRICS, schema="repro-synthesis-v1", area="wide")
        (tmp_path / "k.json").write_text(json.dumps(record))
        assert cache.load("k") is None
        assert cache.telemetry.corrupt == 1

    def test_fault_injected_torn_store(self, tmp_path, monkeypatch):
        cache = SynthesisCache(tmp_path, telemetry=CacheTelemetry())
        arm(monkeypatch, "cache.store.payload:truncate")
        cache.store("k", self.METRICS)
        monkeypatch.delenv(faults.ENV)
        assert cache.load("k") is None
        assert corrupt_record_count(tmp_path) == 1
        cache.store("k", self.METRICS)
        assert cache.load("k")["area"] == 1.0


# ----------------------------------------------------------------------
# Locking / fsync knobs (behavioural smoke: correctness is unchanged)
# ----------------------------------------------------------------------
class TestDurabilityKnobs:
    def test_lock_enabled_store_and_load(self, tmp_path, monkeypatch):
        monkeypatch.setenv(LOCK_ENV, "1")
        cache, key, _, decomposition = _stored_record(tmp_path)
        assert (tmp_path / ".lock").exists()
        assert_bit_identical(cache.load(key), decomposition)

    def test_fsync_enabled_store_and_load(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FSYNC_ENV, "1")
        cache, key, _, decomposition = _stored_record(tmp_path)
        assert_bit_identical(cache.load(key), decomposition)

    def test_telemetry_snapshot_includes_corrupt(self, tmp_path):
        cache, key, path, _ = _stored_record(tmp_path)
        path.write_text("{")
        cache.load(key)
        snap = cache.telemetry.snapshot()
        assert snap["corrupt"] == 1
        assert snap["stores"] == 1
