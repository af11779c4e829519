"""Tests of the benchmark harness: statistics, seeding, answer checks, tracing."""

import shutil
import tempfile

import pytest

import harness
import workloads
from harness import Tracer


# ----------------------------------------------------------------------
# The tail rule
# ----------------------------------------------------------------------
def test_tail_leaves_ten_samples_beyond_it():
    percentile, value, count = harness.tail_percentile(range(1, 101))
    assert (percentile, value, count) == (90.0, 90, 100)
    assert sum(1 for sample in range(1, 101) if sample > value) == 10


def test_tail_is_the_highest_such_percentile():
    samples = [float(i) for i in range(1000)]
    percentile, value, count = harness.tail_percentile(samples)
    assert count == 1000 and value == 989.0 and percentile == 99.0
    # One rank higher would leave only nine samples beyond.
    assert sum(1 for sample in samples if sample > 990.0) == 9


def test_tail_needs_more_samples_than_it_leaves_beyond():
    percentile, value, count = harness.tail_percentile([5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11])
    assert (value, count) == (1, 11)
    assert percentile == pytest.approx(100.0 / 11)
    with pytest.raises(ValueError):
        harness.tail_percentile(range(10))


def test_latency_summary_reports_the_tail_sample_count():
    summary = harness.latency_summary([i / 1000.0 for i in range(1, 201)])
    assert summary["samples"] == 200
    assert summary["tail_percentile"] == 95.0
    assert summary["tail_ms"] == pytest.approx(190.0)
    assert summary["p50_ms"] == pytest.approx(100.5)


# ----------------------------------------------------------------------
# Seeding
# ----------------------------------------------------------------------
def test_same_seed_gives_the_same_spec_list():
    first = harness.seeded_order(harness.SMALL_SPECS, 7, 0)
    assert first == harness.seeded_order(harness.SMALL_SPECS, 7, 0)
    assert sorted(first) == sorted(harness.SMALL_SPECS)


def test_another_seed_gives_another_order_of_the_same_specs():
    first = harness.seeded_order(harness.SMALL_SPECS, 7, 0)
    other = harness.seeded_order(harness.SMALL_SPECS, 8, 0)
    assert other != first
    assert sorted(other) == sorted(first)


def test_every_workload_spec_has_a_reference_answer():
    reference = harness.load_reference()
    for circuit, width in harness.SMALL_SPECS + harness.WIDE_SPECS:
        assert harness.spec_name(circuit, width) in reference
    assert len(set(harness.SMALL_SPECS)) == len(harness.SMALL_SPECS) == 40


# ----------------------------------------------------------------------
# Answer checks and the same-work guard
# ----------------------------------------------------------------------
def reference_result(name, kind="synthesize"):
    expected = harness.load_reference()[name]
    result = {field: expected[field] for field in harness.ANSWER_FIELDS}
    if kind == "synthesize":
        result.update({field: expected[field] for field in harness.SYNTH_FIELDS})
    return dict(result, kind=kind, verified=True)


def test_a_wrong_answer_lowers_ok_share():
    log = workloads.JobLog(harness.load_reference())
    assert log.check("adder-4", reference_result("adder-4"))
    wrong = dict(reference_result("adder-4"), block_literals=0)
    assert not log.check("adder-4", wrong)
    assert (log.attempted, log.failed, log.ok_share) == (2, 1, 0.5)


def test_unverified_or_failed_jobs_count_as_wrong():
    log = workloads.JobLog(harness.load_reference())
    log.check("lzd-8", dict(reference_result("lzd-8"), verified=False))
    log.check("lzd-8", None, "HTTP 429, state None")
    log.check("lzd-8", dict(reference_result("lzd-8"), area=1.0))
    assert log.ok_share == 0.0


def test_decompose_jobs_are_checked_without_synthesis_fields():
    log = workloads.JobLog(harness.load_reference())
    assert log.check("lod-8", reference_result("lod-8", kind="decompose"))


def test_drifted_work_counters_are_flagged():
    reference = harness.load_reference()
    log = workloads.JobLog(reference)
    counters = {name: reference["counter-8"][name]
                for name in ("spec_terms", "record_bytes", "iterations", "blocks")}
    log.check_work("counter-8", counters)
    assert not log.drift
    log.check_work("counter-8", dict(counters, record_bytes=counters["record_bytes"] + 1))
    assert log.drift == ["counter-8: record_bytes"]


def test_stray_tunables_are_found():
    assert harness.stray_tunables({"PATH": "/bin", "REPRO_KERNEL_THREADS": "1"}) == [
        "REPRO_KERNEL_THREADS"]
    assert harness.stray_tunables({"HOME": "/root"}) == []


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class FakeClock:
    """Each read costs ``read_cost`` seconds; ``work`` advances the clock."""

    def __init__(self, read_cost=1e-6):
        self.now = 0.0
        self.read_cost = read_cost

    def __call__(self):
        self.now += self.read_cost
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_traced_spans_sum_to_within_the_overhead_of_the_traced_job_time():
    clock = FakeClock()
    layers = [0.003, 0.010, 0.0005, 0.020]
    start = clock()
    for seconds in layers:
        clock.work(seconds)
    untraced = clock() - start

    tracer = Tracer(clock)
    tracer.begin()
    for index, seconds in enumerate(layers):
        tracer.span(f"layer{index}")
        clock.work(seconds)
    tracer.end()
    summary = harness.trace_summary(tracer, untraced, 1)

    gap = summary["traced_ms"] - summary["spans_ms"]
    assert 0.0 <= gap <= summary["overhead_ms"]
    assert summary["coverage"] == pytest.approx(1.0, abs=1e-3)
    assert summary["layers_ms"]["layer1"] == pytest.approx(10.0, abs=1e-2)


def test_added_child_time_moves_out_of_the_parent_span():
    clock = FakeClock(read_cost=0.0)
    tracer = Tracer(clock)
    tracer.begin()
    tracer.span("decompose.other")
    clock.work(0.010)
    tracer.add("pass.basis", 0.004)
    tracer.add("decompose.other", -0.004)
    tracer.end()
    assert tracer.totals == pytest.approx({"decompose.other": 0.006, "pass.basis": 0.004})
    assert tracer.span_seconds == pytest.approx(tracer.job_seconds)


@pytest.fixture
def cache_dir(tmp_path):
    path = tempfile.mkdtemp(dir=tmp_path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_traced_job_matches_execute_job_and_its_spans_cover_it(cache_dir, tmp_path):
    job = workloads.payload("adder", 6)
    plain = workloads.execute_job(job, str(tmp_path))
    tracer = Tracer()
    traced, counters = workloads.traced_job(job, cache_dir, tracer)
    for field in harness.ANSWER_FIELDS + harness.SYNTH_FIELDS + ("verified",):
        assert traced[field] == plain[field]
    assert counters == workloads.record_counters(str(tmp_path), plain["content_key"])
    for layer in ("spec.build", "digest", "pass.basis", "verify", "structure",
                  "map", "cache.store", "cache.decode"):
        assert tracer.totals[layer] > 0.0
    assert 0.0 <= tracer.job_seconds - tracer.span_seconds < 0.01 * tracer.job_seconds

    # The traced job left the same cache behind: a second request is warm.
    warm_tracer = Tracer()
    warm, none = workloads.traced_job(job, cache_dir, warm_tracer)
    assert warm["decomposition_cached"] and warm["synthesis_cached"] and none is None
    assert "spec.build" not in warm_tracer.totals
    assert workloads.execute_job(job, cache_dir)["decomposition_cached"]
