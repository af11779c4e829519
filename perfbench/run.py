#!/usr/bin/env python3
"""Whole-job benchmark of the decomposition service: one command per workload.

    python3 perfbench/run.py --workload cold-small --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` is the separate traced run that splits a job into
layers.  Every answer is checked against ``perfbench/reference.json``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
from harness import SMALL_SPECS, WIDE_SPECS, metric

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = REPO / ".perfbench-out"

WORKLOADS = {"cold-small": SMALL_SPECS, "cold-wide": WIDE_SPECS,
             "service-hot": SMALL_SPECS}
#: A run does a fixed amount of work, sized from ``--seconds`` by these
#: nominal speeds of a 2-vCPU box with the packed backend, so every
#: run of a workload samples the same jobs however fast the machine is.
#: Seconds of one cold pass (every spec cold, then every spec warm):
PASS_SECONDS = {"cold-small": 1.3, "cold-wide": 14.0}
#: Requests of service-hot per second of ``--seconds``.  The closed loop
#: serves about 400/s there, so its timed phase takes about half of
#: ``--seconds``: fewer samples put the tail at a less extreme percentile,
#: which drifted less between runs (p99.6 of 3000 against p99.8 of 6000).
SERVICE_RATE = 200
#: Which jobs make up the latency sample of ``p50_ms`` and ``tail_ms``.
#: On cold-small the warm half only feeds ``hits_per_s``.  Two cold-wide
#: passes give 12 cold jobs, too few for a tail (the rule would pick the
#: second-fastest job), so there every request of the run counts.
LATENCY_PHASES = {"cold-small": ("cold",), "cold-wide": ("cold", "warm")}
#: Whole passes every cold run makes at least, so each run samples every
#: spec more than once and the tail rule always has enough samples.
MIN_PASSES = 2
#: Set-ups timed per run (each in a fresh interpreter); the median is reported.
SETUP_SAMPLES = {"cold-small": 7, "cold-wide": 7, "service-hot": 3}
#: Times each spec is replayed through the service in a traced cold run.
SERVICE_REPLAYS = 2

PASSES = ("prepare-state", "grouping", "basis", "nullspace-merge",
          "linear-dependence", "size-reduction", "identities", "rewrite")
COLD_LAYERS = ("spec.build", "digest", *(f"pass.{p}" for p in PASSES),
               "verify", "structure", "map", "cache.store")
SERVICE_LAYERS = ("service.http", "service.dispatch", "service.worker",
                  "service.engine")


def layer_metric(span: str) -> str:
    """JSON name of a span's per-job time: ``digest`` -> ``digest.ms``,
    ``cache.store`` -> ``cache.store_ms``."""
    return f"{span}_ms" if "." in span else f"{span}.ms"


def print_metrics(metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:>14.4f} {entry['unit']}")


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def set_up(workload: str, scratch: Path, log):
    """Imports plus a warm-up job; service-hot adds the prewarm and the server.

    Returns the running service for service-hot (the caller closes it),
    ``None`` otherwise.
    """
    import workloads

    workloads.warm_up(scratch)
    if workload != "service-hot":
        return None
    cache_dir = tempfile.mkdtemp(dir=scratch)
    workloads.prewarm(SMALL_SPECS, cache_dir, log)
    service = workloads.Service(cache_dir, scratch, REPO)
    try:
        warm_service(service, log)
    except BaseException:
        service.close()
        raise
    return service


def warm_service(service, log) -> None:
    """Every spec once per kind through the service, so its workers are warm."""
    import workloads

    stats = workloads.ServiceStats()
    for circuit, width in SMALL_SPECS:
        for kind in ("decompose", "synthesize"):
            workloads.serve_one(
                service, workloads.job_spec(circuit, width, kind, verify=False),
                harness.spec_name(circuit, width), log, stats, "perfbench-setup")


def setup_probe(workload: str, scratch: Path) -> int:
    """One timed set-up in this fresh interpreter (the parent times it)."""
    import workloads

    service = set_up(workload, scratch, workloads.JobLog(harness.load_reference()))
    if service is not None:
        service.close()
    return 0


def median_setup_seconds(workload: str, scratch: Path) -> float:
    """Median wall time of complete set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES[workload]):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--setup-probe", str(scratch)],
            cwd=REPO, check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def cold_passes(workload, seed, seconds, scratch, log, traced=False):
    """The run's whole passes over the workload's specs.

    A traced run alternates an untraced and a traced pass per round, so
    the two see the same specs and the same drift of the machine, and
    keeps the cache of its last traced pass.
    """
    import workloads

    specs = WORKLOADS[workload]
    plain = workloads.ColdStats()
    run = {"plain": plain}
    sides = ["plain"]
    rounds = pass_count(workload, seconds)
    if traced:
        run.update(traced=workloads.ColdStats(), cold=harness.Tracer(),
                   warm=harness.Tracer())
        sides.append("traced")
        rounds = max(1, rounds // 2)
    for index in range(rounds):
        for side in sides if index % 2 == 0 else sides[::-1]:
            if side == "plain":
                workloads.cold_pass(specs, seed, index, scratch, log, plain)
                continue
            if "cache_dir" in run:
                shutil.rmtree(run.pop("cache_dir"))
            run["cache_dir"] = workloads.cold_pass(
                specs, seed, index, scratch, log, run["traced"],
                run["cold"], run["warm"], keep=True)
    return run


def cold_metrics(workload, run, setup_s, log) -> dict:
    plain = run["plain"]
    summary = harness.latency_summary(
        [t for phase in LATENCY_PHASES[workload] for t in getattr(plain, phase)])
    print(f"  cold jobs: {len(plain.cold)}, warm re-requests: {len(plain.warm)}; "
          f"latency over {'+'.join(LATENCY_PHASES[workload])}; "
          f"tail is p{summary['tail_percentile']:.2f} of {summary['samples']} samples")
    return {
        "setup_s": metric(setup_s, "s"),
        "ok_share": metric(log.ok_share, "ratio"),
        "jobs_per_s": metric(plain.rate("cold"), "1/s"),
        "p50_ms": metric(summary["p50_ms"], "ms"),
        "tail_ms": metric(summary["tail_ms"], "ms"),
        "hits_per_s": metric(plain.rate("warm"), "1/s"),
        "peak_rss_mb": metric(harness.peak_rss_mb(), "MB"),
    }


def service_metrics(service, seed, seconds, log, setup_s):
    """The timed closed loop; returns its metrics, layer times and cache delta."""
    import workloads

    before = service.metrics()
    stats, elapsed = workloads.service_closed_loop(
        service, SMALL_SPECS, seed, round(seconds * SERVICE_RATE), log)
    after = service.metrics()
    delta = workloads.cache_delta(before, after)
    if delta["computations"] or delta["hit_rate"] != 1.0:
        log.drift.append(f"timed phase computed {delta['computations']} jobs, "
                         f"cache hit rate {delta['hit_rate']}")
    summary = harness.latency_summary(stats.latencies)
    print(f"  requests: {len(stats.latencies)} in {elapsed:.2f} s by {workloads.CLIENTS} "
          f"clients; tail is p{summary['tail_percentile']:.2f} of {summary['samples']} samples")
    return {
        "setup_s": metric(setup_s, "s"),
        "ok_share": metric(log.ok_share, "ratio"),
        "jobs_per_s": metric(len(stats.latencies) / elapsed, "1/s"),
        "p50_ms": metric(summary["p50_ms"], "ms"),
        "tail_ms": metric(summary["tail_ms"], "ms"),
        "hits_per_s": metric(delta["hits"] / elapsed, "1/s"),
        "peak_rss_mb": metric(service.peak_rss_mb(), "MB"),
    }, stats, delta


def print_split(title: str, summary: dict) -> None:
    traced = summary["traced_ms"]
    print(f"  {title}: traced {traced:.2f} ms/job, untraced {summary['untraced_ms']:.2f}, "
          f"overhead {summary['overhead_ms']:+.3f}, spans {summary['spans_ms']:.2f} "
          f"(coverage {summary['coverage']:.3f} of untraced)")
    layers = sorted(summary["layers_ms"].items(), key=lambda item: -item[1])
    for name, ms in layers:
        print(f"    {name:26s} {ms:10.3f} ms  {100.0 * ms / traced:5.1f}%")
    print("    top three: " + ", ".join(name for name, _ in layers[:3]))


def layer_metrics(cold: dict, warm: dict, stats, delta, log, specs) -> dict:
    metrics = {}
    for span in COLD_LAYERS:
        metrics[layer_metric(span)] = metric(cold["layers_ms"].get(span, 0.0), "ms")
    for span in ("cache.load", "cache.decode"):
        metrics[layer_metric(span)] = metric(warm["layers_ms"].get(span, 0.0), "ms")
    served = len(stats.latencies)
    for span in SERVICE_LAYERS:
        metrics[layer_metric(span)] = metric(stats.layers[span] / served * 1000.0, "ms")
    names = {harness.spec_name(c, w) for c, w in specs}
    counters = [log.counters[name] for name in names]
    metrics["spec.terms"] = metric(sum(c["spec_terms"] for c in counters), "count")
    metrics["cache.record_kb"] = metric(
        sum(c["record_bytes"] for c in counters) / 1024.0, "KB")
    metrics["decompose.iterations"] = metric(
        sum(c["iterations"] for c in counters), "count")
    metrics["service.computations"] = metric(delta["computations"], "count")
    metrics["service.cache_hit_rate"] = metric(delta["hit_rate"], "ratio")
    metrics["trace.coverage"] = metric(cold["coverage"], "ratio")
    return metrics


def traced_cold(workload, seed, seconds, scratch, log):
    import workloads

    run = cold_passes(workload, seed, seconds, scratch, log, traced=True)
    plain, traced = run["plain"], run["traced"]
    cold = harness.trace_summary(run["cold"], sum(plain.cold), len(plain.cold))
    warm = harness.trace_summary(run["warm"], sum(plain.warm), len(plain.warm))
    # The same answers served warm through the service, for its layers.
    stats = workloads.ServiceStats()
    with workloads.Service(run["cache_dir"], scratch, REPO) as service:
        before = service.metrics()
        for _ in range(SERVICE_REPLAYS):
            for circuit, width in harness.seeded_order(WORKLOADS[workload], seed, 0):
                workloads.serve_one(service, workloads.job_spec(circuit, width),
                                    harness.spec_name(circuit, width), log, stats,
                                    "perfbench")
        delta = workloads.cache_delta(before, service.metrics())
    if delta["computations"] or delta["hit_rate"] != 1.0:
        log.drift.append("service replay computed a job")
    print(f"  traced passes: {len(traced.cold) // len(WORKLOADS[workload])}, "
          f"untraced passes: {len(plain.cold) // len(WORKLOADS[workload])}")
    return cold, warm, stats, delta


def traced_service(workload, seed, seconds, scratch, log):
    import workloads

    specs = SMALL_SPECS
    cold_tracer, warm_tracer = harness.Tracer(), harness.Tracer()
    plain_dir = tempfile.mkdtemp(dir=scratch)
    plain_cold = workloads.prewarm(specs, plain_dir, log)
    cache_dir = tempfile.mkdtemp(dir=scratch)
    workloads.prewarm(specs, cache_dir, log, cold_tracer)
    # The worker's hit path, in process: every spec once per kind.
    jobs = [(c, w, kind) for c, w in specs for kind in ("decompose", "synthesize")]
    start = time.perf_counter()
    for circuit, width, kind in jobs:
        log.check(harness.spec_name(circuit, width),
                  workloads.execute_job(
                      workloads.payload(circuit, width, kind, verify=False), plain_dir))
    plain_warm = time.perf_counter() - start
    for circuit, width, kind in jobs:
        result, _ = workloads.traced_job(
            workloads.payload(circuit, width, kind, verify=False), cache_dir, warm_tracer)
        log.check(harness.spec_name(circuit, width), result)
    cold = harness.trace_summary(cold_tracer, plain_cold, len(specs))
    warm = harness.trace_summary(warm_tracer, plain_warm, len(jobs))
    with workloads.Service(cache_dir, scratch, REPO) as service:
        warm_service(service, log)
        _, stats, delta = service_metrics(service, seed, seconds, log, None)
    return cold, warm, stats, delta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    stray = harness.stray_tunables(os.environ)
    if stray:
        print(f"refusing to run with program tunables set: {', '.join(stray)}",
              file=sys.stderr)
        return 2
    if not (REPO / "src" / "repro").is_dir():
        print(f"no program source at {REPO / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    if args.setup_probe:
        return setup_probe(args.workload, Path(args.setup_probe))

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    try:
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch: Path) -> int:
    import workloads

    setup_s = None if args.trace else median_setup_seconds(args.workload, scratch)
    log = workloads.JobLog(harness.load_reference())
    report = {"workload": args.workload, "seed": args.seed}
    service = None
    try:
        if args.trace:
            workloads.warm_up(scratch)
        else:
            service = set_up(args.workload, scratch, log)
        report["stamp"] = harness.run_stamp()
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print("  stamp: " + ", ".join(f"{k}={v}" for k, v in report["stamp"].items()))
        if service is not None:
            metrics = service_metrics(service, args.seed, args.seconds, log, setup_s)[0]
        elif not args.trace:
            run = cold_passes(args.workload, args.seed, args.seconds, scratch, log)
            metrics = cold_metrics(args.workload, run, setup_s, log)
        else:
            traced = traced_service if args.workload == "service-hot" else traced_cold
            cold, warm, stats, delta = traced(args.workload, args.seed, args.seconds,
                                              scratch, log)
            print_split("cold jobs", cold)
            print_split("warm jobs", warm)
            report.update(cold=cold, warm=warm)
            metrics = layer_metrics(cold, warm, stats, delta, log,
                                    WORKLOADS[args.workload])
    finally:
        if service is not None:
            service.close()
    print_metrics(metrics)
    report["metrics"] = metrics
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(report, handle, indent=1)

    for line in log.errors + log.drift:
        print(f"  FAIL {line}")
    correct = not log.failed and not log.drift
    print(json.dumps({
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
