"""The three workloads: cold-small, cold-wide and service-hot.

Every job goes through the program's public functions:
``repro.service.jobs.execute_job`` for the in-process closed loops, the
``python -m repro.service`` HTTP API for service-hot, and, in traced runs,
the layer functions ``execute_job`` itself calls, one by one, in its order
(:func:`traced_job`).  Nothing here patches or instruments the program.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.anf.canonical import canonical_spec_digest
from repro.core.structure import decomposition_to_netlist
from repro.engine import collecting_pass_timings
from repro.engine.batch import job_fingerprint
from repro.engine.cache import (
    DecompositionCache,
    SynthesisCache,
    cache_key,
    decomposition_digest,
    deserialize_decomposition,
    library_fingerprint,
    synthesis_cache_key,
)
from repro.engine.pipeline import Pipeline
from repro.service.jobs import CIRCUITS, execute_job, parse_job_spec, spec_from_payload
from repro.synth import default_library, synthesize_netlist

import harness
from harness import Tracer, spec_name

#: Worker processes of the service under test (the box has 2 vCPUs).
SERVICE_WORKERS = 2
#: Client threads of the service-hot closed loop.
CLIENTS = 2
#: The warm-up job every set-up runs once.
WARMUP_SPEC = ("adder", 5)


def job_spec(circuit: str, width: int, kind: str = "synthesize",
             verify: bool = True) -> dict:
    """The JSON a client POSTs for one job."""
    return {"kind": kind, "circuit": circuit, "width": width, "verify": verify}


def payload(*args, **kwargs) -> dict:
    """The validated worker payload ``execute_job`` takes for :func:`job_spec`."""
    return parse_job_spec(job_spec(*args, **kwargs)).payload()


class JobLog:
    """Latencies, answer checks and work counters of one run."""

    def __init__(self, reference: Dict[str, dict]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.drift: List[str] = []
        self.counters: Dict[str, dict] = {}
        self.lock = threading.Lock()

    def check(self, name: str, result: Optional[dict], error: str = "") -> bool:
        """Count one answered job; a job is ok only if it matches the reference."""
        wrong = [error] if error else harness.answer_mismatches(
            result, self.reference[name])
        with self.lock:
            self.attempted += 1
            if wrong:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{name}: {', '.join(wrong)}")
        return not wrong

    def check_work(self, name: str, counters: dict) -> None:
        drifted = harness.work_mismatches(counters, self.reference[name])
        if drifted:
            self.drift.append(f"{name}: {', '.join(drifted)}")
        self.counters[name] = counters

    @property
    def ok_share(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def record_counters(cache_dir: str, content_key: str, record: Optional[dict] = None) -> dict:
    """Deterministic work counters of one stored decomposition record."""
    path = Path(cache_dir) / f"{content_key}.json"
    if record is None:
        with open(path) as handle:
            record = json.load(handle)
    return {
        "record_bytes": path.stat().st_size,
        "spec_terms": sum(len(terms) for terms in record["original"].values()),
        "iterations": len(record["iterations"]),
        "blocks": len(record["blocks"]),
    }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def warm_up(scratch: Path) -> None:
    """One small job, so imports and lazy initialisation finish before timing."""
    cache_dir = tempfile.mkdtemp(dir=scratch)
    try:
        execute_job(payload(*WARMUP_SPEC), cache_dir)
    finally:
        shutil.rmtree(cache_dir)


def prewarm(specs, cache_dir: str, log: JobLog, tracer: Optional[Tracer] = None) -> float:
    """Compute every spec cold into ``cache_dir``; returns the seconds it took."""
    start = time.perf_counter()
    for circuit, width in specs:
        name = spec_name(circuit, width)
        if tracer is None:
            result = execute_job(payload(circuit, width), cache_dir)
            counters = record_counters(cache_dir, result["content_key"])
        else:
            result, counters = traced_job(payload(circuit, width), cache_dir, tracer)
        log.check(name, result)
        log.check_work(name, counters)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Cold loops (in process)
# ----------------------------------------------------------------------
class ColdStats:
    """Job latencies of the cold and warm halves of a run's passes."""

    def __init__(self) -> None:
        self.cold: List[float] = []
        self.warm: List[float] = []
        self.by_spec: Dict[tuple, List[float]] = {}

    def add(self, phase: str, name: str, seconds: float) -> None:
        getattr(self, phase).append(seconds)
        self.by_spec.setdefault((phase, name), []).append(seconds)

    def rate(self, phase: str) -> float:
        """Jobs per second at each spec's fastest time over the run's passes.

        On a shared 2-vCPU box the speed of a single Python thread drifts
        by about 20% within seconds, so a run's mean rate moves with it.
        Each spec's best time over the passes is the least disturbed
        estimate of what the job costs: over eight 15-pass cold-small runs
        there, its spread between quartiles was 4%, against 9% for the
        plain mean.
        """
        best = [min(times) for (side, _), times in self.by_spec.items() if side == phase]
        return len(best) / math.fsum(best)


def cold_pass(specs, seed: int, round_index: int, scratch: Path, log: JobLog,
              stats: ColdStats, tracer: Optional[Tracer] = None,
              warm_tracer: Optional[Tracer] = None, keep: bool = False) -> str:
    """One pass: every spec cold on a fresh cache, then every spec warm on it.

    Untraced passes time ``execute_job``; traced passes run
    :func:`traced_job` instead.  Returns the cache directory (deleted
    unless ``keep``).
    """
    order = harness.seeded_order(specs, seed, round_index)
    cache_dir = tempfile.mkdtemp(dir=scratch)
    for phase, phase_tracer in (("cold", tracer), ("warm", warm_tracer)):
        for circuit, width in order:
            name = spec_name(circuit, width)
            job = payload(circuit, width)
            start = time.perf_counter()
            if phase_tracer is None:
                result = execute_job(job, cache_dir)
                counters = None
            else:
                result, counters = traced_job(job, cache_dir, phase_tracer)
            stats.add(phase, name, time.perf_counter() - start)
            ok = log.check(name, result)
            cached = result["decomposition_cached"] and result["synthesis_cached"]
            if cached != (phase == "warm"):
                log.drift.append(f"{name}: {phase} job had cache hit = {cached}")
            if phase == "cold" and ok and name not in log.counters:
                log.check_work(name, counters or record_counters(
                    cache_dir, result["content_key"]))
    if not keep:
        shutil.rmtree(cache_dir)
    return cache_dir


# ----------------------------------------------------------------------
# The traced job: execute_job's layers, called one by one
# ----------------------------------------------------------------------
def traced_job(job: dict, cache_dir: str, tracer: Tracer):
    """``execute_job`` re-enacted layer by layer under ``tracer``.

    Same calls, same order, same cache effects as
    :func:`repro.service.jobs.execute_job` (``run_job`` inlined); the
    pipeline runs under ``collecting_pass_timings`` so each pass is its
    own span.  Returns the same result summary plus work counters.
    """
    tracer.begin()
    tracer.span("job.setup")
    spec = spec_from_payload(job)
    builder = CIRCUITS[spec.circuit]
    cache = DecompositionCache(cache_dir)
    pipeline = Pipeline.from_options(spec.options)
    job_key = job_fingerprint(builder, (spec.width,), {}, pipeline.config_key())
    tracer.span("cache.load")
    content_key = cache.load_index(job_key)
    record = cache.load_raw(content_key) if content_key is not None else None
    hit = record is not None
    built_spec = record is None  # only such a job has work counters
    if built_spec:
        tracer.span("spec.build")
        built = builder(spec.width)
        outputs, input_words = built.outputs, getattr(built, "input_words", None)
        tracer.span("digest")
        content_key = cache_key(canonical_spec_digest(outputs, input_words),
                                pipeline.config_key())
        tracer.span("cache.load")
        record = cache.load_raw(content_key)
        hit = record is not None
        if record is None:
            tracer.span("decompose.other")
            with collecting_pass_timings() as passes:
                decomposition = pipeline.run(outputs, input_words=input_words,
                                             options=spec.options)
            for name, entry in passes.items():
                tracer.add(f"pass.{name}", entry["seconds"])
                tracer.add("decompose.other", -entry["seconds"])
            tracer.span("cache.store")
            record = cache.store(content_key, decomposition)
        cache.store_index(job_key, content_key)
    tracer.span("cache.decode")
    decomposition = deserialize_decomposition(record)
    tracer.span("job.summary")
    result = {
        "kind": spec.kind,
        "decomposition_cached": hit,
        "blocks": len(decomposition.blocks),
        "levels": decomposition.num_levels,
        "block_literals": decomposition.total_block_literals(),
        "output_literals": sum(
            expr.literal_count for expr in decomposition.outputs.values()),
        "content_key": content_key,
    }
    if spec.verify:
        tracer.span("verify")
        result["verified"] = bool(decomposition.verify())
    if spec.kind == "synthesize":
        tracer.span("synth.cache")
        library = default_library()
        synthesis_cache = SynthesisCache(f"{cache_dir}/synth")
        key = synthesis_cache_key(
            decomposition_digest(decomposition), library_fingerprint(library),
            {"flow": "service", "objective": spec.objective},
        )
        cached = synthesis_cache.load(key)
        if cached is None:
            tracer.span("structure")
            netlist = decomposition_to_netlist(
                decomposition, library=library, objective=spec.objective)
            tracer.span("map")
            synthesis = synthesize_netlist(netlist, library)
            tracer.span("synth.cache")
            cached = synthesis_cache.store(key, {
                "name": spec.circuit, "area": synthesis.area,
                "delay": synthesis.delay, "cells": synthesis.num_cells,
                "depth": synthesis.depth,
            })
            result["synthesis_cached"] = False
        else:
            result["synthesis_cached"] = True
        result["area"] = round(float(cached["area"]), 1)
        result["delay"] = round(float(cached["delay"]), 3)
        result["cells"] = int(cached["cells"])
    tracer.end()
    counters = record_counters(cache_dir, content_key, record) if built_spec else None
    return result, counters


# ----------------------------------------------------------------------
# The service under test
# ----------------------------------------------------------------------
class Service:
    """``python -m repro.service`` as a subprocess over one cache directory."""

    def __init__(self, cache_dir: str, scratch: Path, repo: Path) -> None:
        port_file = Path(tempfile.mkdtemp(dir=scratch)) / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.log = open(port_file.parent / "service.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--workers", str(SERVICE_WORKERS), "--cache-dir", cache_dir,
             "--port-file", str(port_file)],
            cwd=repo, env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 60.0
        while not port_file.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("the service did not start")
            time.sleep(0.01)
        self.port = int(port_file.read_text())

    def request(self, method: str, path: str, body: Optional[dict] = None,
                client: str = "perfbench"):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path,
                         body=None if body is None else json.dumps(body),
                         headers={"Content-Type": "application/json",
                                  "X-Repro-Client": client})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def metrics(self) -> dict:
        return self.request("GET", "/metrics")[1]

    def peak_rss_mb(self) -> float:
        """High-water RSS of the server plus its worker processes."""
        pids = [self.proc.pid] + harness.child_pids(self.proc.pid)
        return sum(harness.peak_rss_mb(pid) for pid in pids)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.request("POST", "/shutdown")
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired, ValueError):
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.log.close()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ServiceStats:
    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.layers: Dict[str, float] = {}
        self.lock = threading.Lock()

    def add(self, latency: float, status: dict) -> None:
        server = status["latency_seconds"]
        worker = status["result"]["seconds"]
        with self.lock:
            self.latencies.append(latency)
            for name, seconds in (("service.http", latency - server),
                                  ("service.dispatch", server - worker),
                                  ("service.worker", worker),
                                  ("service.engine", status["result"]["engine_seconds"])):
                self.layers[name] = self.layers.get(name, 0.0) + seconds


def serve_one(service: Service, job: dict, name: str, log: JobLog,
              stats: ServiceStats, client: str) -> None:
    """One ``POST /jobs?wait=1`` that must be answered from the cache."""
    start = time.perf_counter()
    try:
        code, status = service.request("POST", "/jobs?wait=1", job, client)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        log.check(name, None, f"transport error {exc!r}")
        return
    latency = time.perf_counter() - start
    if code != 200 or status.get("state") != "done":
        log.check(name, None, f"HTTP {code}, state {status.get('state')}")
        return
    result = status["result"]
    if not result["decomposition_cached"] or result.get("synthesis_cached") is False:
        log.drift.append(f"{name}: served without a cache hit")
    if log.check(name, result):
        stats.add(latency, status)


def service_closed_loop(service: Service, specs, seed: int, requests: int,
                        log: JobLog) -> tuple:
    """``CLIENTS`` threads in a closed loop over ``requests`` cached requests.

    The request list (spec and kind of each) comes from the seed; the
    threads take the next request from it as each reply arrives.
    """
    rng = random.Random(f"{seed}:service")
    todo = iter([(rng.choice(specs), rng.choice(("decompose", "synthesize")))
                 for _ in range(requests)])
    lock = threading.Lock()
    stats = ServiceStats()

    def client(index: int) -> None:
        while True:
            with lock:
                item = next(todo, None)
            if item is None:
                return
            (circuit, width), kind = item
            serve_one(service, job_spec(circuit, width, kind, verify=False),
                      spec_name(circuit, width), log, stats, f"perfbench-{index}")

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return stats, time.perf_counter() - start


def cache_delta(before: dict, after: dict) -> dict:
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    return {"hits": hits, "computations": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0}
