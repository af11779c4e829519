"""Statistics, run stamp, reference checks and the span tracer of the benchmark.

Nothing here runs a job; :mod:`workloads` drives the program and hands
its results to these helpers.  Everything is stdlib so the helpers import
(and are unit-tested) without the program under test.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Result fields a job must reproduce exactly (``area``/``delay`` only on
#: ``synthesize`` jobs).
ANSWER_FIELDS = ("blocks", "levels", "block_literals", "output_literals")
SYNTH_FIELDS = ("area", "delay", "cells")


# ----------------------------------------------------------------------
# Spec lists
# ----------------------------------------------------------------------
#: cold-small: all seven Table-1 families at widths where one synthesize +
#: verify job takes at most about 100 ms on a 2-vCPU box (packed backend).
SMALL_SPECS = (
    [("adder", w) for w in (4, 6, 8, 10, 12)]
    + [("comparator", w) for w in (4, 6, 8, 9, 10)]
    + [("counter", w) for w in (4, 6, 8, 10, 12, 14)]
    + [("lod", w) for w in (4, 8, 12, 16, 18, 20)]
    + [("lzd", w) for w in (4, 6, 8, 10, 12, 14)]
    + [("majority", w) for w in (5, 7, 9, 11, 12, 15, 16)]
    + [("three_input_adder", w) for w in (3, 4, 5, 6, 7)]
)

#: cold-wide: the multi-MB slabs.  comparator-14 is the widest comparator a
#: run can afford (~8 s cold); lzd-20 is the widest the service accepts;
#: counter-16 is the Table-1 width (counter-18/20 spend 7 s/28 s in
#: structuring alone); majority-18 exhausts memory in Shannon structuring.
WIDE_SPECS = [
    ("comparator", 12), ("comparator", 13), ("comparator", 14),
    ("lzd", 20), ("counter", 16), ("majority", 17),
]


def spec_name(circuit: str, width: int) -> str:
    return f"{circuit}-{width}"


def seeded_order(specs: Sequence, seed: int, round_index: int) -> list:
    """The specs of one pass in a seeded order.

    The same ``(seed, round_index)`` always gives the same order; the set
    of specs never depends on the seed, so every seed does the same work.
    """
    order = list(specs)
    random.Random(f"{seed}:{round_index}").shuffle(order)
    return order


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(samples: Iterable[float], beyond: int = TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value, count)``: with ``n`` ascending samples,
    the value at 0-based rank ``n - beyond - 1`` has exactly ``beyond``
    samples ranked after it, and is the nearest-rank percentile
    ``100 * (rank + 1) / n``.  Needs more than ``beyond`` samples.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= beyond:
        raise ValueError(
            f"a tail percentile needs more than {beyond} samples, got {count}"
        )
    rank = count - beyond - 1
    return 100.0 * (rank + 1) / count, ordered[rank], count


def latency_summary(seconds: Sequence[float]) -> dict:
    """Median and tail (ms) of a latency sample, with the tail's percentile."""
    percentile, tail, count = tail_percentile(seconds)
    return {
        "p50_ms": statistics.median(seconds) * 1000.0,
        "tail_ms": tail * 1000.0,
        "tail_percentile": percentile,
        "samples": count,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# Run stamp and environment guard
# ----------------------------------------------------------------------
def stray_tunables(environ: Mapping[str, str]) -> List[str]:
    """``REPRO_*`` variables set in ``environ`` (the run refuses to start)."""
    return sorted(name for name in environ if name.startswith("REPRO_"))


def run_stamp() -> dict:
    """What the numbers were measured on; call after the program is imported."""
    from repro.anf import cnative
    from repro.anf.backend import get_backend

    return {
        "nproc": os.cpu_count(),
        "backend": get_backend().name,
        "native_extension": cnative.available(),
        "python": platform.python_version(),
    }


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set size of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (the service's worker processes)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


# ----------------------------------------------------------------------
# Reference answers and the same-work guard
# ----------------------------------------------------------------------
def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, dict]:
    with open(path) as handle:
        return json.load(handle)["specs"]


def answer_mismatches(result: Mapping, expected: Mapping) -> List[str]:
    """Fields of a job result that differ from the reference answer."""
    wrong = [f for f in ANSWER_FIELDS if result.get(f) != expected[f]]
    if result.get("kind") == "synthesize":
        wrong += [f for f in SYNTH_FIELDS if result.get(f) != expected[f]]
    if "verified" in result and result["verified"] is not True:
        wrong.append("verified")
    return wrong


def work_mismatches(counters: Mapping, expected: Mapping) -> List[str]:
    """Deterministic work counters that drifted from the reference."""
    return [
        name for name in ("spec_terms", "record_bytes", "iterations", "blocks")
        if name in counters and counters[name] != expected[name]
    ]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """Consecutive named spans of one job, measured from outside the program.

    ``span(name)`` closes the previous span and opens the next, so the
    spans of a job partition its wall time; what falls between ``begin``
    and ``end`` outside any span is the tracer's own bookkeeping.  Spans
    are kept in memory and summed per name.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.totals: Dict[str, float] = {}
        self.jobs = 0
        self.job_seconds = 0.0
        self._job_start: Optional[float] = None
        self._name: Optional[str] = None
        self._start = 0.0

    def begin(self) -> None:
        self._job_start = self.clock()

    def span(self, name: str) -> None:
        now = self.clock()
        self._close(now)
        self._name, self._start = name, now

    def add(self, name: str, seconds: float) -> None:
        """Book time measured elsewhere (the pass timings) under ``name``."""
        self.totals[name] = self.totals.get(name, 0.0) + seconds

    def end(self) -> None:
        now = self.clock()
        self._close(now)
        self._name = None
        self.jobs += 1
        self.job_seconds += now - self._job_start
        self._job_start = None

    def _close(self, now: float) -> None:
        if self._name is not None:
            self.add(self._name, now - self._start)

    @property
    def span_seconds(self) -> float:
        return math.fsum(self.totals.values())


def trace_summary(tracer: Tracer, untraced_seconds: float, untraced_jobs: int) -> dict:
    """Per-job layer split of a traced phase against its untraced twin.

    ``overhead`` is traced minus untraced time per job; ``coverage`` is the
    share of the untraced job time that the spans account for; ``gap`` is
    traced job time not inside any span.
    """
    traced = tracer.job_seconds / tracer.jobs
    untraced = untraced_seconds / untraced_jobs
    spans = tracer.span_seconds / tracer.jobs
    return {
        "traced_ms": traced * 1000.0,
        "untraced_ms": untraced * 1000.0,
        "spans_ms": spans * 1000.0,
        "gap_ms": (traced - spans) * 1000.0,
        "overhead_ms": (traced - untraced) * 1000.0,
        "coverage": spans / untraced,
        "layers_ms": {
            name: seconds / tracer.jobs * 1000.0
            for name, seconds in sorted(tracer.totals.items())
        },
    }
