#!/usr/bin/env python
"""Machine-readable benchmark harness for the Progressive Decomposition flow.

Runs the Table-1-row benchmark circuits end to end (decompose -> structure ->
synthesise), records per-circuit wall-clock and decomposition quality metrics,
and writes a ``BENCH_*.json`` file that later runs can be compared against::

    PYTHONPATH=src python benchmarks/run_bench.py --out benchmarks/BENCH_native.json
    PYTHONPATH=src python benchmarks/run_bench.py --compare benchmarks/BENCH_native.json

Two width settings are provided (see ``benchmarks/README.md``):

* ``--quick`` (default): intermediate widths where the runtime is dominated by
  the decomposition engine itself rather than fixed per-call overheads; the
  whole sweep finishes in well under two minutes even on the seed code.
* ``--full``: the paper's own Table 1 widths (the widths ``build_table1``
  uses when ``quick=False``), which were impractical to iterate on before the
  word-parallel kernel landed.

``--compare BASELINE.json`` re-checks two things and exits non-zero on either
failure: a wall-clock regression of more than ``--tolerance`` (default 20%)
on any circuit or on the total, and any change in the decomposition results
(literal counts, block/level structure, or a failed ``Decomposition.verify``)
— the fast paths must be observationally identical, not just fast.  The
baseline is read and mode-checked before any circuit runs: an unreadable
baseline, or one recorded in another mode, exits 2 at once.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable, Dict

# Allow running as a plain script without PYTHONPATH=src.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))

from repro.benchcircuits import (  # noqa: E402
    adder_spec,
    comparator_spec,
    counter_spec,
    lod_spec,
    lzd_spec,
    majority_spec,
    three_input_adder_spec,
)
from repro.engine import BatchJob, BatchOrchestrator  # noqa: E402
from repro.engine.profiling import collecting_pass_timings, rounded  # noqa: E402
from repro.eval.flows import run_progressive_flow  # noqa: E402
from repro.synth import default_library  # noqa: E402

SCHEMA = "repro-bench-v1"

# circuit name -> (spec builder, quick width, full width).  The full widths
# match ``repro.eval.table1.build_table1(quick=False)`` (the adder's width is
# the Progressive Decomposition width, the structural variants are untimed).
CIRCUITS: Dict[str, tuple[Callable, int, int]] = {
    "lzd": (lzd_spec, 14, 16),
    "lod": (lod_spec, 28, 32),
    "majority": (majority_spec, 13, 15),
    "counter": (counter_spec, 14, 16),
    "adder": (adder_spec, 11, 12),
    "comparator": (comparator_spec, 12, 15),
    "three_input_adder": (three_input_adder_spec, 6, 6),
}


def bench_circuit(
    name: str, width: int, repeats: int, library, profile: bool = False
) -> Dict[str, object]:
    """Time the progressive flow on one circuit and collect its result metrics."""
    builder = CIRCUITS[name][0]
    spec = builder(width)
    best = float("inf")
    result = None
    best_profile: Dict[str, Dict[str, float]] | None = None
    for _ in range(max(1, repeats)):
        timings: Dict[str, Dict[str, float]] = {}
        start = time.perf_counter()
        if profile:
            with collecting_pass_timings(timings):
                result = run_progressive_flow(
                    spec.outputs, spec.input_words, library=library
                )
        else:
            result = run_progressive_flow(spec.outputs, spec.input_words, library=library)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            best_profile = timings
    decomposition = result.decomposition
    entry: Dict[str, object] = {"width": width, "seconds": round(best, 4)}
    entry.update(_decomposition_metrics(decomposition))
    entry["area"] = round(result.area, 1)
    entry["delay"] = round(result.delay, 3)
    if profile and best_profile is not None:
        # Verification is not part of the timed flow; report it as its own
        # profile row (next to the passes) rather than inside the total.
        engine_seconds = sum(item["seconds"] for item in best_profile.values())
        best_profile["structure+synthesis"] = {
            "seconds": max(0.0, best - engine_seconds),
            "calls": 1,
        }
        best_profile["verify (untimed)"] = {
            "seconds": entry["verify_seconds"],
            "calls": 1,
        }
        entry["profile"] = rounded(best_profile)
    return entry


def print_profile(name: str, entry: Dict[str, object]) -> None:
    """Render one circuit's per-pass breakdown as a table."""
    breakdown = entry.get("profile")
    if not breakdown:
        return
    total = entry["seconds"] or 1.0
    print(f"\n  profile: {name} (width {entry['width']}, best of the timed runs)")
    print(f"    {'stage':24s} {'seconds':>9s} {'calls':>6s} {'share':>7s}")
    for stage, item in sorted(
        breakdown.items(), key=lambda kv: kv[1]["seconds"], reverse=True
    ):
        share = item["seconds"] / total
        print(
            f"    {stage:24s} {item['seconds']:>9.4f} {item['calls']:>6d} {share:>6.1%}"
        )


def _decomposition_metrics(decomposition) -> Dict[str, object]:
    start = time.perf_counter()
    verified = decomposition.verify()
    verify_seconds = time.perf_counter() - start
    return {
        "verify": verified,
        "verify_seconds": round(verify_seconds, 4),
        "blocks": len(decomposition.blocks),
        "levels": decomposition.num_levels,
        "block_literals": decomposition.total_block_literals(),
        "output_literals": sum(
            expr.literal_count for expr in decomposition.outputs.values()
        ),
    }


def bench_orchestrated(
    selected, widths: Dict[str, int], jobs: int | None, cache_dir: str | None, library
) -> Dict[str, object]:
    """Run the sweep's decompositions through the batch orchestrator.

    Per-circuit ``seconds`` is the worker-side engine time (near zero on a
    warm cache); synthesis runs in the parent so area/delay stay in the
    record, structured and mapped by the sequential mode's own flow
    (:func:`run_progressive_flow` on the finished decomposition).
    Orchestrated timings are NOT comparable to the sequential
    baselines — use this mode for result validation and cached sweeps, and
    the default sequential mode for performance tracking.
    """
    orchestrator = BatchOrchestrator(cache_dir, jobs)
    batch = [
        BatchJob(name, CIRCUITS[name][0], (widths[name],)) for name in selected
    ]
    batch_results = orchestrator.run(batch)
    results: Dict[str, object] = {}
    for name in selected:
        outcome = batch_results[name]
        decomposition = outcome.decomposition
        flow = run_progressive_flow({}, library=library, decomposition=decomposition)
        entry: Dict[str, object] = {
            "width": widths[name],
            "seconds": round(outcome.seconds, 4),
            "cache_hit": outcome.cache_hit,
        }
        entry.update(_decomposition_metrics(decomposition))
        entry["area"] = round(flow.area, 1)
        entry["delay"] = round(flow.delay, 3)
        results[name] = entry
    return results


#: Per-circuit results that must match the baseline exactly: the
#: decomposition's shape and the area/delay its structured netlist maps to.
RESULT_KEYS = ("width", "blocks", "levels", "block_literals", "output_literals",
               "area", "delay")


def compare(current: Dict[str, object], baseline: Dict[str, object], tolerance: float) -> int:
    """Compare a fresh run against a recorded baseline; return the exit code."""
    failures = []
    base_circuits = baseline.get("circuits", {})
    cur_circuits = current["circuits"]
    for name, cur in cur_circuits.items():
        base = base_circuits.get(name)
        if base is None:
            print(f"  {name:20s} (not in baseline, skipped)")
            continue
        for key in RESULT_KEYS:
            if cur.get(key) != base.get(key):
                failures.append(
                    f"{name}: {key} changed {base.get(key)} -> {cur.get(key)}"
                )
        if not cur["verify"]:
            failures.append(f"{name}: Decomposition.verify() failed")
        ratio = cur["seconds"] / base["seconds"] if base["seconds"] else 1.0
        status = "ok"
        if ratio > 1.0 + tolerance:
            failures.append(
                f"{name}: {ratio:.2f}x slower ({base['seconds']}s -> {cur['seconds']}s)"
            )
            status = "REGRESSION"
        speedup = 1.0 / ratio if ratio else float("inf")
        print(
            f"  {name:20s} {base['seconds']:>8.3f}s -> {cur['seconds']:>8.3f}s "
            f"({speedup:5.2f}x) {status}"
        )
    base_total = baseline.get("total_seconds")
    if base_total:
        ratio = current["total_seconds"] / base_total
        print(
            f"  {'TOTAL':20s} {base_total:>8.3f}s -> {current['total_seconds']:>8.3f}s "
            f"({1.0 / ratio:5.2f}x)"
        )
        if ratio > 1.0 + tolerance:
            failures.append(f"total: {ratio:.2f}x slower")
    if failures:
        print("\nFAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nno regressions, decomposition results identical")
    return 0


def load_baseline(path: str, mode: str) -> Dict[str, object] | None:
    """Read a ``--compare`` baseline and check it was recorded in ``mode``.

    Runs before any circuit does, so a typo'd path or a quick/full mismatch
    costs nothing.  On failure prints one line naming ``path`` and returns
    ``None`` (the caller exits 2, distinct from a regression's 1).
    """
    try:
        with open(path) as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as error:
        reason = getattr(error, "strerror", None) or error
        print(f"cannot read baseline {path}: {reason}", file=sys.stderr)
        return None
    if not isinstance(baseline, dict):
        print(f"cannot read baseline {path}: not a benchmark record", file=sys.stderr)
        return None
    base_mode = baseline.get("mode", "quick")
    if base_mode != mode:
        reason = (
            "orchestrated timings (fork + cache + worker) are not comparable "
            "to sequential ones"
            if ("orchestrated" in mode) != ("orchestrated" in base_mode)
            else "the two runs use different circuit widths"
        )
        print(
            f"cannot compare a {mode!r} run against {path}, a {base_mode!r} "
            f"baseline: {reason} — record a baseline in the same mode.",
            file=sys.stderr,
        )
        return None
    return baseline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the results to this JSON file")
    parser.add_argument("--compare", metavar="BASELINE.json",
                        help="compare against a recorded baseline run")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional slowdown before --compare fails")
    parser.add_argument("--full", action="store_true",
                        help="use the paper's Table 1 widths instead of the quick ones")
    parser.add_argument("--rows", nargs="*", choices=sorted(CIRCUITS),
                        help="benchmark only these circuits")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per circuit (best is recorded; "
                             "default 3; sequential mode only)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="run the decompositions through the batch orchestrator "
                             "with N worker processes (timings then reflect the "
                             "orchestrated engine, not the sequential flow)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="on-disk decomposition cache directory "
                             "(enables the orchestrated mode)")
    parser.add_argument("--profile", action="store_true",
                        help="collect a per-pass timing breakdown per circuit "
                             "(table on stdout + a 'profile' section in the "
                             "JSON record; sequential mode only)")
    args = parser.parse_args(argv)

    selected = args.rows if args.rows else list(CIRCUITS)
    orchestrated = args.jobs is not None or args.cache is not None
    mode = ("full" if args.full else "quick") + ("-orchestrated" if orchestrated else "")
    baseline = None
    if args.compare:
        baseline = load_baseline(args.compare, mode)
        if baseline is None:
            return 2
    library = default_library()
    widths = {
        name: (CIRCUITS[name][2] if args.full else CIRCUITS[name][1])
        for name in selected
    }
    if orchestrated:
        if args.repeats is not None:
            print("note: --repeats is ignored in the orchestrated mode "
                  "(each decomposition runs once per worker)")
        if args.profile:
            print("note: --profile is ignored in the orchestrated mode "
                  "(pass timings live in the worker processes)")
        repeats = 1
        results = bench_orchestrated(selected, widths, args.jobs, args.cache, library)
    else:
        repeats = args.repeats if args.repeats is not None else 3
        results = {
            name: bench_circuit(name, widths[name], repeats, library,
                                profile=args.profile)
            for name in selected
        }
    total = 0.0
    for name in selected:
        entry = results[name]
        total += entry["seconds"]
        cached = " (cached)" if entry.get("cache_hit") else ""
        print(
            f"{name:20s} width={entry['width']:<3d} {entry['seconds']:>9.3f}s  "
            f"blocks={entry['blocks']:<3d} literals={entry['block_literals']:<4d} "
            f"verify={entry['verify']}/{entry['verify_seconds']:.3f}s{cached}",
            flush=True,
        )
        print_profile(name, entry)

    record = {
        "schema": SCHEMA,
        "mode": mode,
        "repeats": repeats,
        "python": platform.python_version(),
        "circuits": results,
        "total_seconds": round(total, 4),
    }
    print(f"{'TOTAL':20s}           {total:>9.3f}s")

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")

    if baseline is not None:
        print(f"\ncomparing against {args.compare} (tolerance {args.tolerance:.0%}):")
        return compare(record, baseline, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
