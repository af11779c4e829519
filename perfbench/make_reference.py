#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``, the answers every run is checked against.

    python3 perfbench/make_reference.py

Runs every workload spec once, cold, as a ``synthesize`` + ``verify`` job
and records its answer (blocks, levels, literals, area, delay, cells) and
its deterministic work counters (spec terms, record bytes, iterations).
Where a width matches the committed Table-1 sweep
(``benchmarks/BENCH_full_expected.json``) the decomposition must agree with
it, or nothing is written.  Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402

FULL_EXPECTED = REPO / "benchmarks" / "BENCH_full_expected.json"


def main() -> int:
    with open(FULL_EXPECTED) as handle:
        full = json.load(handle)["circuits"]
    specs = {}
    cross_checked = []
    scratch = REPO / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    for circuit, width in sorted(set(harness.SMALL_SPECS + harness.WIDE_SPECS)):
        cache_dir = tempfile.mkdtemp(dir=scratch)
        try:
            result = workloads.execute_job(workloads.payload(circuit, width), cache_dir)
            counters = workloads.record_counters(cache_dir, result["content_key"])
        finally:
            shutil.rmtree(cache_dir)
        if result["verified"] is not True:
            print(f"{circuit}-{width} did not verify", file=sys.stderr)
            return 1
        entry = {name: result[name]
                 for name in harness.ANSWER_FIELDS + harness.SYNTH_FIELDS}
        entry.update(counters)
        expected = full.get(circuit)
        if expected is not None and expected["width"] == width:
            wrong = [f for f in harness.ANSWER_FIELDS if entry[f] != expected[f]]
            if wrong:
                print(f"{circuit}-{width} disagrees with {FULL_EXPECTED.name} on "
                      f"{', '.join(wrong)}", file=sys.stderr)
                return 1
            cross_checked.append(harness.spec_name(circuit, width))
        specs[harness.spec_name(circuit, width)] = entry
        print(f"{circuit}-{width}: {entry}", flush=True)
    with open(harness.REFERENCE_PATH, "w") as handle:
        json.dump({
            "schema": "perfbench-reference-v1",
            "job": "synthesize, verify, default options, objective balanced",
            "cross_checked_with_full_sweep": cross_checked,
            "specs": specs,
        }, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(specs)} specs; agrees with {FULL_EXPECTED.name} on "
          f"{', '.join(cross_checked)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
