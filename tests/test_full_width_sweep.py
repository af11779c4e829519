"""CI promotion of the full-width benchmark sweep (ROADMAP lever).

Runs the paper's Table 1 widths through the batch orchestrator and asserts
the decomposition structure matches the committed expectations in
``benchmarks/BENCH_full_expected.json`` — the same result keys
``run_bench.py --compare`` enforces, so any change to the engine's observable
behaviour at full width fails tier-1 immediately.

The 15-bit comparator is the widest full-width circuit (its flat
Reed-Muller form runs to 14.3M monomials): build, decompose and verify take
about 2.5 s and peak near 0.5 GB on the numpy bodies.  It is only included
when ``REPRO_FULL_SWEEP=all``, which the no-compiler CI job sets.  Set
``REPRO_FULL_SWEEP=0`` to skip the sweep entirely (e.g. on very constrained
machines).

The sweep runs through the session-scoped ``bench_cache_dir`` fixture (see
``conftest.py``): by default that is a throwaway per-session directory —
the result cache is keyed by (spec, pipeline config), not by code version,
so a cache persisting across *revisions* would return pre-regression
results and defeat the gate — but CI may point ``REPRO_TEST_CACHE_DIR`` at
a per-commit directory so a warm rerun of the same code skips the
re-derivation.  Parallel workers keep the cold run in the "seconds" budget.
"""

import json
import os
from pathlib import Path

import pytest

from repro.engine import BatchJob, BatchOrchestrator
from repro.eval.table1 import PD_SPEC_BUILDERS

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = REPO_ROOT / "benchmarks" / "BENCH_full_expected.json"

SWEEP_MODE = os.environ.get("REPRO_FULL_SWEEP", "1")
SLOW_CIRCUITS = ("comparator",)


@pytest.mark.skipif(SWEEP_MODE == "0", reason="REPRO_FULL_SWEEP=0 disables the sweep")
def test_full_width_sweep_matches_committed_expectations(bench_cache_dir):
    expected = json.loads(EXPECTED_PATH.read_text())["circuits"]
    selected = [
        name for name in expected
        if SWEEP_MODE == "all" or name not in SLOW_CIRCUITS
    ]
    assert selected, "expectation file is empty"

    orchestrator = BatchOrchestrator(bench_cache_dir / "decompositions")
    results = orchestrator.run([
        BatchJob(name, PD_SPEC_BUILDERS[name], (expected[name]["width"],))
        for name in selected
    ])

    failures = []
    for name in selected:
        decomposition = results[name].decomposition
        if not decomposition.verify():
            failures.append(f"{name}: Decomposition.verify() failed")
            continue
        # "width" is the job input, not a decomposition metric — comparing it
        # against itself would be vacuous.
        measured = {
            "blocks": len(decomposition.blocks),
            "levels": decomposition.num_levels,
            "block_literals": decomposition.total_block_literals(),
            "output_literals": sum(
                expr.literal_count for expr in decomposition.outputs.values()
            ),
        }
        for key, value in expected[name].items():
            if key == "width":
                continue
            if measured[key] != value:
                failures.append(
                    f"{name}: {key} changed {value} -> {measured[key]}"
                )
    assert not failures, "full-width sweep diverged from committed results:\n" + "\n".join(
        f"  - {failure}" for failure in failures
    )
