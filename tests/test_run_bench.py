"""``benchmarks/run_bench.py --compare`` rejects a bad baseline up front.

A missing, malformed or mode-mismatched baseline must exit 2 with one line
naming the path *before* any circuit runs — not after a full sweep, and not
with exit code 1, which means a real regression.  A changed result,
including the synthesised area or delay, is such a regression.
"""

import importlib.util
import json
from pathlib import Path

import pytest

RUN_BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "run_bench.py"


@pytest.fixture
def run_bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("run_bench", RUN_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def no_sweep(*args, **kwargs):
        raise AssertionError("a circuit ran before the baseline was checked")

    monkeypatch.setattr(module, "bench_circuit", no_sweep)
    monkeypatch.setattr(module, "bench_orchestrated", no_sweep)
    return module


def test_missing_baseline_exits_2_before_the_sweep(run_bench, tmp_path, capsys):
    missing = tmp_path / "BENCH_typo.json"
    assert run_bench.main(["--compare", str(missing)]) == 2
    err = capsys.readouterr().err.strip()
    assert str(missing) in err
    assert len(err.splitlines()) == 1


def test_malformed_baseline_exits_2(run_bench, tmp_path, capsys):
    broken = tmp_path / "BENCH_broken.json"
    broken.write_text("{not json")
    assert run_bench.main(["--compare", str(broken)]) == 2
    assert str(broken) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, recorded",
    [([], "full"), (["--full"], "quick"), (["--jobs", "1"], "quick")],
    ids=["quick-vs-full", "full-vs-quick", "orchestrated-vs-sequential"],
)
def test_mode_mismatch_exits_2_before_the_sweep(run_bench, tmp_path, capsys, argv, recorded):
    baseline = tmp_path / "BENCH_other.json"
    baseline.write_text(json.dumps({"mode": recorded, "circuits": {}}))
    assert run_bench.main(argv + ["--compare", str(baseline)]) == 2
    err = capsys.readouterr().err.strip()
    assert str(baseline) in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("key, changed", [("area", 512.1), ("delay", 0.352)])
def test_compare_fails_when_area_or_delay_changes(run_bench, capsys, key, changed):
    baseline = json.loads((RUN_BENCH.parent / "BENCH_native.json").read_text())
    current = json.loads(json.dumps(baseline))
    assert run_bench.compare(current, baseline, tolerance=3.0) == 0
    current["circuits"]["adder"][key] = changed
    assert run_bench.compare(current, baseline, tolerance=3.0) == 1
    assert f"adder: {key} changed" in capsys.readouterr().out
