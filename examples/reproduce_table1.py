"""Regenerate the paper's Table 1 end to end.

Run with::

    python examples/reproduce_table1.py                   # full widths (a few minutes)
    python examples/reproduce_table1.py --quick           # reduced widths (< 1 minute)
    python examples/reproduce_table1.py --batch           # decompositions in parallel
    python examples/reproduce_table1.py --batch --cache .pd-cache
                                                          # ... and cached on disk

The Progressive Decomposition runs always go through the engine's batch
orchestrator: in-process by default, and with ``--batch`` in worker
processes (one per row, up to one per CPU); with ``--cache DIR`` both
the decomposition results *and* the per-variant synthesis metrics persist
(the latter under ``DIR/synth``), so re-running the table skips the engine
and the synthesiser entirely.  The measured numbers (and the paper's
reference values) are also recorded in EXPERIMENTS.md.
"""

import argparse

from repro.eval import build_table1, format_table1


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced widths (< 1 minute)")
    parser.add_argument("--batch", action="store_true",
                        help="run the decompositions in worker processes")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="on-disk decomposition cache directory (implies --batch)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (implies --batch; default: one per row)")
    args = parser.parse_args(argv)

    batch = args.batch or args.cache is not None or args.jobs is not None
    rows = build_table1(
        quick=args.quick, cache_dir=args.cache, processes=args.jobs if batch else 1
    )
    print(format_table1(rows))
    print("qualitative shape checks:")
    for row in rows:
        pd = row.progressive()
        unopt = row.unoptimised()
        direction = "faster" if pd.delay < unopt.delay else "not faster"
        print(f"  {row.circuit:<32} PD is {direction} than the unoptimised description "
              f"({pd.delay:.3f} ns vs {unopt.delay:.3f} ns)")


if __name__ == "__main__":
    main()
