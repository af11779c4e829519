"""Regeneration of the paper's Table 1 (every benchmark row).

Each ``row_*`` function builds the benchmark's specification and reference
implementations, runs the three flows of :mod:`repro.eval.flows`, and returns
a :class:`Table1Row` holding the measured area/delay next to the numbers the
paper reports (for EXPERIMENTS.md).  ``build_table1`` assembles the whole
table; ``format_table1`` prints it in the paper's layout.

Absolute numbers cannot match a commercial 0.13 µm flow; the claims under
test are the *relative* ones: where Progressive Decomposition wins, by
roughly what factor, and where it merely matches the reference design.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..benchcircuits import (
    adder_chain_counter_netlist,
    adder_spec,
    carry_lookahead_adder_netlist,
    cascaded_rca_netlist,
    comparator_spec,
    compressor_tree_counter_netlist,
    counter_spec,
    csa_adder_netlist,
    lod_spec,
    lzd_spec,
    majority_spec,
    oklobdzija_lzd_netlist,
    progressive_comparator_netlist,
    ripple_carry_adder_netlist,
    subtracter_carry_comparator_netlist,
    three_input_adder_spec,
)
from ..core.decompose import Decomposition
from ..engine.batch import BatchJob, BatchOrchestrator
from ..engine.cache import SynthesisCache
from ..synth.library import Library, default_library
from .flows import FlowResult, run_baseline_flow, run_progressive_flow, run_structural_flow


@dataclass
class PaperNumbers:
    """Area/delay the paper reports for one implementation variant."""

    area_um2: float
    delay_ns: float


@dataclass
class Table1Row:
    """One benchmark row: measured variants plus the paper's reference values."""

    circuit: str
    variants: List[FlowResult]
    paper: Dict[str, PaperNumbers] = field(default_factory=dict)
    notes: str = ""

    def variant(self, label_fragment: str) -> FlowResult:
        for variant in self.variants:
            if label_fragment.lower() in variant.label.lower():
                return variant
        raise KeyError(f"no variant matching {label_fragment!r} in row {self.circuit!r}")

    def unoptimised(self) -> FlowResult:
        return next(v for v in self.variants if v.kind == "unoptimised")

    def progressive(self) -> FlowResult:
        return next(v for v in self.variants if v.kind == "progressive")

    def speedup(self) -> float:
        """Delay improvement of PD over the unoptimised description."""
        baseline = self.unoptimised().delay
        improved = self.progressive().delay
        return baseline / improved if improved else float("inf")


# Reference values transcribed from Table 1 of the paper.
PAPER_TABLE1: Dict[str, Dict[str, PaperNumbers]] = {
    "16-bit LZD/LOD": {
        "Unoptimised (SOP)": PaperNumbers(426.8, 0.36),
        "Progressive Decomposition": PaperNumbers(392.3, 0.30),
    },
    "32-bit LOD": {
        "Unoptimised (SOP)": PaperNumbers(1691.7, 0.54),
        "Progressive Decomposition": PaperNumbers(1062.7, 0.43),
    },
    "15-bit Majority function": {
        "Unoptimised (SOP)": PaperNumbers(2353.5, 0.79),
        "Progressive Decomposition": PaperNumbers(765.5, 0.58),
    },
    "16-bit Counter": {
        "Unoptimised (using adder tree)": PaperNumbers(1251.1, 0.86),
        "Progressive Decomposition": PaperNumbers(1427.3, 0.74),
        "TGA": PaperNumbers(1066.2, 0.71),
    },
    "16-bit Adder": {
        "Unoptimised (Ripple Carry Adder)": PaperNumbers(1866.2, 0.56),
        "Progressive Decomposition": PaperNumbers(1836.9, 0.54),
        "DesignWare": PaperNumbers(1375.5, 0.58),
    },
    "15-bit Comparator": {
        "Unoptimised (progressive comparator)": PaperNumbers(514.9, 0.40),
        "Progressive Decomposition": PaperNumbers(466.6, 0.33),
        "Carry out of Subtracter": PaperNumbers(577.2, 0.40),
    },
    "12-bit Three-Input Adder": {
        "Unoptimised (A + B + C)": PaperNumbers(2058.0, 1.09),
        "RCA(RCA(A, B), C)": PaperNumbers(2426.1, 1.11),
        "Progressive Decomposition": PaperNumbers(1772.8, 0.75),
        "CSA + Adder": PaperNumbers(1646.8, 0.70),
    },
}


def _progressive_variant(
    spec_builder: Callable,
    width: int,
    library: Library,
    pd_decomposition: Optional[Decomposition],
    synthesis_cache: Optional[SynthesisCache] = None,
) -> FlowResult:
    """The Progressive Decomposition variant of a row whose spec feeds nothing else.

    With a precomputed decomposition (as :func:`build_table1` passes) the
    flat Reed-Muller specification is never needed, so it is not built — at
    full widths that construction is the expensive part of several rows.
    """
    if pd_decomposition is not None:
        return run_progressive_flow(
            {}, None, "Progressive Decomposition", library,
            decomposition=pd_decomposition, synthesis_cache=synthesis_cache,
        )
    spec = spec_builder(width)
    return run_progressive_flow(
        spec.outputs, spec.input_words, "Progressive Decomposition", library,
        synthesis_cache=synthesis_cache,
    )


def row_lzd(width: int = 16, library: Library | None = None,
            pd_decomposition: Optional[Decomposition] = None,
            synthesis_cache: Optional[SynthesisCache] = None) -> Table1Row:
    """Table 1 row "16-bit LZD/LOD"."""
    library = library or default_library()
    spec = lzd_spec(width)
    variants = [
        run_baseline_flow(spec.outputs, "Unoptimised (SOP)", library,
                          synthesis_cache=synthesis_cache),
        run_progressive_flow(spec.outputs, spec.input_words,
                             "Progressive Decomposition", library,
                             decomposition=pd_decomposition,
                             synthesis_cache=synthesis_cache),
        run_structural_flow(oklobdzija_lzd_netlist(width), "Oklobdzija (manual)", library,
                            synthesis_cache=synthesis_cache),
    ]
    return Table1Row(f"{width}-bit LZD/LOD", variants, PAPER_TABLE1.get("16-bit LZD/LOD", {}))


def row_lod(width: int = 32, library: Library | None = None,
            pd_decomposition: Optional[Decomposition] = None,
            synthesis_cache: Optional[SynthesisCache] = None) -> Table1Row:
    """Table 1 row "32-bit LOD"."""
    library = library or default_library()
    spec = lod_spec(width)
    variants = [
        run_baseline_flow(spec.outputs, "Unoptimised (SOP)", library,
                          synthesis_cache=synthesis_cache),
        run_progressive_flow(spec.outputs, spec.input_words,
                             "Progressive Decomposition", library,
                             decomposition=pd_decomposition,
                             synthesis_cache=synthesis_cache),
    ]
    return Table1Row(f"{width}-bit LOD", variants, PAPER_TABLE1.get("32-bit LOD", {}))


def row_majority(width: int = 15, library: Library | None = None,
                 pd_decomposition: Optional[Decomposition] = None,
                 synthesis_cache: Optional[SynthesisCache] = None) -> Table1Row:
    """Table 1 row "15-bit Majority function"."""
    library = library or default_library()
    spec = majority_spec(width)
    variants = [
        run_baseline_flow(spec.outputs, "Unoptimised (SOP)", library,
                          synthesis_cache=synthesis_cache),
        run_progressive_flow(spec.outputs, spec.input_words,
                             "Progressive Decomposition", library,
                             decomposition=pd_decomposition,
                             synthesis_cache=synthesis_cache),
    ]
    return Table1Row(
        f"{width}-bit Majority function", variants,
        PAPER_TABLE1.get("15-bit Majority function", {}),
    )


def row_counter(width: int = 16, library: Library | None = None,
                pd_decomposition: Optional[Decomposition] = None,
                synthesis_cache: Optional[SynthesisCache] = None) -> Table1Row:
    """Table 1 row "16-bit Counter"."""
    library = library or default_library()
    variants = [
        run_structural_flow(adder_chain_counter_netlist(width),
                            "Unoptimised (using adder tree)", library, kind="unoptimised",
                            synthesis_cache=synthesis_cache),
        _progressive_variant(counter_spec, width, library, pd_decomposition,
                             synthesis_cache=synthesis_cache),
        run_structural_flow(compressor_tree_counter_netlist(width), "TGA", library,
                            synthesis_cache=synthesis_cache),
    ]
    return Table1Row(f"{width}-bit Counter", variants, PAPER_TABLE1.get("16-bit Counter", {}))


def row_adder(width: int = 16, library: Library | None = None,
              pd_width: Optional[int] = None,
              pd_decomposition: Optional[Decomposition] = None,
              synthesis_cache: Optional[SynthesisCache] = None) -> Table1Row:
    """Table 1 row "16-bit Adder".

    ``pd_width`` lets callers run Progressive Decomposition at a narrower
    width (its flat Reed-Muller input grows as roughly ``2^width``) while the
    structural variants keep the paper's width.
    """
    library = library or default_library()
    pd_width = pd_width or width
    variants = [
        run_structural_flow(ripple_carry_adder_netlist(width),
                            "Unoptimised (Ripple Carry Adder)", library, kind="unoptimised",
                            synthesis_cache=synthesis_cache),
        _progressive_variant(adder_spec, pd_width, library, pd_decomposition,
                             synthesis_cache=synthesis_cache),
        run_structural_flow(carry_lookahead_adder_netlist(width), "DesignWare (CLA)", library,
                            synthesis_cache=synthesis_cache),
    ]
    notes = ""
    if pd_width != width:
        notes = f"Progressive Decomposition run at {pd_width} bits (Reed-Muller size)"
    return Table1Row(f"{width}-bit Adder", variants, PAPER_TABLE1.get("16-bit Adder", {}), notes)


def row_comparator(width: int = 15, library: Library | None = None,
                   pd_decomposition: Optional[Decomposition] = None,
                   synthesis_cache: Optional[SynthesisCache] = None) -> Table1Row:
    """Table 1 row "15-bit Comparator"."""
    library = library or default_library()
    variants = [
        run_structural_flow(progressive_comparator_netlist(width),
                            "Unoptimised (progressive comparator)", library, kind="unoptimised",
                            synthesis_cache=synthesis_cache),
        _progressive_variant(comparator_spec, width, library, pd_decomposition,
                             synthesis_cache=synthesis_cache),
        run_structural_flow(subtracter_carry_comparator_netlist(width),
                            "Carry out of Subtracter", library,
                            synthesis_cache=synthesis_cache),
    ]
    return Table1Row(f"{width}-bit Comparator", variants,
                     PAPER_TABLE1.get("15-bit Comparator", {}))


def row_three_input_adder(width: int = 8, library: Library | None = None,
                          pd_decomposition: Optional[Decomposition] = None,
                          synthesis_cache: Optional[SynthesisCache] = None) -> Table1Row:
    """Table 1 row "12-bit Three-Input Adder" (default width reduced, see DESIGN.md)."""
    library = library or default_library()
    spec = three_input_adder_spec(width)
    variants = [
        run_baseline_flow(spec.outputs, "Unoptimised (A + B + C)", library,
                          synthesis_cache=synthesis_cache),
        run_structural_flow(cascaded_rca_netlist(width), "RCA(RCA(A, B), C)",
                            library, kind="manual",
                            synthesis_cache=synthesis_cache),
        run_progressive_flow(spec.outputs, spec.input_words,
                             "Progressive Decomposition", library,
                             decomposition=pd_decomposition,
                             synthesis_cache=synthesis_cache),
        run_structural_flow(csa_adder_netlist(width), "CSA + Adder", library,
                            synthesis_cache=synthesis_cache),
    ]
    notes = ""
    if width != 12:
        notes = (
            f"run at {width} bits: the flat Reed-Muller form of a 12-bit three-input "
            "adder is impractically large (the paper's own caveat); the architecture "
            "comparison is width-independent"
        )
    return Table1Row(f"{width}-bit Three-Input Adder", variants,
                     PAPER_TABLE1.get("12-bit Three-Input Adder", {}), notes)


ROW_BUILDERS: Dict[str, Callable[..., Table1Row]] = {
    "lzd": row_lzd,
    "lod": row_lod,
    "majority": row_majority,
    "counter": row_counter,
    "adder": row_adder,
    "comparator": row_comparator,
    "three_input_adder": row_three_input_adder,
}


# Row widths used by ``build_table1``: per row, the structural (quick, full)
# widths and the Progressive Decomposition (quick, full) widths.  They only
# differ for the adder, whose flat Reed-Muller input grows as roughly
# ``2^width`` while the structural variants keep the paper's 16 bits.
ROW_WIDTHS: Dict[str, tuple[tuple[int, int], tuple[int, int]]] = {
    "lzd": ((8, 16), (8, 16)),
    "lod": ((16, 32), (16, 32)),
    "majority": ((7, 15), (7, 15)),
    "counter": ((8, 16), (8, 16)),
    "adder": ((16, 16), (8, 12)),
    "comparator": ((8, 15), (8, 15)),
    "three_input_adder": ((4, 8), (4, 8)),
}

# The specification builder whose outputs the Progressive Decomposition
# variant of each row decomposes (used by the batch orchestrator and the
# full-width sweep test).
PD_SPEC_BUILDERS: Dict[str, Callable] = {
    "lzd": lzd_spec,
    "lod": lod_spec,
    "majority": majority_spec,
    "counter": counter_spec,
    "adder": adder_spec,
    "comparator": comparator_spec,
    "three_input_adder": three_input_adder_spec,
}


def pd_width_for_row(name: str, quick: bool) -> int:
    """Width of the specification the row's PD variant decomposes."""
    return ROW_WIDTHS[name][1][0 if quick else 1]


def _build_row(
    name: str,
    library: Library,
    quick: bool,
    pd_decomposition: Optional[Decomposition] = None,
    synthesis_cache: Optional[SynthesisCache] = None,
) -> Table1Row:
    builder = ROW_BUILDERS[name]
    width = ROW_WIDTHS[name][0][0 if quick else 1]
    pd_width = pd_width_for_row(name, quick)
    if pd_width != width:
        return builder(
            width, library, pd_width=pd_width, pd_decomposition=pd_decomposition,
            synthesis_cache=synthesis_cache,
        )
    return builder(
        width, library, pd_decomposition=pd_decomposition,
        synthesis_cache=synthesis_cache,
    )


def build_table1(
    library: Library | None = None,
    quick: bool = False,
    rows: Sequence[str] | None = None,
    synthesis_cache: SynthesisCache | None = None,
    cache_dir: str | None = None,
    processes: int | None = 1,
) -> List[Table1Row]:
    """Build every requested row of Table 1.

    ``quick`` selects reduced widths so the whole table regenerates in a few
    minutes of pure-Python runtime; the full widths follow the paper except
    where DESIGN.md documents a substitution.

    The Progressive Decomposition variants — the expensive part of every
    row — run through the :class:`~repro.engine.batch.BatchOrchestrator`:
    with ``processes=1`` (the default) in-process, one after another, and
    with more (or ``None``, one per CPU) in forked workers.  With a
    ``cache_dir`` their results persist on disk, so repeated table builds
    skip the engine entirely.  The rows themselves (structural variants,
    synthesis) are then assembled in-process.  A ``synthesis_cache`` lets
    warm re-runs skip the technology-mapping/timing stage of every variant;
    with a ``cache_dir`` and none given, one lives under
    ``<cache_dir>/synth``, so a fully warm table build skips both the
    engine and the synthesiser.
    """
    library = library or default_library()
    selected = list(rows) if rows is not None else list(ROW_BUILDERS)
    if synthesis_cache is None and cache_dir is not None:
        synthesis_cache = SynthesisCache(os.path.join(cache_dir, "synth"))
    jobs = [
        BatchJob(name, PD_SPEC_BUILDERS[name], (pd_width_for_row(name, quick),))
        for name in selected
    ]
    results = BatchOrchestrator(cache_dir, processes).run(jobs)
    table: List[Table1Row] = []
    for name in selected:
        outcome = results[name]
        row = _build_row(
            name, library, quick, pd_decomposition=outcome.decomposition,
            synthesis_cache=synthesis_cache,
        )
        # run_progressive_flow only timed netlist + synthesis (the engine ran
        # in the orchestrator); fold the engine's seconds back into the row
        # so runtime_s covers the whole variant.
        progressive = row.progressive()
        progressive.runtime_seconds += outcome.seconds
        progressive.notes["decomposition_s"] = round(outcome.seconds, 3)
        if outcome.cache_hit:
            progressive.notes["decomposition_cached"] = True
        table.append(row)
    return table


def format_table1(rows: Sequence[Table1Row], include_paper: bool = True) -> str:
    """Render the table in the paper's layout (plus the paper's numbers)."""
    lines: List[str] = []
    header = f"{'implementation':<42} {'area':>10} {'delay':>8}"
    if include_paper:
        header += f"   {'paper area':>10} {'paper delay':>11}"
    for row in rows:
        lines.append(row.circuit)
        lines.append("-" * len(header))
        lines.append(header)
        for variant in row.variants:
            line = f"{variant.label:<42} {variant.area:>9.1f} {variant.delay:>7.3f}ns"
            if include_paper:
                reference = row.paper.get(variant.label) or row.paper.get(
                    _closest_paper_label(variant.label, row.paper)
                )
                if reference is not None:
                    line += f"   {reference.area_um2:>9.1f} {reference.delay_ns:>10.2f}ns"
                else:
                    line += f"   {'-':>9} {'-':>11}"
            lines.append(line)
        if row.notes:
            lines.append(f"  note: {row.notes}")
        lines.append("")
    return "\n".join(lines)


def _closest_paper_label(label: str, paper: Dict[str, PaperNumbers]) -> str:
    lowered = label.lower()
    for key in paper:
        key_low = key.lower()
        if key_low in lowered or lowered in key_low:
            return key
        if "unoptimised" in lowered and "unoptimised" in key_low:
            return key
        if "designware" in lowered and "designware" in key_low:
            return key
        if "tga" in lowered and "tga" in key_low:
            return key
        if "csa" in lowered and "csa" in key_low:
            return key
        if "subtracter" in lowered and "subtracter" in key_low:
            return key
        if "rca(rca" in lowered and "rca(rca" in key_low:
            return key
    return ""
