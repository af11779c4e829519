"""End-to-end synthesis entry points (the Design Compiler substitute).

``synthesize_netlist`` technology-maps a structural netlist and runs timing;
``synthesize_expressions`` first structures a Boolean specification (ANF
outputs) with one of the :mod:`repro.synth.structuring` strategies.  Both
return a :class:`SynthesisResult` carrying the area/delay numbers that the
Table 1 harness reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

from ..anf.expression import Anf
from ..circuit.netlist import Netlist
from .library import Library, default_library
from .mapping import MappedDesign, technology_map
from .structuring import build_netlist_from_expressions
from .timing import TimingReport, analyze_timing


@dataclass
class SynthesisResult:
    """Area/delay outcome of synthesising one design."""

    name: str
    source: Netlist
    mapped: MappedDesign
    timing: TimingReport

    @property
    def area(self) -> float:
        """Total cell area (µm² in the library's scale)."""
        return self.mapped.area

    @property
    def delay(self) -> float:
        """Critical-path delay (ns)."""
        return self.timing.delay

    @property
    def num_cells(self) -> int:
        return self.mapped.num_cells

    @property
    def depth(self) -> int:
        return self.mapped.netlist.depth()

    def summary(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "area_um2": round(self.area, 1),
            "delay_ns": round(self.delay, 3),
            "cells": self.num_cells,
            "depth": self.depth,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SynthesisResult({self.name!r}, area={self.area:.1f}um2, "
            f"delay={self.delay:.3f}ns, cells={self.num_cells})"
        )


def synthesize_netlist(
    netlist: Netlist, library: Library | None = None, name: str | None = None
) -> SynthesisResult:
    """Technology-map a structural netlist and analyse its timing."""
    library = library or default_library()
    mapped = technology_map(netlist, library)
    timing = analyze_timing(mapped)
    return SynthesisResult(name or netlist.name, netlist, mapped, timing)


def synthesize_expressions(
    outputs: Mapping[str, Anf],
    strategy: str = "auto",
    inputs: Sequence[str] | None = None,
    library: Library | None = None,
    objective: str = "delay",
    name: str = "design",
    shannon_order: Sequence[str] | None = None,
) -> SynthesisResult:
    """Structure a Boolean specification and synthesise it."""
    library = library or default_library()
    netlist = build_netlist_from_expressions(
        outputs,
        strategy=strategy,
        inputs=inputs,
        library=library,
        objective=objective,
        name=name,
        shannon_order=shannon_order,
    )
    return synthesize_netlist(netlist, library, name)


def score_candidate(
    candidate: Netlist, library: Library, objective: str = "delay"
) -> tuple[float, float]:
    """Map a candidate structure (a scratch netlist with one output) and score it.

    Returns a tuple ordered so that smaller is better under ``objective``:
    ``"delay"`` -> (delay, area), ``"area"`` -> (area, delay),
    ``"balanced"`` -> (area*delay, delay).
    """
    mapped = technology_map(candidate, library)
    timing = analyze_timing(mapped)
    if objective == "area":
        return (mapped.area, timing.delay)
    if objective == "balanced":
        return (mapped.area * max(timing.delay, 1e-9), timing.delay)
    return (timing.delay, mapped.area)
