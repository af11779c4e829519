"""Synthesis substrate: cell library, structuring, mapping, timing, area.

This package plays the role of Synopsys Design Compiler + the UMC 0.13 µm
library in the paper's experimental flow (see DESIGN.md for the substitution
argument).
"""

from .library import Cell, Library, default_library
from .mapping import MappedDesign, MappingError, technology_map
from .structuring import (
    EmitContext,
    StructuringError,
    available_strategies,
    build_netlist_from_expressions,
    emit_anf,
    emit_auto,
    emit_factored,
    emit_shannon,
    emit_sop,
    emit_with_strategy,
)
from .synthesize import SynthesisResult, score_candidate, synthesize_expressions, synthesize_netlist
from .timing import PathElement, TimingReport, analyze_timing
from .twolevel import Implicant, implicants_to_sop, minimize_anf_to_sop, quine_mccluskey

__all__ = [
    "Cell",
    "EmitContext",
    "Implicant",
    "Library",
    "MappedDesign",
    "MappingError",
    "PathElement",
    "StructuringError",
    "SynthesisResult",
    "TimingReport",
    "analyze_timing",
    "available_strategies",
    "build_netlist_from_expressions",
    "default_library",
    "emit_anf",
    "emit_auto",
    "emit_factored",
    "emit_shannon",
    "emit_sop",
    "emit_with_strategy",
    "implicants_to_sop",
    "minimize_anf_to_sop",
    "quine_mccluskey",
    "score_candidate",
    "synthesize_expressions",
    "synthesize_netlist",
    "technology_map",
]
