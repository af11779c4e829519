"""Synthesis flows used by the evaluation harness.

Three flows mirror the paper's experimental setup:

* **baseline** ("Unoptimised" rows): the specification — behavioural
  expressions or a naive structural description — is synthesised directly.
  The synthesiser applies its local optimisations (cube sharing, factoring,
  Shannon structuring, balanced mapping) but never restructures the
  architecture, which is exactly the behaviour of Design Compiler that the
  paper describes.
* **progressive** ("Progressive Decomposition" rows): the specification is
  first structured by :func:`repro.core.progressive_decomposition`; each
  building block is then synthesised locally and the blocks are composed.
* **manual** (reference rows such as TGA, DesignWare, CSA+adder): a hand
  designed structural netlist is synthesised directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Union

from ..anf.canonical import canonical_spec_digest
from ..anf.expression import Anf
from ..circuit.netlist import Netlist
from ..core.decompose import Decomposition, DecompositionOptions
from ..core.structure import decomposition_to_netlist
from ..engine.batch import decompose_cached
from ..engine.cache import (
    CachedSynthesis,
    DecompositionCache,
    SynthesisCache,
    decomposition_digest,
    netlist_digest,
    synthesize_cached,
)
from ..synth.library import Library, default_library
from ..synth.synthesize import SynthesisResult, synthesize_expressions, synthesize_netlist


AnySynthesis = Union[SynthesisResult, CachedSynthesis]


@dataclass
class FlowResult:
    """One synthesised implementation of a benchmark.

    ``synthesis`` is a full :class:`SynthesisResult` on a cold run and a
    :class:`CachedSynthesis` (metrics only) on a synthesis-cache hit — the
    metric surface (``area``/``delay``/``num_cells``/``depth``/``summary``)
    is identical either way.
    """

    label: str
    kind: str  # "unoptimised" | "progressive" | "manual"
    synthesis: AnySynthesis
    runtime_seconds: float
    decomposition: Optional[Decomposition] = None
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def area(self) -> float:
        return self.synthesis.area

    @property
    def delay(self) -> float:
        return self.synthesis.delay

    def summary(self) -> Dict[str, object]:
        data = {
            "label": self.label,
            "kind": self.kind,
            "area_um2": round(self.area, 1),
            "delay_ns": round(self.delay, 3),
            "cells": self.synthesis.num_cells,
            "runtime_s": round(self.runtime_seconds, 2),
        }
        data.update(self.notes)
        return data


def run_baseline_flow(
    outputs: Mapping[str, Anf],
    label: str = "Unoptimised",
    library: Library | None = None,
    strategy: str = "auto",
    shannon_order: Sequence[str] | None = None,
    objective: str = "balanced",
    synthesis_cache: SynthesisCache | None = None,
) -> FlowResult:
    """Synthesise a behavioural specification without restructuring it.

    With a ``synthesis_cache``, the spec's canonical digest plus the
    structuring parameters key a metric record; a warm hit skips
    structuring, mapping and timing entirely.
    """
    library = library or default_library()
    start = time.perf_counter()
    synthesis, hit = synthesize_cached(
        synthesis_cache,
        lambda: canonical_spec_digest(outputs, None),
        library,
        {
            "flow": "baseline",
            "strategy": strategy,
            "shannon_order": tuple(shannon_order) if shannon_order else None,
            "objective": objective,
        },
        lambda: synthesize_expressions(
            outputs,
            strategy=strategy,
            library=library,
            name=label,
            shannon_order=shannon_order,
            objective=objective,
        ),
    )
    flow = FlowResult(label, "unoptimised", synthesis, time.perf_counter() - start)
    if hit:
        flow.notes["synthesis_cached"] = True
    return flow


def run_structural_flow(
    netlist: Netlist,
    label: str,
    library: Library | None = None,
    kind: str = "manual",
    synthesis_cache: SynthesisCache | None = None,
) -> FlowResult:
    """Synthesise a structural description (manual reference or naive structure)."""
    library = library or default_library()
    start = time.perf_counter()
    synthesis, hit = synthesize_cached(
        synthesis_cache,
        lambda: netlist_digest(netlist),
        library,
        {"flow": "structural"},
        lambda: synthesize_netlist(netlist, library, name=label),
    )
    flow = FlowResult(label, kind, synthesis, time.perf_counter() - start)
    if hit:
        flow.notes["synthesis_cached"] = True
    return flow


def run_progressive_flow(
    outputs: Mapping[str, Anf],
    input_words: Sequence[Sequence[str]] | None = None,
    label: str = "Progressive Decomposition",
    library: Library | None = None,
    options: DecompositionOptions | None = None,
    block_strategy: str = "auto",
    objective: str = "balanced",
    decomposition: Optional[Decomposition] = None,
    cache: DecompositionCache | None = None,
    synthesis_cache: SynthesisCache | None = None,
) -> FlowResult:
    """Structure the specification with Progressive Decomposition, then synthesise.

    The decomposition runs through the pass-pipeline engine.  A precomputed
    ``decomposition`` (e.g. from the batch orchestrator) skips the engine
    entirely; otherwise an optional on-disk ``cache`` is consulted first.
    With a ``synthesis_cache``, the decomposition's structural digest plus
    the structuring parameters key a metric record, so a warm re-run skips
    netlist building, mapping and timing as well.
    """
    library = library or default_library()
    start = time.perf_counter()
    cache_hit = False
    if decomposition is None:
        outcome = decompose_cached(outputs, options, input_words, cache)
        decomposition, cache_hit = outcome.decomposition, outcome.cache_hit
    notes: Dict[str, object] = {
        "blocks": len(decomposition.blocks),
        "levels": decomposition.num_levels,
    }
    if cache_hit:
        notes["decomposition_cached"] = True
    synthesis, hit = synthesize_cached(
        synthesis_cache,
        lambda: decomposition_digest(decomposition),
        library,
        {
            "flow": "progressive",
            "block_strategy": block_strategy,
            "objective": objective,
        },
        lambda: synthesize_netlist(
            decomposition_to_netlist(
                decomposition, strategy=block_strategy, library=library,
                objective=objective,
            ),
            library,
            name=label,
        ),
    )
    if hit:
        notes["synthesis_cached"] = True
    return FlowResult(
        label, "progressive", synthesis, time.perf_counter() - start,
        decomposition, notes,
    )
