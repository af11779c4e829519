"""From a decomposition hierarchy to a gate-level netlist, plus reports.

Each building block is synthesised *locally* (this is where "logic synthesis
does an excellent job in optimising the circuit locally" applies) and the
blocks are stitched together following the hierarchy.  The resulting netlist
is what the Table 1 harness maps and times for the "Progressive
Decomposition" rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..anf.expression import Anf
from ..circuit.netlist import Netlist
from ..synth.library import Library, default_library
from ..synth.structuring import EmitContext, emit_auto, emit_with_strategy
from .decompose import Decomposition


def decomposition_to_netlist(
    decomposition: Decomposition,
    strategy: str = "auto",
    library: Library | None = None,
    objective: str = "delay",
    name: str = "progressive",
) -> Netlist:
    """Emit the block hierarchy as a netlist (one locally-optimised cone per block)."""
    library = library or default_library()
    netlist = Netlist(name)
    netlist.add_inputs(decomposition.primary_inputs)
    net_of: Dict[str, str] = {name_: name_ for name_ in decomposition.primary_inputs}
    emit = EmitContext(netlist, net_of)

    def emit_expression(expr: Anf) -> str:
        if expr.is_constant:
            return netlist.constant(0 if expr.is_zero else 1)
        if expr.is_literal:
            return emit.net_for_var(expr.literal_name)
        if strategy == "auto":
            return emit_auto(emit, expr, library, objective)
        return emit_with_strategy(emit, expr, strategy)

    for block in decomposition.blocks:
        net_of[block.name] = emit_expression(block.definition)
    for port, expr in decomposition.outputs.items():
        netlist.set_output(port, emit_expression(expr))
    return netlist


@dataclass
class HierarchyStats:
    """Quantitative description of the block hierarchy."""

    num_blocks: int
    num_levels: int
    max_block_support: int
    average_block_support: float
    max_block_literals: int
    total_block_literals: int
    blocks_per_level: Dict[int, int]

    def as_dict(self) -> Dict[str, object]:
        return {
            "num_blocks": self.num_blocks,
            "num_levels": self.num_levels,
            "max_block_support": self.max_block_support,
            "average_block_support": round(self.average_block_support, 2),
            "max_block_literals": self.max_block_literals,
            "total_block_literals": self.total_block_literals,
            "blocks_per_level": dict(sorted(self.blocks_per_level.items())),
        }


def hierarchy_stats(decomposition: Decomposition) -> HierarchyStats:
    """Summarise the hierarchy (used by the Figure 1/2 comparison)."""
    blocks = decomposition.blocks
    supports = [len(block.support) for block in blocks]
    literals = [block.definition.literal_count for block in blocks]
    per_level: Dict[int, int] = {}
    for block in blocks:
        per_level[block.level] = per_level.get(block.level, 0) + 1
    return HierarchyStats(
        num_blocks=len(blocks),
        num_levels=decomposition.num_levels,
        max_block_support=max(supports, default=0),
        average_block_support=(sum(supports) / len(supports)) if supports else 0.0,
        max_block_literals=max(literals, default=0),
        total_block_literals=sum(literals),
        blocks_per_level=per_level,
    )
