"""Structural statistics used to reproduce the paper's Figure 1 vs Figure 2.

The motivation section contrasts a flat LZD (huge number of interconnections,
high fan-in dependencies between inputs and outputs) with Oklobdzija's
hierarchical design (few interconnections, low fan-in blocks).  These metrics
quantify that comparison for arbitrary netlists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .netlist import Netlist


@dataclass
class StructureStats:
    """Interconnect / fan-in / fan-out statistics of a netlist."""

    name: str
    num_inputs: int
    num_outputs: int
    num_gates: int
    num_connections: int
    max_fanin: int
    average_fanin: float
    max_fanout: int
    average_fanout: float
    depth: int
    primary_input_fanout_total: int
    max_output_cone_inputs: int
    op_histogram: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "num_inputs": self.num_inputs,
            "num_outputs": self.num_outputs,
            "num_gates": self.num_gates,
            "num_connections": self.num_connections,
            "max_fanin": self.max_fanin,
            "average_fanin": round(self.average_fanin, 3),
            "max_fanout": self.max_fanout,
            "average_fanout": round(self.average_fanout, 3),
            "depth": self.depth,
            "primary_input_fanout_total": self.primary_input_fanout_total,
            "max_output_cone_inputs": self.max_output_cone_inputs,
            "op_histogram": dict(sorted(self.op_histogram.items())),
        }


def structure_stats(netlist: Netlist) -> StructureStats:
    """Compute structural statistics for a netlist."""
    gate_list = netlist.gates
    fanin_sizes = [len(gate.inputs) for gate in gate_list if gate.inputs]
    fanouts = netlist.fanout_counts()
    num_connections = sum(len(gate.inputs) for gate in gate_list)
    input_fanout_total = sum(fanouts.get(net, 0) for net in netlist.inputs)

    max_cone = 0
    input_set = set(netlist.inputs)
    for port, net in netlist.outputs.items():
        cone = netlist.cone_of([net])
        cone_inputs = len([n for n in cone.inputs if n in input_set])
        max_cone = max(max_cone, cone_inputs)

    nonzero_fanouts = [count for count in fanouts.values() if count > 0]
    return StructureStats(
        name=netlist.name,
        num_inputs=len(netlist.inputs),
        num_outputs=len(netlist.outputs),
        num_gates=netlist.num_gates,
        num_connections=num_connections,
        max_fanin=max(fanin_sizes, default=0),
        average_fanin=(sum(fanin_sizes) / len(fanin_sizes)) if fanin_sizes else 0.0,
        max_fanout=max(nonzero_fanouts, default=0),
        average_fanout=(sum(nonzero_fanouts) / len(nonzero_fanouts)) if nonzero_fanouts else 0.0,
        depth=netlist.depth(),
        primary_input_fanout_total=input_fanout_total,
        max_output_cone_inputs=max_cone,
        op_histogram=netlist.op_histogram(),
    )
