"""Technology mapping onto the standard-cell library.

The mapper performs the final, architecture-preserving translation of a
netlist into library cells:

* n-ary AND/OR/XOR/NAND/NOR/XNOR gates are decomposed into balanced trees of
  the widest cells the library offers for that operator family;
* NOT/BUF/MUX and the arithmetic macro-gates (half/full adder sum and carry)
  map onto their dedicated cells;
* every mapped gate is assigned a concrete :class:`~repro.synth.library.Cell`.

The result is a :class:`MappedDesign` on which timing and area analysis run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..circuit import gates
from ..circuit.netlist import Netlist
from .library import Cell, Library, default_library


class MappingError(ValueError):
    """Raised when a netlist cannot be mapped onto the target library."""


@dataclass
class MappedDesign:
    """A technology-mapped netlist with its cell assignment."""

    netlist: Netlist
    library: Library
    cell_of: Dict[str, Cell] = field(default_factory=dict)  # keyed by output net

    @property
    def area(self) -> float:
        """Total cell area in µm²."""
        return sum(cell.area for cell in self.cell_of.values())

    @property
    def num_cells(self) -> int:
        return len(self.cell_of)

    def cell_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for cell in self.cell_of.values():
            histogram[cell.name] = histogram.get(cell.name, 0) + 1
        return dict(sorted(histogram.items()))


# Pairs of (inverting op, non-inverting op) used when decomposing wide gates.
_TREE_FAMILY = {
    gates.AND: (gates.AND, None),
    gates.OR: (gates.OR, None),
    gates.XOR: (gates.XOR, None),
    gates.NAND: (gates.AND, gates.NAND),
    gates.NOR: (gates.OR, gates.NOR),
    gates.XNOR: (gates.XOR, gates.XNOR),
}


def _max_arity(library: Library, op: str) -> int:
    arity = 0
    for cell in library.cells.values():
        if cell.op == op:
            arity = max(arity, cell.arity)
    return arity


def technology_map(netlist: Netlist, library: Library | None = None) -> MappedDesign:
    """Map a netlist onto the library, decomposing wide gates as needed."""
    library = library or default_library()
    mapped = Netlist(f"{netlist.name}_mapped")
    mapped.add_inputs(netlist.inputs)
    cell_of: Dict[str, Cell] = {}
    net_translation: Dict[str, str] = {name: name for name in netlist.inputs}

    def emit_cell(op: str, inputs: Sequence[str], output: str | None = None) -> str:
        cell = library.cell_for(op, len(inputs))
        if cell is None:
            raise MappingError(f"library {library.name!r} has no cell for {op}/{len(inputs)}")
        out = mapped.add_gate(op, inputs, output)
        cell_of[out] = cell
        return out

    def emit_tree(op_family: str, final_op: str | None, inputs: Sequence[str], output: str | None) -> str:
        max_arity = _max_arity(library, op_family)
        if max_arity < 2:
            raise MappingError(f"library {library.name!r} cannot implement {op_family}")
        if final_op is None:
            # Reduce everything but the last level, then emit the last gate with
            # the requested output name so downstream references stay valid.
            if len(inputs) <= max_arity:
                return emit_cell(op_family, inputs, output)
            # First reduce to at most max_arity intermediate nets.
            level = list(inputs)
            while len(level) > max_arity:
                next_level: List[str] = []
                index = 0
                while index < len(level):
                    chunk = level[index:index + max_arity]
                    if len(chunk) == 1:
                        next_level.append(chunk[0])
                    else:
                        next_level.append(emit_cell(op_family, chunk))
                    index += max_arity
                level = next_level
            return emit_cell(op_family, level, output)
        # Inverting family: build the non-inverting tree, finish with the
        # inverting gate (or a plain 2-input inverting cell when it fits).
        if len(inputs) <= _max_arity(library, final_op):
            return emit_cell(final_op, inputs, output)
        level = list(inputs)
        while len(level) > 2:
            next_level = []
            index = 0
            while index < len(level):
                chunk = level[index:index + max_arity]
                if len(chunk) == 1:
                    next_level.append(chunk[0])
                else:
                    next_level.append(emit_cell(op_family, chunk))
                index += max_arity
            level = next_level
        return emit_cell(final_op, level, output)

    for gate in netlist.topological_gates():
        inputs = [net_translation[net] for net in gate.inputs]
        # Never reuse source net names for mapped gate outputs: the mapped
        # netlist generates its own names and ``net_translation`` records the
        # correspondence (this avoids collisions with auto-generated names).
        output = None
        if gate.op in (gates.CONST0, gates.CONST1):
            out = emit_cell(gate.op, [], output)
        elif gate.op in (gates.NOT, gates.BUF):
            out = emit_cell(gate.op, inputs, output)
        elif gate.op == gates.MUX:
            out = emit_cell(gates.MUX, inputs, output)
        elif gate.op in (gates.HA_SUM, gates.HA_CARRY, gates.FA_SUM, gates.FA_CARRY):
            out = emit_cell(gate.op, inputs, output)
        elif gate.op in _TREE_FAMILY:
            if len(inputs) == 1:
                out = emit_cell(gates.BUF, inputs, output)
            else:
                family, final = _TREE_FAMILY[gate.op]
                out = emit_tree(family, final, inputs, output)
        else:
            raise MappingError(f"unsupported gate operator {gate.op!r}")
        net_translation[gate.output] = out

    for port, net in netlist.outputs.items():
        mapped.set_output(port, net_translation.get(net, net))
    return MappedDesign(mapped, library, cell_of)
