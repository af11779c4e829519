"""Combinational gate-level netlists.

A :class:`Netlist` is a DAG of :class:`Gate` objects connected by named nets.
It is the common structural representation shared by the benchmark
generators, the Progressive Decomposition back-end and the synthesis
substrate (technology mapping, timing, area).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Sequence

from . import gates
from .gates import GateError, evaluate_op, validate_gate


@dataclass(frozen=True)
class Gate:
    """One combinational gate: ``output = op(inputs...)``."""

    op: str
    inputs: tuple[str, ...]
    output: str

    def __post_init__(self) -> None:
        validate_gate(self.op, len(self.inputs))


class Netlist:
    """A combinational circuit as a DAG of gates over named nets."""

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self._inputs: list[str] = []
        self._input_set: set[str] = set()
        self._gates: list[Gate] = []
        self._driver: dict[str, Gate] = {}
        self._outputs: dict[str, str] = {}
        self._net_counter = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input net."""
        if name in self._driver:
            raise GateError(f"net {name!r} is already driven by a gate")
        if name not in self._input_set:
            self._input_set.add(name)
            self._inputs.append(name)
        return name

    def add_inputs(self, names: Iterable[str]) -> list[str]:
        return [self.add_input(name) for name in names]

    def new_net(self, prefix: str = "n") -> str:
        """Return a fresh internal net name."""
        while True:
            name = f"{prefix}{self._net_counter}"
            self._net_counter += 1
            if name not in self._driver and name not in self._input_set:
                return name

    def add_gate(self, op: str, inputs: Sequence[str], output: str | None = None) -> str:
        """Add a gate; returns the output net name (generated when omitted)."""
        if output is None:
            output = self.new_net()
        if output in self._driver:
            raise GateError(f"net {output!r} already has a driver")
        if output in self._input_set:
            raise GateError(f"net {output!r} is a primary input and cannot be driven")
        gate = Gate(op, tuple(inputs), output)
        self._gates.append(gate)
        self._driver[output] = gate
        return output

    def set_output(self, port: str, net: str) -> None:
        """Declare that primary output ``port`` is driven by ``net``."""
        self._outputs[port] = net

    def constant(self, value: int | bool) -> str:
        """Net carrying a constant 0/1 (a new constant gate each call)."""
        return self.add_gate(gates.CONST1 if value else gates.CONST0, ())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> list[str]:
        return list(self._inputs)

    @property
    def outputs(self) -> dict[str, str]:
        """Mapping from output port name to the net driving it."""
        return dict(self._outputs)

    @property
    def gates(self) -> list[Gate]:
        return list(self._gates)

    @property
    def num_gates(self) -> int:
        return len(self._gates)

    def is_input(self, net: str) -> bool:
        return net in self._input_set

    def nets(self) -> list[str]:
        """All nets: inputs first, then gate outputs in insertion order."""
        return self._inputs + [gate.output for gate in self._gates]

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def validate(self) -> None:
        """Check that every gate input is driven and outputs exist."""
        known = set(self._input_set)
        for gate in self.topological_gates():
            for net in gate.inputs:
                if net not in known and net not in self._driver:
                    raise GateError(f"gate {gate.op} input net {net!r} has no driver")
            known.add(gate.output)
        for port, net in self._outputs.items():
            if net not in known and net not in self._input_set:
                raise GateError(f"output port {port!r} references undriven net {net!r}")

    # ------------------------------------------------------------------
    # Graph algorithms
    # ------------------------------------------------------------------
    def topological_gates(self) -> list[Gate]:
        """Gates in topological order (inputs before users)."""
        order: list[Gate] = []
        visited: dict[str, int] = {}  # net -> 0 visiting, 1 done

        # Iterative DFS to avoid recursion limits on deep carry chains.
        for root in list(self._outputs.values()) + [g.output for g in self._gates]:
            if visited.get(root) == 1:
                continue
            stack: list[tuple[str, int]] = [(root, 0)]
            while stack:
                net, phase = stack.pop()
                if phase == 0:
                    state = visited.get(net)
                    if state == 1:
                        continue
                    if state == 0:
                        raise GateError(f"combinational cycle through net {net!r}")
                    gate = self._driver.get(net)
                    if gate is None:
                        visited[net] = 1
                        continue
                    visited[net] = 0
                    stack.append((net, 1))
                    for parent in gate.inputs:
                        if visited.get(parent) != 1:
                            stack.append((parent, 0))
                else:
                    if visited.get(net) == 1:
                        continue
                    gate = self._driver[net]
                    for parent in gate.inputs:
                        if visited.get(parent) != 1:
                            raise GateError(f"combinational cycle through net {net!r}")
                    visited[net] = 1
                    order.append(gate)
        return order

    def fanout_counts(self) -> Dict[str, int]:
        """Number of gate inputs (plus output ports) each net feeds."""
        counts: Dict[str, int] = {net: 0 for net in self.nets()}
        for gate in self._gates:
            for net in gate.inputs:
                counts[net] = counts.get(net, 0) + 1
        for net in self._outputs.values():
            counts[net] = counts.get(net, 0) + 1
        return counts

    def logic_levels(self) -> Dict[str, int]:
        """Unit-delay level of every net (inputs and constants are level 0)."""
        levels: Dict[str, int] = {net: 0 for net in self._inputs}
        for gate in self.topological_gates():
            if not gate.inputs:
                levels[gate.output] = 0
            else:
                levels[gate.output] = 1 + max(levels.get(net, 0) for net in gate.inputs)
        return levels

    def depth(self) -> int:
        """Unit-delay depth of the circuit (longest input→output path)."""
        levels = self.logic_levels()
        if not self._outputs:
            return max(levels.values(), default=0)
        return max(levels.get(net, 0) for net in self._outputs.values())

    def cone_of(self, nets: Iterable[str]) -> "Netlist":
        """The transitive fan-in cone of the given output nets, as a new netlist."""
        needed: set[str] = set()
        stack = list(nets)
        while stack:
            net = stack.pop()
            if net in needed:
                continue
            needed.add(net)
            gate = self._driver.get(net)
            if gate is not None:
                stack.extend(gate.inputs)
        cone = Netlist(f"{self.name}_cone")
        for net in self._inputs:
            if net in needed:
                cone.add_input(net)
        for gate in self.topological_gates():
            if gate.output in needed:
                cone.add_gate(gate.op, gate.inputs, gate.output)
        for port, net in self._outputs.items():
            if net in needed:
                cone.set_output(port, net)
        return cone

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self, assignment: Mapping[str, int]) -> Dict[str, int]:
        """Evaluate every net under the given primary-input assignment."""
        values: Dict[str, int] = {}
        for net in self._inputs:
            if net not in assignment:
                raise GateError(f"missing value for primary input {net!r}")
            values[net] = 1 if assignment[net] else 0
        for gate in self.topological_gates():
            values[gate.output] = evaluate_op(gate.op, [values[n] for n in gate.inputs])
        return values

    def evaluate_outputs(self, assignment: Mapping[str, int]) -> Dict[str, int]:
        """Evaluate only the primary outputs under the given assignment."""
        values = self.simulate(assignment)
        return {port: values[net] for port, net in self._outputs.items()}

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def op_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for gate in self._gates:
            histogram[gate.op] = histogram.get(gate.op, 0) + 1
        return histogram

    def copy(self, name: str | None = None) -> "Netlist":
        clone = Netlist(name or self.name)
        clone.add_inputs(self._inputs)
        for gate in self._gates:
            clone.add_gate(gate.op, gate.inputs, gate.output)
        for port, net in self._outputs.items():
            clone.set_output(port, net)
        clone._net_counter = self._net_counter
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Netlist({self.name!r}, {len(self._inputs)} inputs, "
            f"{len(self._gates)} gates, {len(self._outputs)} outputs)"
        )
