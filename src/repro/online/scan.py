"""Building hierarchies from effective online algorithms (Theorem 1, Fig. 4).

Section 3 of the paper argues that any circuit with an *effective online
algorithm* — one that consumes its input bits serially, keeping only a
constant amount of precomputed state — also admits a hierarchical (building
block) implementation.  The construction is the classic parallel-prefix /
conditional-scan trick sketched in Fig. 4: each block precomputes its outputs
for every possible incoming state, and blocks are combined pairwise so the
depth is logarithmic instead of linear.

This module implements that construction for single-state-bit online
algorithms (the case the paper walks through, ``c = 1``): an
:class:`OnlineSpec` describes how one input group updates the single state
bit, and :func:`online_to_hierarchy_netlist` builds the log-depth circuit,
while :func:`online_to_serial_netlist` builds the naive linear-depth version
for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from ..anf.context import Context
from ..anf.expression import Anf
from ..circuit import gates
from ..circuit.netlist import Netlist
from ..synth.structuring import EmitContext, emit_with_strategy


@dataclass
class OnlineSpec:
    """An effective online algorithm with a single carried state bit.

    ``group_size`` input bits arrive per step.  ``update`` maps (state, group
    bits) to the next state; ``output`` maps the final state to the circuit's
    output.  Both are plain Python functions over 0/1 values; they are
    tabulated into Boolean expressions when the circuit is built.
    """

    name: str
    group_size: int
    update: Callable[[int, Sequence[int]], int]
    output: Callable[[int], int]
    initial_state: int = 0


def online_adder_spec(group_size: int = 1) -> OnlineSpec:
    """The carry chain of an adder as an online algorithm (state = carry).

    Each step consumes one (a, b) bit pair per position in the group; the
    state is the running carry and the output is the final carry.
    """

    def update(state: int, bits: Sequence[int]) -> int:
        carry = state
        for i in range(0, len(bits), 2):
            a, b = bits[i], bits[i + 1]
            carry = 1 if a + b + carry >= 2 else 0
        return carry

    return OnlineSpec("online_adder_carry", group_size * 2, update, lambda s: s, 0)


def online_comparator_spec(group_size: int = 1) -> OnlineSpec:
    """``A > B`` scanned from the least significant bit (state = "A bigger so far")."""

    def update(state: int, bits: Sequence[int]) -> int:
        result = state
        for i in range(0, len(bits), 2):
            a, b = bits[i], bits[i + 1]
            if a != b:
                result = 1 if a > b else 0
        return result

    return OnlineSpec("online_comparator", group_size * 2, update, lambda s: s, 0)


def _group_functions(spec: OnlineSpec, ctx: Context, bit_names: Sequence[str]) -> tuple[Anf, Anf]:
    """The conditioned next-state functions ``f`` (state=0) and ``g`` (state=1)."""
    from ..anf.expression import build_from_function

    names = list(bit_names)
    f = build_from_function(ctx, names, lambda bits: spec.update(0, bits))
    g = build_from_function(ctx, names, lambda bits: spec.update(1, bits))
    return f, g


def online_to_serial_netlist(spec: OnlineSpec, num_groups: int, prefix: str = "x",
                             name: str | None = None) -> Netlist:
    """The naive linear-depth implementation: one block per group, chained."""
    ctx = Context()
    netlist = Netlist(name or f"{spec.name}_serial")
    all_bits: List[str] = []
    for group in range(num_groups):
        for j in range(spec.group_size):
            all_bits.append(f"{prefix}{group}_{j}")
    netlist.add_inputs(all_bits)
    emit = EmitContext(netlist, {bit: bit for bit in all_bits})

    state_net = netlist.constant(spec.initial_state)
    for group in range(num_groups):
        bits = [f"{prefix}{group}_{j}" for j in range(spec.group_size)]
        f_expr, g_expr = _group_functions(spec, ctx, bits)
        f_net = emit_with_strategy(emit, f_expr, "sop")
        g_net = emit_with_strategy(emit, g_expr, "sop")
        state_net = netlist.add_gate(gates.MUX, [state_net, g_net, f_net])
    netlist.set_output("out", state_net)
    return netlist


def online_to_hierarchy_netlist(spec: OnlineSpec, num_groups: int, prefix: str = "x",
                                name: str | None = None) -> Netlist:
    """The Fig. 4 construction: conditioned values combined as a balanced tree.

    Every group computes its next state for both possible incoming states
    (the pair of "leader expressions"); pairs of adjacent segments are then
    combined by composing their conditioned values, giving logarithmic depth.
    """
    ctx = Context()
    netlist = Netlist(name or f"{spec.name}_hierarchical")
    all_bits: List[str] = []
    for group in range(num_groups):
        for j in range(spec.group_size):
            all_bits.append(f"{prefix}{group}_{j}")
    netlist.add_inputs(all_bits)
    emit = EmitContext(netlist, {bit: bit for bit in all_bits})

    # Leaf level: (value if incoming state 0, value if incoming state 1).
    segments: List[tuple[str, str]] = []
    for group in range(num_groups):
        bits = [f"{prefix}{group}_{j}" for j in range(spec.group_size)]
        f_expr, g_expr = _group_functions(spec, ctx, bits)
        f_net = emit_with_strategy(emit, f_expr, "sop")
        g_net = emit_with_strategy(emit, g_expr, "sop")
        segments.append((f_net, g_net))

    # Combine adjacent segments: the right segment selects between its two
    # conditioned values using the left segment's outcome.
    while len(segments) > 1:
        combined: List[tuple[str, str]] = []
        for i in range(0, len(segments) - 1, 2):
            left_f, left_g = segments[i]
            right_f, right_g = segments[i + 1]
            new_f = netlist.add_gate(gates.MUX, [left_f, right_g, right_f])
            new_g = netlist.add_gate(gates.MUX, [left_g, right_g, right_f])
            combined.append((new_f, new_g))
        if len(segments) % 2:
            combined.append(segments[-1])
        segments = combined

    final_f, final_g = segments[0]
    out = final_g if spec.initial_state else final_f
    netlist.set_output("out", out)
    return netlist

