"""Three-operand adder benchmarks — Table 1, "12-bit Three-Input Adder".

* :func:`three_input_adder_spec` — canonical specification of ``A + B + C``
  (the flat behavioural description the paper feeds to both tools);
* :func:`cascaded_rca_netlist` — ``RCA(RCA(A, B), C)``: two ripple-carry
  adders in sequence, the naive structural alternative from Table 1;
* :func:`csa_adder_netlist` — the manual reference: a carry-save adder (3:2
  compression per column) followed by a single ripple adder.

The flat Reed-Muller form of a three-operand adder grows very quickly with
the width (the paper's own caveat about Reed-Muller blow-up): 19.6M
monomials at the paper's width 12.  The carry-save construction builds and
decomposes it in seconds, but structuring that decomposition does not
finish (Shannon expansion of blocks over more than 60 variables, already
at width 11), so the Table 1 harness runs this row at a reduced width
while keeping the architecture comparison intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..anf.context import Context
from ..anf.expression import Anf
from ..anf.word import Word, carry_save_reduce
from ..circuit import gates
from ..circuit.netlist import Netlist
from .closed_form import input_indices


@dataclass
class ThreeInputAdderSpec:
    """Specification bundle for one three-operand adder instance."""

    ctx: Context
    width: int
    inputs: List[str]
    outputs: Dict[str, Anf]
    input_words: List[List[str]]


def three_input_adder_spec(width: int = 8, ctx: Context | None = None,
                           prefix_a: str = "a", prefix_b: str = "b",
                           prefix_c: str = "c") -> ThreeInputAdderSpec:
    """Canonical specification of ``A + B + C`` for three ``width``-bit operands.

    Built carry-save first: one full adder per column reduces the operands
    to a sum word and a carry word of three-variable bits, and one ripple
    addition of those two follows, so every product in it has a small
    operand.
    """
    if width < 1:
        raise ValueError("three-input adder needs at least one bit")
    ctx = ctx or Context()
    a = Word.inputs(ctx, prefix_a, width)
    b = Word.inputs(ctx, prefix_b, width)
    c = Word.inputs(ctx, prefix_c, width)
    a_bits = [f"{prefix_a}{i}" for i in range(width)]
    b_bits = [f"{prefix_b}{i}" for i in range(width)]
    c_bits = [f"{prefix_c}{i}" for i in range(width)]
    input_indices(ctx, a_bits + b_bits + c_bits)
    sums, carries = carry_save_reduce(ctx, [a, b, c])
    outputs = sums.add(carries).as_outputs("s")
    return ThreeInputAdderSpec(
        ctx, width, a_bits + b_bits + c_bits, outputs, [a_bits, b_bits, c_bits]
    )


def _ripple_add_nets(netlist: Netlist, a: List[str], b: List[str]) -> List[str]:
    """Ripple addition of two net vectors (result one bit wider than the longest)."""
    width = max(len(a), len(b))
    result: List[str] = []
    carry: str | None = None
    for i in range(width):
        bit_a = a[i] if i < len(a) else None
        bit_b = b[i] if i < len(b) else None
        operands = [net for net in (bit_a, bit_b, carry) if net is not None]
        if not operands:
            result.append(netlist.constant(0))
            carry = None
        elif len(operands) == 1:
            result.append(operands[0])
            carry = None
        elif len(operands) == 2:
            result.append(netlist.add_gate(gates.HA_SUM, operands))
            carry = netlist.add_gate(gates.HA_CARRY, operands)
        else:
            result.append(netlist.add_gate(gates.FA_SUM, operands))
            carry = netlist.add_gate(gates.FA_CARRY, operands)
    if carry is not None:
        result.append(carry)
    return result


def cascaded_rca_netlist(width: int = 8, prefix_a: str = "a", prefix_b: str = "b",
                         prefix_c: str = "c", name: str = "three_adder_rca_rca") -> Netlist:
    """``RCA(RCA(A, B), C)``: two ripple-carry adders in sequence."""
    netlist = Netlist(name)
    a = netlist.add_inputs([f"{prefix_a}{i}" for i in range(width)])
    b = netlist.add_inputs([f"{prefix_b}{i}" for i in range(width)])
    c = netlist.add_inputs([f"{prefix_c}{i}" for i in range(width)])
    partial = _ripple_add_nets(netlist, a, b)
    total = _ripple_add_nets(netlist, partial, c)
    for i, net in enumerate(total):
        netlist.set_output(f"s{i}", net)
    return netlist


def csa_adder_netlist(width: int = 8, prefix_a: str = "a", prefix_b: str = "b",
                      prefix_c: str = "c", name: str = "three_adder_csa") -> Netlist:
    """Carry-save adder (one 3:2 compressor per column) followed by one RCA."""
    netlist = Netlist(name)
    a = netlist.add_inputs([f"{prefix_a}{i}" for i in range(width)])
    b = netlist.add_inputs([f"{prefix_b}{i}" for i in range(width)])
    c = netlist.add_inputs([f"{prefix_c}{i}" for i in range(width)])
    sums: List[str] = []
    carries: List[str] = []
    for i in range(width):
        sums.append(netlist.add_gate(gates.FA_SUM, [a[i], b[i], c[i]]))
        carries.append(netlist.add_gate(gates.FA_CARRY, [a[i], b[i], c[i]]))
    # The save vector has weight 2^i, the carry vector weight 2^(i+1): bit 0
    # of the result is the first sum bit; the rest is one ripple addition.
    netlist.set_output("s0", sums[0])
    result = _ripple_add_nets(netlist, sums[1:], carries)
    for offset, net in enumerate(result):
        netlist.set_output(f"s{offset + 1}", net)
    return netlist


__all__ = [
    "ThreeInputAdderSpec",
    "three_input_adder_spec",
    "cascaded_rca_netlist",
    "csa_adder_netlist",
]
