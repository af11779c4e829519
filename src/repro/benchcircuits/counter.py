"""Parallel counter (population count) benchmarks — Table 1, "16-bit Counter".

Three descriptions are provided:

* :func:`counter_spec` — the canonical Boolean specification of the
  population count (what PD consumes);
* :func:`adder_chain_counter_netlist` — the paper's "unoptimised" behavioural
  description: the input written as a sum of ``n`` zero-extended one-bit
  integers, implemented as a linear chain of ripple additions (which is what
  a synthesis tool produces from ``a0 + a1 + … + a15`` without
  restructuring);
* :func:`compressor_tree_counter_netlist` — the TGA-style implementation: a
  3:2 carry-save compressor tree followed by a small ripple adder, the manual
  reference the paper compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..anf.context import Context
from ..anf.expression import Anf
from ..circuit import gates
from ..circuit.netlist import Netlist
from .closed_form import input_indices, rows_anf, symmetric_rows


@dataclass
class CounterSpec:
    """Specification bundle for one parallel-counter instance."""

    ctx: Context
    width: int
    inputs: List[str]
    outputs: Dict[str, Anf]
    input_words: List[List[str]]


def counter_spec(width: int = 16, ctx: Context | None = None, prefix: str = "a") -> CounterSpec:
    """Population count of ``width`` input bits, as canonical Reed-Muller outputs.

    Bit ``k`` of the count is symmetric in the inputs; its rows come from
    :func:`~repro.benchcircuits.closed_form.symmetric_rows` (they are the
    weight-``2^k`` monomials, ``e_{2^k}``).  The outputs are as many as
    :func:`~repro.anf.word.popcount_word`'s adder tree produces, so a tree
    wider than the count keeps its constant-zero top bits (``s4`` of the
    12-bit counter).
    """
    if width < 1:
        raise ValueError("counter needs at least one input")
    ctx = ctx or Context()
    bits = ctx.bus(prefix, width)
    indices = input_indices(ctx, bits)
    tables = [[j >> k & 1 for j in range(width + 1)] for k in range(_popcount_tree_width(width))]
    outputs = {
        f"s{k}": rows_anf(ctx, indices, rows)
        for k, rows in enumerate(symmetric_rows(width, tables))
    }
    return CounterSpec(ctx, width, bits, outputs, [list(bits)])


def _popcount_tree_width(width: int) -> int:
    """Output width of :func:`~repro.anf.word.popcount_word` on ``width`` bits.

    Its tree adds neighbouring words pairwise, each sum one bit wider than
    its wider operand, and carries an odd word up unchanged.
    """
    widths = [1] * width
    while len(widths) > 1:
        paired = [max(widths[i], widths[i + 1]) + 1 for i in range(0, len(widths) - 1, 2)]
        widths = paired + widths[len(widths) - len(widths) % 2:]
    return widths[0]


def _ripple_add(netlist: Netlist, a: List[str], b: List[str], width: int) -> List[str]:
    """Ripple-carry addition of two net vectors inside a netlist."""
    result: List[str] = []
    carry: str | None = None
    zero = None
    for i in range(width):
        bit_a = a[i] if i < len(a) else None
        bit_b = b[i] if i < len(b) else None
        if bit_a is None and bit_b is None:
            if carry is None:
                if zero is None:
                    zero = netlist.constant(0)
                result.append(zero)
            else:
                result.append(carry)
                carry = None
            continue
        if bit_a is None or bit_b is None:
            single = bit_a if bit_a is not None else bit_b
            if carry is None:
                result.append(single)
            else:
                result.append(netlist.add_gate(gates.HA_SUM, [single, carry]))
                carry = netlist.add_gate(gates.HA_CARRY, [single, carry])
            continue
        if carry is None:
            result.append(netlist.add_gate(gates.HA_SUM, [bit_a, bit_b]))
            carry = netlist.add_gate(gates.HA_CARRY, [bit_a, bit_b])
        else:
            result.append(netlist.add_gate(gates.FA_SUM, [bit_a, bit_b, carry]))
            carry = netlist.add_gate(gates.FA_CARRY, [bit_a, bit_b, carry])
    if carry is not None:
        result.append(carry)
    return result[:width] + result[width:]


def adder_chain_counter_netlist(width: int = 16, prefix: str = "a", name: str = "counter_chain") -> Netlist:
    """Linear chain of ripple additions summing the input bits one at a time."""
    netlist = Netlist(name)
    bits = netlist.add_inputs([f"{prefix}{i}" for i in range(width)])
    output_width = width.bit_length()
    accumulator: List[str] = [bits[0]]
    for bit in bits[1:]:
        accumulator = _ripple_add(netlist, accumulator, [bit], output_width)
    for k in range(output_width):
        if k < len(accumulator):
            netlist.set_output(f"s{k}", accumulator[k])
        else:
            netlist.set_output(f"s{k}", netlist.constant(0))
    return netlist


def compressor_tree_counter_netlist(width: int = 16, prefix: str = "a", name: str = "counter_tga") -> Netlist:
    """3:2 compressor tree (Wallace/Dadda style) followed by a ripple adder.

    This plays the role of the TGA reference design: the circuit is built out
    of 3:2 counter blocks with delay-conscious interconnection.
    """
    netlist = Netlist(name)
    bits = netlist.add_inputs([f"{prefix}{i}" for i in range(width)])
    output_width = width.bit_length()
    # columns[w] holds nets of weight 2^w awaiting reduction.
    columns: List[List[str]] = [[] for _ in range(output_width + 1)]
    columns[0] = list(bits)
    for weight in range(output_width + 1):
        column = columns[weight]
        while len(column) >= 2:
            if len(column) >= 3:
                a, b, c = column.pop(0), column.pop(0), column.pop(0)
                column.append(netlist.add_gate(gates.FA_SUM, [a, b, c]))
                carry = netlist.add_gate(gates.FA_CARRY, [a, b, c])
            else:
                a, b = column.pop(0), column.pop(0)
                column.append(netlist.add_gate(gates.HA_SUM, [a, b]))
                carry = netlist.add_gate(gates.HA_CARRY, [a, b])
            if weight + 1 < len(columns):
                columns[weight + 1].append(carry)
    for k in range(output_width):
        column = columns[k]
        if column:
            netlist.set_output(f"s{k}", column[0])
        else:
            netlist.set_output(f"s{k}", netlist.constant(0))
    return netlist
