"""Magnitude comparator benchmarks — Table 1, "15-bit Comparator".

The function is ``gt = (A > B)`` for two unsigned ``width``-bit operands.

* :func:`comparator_spec` — canonical Boolean specification (what PD
  consumes; PD is expected to rediscover the borrow/carry chain — "the
  comparator function is the same as the sign of the subtraction"), whose
  rows :func:`greater_than_rows` writes from the recurrence directly;
* :func:`progressive_comparator_netlist` — the unoptimised description: the
  MSB-first "compare, and on equality look at the next bit" chain;
* :func:`subtracter_carry_comparator_netlist` — the manual reference: the
  carry-out of ``A - B`` computed by a borrow-ripple subtracter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..anf.context import Context
from ..anf.expression import Anf
from ..circuit import gates
from ..circuit.netlist import Netlist
from .closed_form import input_indices, rows_anf


@dataclass
class ComparatorSpec:
    """Specification bundle for one comparator instance."""

    ctx: Context
    width: int
    inputs: List[str]
    outputs: Dict[str, Anf]
    input_words: List[List[str]]


def comparator_spec(width: int = 15, ctx: Context | None = None,
                    prefix_a: str = "a", prefix_b: str = "b") -> ComparatorSpec:
    """Canonical specification of the unsigned comparison ``A > B``."""
    if width < 1:
        raise ValueError("comparator needs at least one bit")
    ctx = ctx or Context()
    a_bits = ctx.bus(prefix_a, width)
    b_bits = ctx.bus(prefix_b, width)
    indices = input_indices(ctx, a_bits + b_bits)
    gt = rows_anf(ctx, indices, greater_than_rows(width))
    return ComparatorSpec(ctx, width, a_bits + b_bits, {"gt": gt}, [a_bits, b_bits])


def greater_than_rows(width: int) -> np.ndarray:
    """Sorted rows of ``A > B`` with ``a_i`` at bit ``i`` and ``b_i`` at bit ``width + i``.

    From the LSB up, ``gt_{i+1} = a_i·(1 ⊕ b_i) ⊕ (1 ⊕ a_i ⊕ b_i)·gt_i``:
    bit ``i`` decides, or on equality the lower bits' verdict stands.  Its
    terms are ``{a_i, a_i·b_i}`` beside ``gt_i·{1, a_i, b_i}``, and nothing
    cancels (``gt_i`` has no constant term and no variable at position
    ``i``), so there are ``3^width − 1`` rows.  Each step builds the rows
    below ``b_i``'s bit (``gt``, ``gt|a_i``, ``a_i``) and those above it
    (``a_i|b_i``, ``gt|b_i``) as two arrays, sorts each (a few sorted runs,
    which a stable sort merges) and joins them.

    Writing both halves into one preallocated buffer instead saves a copy,
    but measured over whole cold-then-warm job sequences it did worse: it
    frees no large array, so glibc's dynamic mmap threshold stays low and
    later warm jobs and record parses map fresh memory (cold-wide: 16–20%
    fewer warm hits per second and 7% more peak RSS, 2 vCPUs).
    """
    gt = np.empty(0, dtype=np.uint64)
    for i in range(width):
        a = np.uint64(1 << i)
        b = np.uint64(1 << (width + i))
        low = np.concatenate((gt, gt | a, [a]))
        low.sort(kind="stable")
        high = np.concatenate(([a | b], gt | b))
        high.sort(kind="stable")
        gt = np.concatenate((low, high))
    return gt


def progressive_comparator_netlist(width: int = 15, prefix_a: str = "a", prefix_b: str = "b",
                                   name: str = "comparator_msb_first") -> Netlist:
    """MSB-first comparator chain: compare a bit, fall through on equality."""
    netlist = Netlist(name)
    a = netlist.add_inputs([f"{prefix_a}{i}" for i in range(width)])
    b = netlist.add_inputs([f"{prefix_b}{i}" for i in range(width)])
    # Build the priority chain from the least significant bit upwards: at each
    # position the comparison of the more significant bit either decides the
    # result or, on equality, falls through to the lower bits' verdict.
    result: str | None = None
    for i in range(width):
        not_b = netlist.add_gate(gates.NOT, [b[i]])
        gt_here = netlist.add_gate(gates.AND, [a[i], not_b])
        if result is None:
            result = gt_here
        else:
            equal_here = netlist.add_gate(gates.XNOR, [a[i], b[i]])
            keep_lower = netlist.add_gate(gates.AND, [equal_here, result])
            result = netlist.add_gate(gates.OR, [gt_here, keep_lower])
    netlist.set_output("gt", result if result is not None else netlist.constant(0))
    return netlist


def subtracter_carry_comparator_netlist(width: int = 15, prefix_a: str = "a", prefix_b: str = "b",
                                        name: str = "comparator_subtract") -> Netlist:
    """``A > B`` as the borrow-out of ``B - A`` (ripple borrow chain).

    ``A > B`` holds exactly when computing ``B - A`` underflows, i.e. when the
    final borrow of the subtraction is raised.
    """
    netlist = Netlist(name)
    a = netlist.add_inputs([f"{prefix_a}{i}" for i in range(width)])
    b = netlist.add_inputs([f"{prefix_b}{i}" for i in range(width)])
    borrow: str | None = None
    for i in range(width):
        not_b = netlist.add_gate(gates.NOT, [b[i]])
        if borrow is None:
            borrow = netlist.add_gate(gates.AND, [a[i], not_b])
        else:
            # borrow' = a·~b  |  (a XNOR b)·borrow  == majority(a, ~b, borrow)
            borrow = netlist.add_gate(gates.FA_CARRY, [a[i], not_b, borrow])
    netlist.set_output("gt", borrow if borrow is not None else netlist.constant(0))
    return netlist
