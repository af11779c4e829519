"""Leading Zero Detector (LZD) benchmark circuits.

The LZD takes a ``width``-bit integer ``a[width-1] … a[0]`` (MSB first) and
reports the position of the leading one, i.e. the number of leading zeros.
Outputs:

* ``z0 … z{p-1}`` — the leading-zero count in binary (LSB first), valid when
  some input bit is one; it saturates at ``width-1`` for the all-zero input;
* ``v`` — the "valid" flag (OR of all inputs), as in Oklobdzija's design.

Three descriptions are provided, mirroring the paper's experiments:

* :func:`lzd_spec` — the flat Boolean specification (canonical Reed-Muller),
  whose rows :func:`lzd_rows` writes from the closed form; this is the
  description fed both to the baseline flow and to Progressive
  Decomposition;
* :func:`lzd_sop` — the two-level SOP description of Figure 1 (one product
  term per leading-one position);
* :func:`oklobdzija_lzd_netlist` — the manual hierarchical design of Figure 2
  (4-bit blocks computing ``V``/``P1``/``P0``, combined by a second level),
  used for the structural comparison and as a quality reference.

The paper encodes the position 1-based; we use the equivalent 0-based
leading-zero count (the architectures and their costs are identical).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..anf.context import Context
from ..anf.expression import Anf
from ..anf.sop import Cube, Sop
from ..circuit import gates
from ..circuit.netlist import Netlist
from .closed_form import input_indices, rows_anf


@dataclass
class LzdSpec:
    """Specification bundle for one LZD instance."""

    ctx: Context
    width: int
    inputs: List[str]
    outputs: Dict[str, Anf]
    input_words: List[List[str]]


def lzd_spec(width: int = 16, ctx: Context | None = None, prefix: str = "a") -> LzdSpec:
    """Flat LZD specification in canonical Reed-Muller form."""
    if width < 2:
        raise ValueError("LZD needs at least 2 input bits")
    ctx = ctx or Context()
    bits = ctx.bus(prefix, width)
    indices = input_indices(ctx, bits)
    outputs = {port: rows_anf(ctx, indices, rows) for port, rows in lzd_rows(width).items()}
    return LzdSpec(ctx, width, bits, outputs, [list(bits)])


def lzd_rows(width: int) -> Dict[str, np.ndarray]:
    """Sorted rows of every LZD output, with ``a_i`` at bit ``i``.

    The leading-one indicator of bit ``p`` is ``a_p·∏_{j>p}(1 ⊕ a_j)``: every
    monomial whose lowest variable is ``p``.  So each nonempty monomial
    ``r`` belongs to exactly one indicator, whose count is
    ``width − 1 − ctz(r)``.  The all-zero term ``∏(1 ⊕ a_j)`` (every
    monomial, the constant included) saturates the count at ``width − 1``,
    so ``z_k`` keeps the ``r`` whose count's bit ``k`` differs from bit
    ``k`` of ``width − 1``, plus the constant when that bit is set.  ``v``,
    the OR of the inputs, is every nonempty monomial.
    """
    top = width - 1
    monomials = np.arange(1, 1 << width, dtype=np.uint64)
    lowest = np.bitwise_count(monomials ^ (monomials - np.uint64(1))) - 1
    outputs: Dict[str, np.ndarray] = {}
    for k in range(max(1, top.bit_length())):
        flips = np.array([((top - p) ^ top) >> k & 1 for p in range(width)], dtype=bool)
        rows = monomials[flips[lowest]]
        if top >> k & 1:
            rows = np.concatenate((np.zeros(1, dtype=np.uint64), rows))
        outputs[f"z{k}"] = rows
    outputs["v"] = monomials
    return outputs


def lzd_sop(spec: LzdSpec) -> Dict[str, Sop]:
    """The Figure-1 style SOP description (one cube per leading-one position)."""
    ctx = spec.ctx
    width = spec.width
    bits = spec.inputs
    position_bits = max(1, (width - 1).bit_length())
    sops: Dict[str, Sop] = {name: Sop(ctx) for name in spec.outputs}

    def cube_for_position(i: int) -> Cube:
        positive = 1 << ctx.index(bits[width - 1 - i])
        negative = 0
        for j in range(i):
            negative |= 1 << ctx.index(bits[width - 1 - j])
        return Cube(positive, negative)

    all_zero_cube = Cube(0, ctx.mask_of(bits))
    for i in range(width):
        cube = cube_for_position(i)
        for k in range(position_bits):
            if i >> k & 1:
                sops[f"z{k}"].add_cube(cube)
        sops["v"].add_cube(cube)
    for k in range(position_bits):
        if (width - 1) >> k & 1:
            sops[f"z{k}"].add_cube(all_zero_cube)
    return sops


def oklobdzija_lzd_netlist(width: int = 16, prefix: str = "a", name: str = "lzd_oklobdzija") -> Netlist:
    """Oklobdzija's hierarchical LZD (Figure 2), generalised to width = 4·m.

    Each 4-bit block produces a valid flag ``V`` and a 2-bit local position
    ``⟨P1 P0⟩``; a second level selects the first valid block and assembles
    the global position (block index concatenated with the local position).
    """
    if width % 4 != 0 or width < 4:
        raise ValueError("the Oklobdzija construction needs a width that is a multiple of 4")
    netlist = Netlist(name)
    bits = [f"{prefix}{i}" for i in range(width)]
    netlist.add_inputs(bits)
    num_blocks = width // 4

    block_valid: List[str] = []
    block_p0: List[str] = []
    block_p1: List[str] = []
    # Block 0 holds the most significant nibble.
    for block in range(num_blocks):
        msb = width - 1 - 4 * block
        b3, b2, b1, b0 = (bits[msb], bits[msb - 1], bits[msb - 2], bits[msb - 3])
        valid = netlist.add_gate(gates.OR, [b3, b2, b1, b0])
        not_b3 = netlist.add_gate(gates.NOT, [b3])
        not_b2 = netlist.add_gate(gates.NOT, [b2])
        # Local position (number of leading zeros within the block, 0..3).
        # P1 = ~b3 & ~b2 ; P0 = ~b3 & (b2 | ~b1)
        p1 = netlist.add_gate(gates.AND, [not_b3, not_b2])
        not_b1 = netlist.add_gate(gates.NOT, [b1])
        b2_or_not_b1 = netlist.add_gate(gates.OR, [b2, not_b1])
        p0 = netlist.add_gate(gates.AND, [not_b3, b2_or_not_b1])
        block_valid.append(valid)
        block_p1.append(p1)
        block_p0.append(p0)

    # Second level: first valid block selects its local position; the block
    # index supplies the upper bits of the global count.
    not_valid: List[str] = [netlist.add_gate(gates.NOT, [v]) for v in block_valid]
    select: List[str] = []
    for block in range(num_blocks):
        terms = [block_valid[block]] + [not_valid[j] for j in range(block)]
        if len(terms) == 1:
            select.append(terms[0])
        else:
            select.append(netlist.add_gate(gates.AND, terms))

    position_bits = max(1, (width - 1).bit_length())
    all_invalid = netlist.add_gate(gates.AND, not_valid) if num_blocks > 1 else not_valid[0]
    for k in range(position_bits):
        contributors: List[str] = []
        for block in range(num_blocks):
            if k < 2:
                local = block_p0[block] if k == 0 else block_p1[block]
                contributors.append(netlist.add_gate(gates.AND, [select[block], local]))
            else:
                if (block >> (k - 2)) & 1:
                    contributors.append(select[block])
        if (width - 1) >> k & 1:
            contributors.append(all_invalid)
        if not contributors:
            out = netlist.constant(0)
        elif len(contributors) == 1:
            out = contributors[0]
        else:
            out = netlist.add_gate(gates.OR, contributors)
        netlist.set_output(f"z{k}", out)
    overall_valid = netlist.add_gate(gates.OR, block_valid) if num_blocks > 1 else block_valid[0]
    netlist.set_output("v", overall_valid)
    return netlist
