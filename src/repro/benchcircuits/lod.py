"""Leading One Detector (LOD) benchmark circuits.

Following the paper's description, the LOD is the dual of the LZD: it scans
the input from the left looking for the first *zero* bit.  Its Reed-Muller
form is dramatically smaller than the LZD's (each position indicator is a
product of uncomplemented variables times one complemented variable, i.e.
two monomials), which is why the paper can optimise a 32-bit LOD but not a
32-bit LZD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..anf.context import Context
from ..anf.expression import Anf, anf_product
from ..anf.sop import Cube, Sop


@dataclass
class LodSpec:
    """Specification bundle for one LOD instance."""

    ctx: Context
    width: int
    inputs: List[str]
    outputs: Dict[str, Anf]
    input_words: List[List[str]]


def _position_indicators(ctx: Context, bits: List[str], detect_one: bool) -> List[Anf]:
    """``x[i]`` = the first *interesting* bit from the left is at offset ``i``.

    ``detect_one=True`` gives the LZD indicators (leading bits are zero, bit
    ``i`` from the left is one); ``detect_one=False`` gives the LOD/leading-
    zero-search variant used by the paper's LOD benchmark.
    """
    width = len(bits)
    indicators = []
    for i in range(width):
        factors = []
        for j in range(i):
            prefix = Anf.var(ctx, bits[width - 1 - j])
            factors.append(~prefix if detect_one else prefix)
        pivot = Anf.var(ctx, bits[width - 1 - i])
        factors.append(pivot if detect_one else ~pivot)
        indicators.append(anf_product(factors, ctx))
    return indicators


def lod_spec(width: int = 32, ctx: Context | None = None, prefix: str = "a") -> LodSpec:
    """Flat LOD specification in canonical Reed-Muller form.

    Outputs ``z*`` give the number of leading *ones* (the position of the
    first zero scanning from the MSB), saturating at ``width-1`` for the
    all-one input; ``v`` is true when the input contains at least one zero.
    """
    if width < 2:
        raise ValueError("LOD needs at least 2 input bits")
    ctx = ctx or Context()
    bits = ctx.bus(prefix, width)
    indicators = _position_indicators(ctx, bits, detect_one=False)
    position_bits = max(1, (width - 1).bit_length())
    outputs: Dict[str, Anf] = {}
    all_ones = anf_product([Anf.var(ctx, bit) for bit in bits], ctx)
    for k in range(position_bits):
        acc = Anf.zero(ctx)
        for i, indicator in enumerate(indicators):
            if i >> k & 1:
                acc = acc ^ indicator
        if (width - 1) >> k & 1:
            acc = acc ^ all_ones
        outputs[f"z{k}"] = acc
    valid = Anf.zero(ctx)
    for bit in bits:
        valid = valid | ~Anf.var(ctx, bit)
    outputs["v"] = valid
    return LodSpec(ctx, width, bits, outputs, [list(bits)])


def lod_sop(spec: LodSpec) -> Dict[str, Sop]:
    """The flat SOP description of the LOD (one cube per position)."""
    ctx = spec.ctx
    width = spec.width
    bits = spec.inputs
    position_bits = max(1, (width - 1).bit_length())
    sops: Dict[str, Sop] = {name: Sop(ctx) for name in spec.outputs}

    def cube_for_position(i: int) -> Cube:
        negative = 1 << ctx.index(bits[width - 1 - i])
        positive = 0
        for j in range(i):
            positive |= 1 << ctx.index(bits[width - 1 - j])
        return Cube(positive, negative)

    all_ones_cube = Cube(ctx.mask_of(bits), 0)
    for i in range(width):
        cube = cube_for_position(i)
        for k in range(position_bits):
            if i >> k & 1:
                sops[f"z{k}"].add_cube(cube)
        sops["v"].add_cube(cube)
    for k in range(position_bits):
        if (width - 1) >> k & 1:
            sops[f"z{k}"].add_cube(all_ones_cube)
    return sops
