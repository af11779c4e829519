"""Majority function benchmarks (the paper's 15-bit majority row).

The straightforward description is the SOP that ORs every combination of
``(n+1)/2`` inputs (6435 cubes of 8 literals for ``n = 15``).  The canonical
Reed-Muller form of the same function is what Progressive Decomposition
consumes; the algorithm is expected to rediscover parallel counters inside it
(Fig. 6 of the paper shows the 7-input case).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List

from ..anf.context import Context
from ..anf.expression import Anf
from ..anf.sop import Cube, Sop
from .closed_form import input_indices, rows_anf, symmetric_rows


@dataclass
class MajoritySpec:
    """Specification bundle for one majority instance."""

    ctx: Context
    width: int
    inputs: List[str]
    outputs: Dict[str, Anf]
    input_words: List[List[str]]


def majority_spec(width: int = 15, ctx: Context | None = None, prefix: str = "a") -> MajoritySpec:
    """Majority of ``width`` inputs (true when at least ``(width+1)//2`` are one).

    The function is symmetric, so its rows come from
    :func:`~repro.benchcircuits.closed_form.symmetric_rows`.
    """
    if width < 1:
        raise ValueError("majority needs at least one input")
    ctx = ctx or Context()
    bits = ctx.bus(prefix, width)
    indices = input_indices(ctx, bits)
    threshold = (width + 1) // 2
    (rows,) = symmetric_rows(width, [[j >= threshold for j in range(width + 1)]])
    return MajoritySpec(ctx, width, bits, {"maj": rows_anf(ctx, indices, rows)}, [list(bits)])


def majority_sop(spec: MajoritySpec) -> Dict[str, Sop]:
    """The straightforward SOP: one cube per ``(width+1)//2``-subset of inputs."""
    ctx = spec.ctx
    threshold = (spec.width + 1) // 2
    sop = Sop(ctx)
    for subset in combinations(spec.inputs, threshold):
        sop.add_cube(Cube(ctx.mask_of(subset), 0))
    return {"maj": sop}
