"""Two-level (SOP) minimisation: Quine-McCluskey with a greedy cover.

Used by the block-level synthesiser to produce compact AND-OR structures for
the small leader expressions that Progressive Decomposition emits, and by the
baseline flow when the specification is given as an SOP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..anf.context import Context
from ..anf.expression import Anf
from ..anf.sop import Cube, Sop


@dataclass(frozen=True)
class Implicant:
    """A cube over local variable positions: ``care`` bits fixed to ``value``."""

    value: int  # values of the fixed positions
    care: int   # bitmask of positions that are fixed

    def covers(self, minterm: int) -> bool:
        return (minterm & self.care) == (self.value & self.care)

    @property
    def num_literals(self) -> int:
        return self.care.bit_count()


def quine_mccluskey(
    num_vars: int, minterms: Iterable[int], dont_cares: Iterable[int] = ()
) -> list[Implicant]:
    """Minimise a single-output function given by its on-set minterms.

    Returns a (greedily) minimal list of prime implicants covering every
    on-set minterm.  Exact prime generation, greedy set cover — the classical
    compromise that is more than adequate for block-level expressions.
    """
    on_set = sorted(set(minterms))
    dc_set = sorted(set(dont_cares) - set(on_set))
    if not on_set:
        return []
    full_care = (1 << num_vars) - 1
    if num_vars == 0:
        return [Implicant(0, 0)]

    # --- prime implicant generation -----------------------------------
    current = {Implicant(m, full_care) for m in on_set + dc_set}
    primes: set[Implicant] = set()
    while current:
        merged_from: set[Implicant] = set()
        next_level: set[Implicant] = set()
        grouped: dict[tuple[int, int], list[Implicant]] = {}
        for implicant in current:
            grouped.setdefault((implicant.care, (implicant.value & implicant.care).bit_count()), []).append(implicant)
        for (care, ones), bucket in grouped.items():
            partner_key = (care, ones + 1)
            for other in grouped.get(partner_key, []):
                for implicant in bucket:
                    difference = (implicant.value ^ other.value) & care
                    if difference and (difference & (difference - 1)) == 0:
                        next_level.add(Implicant(implicant.value & ~difference, care & ~difference))
                        merged_from.add(implicant)
                        merged_from.add(other)
        primes.update(current - merged_from)
        current = next_level

    # --- greedy cover ---------------------------------------------------
    remaining = set(on_set)
    prime_list = sorted(primes, key=lambda p: (p.num_literals, p.care, p.value))
    chosen: list[Implicant] = []

    # Essential primes first.
    cover_map: dict[int, list[Implicant]] = {m: [] for m in remaining}
    for prime in prime_list:
        for minterm in remaining:
            if prime.covers(minterm):
                cover_map[minterm].append(prime)
    for minterm, covers in cover_map.items():
        if len(covers) == 1 and covers[0] not in chosen:
            chosen.append(covers[0])
    for prime in chosen:
        remaining = {m for m in remaining if not prime.covers(m)}

    while remaining:
        best = max(
            prime_list,
            key=lambda p: (sum(1 for m in remaining if p.covers(m)), -p.num_literals),
        )
        covered = {m for m in remaining if best.covers(m)}
        if not covered:
            # Should not happen: every on-set minterm is covered by some prime.
            raise RuntimeError("greedy cover failed to make progress")
        chosen.append(best)
        remaining -= covered
    return chosen


def implicants_to_sop(
    ctx: Context, variables: Sequence[str], implicants: Iterable[Implicant]
) -> Sop:
    """Translate local implicants back into a context-level :class:`Sop`."""
    indices = [ctx.index(name) for name in variables]
    cubes = []
    for implicant in implicants:
        positive = 0
        negative = 0
        for local, global_index in enumerate(indices):
            if implicant.care >> local & 1:
                if implicant.value >> local & 1:
                    positive |= 1 << global_index
                else:
                    negative |= 1 << global_index
        cubes.append(Cube(positive, negative))
    return Sop(ctx, cubes)


def minimize_anf_to_sop(expr: Anf, variables: Sequence[str] | None = None) -> Sop:
    """Minimised SOP of an ANF expression (exponential in its support size)."""
    ctx = expr.ctx
    if variables is None:
        variables = list(expr.support)
    n = len(variables)
    if n > 16:
        raise ValueError("two-level minimisation is exponential; refusing more than 16 variables")
    indices = [ctx.index(name) for name in variables]
    minterms = []
    for point in range(1 << n):
        ones_mask = 0
        for local in range(n):
            if point >> local & 1:
                ones_mask |= 1 << indices[local]
        if expr.evaluate_mask(ones_mask):
            minterms.append(point)
    implicants = quine_mccluskey(n, minterms)
    return implicants_to_sop(ctx, variables, implicants)
