"""Kernel / co-kernel extraction (Brayton-McMullen) over XOR-of-products.

A *kernel* of an expression is a cube-free quotient of the expression by a
cube (the *co-kernel*).  Kernels are the classical source of multi-cube
divisors in multi-level logic synthesis; the paper's section 2 positions them
as "similar in principle to the building blocks discussed here" but weaker on
XOR-dominated arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..anf.expression import Anf
from .division import divide_by_cube, literal_frequencies, make_cube_free


@dataclass(frozen=True)
class Kernel:
    """A kernel together with the co-kernel cube that produced it."""

    cokernel: int  # cube mask
    expr: Anf      # cube-free quotient with >= 2 monomials

    def render(self) -> str:
        ctx = self.expr.ctx
        cube = ctx.monomial_str(self.cokernel)
        return f"({cube}) * ({self.expr})"


def kernels(expr: Anf, max_kernels: int | None = None) -> list[Kernel]:
    """All kernels of ``expr`` (level-0 and above), including the expression
    itself when it is cube-free with at least two monomials."""
    found: dict[tuple[int, frozenset[int]], Kernel] = {}

    def record(cokernel: int, kernel_expr: Anf) -> None:
        if kernel_expr.num_terms < 2:
            return
        key = (cokernel, kernel_expr.terms)
        if key not in found:
            found[key] = Kernel(cokernel, kernel_expr)

    def recurse(current: Anf, cokernel: int, min_index: int) -> None:
        if max_kernels is not None and len(found) >= max_kernels:
            return
        counts = literal_frequencies(current)
        for index in sorted(counts):
            if index < min_index or counts[index] < 2:
                continue
            bit = 1 << index
            quotient, _ = divide_by_cube(current, bit)
            extra_cube, cube_free = make_cube_free(quotient)
            new_cokernel = cokernel | bit | extra_cube
            # Avoid re-deriving the same kernel through a different literal
            # order: only continue with literals of index >= the current one.
            record(new_cokernel, cube_free)
            recurse(cube_free, new_cokernel, index + 1)

    base_cube, base = make_cube_free(expr)
    record(base_cube, base)
    recurse(base, base_cube, 0)
    return list(found.values())


def best_kernel(expr: Anf) -> Kernel | None:
    """Pick the kernel giving the best immediate literal saving.

    The value of extracting kernel ``K`` with co-kernel ``c`` from ``expr`` is
    estimated as ``(|terms using c| - 1) * literals(K)`` — the classical
    weighting used by greedy kernel extraction.
    """
    candidates = kernels(expr)
    best: Kernel | None = None
    best_value = 0
    for kernel in candidates:
        if kernel.expr.num_terms < 2:
            continue
        if kernel.cokernel == 0:
            # Dividing by the whole (cube-free) expression saves nothing.
            continue
        quotient, _ = divide_by_cube(expr, kernel.cokernel)
        uses = quotient.num_terms
        value = (uses - 1) * kernel.expr.literal_count
        if value > best_value:
            best_value = value
            best = kernel
    return best
