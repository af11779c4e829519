"""Recursive algebraic factoring of XOR-of-products expressions.

Produces a factored form (an expression tree of XOR/AND nodes over literals)
whose literal count is usually much lower than the flat Reed-Muller form.
This is the classical multi-level synthesis baseline: everything it achieves
is achievable by algebraic division alone, without the Boolean (null-space)
reasoning that Progressive Decomposition adds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..anf.expression import Anf
from .division import divide_by_cube, make_cube_free, most_frequent_literal
from .kernels import best_kernel


@dataclass(frozen=True)
class FactorNode:
    """A node of a factored form.

    ``kind`` is one of ``"const"``, ``"literal"``, ``"and"``, ``"xor"``.
    ``children`` is empty for constants/literals; ``payload`` holds the
    constant value or the variable name.
    """

    kind: str
    children: tuple["FactorNode", ...] = ()
    payload: object = None

    # ------------------------------------------------------------------
    @property
    def literal_count(self) -> int:
        if self.kind == "literal":
            return 1
        if self.kind == "const":
            return 0
        return sum(child.literal_count for child in self.children)

    @property
    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(child.depth for child in self.children)

    def render(self) -> str:
        if self.kind == "const":
            return str(self.payload)
        if self.kind == "literal":
            return str(self.payload)
        symbol = " ^ " if self.kind == "xor" else "*"
        parts = []
        for child in self.children:
            text = child.render()
            if self.kind == "and" and child.kind == "xor":
                text = f"({text})"
            parts.append(text)
        return symbol.join(parts)

    def to_anf(self, ctx) -> Anf:
        """Expand the factored form back to canonical ANF (for verification)."""
        if self.kind == "const":
            return Anf.constant(ctx, int(self.payload))
        if self.kind == "literal":
            return Anf.var(ctx, str(self.payload))
        if self.kind == "and":
            result = Anf.one(ctx)
            for child in self.children:
                result = result & child.to_anf(ctx)
            return result
        if self.kind == "xor":
            result = Anf.zero(ctx)
            for child in self.children:
                result = result ^ child.to_anf(ctx)
            return result
        raise ValueError(f"unknown factor node kind {self.kind!r}")


def _const(value: int) -> FactorNode:
    return FactorNode("const", payload=value)


def _literal(name: str) -> FactorNode:
    return FactorNode("literal", payload=name)


def _and(children: Iterable[FactorNode]) -> FactorNode:
    children = tuple(c for c in children if not (c.kind == "const" and c.payload == 1))
    if any(c.kind == "const" and c.payload == 0 for c in children):
        return _const(0)
    if not children:
        return _const(1)
    if len(children) == 1:
        return children[0]
    flattened: list[FactorNode] = []
    for child in children:
        if child.kind == "and":
            flattened.extend(child.children)
        else:
            flattened.append(child)
    return FactorNode("and", tuple(flattened))


def _xor(children: Iterable[FactorNode]) -> FactorNode:
    flattened: list[FactorNode] = []
    for child in children:
        if child.kind == "const" and child.payload == 0:
            continue
        if child.kind == "xor":
            flattened.extend(child.children)
        else:
            flattened.append(child)
    if not flattened:
        return _const(0)
    if len(flattened) == 1:
        return flattened[0]
    return FactorNode("xor", tuple(flattened))


def _cube_node(ctx, mask: int) -> FactorNode:
    names = ctx.names_of(mask)
    if not names:
        return _const(1)
    return _and(_literal(name) for name in names)


def factor(expr: Anf, use_kernels: bool = True, _depth: int = 0) -> FactorNode:
    """Recursively factor an expression using algebraic division.

    ``use_kernels`` selects the divisor: the best kernel when available,
    otherwise (or when disabled) the most frequent literal — the classical
    "quick factor" fallback.  The result always expands back to ``expr``.
    """
    ctx = expr.ctx
    if expr.is_zero:
        return _const(0)
    if expr.is_one:
        return _const(1)
    if expr.num_terms == 1:
        (term,) = expr.terms
        return _cube_node(ctx, term)
    # Pull out the common cube first.
    cube, core = make_cube_free(expr)
    if cube:
        return _and([_cube_node(ctx, cube), factor(core, use_kernels, _depth + 1)])

    divisor_cube: int | None = None
    if use_kernels and core.num_terms <= 64 and _depth < 24:
        kernel = best_kernel(core)
        if kernel is not None and kernel.cokernel:
            divisor_cube = kernel.cokernel
    if divisor_cube is None:
        index = most_frequent_literal(core)
        if index is None:
            # No sharing opportunity: emit the flat XOR of cubes.
            return _xor(_cube_node(ctx, term) for term in core.sorted_terms())
        divisor_cube = 1 << index

    quotient, remainder = divide_by_cube(core, divisor_cube)
    quotient_node = factor(quotient, use_kernels, _depth + 1)
    remainder_node = factor(remainder, use_kernels, _depth + 1)
    product = _and([_cube_node(ctx, divisor_cube), quotient_node])
    return _xor([product, remainder_node])
