"""Convenience constructors for common Boolean functions in ANF."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .context import Context
from .expression import Anf, anf_or, anf_product, anf_xor


def var(ctx: Context, name: str) -> Anf:
    """Single variable."""
    return Anf.var(ctx, name)

def variables(ctx: Context, names: Iterable[str]) -> list[Anf]:
    """List of single-variable expressions."""
    return [Anf.var(ctx, name) for name in names]


def true(ctx: Context) -> Anf:
    """Constant 1."""
    return Anf.one(ctx)


def false(ctx: Context) -> Anf:
    """Constant 0."""
    return Anf.zero(ctx)


def xor_all(exprs: Sequence[Anf], ctx: Context | None = None) -> Anf:
    """XOR of a sequence of expressions."""
    if ctx is None:
        if not exprs:
            raise ValueError("xor_all of an empty sequence needs an explicit context")
        ctx = exprs[0].ctx
    return anf_xor(exprs, ctx)


def and_all(exprs: Sequence[Anf], ctx: Context | None = None) -> Anf:
    """AND of a sequence of expressions."""
    if ctx is None:
        if not exprs:
            raise ValueError("and_all of an empty sequence needs an explicit context")
        ctx = exprs[0].ctx
    return anf_product(exprs, ctx)


def or_all(exprs: Sequence[Anf], ctx: Context | None = None) -> Anf:
    """OR of a sequence of expressions."""
    if ctx is None:
        if not exprs:
            raise ValueError("or_all of an empty sequence needs an explicit context")
        ctx = exprs[0].ctx
    return anf_or(exprs, ctx)


def implies(a: Anf, b: Anf) -> Anf:
    """Logical implication ``a -> b``."""
    return ~a | b


def equivalent(a: Anf, b: Anf) -> Anf:
    """XNOR of two expressions."""
    return ~(a ^ b)


def mux(select: Anf, if_true: Anf, if_false: Anf) -> Anf:
    """2:1 multiplexer: ``if_false`` when ``select`` is 0, else ``if_true``."""
    return (select & if_true) ^ (~select & if_false)


def elementary_symmetric(bits: Sequence[Anf], degree: int, ctx: Context | None = None) -> Anf:
    """Elementary symmetric polynomial e_degree over GF(2).

    ``e_0 = 1``; ``e_d`` is the XOR of all products of ``d`` distinct inputs.
    These arise naturally as the outputs of parallel counters (population
    count bit *k* of *n* inputs equals ``e_{2^k}`` by Lucas' theorem).
    """
    if ctx is None:
        if not bits:
            raise ValueError("elementary_symmetric of no bits needs an explicit context")
        ctx = bits[0].ctx
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if degree == 0:
        return Anf.one(ctx)
    if degree > len(bits):
        return Anf.zero(ctx)
    total = Anf.zero(ctx)
    for subset in combinations(bits, degree):
        total = total ^ anf_product(subset, ctx)
    return total


def threshold(bits: Sequence[Anf], k: int, ctx: Context | None = None) -> Anf:
    """True when at least ``k`` of the inputs are true.

    Built by dynamic programming over partial counts so that it stays exact
    (and reasonably sized) for the widths used by the paper's benchmarks.
    """
    if ctx is None:
        if not bits:
            raise ValueError("threshold of no bits needs an explicit context")
        ctx = bits[0].ctx
    if k <= 0:
        return Anf.one(ctx)
    if k > len(bits):
        return Anf.zero(ctx)
    # state[j] = probability-style indicator "exactly j of the processed bits
    # are one", represented exactly in the Boolean ring.  Cap counting at k,
    # where state[k] means "at least k".
    state: list[Anf] = [Anf.one(ctx)] + [Anf.zero(ctx)] * k
    for bit in bits:
        next_state = list(state)
        next_state[k] = state[k] ^ (bit & state[k - 1])
        for j in range(k - 1, 0, -1):
            # exactly j ones after this bit: (exactly j, bit=0) xor (exactly j-1, bit=1)
            next_state[j] = (state[j] & ~bit) ^ (state[j - 1] & bit)
        next_state[0] = state[0] & ~bit
        state = next_state
    return state[k]


def majority(bits: Sequence[Anf], ctx: Context | None = None) -> Anf:
    """Majority of an odd number of inputs (at least ``(n+1)//2`` ones)."""
    if not bits:
        raise ValueError("majority needs at least one input")
    return threshold(bits, (len(bits) + 1) // 2, ctx)


def parity(bits: Sequence[Anf], ctx: Context | None = None) -> Anf:
    """XOR of all inputs."""
    return xor_all(list(bits), ctx)


def full_adder(a: Anf, b: Anf, cin: Anf) -> tuple[Anf, Anf]:
    """Full adder: returns ``(sum, carry)``."""
    total = a ^ b ^ cin
    carry = (a & b) ^ (a & cin) ^ (b & cin)
    return total, carry


def half_adder(a: Anf, b: Anf) -> tuple[Anf, Anf]:
    """Half adder: returns ``(sum, carry)``."""
    return a ^ b, a & b
