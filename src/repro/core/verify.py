"""DAG-structured verification of Progressive Decomposition results.

``Decomposition.verify`` used to re-expand every output back to the primary
inputs with :meth:`~repro.core.decompose.Decomposition.flatten` and compare
frozensets.  ``flatten`` resolves every block to its *full* expansion first,
so the final substitution multiplies giant expansions into giant expansions
— on the full-width 15-bit comparator those giant×giant products were a
~30 s floor that kept exact verification a nightly-only cost.

This module verifies along the block DAG instead.  The hierarchy is a
levelled DAG (a level-``L`` block's definition only mentions primary inputs
and blocks of level ``< L``), so each output is expanded *top-down*, one
level per sweep:

1. split the current expression by the bits of the level's block variables
   (the same counting/radix ``split_by_group`` kernel the engine's ``basis``
   pass runs — each bucket pattern is the set of level-``L`` blocks a
   monomial mentions);
2. replace each pattern by the product of its blocks' *definitions* (small
   expressions — the per-pattern products are memoised, and every product
   in the whole verification has at least one small operand, which is what
   eliminates the giant×giant case);
3. accumulate ``pattern_product & bucket_rest`` over all buckets plus the
   group-free remainder in one sorted parity sweep
   (:func:`repro.anf.expression.xor_accumulate`).

Substitution is a ring homomorphism, so each sweep is *exact*: the result
after the last sweep is the same canonical monomial set ``flatten`` would
have produced, and the final semantic equality check runs on packed
:class:`~repro.anf.termmatrix.TermMatrix` rows (one array compare) instead
of frozenset ``__eq__`` over re-expanded monsters.  Ports verify
independently and the engine short-circuits on the first mismatch.
``flatten`` remains the exact reference implementation —
``Decomposition.verify(method="flatten")`` — and the property suite in
``tests/test_verify.py`` asserts both engines return identical verdicts,
including on deliberately corrupted hierarchies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, Optional

from ..anf.context import Context
from ..anf.expression import Anf, anf_xor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core <- decompose)
    from .decompose import Block, Decomposition


class VerificationError(RuntimeError):
    """A decomposition (or one rewrite step) failed exact verification."""


def _iter_bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _timed(name: str):
    """The engine's pass-timing hook (``repro.engine.profiling.timed``).

    Imported lazily: ``repro.core`` sits below ``repro.engine`` in the
    layering, and by the time anything verifies a decomposition the engine
    package is loaded anyway (no collector installed means no-op).
    """
    from ..engine import profiling

    return profiling.timed(name)


# ----------------------------------------------------------------------
# The level-substitution kernel
# ----------------------------------------------------------------------
def substitute_bits(
    expr: Anf,
    replacements: Mapping[int, Anf],
    ctx: Context,
    product_memo: Optional[Dict[int, Anf]] = None,
) -> Anf:
    """Simultaneously substitute single-variable bits by expressions.

    Exact equivalent of :meth:`Anf.substitute` restricted to single-variable
    keys, but vectorised: one ``split_by_group`` over the replaced bits, one
    (memoised) definition product per occurring bucket pattern, and one
    parity sweep over all ``product & rest`` contributions.  Per-term Python
    work is limited to the handful of distinct patterns instead of every
    monomial.
    """
    mask = 0
    for bit in replacements:
        mask |= bit
    if mask == 0 or expr.support_mask & mask == 0:
        return expr
    if product_memo is None:
        product_memo = {}
    buckets, remainder = expr.split_by_group(mask)
    pieces: List[Anf] = [remainder]
    for pattern in sorted(buckets):
        product = product_memo.get(pattern)
        if product is None:
            product = Anf.one(ctx)
            for bit in _iter_bits(pattern):
                product = product & replacements[bit]
                if product.is_zero:
                    break
            product_memo[pattern] = product
        if product.is_zero:
            continue
        pieces.append(product & buckets[pattern])
    return anf_xor(pieces, ctx)


# ----------------------------------------------------------------------
# Per-port DAG expansion
# ----------------------------------------------------------------------
def _block_layers(
    blocks: Iterable["Block"], ctx: Context
) -> tuple[int, Dict[int, int], Dict[int, Anf]]:
    """``(block_mask, level_of_bit, definition_of_bit)`` for the hierarchy."""
    block_mask = 0
    level_of_bit: Dict[int, int] = {}
    definition_of_bit: Dict[int, Anf] = {}
    for block in blocks:
        if block.name not in ctx:
            continue  # never referenced by any expression
        bit = 1 << ctx.index(block.name)
        block_mask |= bit
        level_of_bit[bit] = block.level
        definition_of_bit[bit] = block.definition
    return block_mask, level_of_bit, definition_of_bit


def flatten_port_via_dag(
    decomposition: "Decomposition",
    expr: Anf,
    product_memo: Optional[Dict[int, Anf]] = None,
    layers: Optional[tuple[int, Dict[int, int], Dict[int, Anf]]] = None,
) -> Optional[Anf]:
    """Expand one output expression to the primary inputs along the DAG.

    Returns the exact flattened expression (the same canonical monomial set
    ``flatten`` produces), or ``None`` when the hierarchy is not the
    levelled DAG the engine guarantees (a definition referencing its own or
    a higher level — only corrupted results do this) — callers fall back to
    the ``flatten`` reference so the verdict stays exact either way.
    ``layers`` is the hierarchy's ``_block_layers``; callers expanding many
    ports pass it in so it is computed once, not once per port.
    """
    ctx = decomposition.ctx
    if layers is None:
        layers = _block_layers(decomposition.blocks, ctx)
    block_mask, level_of_bit, definition_of_bit = layers
    current = expr
    sweeps_left = len(set(level_of_bit.values())) if level_of_bit else 0
    while current.support_mask & block_mask:
        if sweeps_left <= 0:
            return None
        sweeps_left -= 1
        present = current.support_mask & block_mask
        top = max(level_of_bit[bit] for bit in _iter_bits(present))
        layer = {
            bit: definition_of_bit[bit]
            for bit in _iter_bits(present)
            if level_of_bit[bit] == top
        }
        current = substitute_bits(current, layer, ctx, product_memo)
    return current


def semantically_equal(left: Anf, right: Anf) -> bool:
    """Exact term-set equality, routed through the packed matrix backend.

    Both sides are packed on demand (one vectorised sort for a set-backed
    operand) and compared row-for-row at C speed; expressions too wide to
    pack fall back to frozenset equality — the verdict is the same either
    way, the representation work is not.
    """
    if left.num_terms != right.num_terms:
        return False
    left_matrix = left.term_matrix(build=True)
    right_matrix = right.term_matrix(build=True)
    if left_matrix is not None and right_matrix is not None:
        return left_matrix.equal_rows(right_matrix)
    return left == right


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _expanded_ports(
    decomposition: "Decomposition",
) -> Iterator[tuple[str, Anf, Anf]]:
    """Yield ``(port, flattened, reference)`` for every original port.

    Expansion runs along the DAG with one shared per-pattern product memo
    and one set of block layers; a non-levelled hierarchy (corrupted input)
    defers to the exact ``flatten`` reference, computed once — it expands
    every port anyway.
    """
    product_memo: Dict[int, Anf] = {}
    layers = _block_layers(decomposition.blocks, decomposition.ctx)
    reference_flatten: Optional[Dict[str, Anf]] = None
    for port, reference in decomposition.original.items():
        flattened = flatten_port_via_dag(
            decomposition, decomposition.outputs[port], product_memo, layers
        )
        if flattened is None:
            if reference_flatten is None:
                reference_flatten = decomposition.flatten()
            flattened = reference_flatten[port]
        yield port, flattened, reference


def verify_decomposition(decomposition: "Decomposition") -> bool:
    """True when the hierarchy reproduces the original specification exactly.

    Same verdict as the ``flatten``-based reference, computed along the
    block DAG with short-circuiting: ports are checked one at a time and the
    first mismatch returns immediately.  Wall-clock is reported to the
    engine's pass-timing collectors under ``"verify"``.
    """
    with _timed("verify"):
        return all(
            semantically_equal(flattened, reference)
            for _, flattened, reference in _expanded_ports(decomposition)
        )


def verify_ports(decomposition: "Decomposition") -> Dict[str, bool]:
    """Per-port verdicts (no short-circuit) for diagnostics and reports."""
    with _timed("verify"):
        return {
            port: semantically_equal(flattened, reference)
            for port, flattened, reference in _expanded_ports(decomposition)
        }


def check_rewrite_invariant(
    active: Mapping[str, Anf],
    rewritten: Mapping[str, Anf],
    new_blocks: Iterable["Block"],
    ctx: Context,
) -> Optional[str]:
    """One-level DAG check of a single rewrite step.

    Substituting the iteration's new block definitions back into the
    rewritten outputs must reproduce the pre-rewrite expressions exactly
    (literal substitutions are already in place and removed-block
    replacements only mention kept blocks, so one level suffices).  Returns
    the first mismatching port name, or ``None`` when the step is exact.
    This is the per-iteration gate behind ``REPRO_VERIFY_STEPS``: because
    every step preserves semantics, the gated pipeline's final result
    verifies by induction.
    """
    layer = {1 << ctx.index(block.name): block.definition for block in new_blocks}
    product_memo: Dict[int, Anf] = {}
    with _timed("verify-steps"):
        for port, expr in rewritten.items():
            reconstructed = substitute_bits(expr, layer, ctx, product_memo)
            if not semantically_equal(reconstructed, active[port]):
                return port
        return None
