"""The two-stage block structuring of the seed, kept verbatim as a test oracle.

``repro.synth.structuring.emit_auto`` replays each block shape's winning
scratch netlist from a per-process memo.  The oracle tests in
``test_structuring_memo.py`` build every netlist both ways and assert they
are gate-for-gate identical.  Here every candidate is scored per library
object (a fresh ``default_library()`` per job starts cold), and the winner
is built a second time in the real netlist.  Apart from the imports and the
renamed entry points, this file is that emitter unchanged; do not
"improve" it.
"""

import weakref
from typing import Dict, Tuple

from repro.anf.expression import Anf
from repro.circuit.netlist import Netlist
from repro.core.decompose import Decomposition
from repro.synth.library import Library, default_library
from repro.synth.mapping import technology_map
from repro.synth.structuring import (
    EmitContext,
    StructuringError,
    available_strategies,
    emit_constant,
    emit_with_strategy,
)
from repro.synth.timing import analyze_timing


# Candidate scores keyed by (expression shape, strategy, objective) per
# library.  Two expressions that differ only by an order-preserving renaming
# of their support build isomorphic scratch netlists and therefore map to the
# same area/delay, and structured circuits repeat a handful of block shapes
# (full-adder sums, carries, priority cells) dozens of times.
_SCORE_MEMO: "weakref.WeakKeyDictionary[Library, Dict]" = weakref.WeakKeyDictionary()

#: Entries kept per library before the shape memo is cleared wholesale.
SCORE_MEMO_LIMIT = 1 << 14

#: Sentinel recording that a strategy is structurally inapplicable to a shape.
_INAPPLICABLE = object()


def _shape_key(expr: Anf) -> frozenset:
    """The expression's term set with its support compressed to 0..m-1."""
    position_of: Dict[int, int] = {}
    support = expr.support_mask
    while support:
        low = support & -support
        position_of[low] = len(position_of)
        support ^= low
    shape = []
    for term in expr.terms:
        local = 0
        mask = term
        while mask:
            low = mask & -mask
            local |= 1 << position_of[low]
            mask ^= low
        shape.append(local)
    return frozenset(shape)


def score_candidate(
    expr: Anf, strategy: str, library: Library, objective: str = "delay"
) -> tuple[float, float]:
    """Map a single-expression candidate structure and score it.

    Returns a tuple ordered so that smaller is better under ``objective``:
    ``"delay"`` -> (delay, area), ``"area"`` -> (area, delay),
    ``"balanced"`` -> (area*delay, delay).  Scores are memoised per library
    on the expression's *shape*, so repeated block structures score in O(1).
    """
    memo = _SCORE_MEMO.get(library)
    if memo is None:
        memo = _SCORE_MEMO[library] = {}
    key = (_shape_key(expr), strategy, objective)
    cached = memo.get(key)
    if cached is not None:
        if cached is _INAPPLICABLE:
            raise StructuringError(
                f"strategy {strategy!r} is not applicable to this expression shape"
            )
        return cached
    scratch = Netlist(f"scratch_{strategy}")
    support = list(expr.support)
    scratch.add_inputs(support)
    emit = EmitContext(scratch, {name: name for name in support})
    try:
        net = emit_with_strategy(emit, expr, strategy)
    except StructuringError:
        # Only the deterministic "strategy does not apply" signal is worth
        # remembering; environment-dependent failures must not be sticky.
        if len(memo) >= SCORE_MEMO_LIMIT:
            memo.clear()
        memo[key] = _INAPPLICABLE
        raise
    scratch.set_output("f", net)
    mapped = technology_map(scratch, library)
    timing = analyze_timing(mapped)
    if objective == "area":
        score: Tuple[float, float] = (mapped.area, timing.delay)
    elif objective == "balanced":
        score = (mapped.area * max(timing.delay, 1e-9), timing.delay)
    else:
        score = (timing.delay, mapped.area)
    if len(memo) >= SCORE_MEMO_LIMIT:
        memo.clear()
    memo[key] = score
    return score


def reference_emit_auto(
    emit: EmitContext,
    expr: Anf,
    library: Library | None = None,
    objective: str = "delay",
) -> str:
    """Pick the best applicable strategy for this expression and emit it.

    Candidates are built in scratch netlists, technology mapped, and scored
    under ``objective`` (``"delay"``, ``"area"`` or ``"balanced"``).
    """
    if expr.is_constant:
        return emit_constant(emit, 0 if expr.is_zero else 1)
    if expr.is_literal:
        return emit.net_for_var(expr.literal_name)
    library = library or default_library()
    candidates = available_strategies(expr)
    best_name = None
    best_score: tuple[float, float] | None = None
    for name in candidates:
        try:
            score = score_candidate(expr, name, library, objective)
        except StructuringError:
            continue
        if best_score is None or score < best_score:
            best_score = score
            best_name = name
    if best_name is None:
        best_name = "shannon"
    return emit_with_strategy(emit, expr, best_name)


def reference_decomposition_to_netlist(
    decomposition: Decomposition,
    strategy: str = "auto",
    library: Library | None = None,
    objective: str = "delay",
    name: str = "progressive",
) -> Netlist:
    """Emit the block hierarchy as a netlist (one locally-optimised cone per block)."""
    library = library or default_library()
    netlist = Netlist(name)
    netlist.add_inputs(decomposition.primary_inputs)
    net_of: Dict[str, str] = {name_: name_ for name_ in decomposition.primary_inputs}
    emit = EmitContext(netlist, net_of)

    def emit_expression(expr: Anf) -> str:
        if expr.is_constant:
            return netlist.constant(0 if expr.is_zero else 1)
        if expr.is_literal:
            return emit.net_for_var(expr.literal_name)
        if strategy == "auto":
            return reference_emit_auto(emit, expr, library, objective)
        return emit_with_strategy(emit, expr, strategy)

    for block in decomposition.blocks:
        net_of[block.name] = emit_expression(block.definition)
    for port, expr in decomposition.outputs.items():
        netlist.set_output(port, emit_expression(expr))
    return netlist
