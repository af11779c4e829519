"""Expression-to-gates structuring strategies.

These strategies realise a Boolean expression as gates *without changing its
architecture*: they are the "excellent local optimisation" a synthesis tool
applies once the structure is fixed.  The Progressive Decomposition flow uses
them per building block; the baseline flow uses them on whole outputs.

Strategies:

``anf``
    Literal Reed-Muller structure: one AND per monomial, one XOR tree.
``sop``
    Two-level AND-OR after Quine-McCluskey minimisation (small supports only).
``factored``
    Multi-level structure from algebraic factoring (kernels / weak division).
``shannon``
    Recursive Shannon (MUX) decomposition with cofactor sharing — a BDD-like
    multiplexer network; robust for any size, architecture-preserving.
``auto``
    Try all applicable strategies, map each candidate onto the target library
    and keep the best one under the requested objective; the winner is
    remembered per expression shape and replayed on later ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence

from ..anf.expression import Anf
from ..circuit import gates
from ..circuit.netlist import Netlist
from ..factor.factoring import FactorNode, factor
from .library import Library, default_library
from .twolevel import minimize_anf_to_sop

# Practical guards: strategies that are exponential (or nearly so) in the
# expression size are skipped above these limits and the robust strategies
# take over.
MAX_SOP_SUPPORT = 10
MAX_FACTOR_TERMS = 192
MAX_ANF_TERMS = 512


class StructuringError(ValueError):
    """Raised when an expression cannot be structured with a given strategy."""


@dataclass
class EmitContext:
    """Where to emit gates and how expression variables map to nets."""

    netlist: Netlist
    net_of: Dict[str, str]

    def net_for_var(self, name: str) -> str:
        try:
            return self.net_of[name]
        except KeyError:
            raise StructuringError(f"no net bound for variable {name!r}") from None


# ----------------------------------------------------------------------
# Individual strategies
# ----------------------------------------------------------------------
def emit_constant(emit: EmitContext, value: int) -> str:
    return emit.netlist.constant(value)


def emit_anf(emit: EmitContext, expr: Anf) -> str:
    """One AND per monomial, one XOR tree (the literal Reed-Muller netlist)."""
    ctx = expr.ctx
    if expr.is_zero:
        return emit_constant(emit, 0)
    if expr.is_one:
        return emit_constant(emit, 1)
    monomial_nets: list[str] = []
    complement = False
    for mask in expr.sorted_terms():
        if mask == 0:
            complement = True
            continue
        names = ctx.names_of(mask)
        nets = [emit.net_for_var(name) for name in names]
        if len(nets) == 1:
            monomial_nets.append(nets[0])
        else:
            monomial_nets.append(emit.netlist.add_gate(gates.AND, nets))
    if not monomial_nets:
        return emit_constant(emit, 1)
    if len(monomial_nets) == 1:
        result = monomial_nets[0]
    else:
        result = emit.netlist.add_gate(gates.XOR, monomial_nets)
    if complement:
        result = emit.netlist.add_gate(gates.NOT, [result])
    return result


def emit_sop(emit: EmitContext, expr: Anf) -> str:
    """Minimised two-level AND-OR structure."""
    ctx = expr.ctx
    if expr.is_constant:
        return emit_constant(emit, 0 if expr.is_zero else 1)
    support = expr.support
    if len(support) > MAX_SOP_SUPPORT:
        raise StructuringError(
            f"SOP structuring limited to {MAX_SOP_SUPPORT} variables, got {len(support)}"
        )
    sop = minimize_anf_to_sop(expr, list(support))
    inverted: Dict[str, str] = {}

    def literal_net(name: str, positive: bool) -> str:
        base = emit.net_for_var(name)
        if positive:
            return base
        net = inverted.get(name)
        if net is None:
            net = emit.netlist.add_gate(gates.NOT, [base])
            inverted[name] = net
        return net

    cube_nets = []
    for cube in sop:
        nets = [literal_net(name, True) for name in ctx.names_of(cube.positive)]
        nets += [literal_net(name, False) for name in ctx.names_of(cube.negative)]
        if not nets:
            cube_nets.append(emit_constant(emit, 1))
        elif len(nets) == 1:
            cube_nets.append(nets[0])
        else:
            cube_nets.append(emit.netlist.add_gate(gates.AND, nets))
    if not cube_nets:
        return emit_constant(emit, 0)
    if len(cube_nets) == 1:
        return cube_nets[0]
    return emit.netlist.add_gate(gates.OR, cube_nets)


def _emit_factor_node(emit: EmitContext, node: FactorNode) -> str:
    if node.kind == "const":
        return emit_constant(emit, int(node.payload))
    if node.kind == "literal":
        return emit.net_for_var(str(node.payload))
    child_nets = [_emit_factor_node(emit, child) for child in node.children]
    if len(child_nets) == 1:
        return child_nets[0]
    op = gates.AND if node.kind == "and" else gates.XOR
    return emit.netlist.add_gate(op, child_nets)


def emit_factored(emit: EmitContext, expr: Anf) -> str:
    """Multi-level structure obtained by algebraic factoring."""
    if expr.is_constant:
        return emit_constant(emit, 0 if expr.is_zero else 1)
    if expr.num_terms > MAX_FACTOR_TERMS:
        raise StructuringError(
            f"factoring limited to {MAX_FACTOR_TERMS} monomials, got {expr.num_terms}"
        )
    tree = factor(expr)
    return _emit_factor_node(emit, tree)


def emit_shannon(
    emit: EmitContext,
    expr: Anf,
    order: Sequence[str] | None = None,
    _memo: Dict[Anf, str] | None = None,
) -> str:
    """Recursive Shannon (MUX) decomposition with shared cofactors.

    ``order`` fixes the splitting order (first entry split first); by default
    variables are split from the highest context index down, which matches the
    "most significant bit first" reading order of the benchmark descriptions.
    """
    memo: Dict[Anf, str] = {} if _memo is None else _memo
    ctx = expr.ctx
    dynamic_order = order is None
    if order is None:
        order = sorted(expr.support, key=lambda name: -ctx.index(name))

    def build(current: Anf, depth: int) -> str:
        if current.is_zero:
            return emit_constant(emit, 0)
        if current.is_one:
            return emit_constant(emit, 1)
        cached = memo.get(current)
        if cached is not None:
            return cached
        if current.is_literal:
            net = emit.net_for_var(current.literal_name)
            memo[current] = net
            return net
        # Cheap special cases that do not need a MUX: single monomial or
        # pure XOR of literals (degree 1).
        if current.num_terms == 1:
            net = emit_anf(EmitContext(emit.netlist, emit.net_of), current)
            memo[current] = net
            return net
        if current.degree == 1 and current.num_terms <= 8:
            net = emit_anf(EmitContext(emit.netlist, emit.net_of), current)
            memo[current] = net
            return net
        split_var = None
        if dynamic_order:
            # Split on the variable occurring in the most monomials: for
            # arithmetic functions this naturally interleaves the operands and
            # keeps the number of distinct cofactors (shared MUX nodes) small.
            from ..factor.division import most_frequent_literal

            index = most_frequent_literal(current)
            if index is not None:
                split_var = ctx.name(index)
        if split_var is None:
            for name in order[depth:]:
                if current.depends_on(name):
                    split_var = name
                    break
        if split_var is None:
            for name in current.support:
                split_var = name
                break
        assert split_var is not None
        high = build(current.cofactor(split_var, 1), depth + 1)
        low = build(current.cofactor(split_var, 0), depth + 1)
        select = emit.net_for_var(split_var)
        if high == low:
            net = high
        else:
            net = emit.netlist.add_gate(gates.MUX, [select, high, low])
        memo[current] = net
        return net

    return build(expr, 0)


# ----------------------------------------------------------------------
# Strategy selection
# ----------------------------------------------------------------------
StrategyFn = Callable[[EmitContext, Anf], str]

_STRATEGIES: Dict[str, StrategyFn] = {
    "anf": emit_anf,
    "sop": emit_sop,
    "factored": emit_factored,
    "shannon": emit_shannon,
}


def available_strategies(expr: Anf) -> list[str]:
    """Strategy names applicable to an expression of this size."""
    names = ["shannon"]
    if expr.num_terms <= MAX_ANF_TERMS:
        names.append("anf")
    if expr.num_terms <= MAX_FACTOR_TERMS:
        names.append("factored")
    if len(expr.support) <= MAX_SOP_SUPPORT:
        names.append("sop")
    return names


def emit_with_strategy(emit: EmitContext, expr: Anf, strategy: str) -> str:
    """Emit ``expr`` with an explicit strategy name."""
    try:
        function = _STRATEGIES[strategy]
    except KeyError:
        raise StructuringError(f"unknown structuring strategy {strategy!r}") from None
    return function(emit, expr)


def build_candidate(expr: Anf, strategy: str) -> Netlist:
    """``expr`` structured by ``strategy`` alone, in a scratch netlist whose
    inputs are its support in index order and whose one output is ``f``."""
    scratch = Netlist(f"scratch_{strategy}")
    support = expr.support
    scratch.add_inputs(support)
    emit = EmitContext(scratch, {name: name for name in support})
    scratch.set_output("f", emit_with_strategy(emit, expr, strategy))
    return scratch


# The winning structure per (library fingerprint, objective, shape), for the
# life of the process.  Two expressions that differ only by an
# order-preserving renaming of their support build isomorphic netlists under
# every strategy, and structured circuits repeat a handful of block shapes
# (full-adder sums, carries, priority cells) dozens of times, job after job.
# Keys and templates hold only ints and strings, so the collector untracks
# them.
_WINNERS: Dict[tuple, tuple] = {}

#: Entries kept before the structuring memo is cleared wholesale.
WINNER_MEMO_LIMIT = 1 << 14


def _shape_key(expr: Anf) -> tuple[int, ...]:
    """The expression's terms, ascending, with its support compressed to 0..m-1."""
    position_of: Dict[int, int] = {}
    support = expr.support_mask
    while support:
        low = support & -support
        position_of[low] = len(position_of)
        support ^= low
    shape = []
    for term in expr.term_list():
        local = 0
        mask = term
        while mask:
            low = mask & -mask
            local |= 1 << position_of[low]
            mask ^= low
        shape.append(local)
    return tuple(sorted(shape))


def _template(candidate: Netlist) -> tuple:
    """``(gates, out)``: each gate of ``candidate`` in order as ``(op, refs)``,
    and its output.  A ref below the input count is a support position;
    ref ``m + k`` is the output of gate ``k``."""
    ref = {name: index for index, name in enumerate(candidate.inputs)}
    gates = []
    for gate in candidate:
        gates.append((gate.op, tuple(ref[net] for net in gate.inputs)))
        ref[gate.output] = len(ref)
    return tuple(gates), ref[candidate.outputs["f"]]


def emit_auto(
    emit: EmitContext,
    expr: Anf,
    library: Library | None = None,
    objective: str = "delay",
) -> str:
    """Pick the best applicable strategy for this expression and emit it.

    On the first expression of its shape, candidates are built in scratch
    netlists, technology mapped, and scored under ``objective``
    (``"delay"``, ``"area"`` or ``"balanced"``).  The winner's gates are
    remembered for the shape and replayed into ``emit.netlist``, with
    support position *i* wired to the net of the *i*-th support variable,
    for this expression and every later one of the same shape.
    """
    from .synthesize import score_candidate  # local import to avoid a cycle

    if expr.is_constant:
        return emit_constant(emit, 0 if expr.is_zero else 1)
    if expr.is_literal:
        return emit.net_for_var(expr.literal_name)
    library = library or default_library()
    key = (library.fingerprint(), objective, _shape_key(expr))
    template = _WINNERS.get(key)
    if template is None:
        best = None
        best_score: tuple[float, float] | None = None
        for name in available_strategies(expr):
            try:
                candidate = build_candidate(expr, name)
            except StructuringError:
                continue
            score = score_candidate(candidate, library, objective)
            if best_score is None or score < best_score:
                best_score = score
                best = candidate
        if best is None:  # nothing applied: surface shannon's own error
            best = build_candidate(expr, "shannon")
        template = _template(best)
        if len(_WINNERS) >= WINNER_MEMO_LIMIT:
            _WINNERS.clear()
        _WINNERS[key] = template
    gates, out = template
    nets = [emit.net_for_var(name) for name in expr.support]
    add_gate = emit.netlist.add_gate
    for op, refs in gates:
        nets.append(add_gate(op, [nets[ref] for ref in refs]))
    return nets[out]


def build_netlist_from_expressions(
    outputs: Mapping[str, Anf],
    strategy: str = "auto",
    inputs: Sequence[str] | None = None,
    library: Library | None = None,
    objective: str = "delay",
    name: str = "design",
    shannon_order: Sequence[str] | None = None,
) -> Netlist:
    """Structure a multi-output specification into one netlist."""
    if not outputs:
        raise ValueError("need at least one output expression")
    ctx = next(iter(outputs.values())).ctx
    netlist = Netlist(name)
    if inputs is None:
        support_mask = 0
        for expr in outputs.values():
            support_mask |= expr.support_mask
        inputs = list(ctx.names_of(support_mask))
    netlist.add_inputs(inputs)
    net_of = {name_: name_ for name_ in inputs}
    emit = EmitContext(netlist, net_of)
    shannon_memo: Dict[Anf, str] = {}
    for port, expr in outputs.items():
        ctx.require_same(expr.ctx)
        if expr.is_constant:
            net = emit_constant(emit, 0 if expr.is_zero else 1)
        elif expr.is_literal:
            net = emit.net_for_var(expr.literal_name)
        elif strategy == "auto":
            net = emit_auto(emit, expr, library, objective)
        elif strategy == "shannon":
            net = emit_shannon(emit, expr, order=shannon_order, _memo=shannon_memo)
        else:
            net = emit_with_strategy(emit, expr, strategy)
        netlist.set_output(port, net)
    return netlist
