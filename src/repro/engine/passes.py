"""The composable passes of the Progressive Decomposition pipeline.

Each pass is one stage of the paper's Fig. 5 loop, lifted out of the former
monolithic ``while`` body in ``core/decompose.py``:

=======================  =========================================================
Pass                     Fig. 5 stage
=======================  =========================================================
GroupingPass             ``findGroup`` (plus the full-group stall fallback)
BasisExtractionPass      ``findBasis``: tag combination, initial pairs, equal-part
                         merge
NullspaceMergePass       the Boolean-division pair merge (``use_nullspaces``)
LinearDependencePass     GF(2) basis minimisation (``use_linear_dependence``)
SizeReductionPass        greedy local size reduction (``use_size_reduction``)
IdentityAnalysisPass     ``findIdentities`` + basis reduction (``use_identities``)
RewritePass              block creation, ``rewriteExpr``, identity carry, trace
=======================  =========================================================

A pass is an object with a ``name``, a ``params()`` mapping (for the cache
config key) and a ``run(state)`` method mutating an
:class:`~repro.engine.state.EngineState` in place.  Optional stages are
expressed as pass *presence*: an ablation is a pipeline with the pass left
out, not a flag threaded through a closed loop.
"""

from __future__ import annotations

from typing import Dict, List

from ..anf.expression import Anf
from ..core.basis import extract_basis
from ..core.decompose import Block, IterationRecord
from ..core.grouping import find_group, support_of_outputs
from ..core.identities import find_identities, reduce_basis_using_identities
from ..core.optimize import improve_basis_by_size_reduction, minimize_basis_by_linear_dependence
from ..core.pairs import merge_with_nullspaces
from ..core.rewrite import rewrite_identities, rewrite_outputs
from ..core.verify import VerificationError, check_rewrite_invariant
from .state import EngineState, total_literals

class Pass:
    """Base class: one composable stage of the decomposition pipeline."""

    name: str = "pass"

    def params(self) -> Dict[str, object]:
        """Configuration that distinguishes this pass instance (for cache keys)."""
        return {}

    def run(self, state: EngineState) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:
        params = ", ".join(f"{key}={value!r}" for key, value in self.params().items())
        return f"{type(self).__name__}({params})"


class GroupingPass(Pass):
    """Choose the next group of (at most) ``k`` variables (``findGroup``)."""

    name = "grouping"

    def __init__(self, k: int = 4) -> None:
        self.k = k

    def params(self) -> Dict[str, object]:
        return {"k": self.k}

    def run(self, state: EngineState) -> None:
        if state.forced_full_group:
            group = support_of_outputs(state.active, state.ctx)
        else:
            group = find_group(
                state.active, self.k, state.ctx,
                state.primary_inputs, state.input_words, state.identities,
                tagged_combination=state.tagged_combination,
            )
        if not group:
            group = support_of_outputs(state.active, state.ctx)
        state.group = group


class BasisExtractionPass(Pass):
    """``findBasis``: combine the outputs with tags and merge equal parts.

    The null-space pair merge is NOT part of this pass — it belongs to
    :class:`NullspaceMergePass`, so ``use_nullspaces`` ablations are pass
    presence like every other flag.
    """

    name = "basis"

    def run(self, state: EngineState) -> None:
        # The fused split→build path: bucket the active outputs directly
        # (the tagged combination only materialises if this iteration's
        # grouping already built it for exhaustive candidate scoring).
        group_mask = state.ctx.mask_of(state.group)
        state.extraction = extract_basis(
            state.active, state.group, state.identities, state.ctx,
            use_nullspaces=False,
            pre_split=state.tagged_split(group_mask),
        )


class NullspaceMergePass(Pass):
    """The Boolean-division style pair merge driven by the null-space table."""

    name = "nullspace-merge"

    def run(self, state: EngineState) -> None:
        extraction = state.extraction
        extraction.pair_list = merge_with_nullspaces(extraction.pair_list)


class LinearDependencePass(Pass):
    """Remove pairs whose first (or second) is an XOR of the others (§5.3)."""

    name = "linear-dependence"

    def run(self, state: EngineState) -> None:
        extraction = state.extraction
        extraction.pair_list = minimize_basis_by_linear_dependence(extraction.pair_list)


class SizeReductionPass(Pass):
    """Greedy exact rewrites that shrink the pair list's literal count (§5.4)."""

    name = "size-reduction"

    def run(self, state: EngineState) -> None:
        extraction = state.extraction
        extraction.pair_list = improve_basis_by_size_reduction(extraction.pair_list)


class IdentityAnalysisPass(Pass):
    """``findIdentities`` over the prospective blocks, then basis reduction (§5.5)."""

    name = "identities"

    def __init__(self, max_products: int = 3, block_prefix: str = "t") -> None:
        self.max_products = max_products
        self.block_prefix = block_prefix

    def params(self) -> Dict[str, object]:
        return {"max_products": self.max_products, "block_prefix": self.block_prefix}

    def run(self, state: EngineState) -> None:
        definitions = state.basis_definitions()
        if not definitions:
            return
        names = state.propose_names(self.block_prefix)
        state.identities_found = find_identities(
            names, definitions, state.ctx, self.max_products
        )
        state.analysis = reduce_basis_using_identities(
            names, definitions, state.identities_found, state.ctx
        )
        state.removed = dict(state.analysis.replacements)


class RewritePass(Pass):
    """Create the blocks, rewrite the outputs, carry identities, record the trace.

    With ``verify_steps`` every rewrite is gated: substituting the
    iteration's new block definitions back into the rewritten outputs must
    reproduce the pre-rewrite expressions exactly, else
    :class:`VerificationError` is raised, so a gated run's final
    decomposition verifies by induction.  The gate cannot change any
    result — it is excluded from ``params()`` so cache keys are unaffected.
    """

    name = "rewrite"

    def __init__(self, block_prefix: str = "t", verify_steps: bool = False) -> None:
        self.block_prefix = block_prefix
        self.verify_steps = verify_steps

    def params(self) -> Dict[str, object]:
        return {"block_prefix": self.block_prefix}

    def run(self, state: EngineState) -> None:
        ctx = state.ctx
        basis_definitions = state.basis_definitions()
        proposed_names = state.propose_names(self.block_prefix)

        # Build the substitution for every pair and create the real blocks.
        substitutions: List[Anf] = []
        block_names: List[str] = []
        new_blocks: List[Block] = []
        for name, definition in zip(proposed_names, basis_definitions):
            if definition.is_literal:
                substitutions.append(definition)
                block_names.append(name)
                continue
            if name in state.removed:
                substitutions.append(state.removed[name])
                block_names.append(name)
                continue
            ctx.add_var(name)
            new_blocks.append(Block(name, state.level, definition, list(state.group)))
            substitutions.append(Anf.var(ctx, name))
            block_names.append(name)

        rewritten = rewrite_outputs(state.extraction, substitutions, ctx)
        if self.verify_steps:
            mismatch = check_rewrite_invariant(
                state.active, rewritten, new_blocks, ctx
            )
            if mismatch is not None:
                raise VerificationError(
                    f"rewrite step at level {state.level} does not reconstruct "
                    f"port {mismatch!r} exactly"
                )
        next_outputs = dict(state.current)
        next_outputs.update(rewritten)

        # Carry identities forward: drop those mentioning the consumed group,
        # add the product identities over the surviving new blocks.
        state.identities = rewrite_identities(state.identities, state.group, ctx)
        if state.analysis is not None:
            surviving = {block.name for block in new_blocks} | set(state.primary_inputs)
            for identity in state.analysis.identities:
                if identity.kind != "product":
                    continue
                if set(identity.expr.support) <= surviving:
                    state.identities.append(identity.expr)

        state.iterations.append(
            IterationRecord(
                index=state.level,
                group=list(state.group),
                basis_definitions=basis_definitions,
                block_names=block_names,
                substitutions=substitutions,
                identities_found=state.identities_found,
                removed_blocks=state.removed,
                size_before=state.size_before,
                size_after=total_literals(next_outputs),
            )
        )

        made_progress = bool(new_blocks) or any(
            next_outputs[port] != state.current[port] for port in state.current
        )
        state.blocks.extend(new_blocks)
        state.current = next_outputs

        if not made_progress:
            if state.forced_full_group:
                raise RuntimeError("progressive decomposition stalled even with a full group")
            state.forced_full_group = True
        else:
            state.forced_full_group = False
