"""The mutable state threaded through the pass pipeline.

One :class:`EngineState` holds everything the Fig. 5 loop used to keep in
local variables: the evolving output expressions, the building blocks and
per-iteration trace records accumulated so far, the carried identities, and
the per-iteration scratch fields that the passes hand to one another
(current group, basis extraction, proposed names, identity analysis).

The state object is deliberately dumb: every algorithmic decision lives in a
:class:`~repro.engine.passes.Pass`, so a pipeline's behaviour is exactly the
list of passes it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..anf.context import Context
from ..anf.expression import Anf
from ..core.basis import BasisExtraction
from ..core.decompose import Block, Decomposition, DecompositionOptions, IterationRecord
from ..core.grouping import support_of_outputs
from ..core.identities import Identity, IdentityAnalysis


def total_literals(outputs: Mapping[str, Anf]) -> int:
    """The paper's size metric summed over a set of outputs."""
    return sum(expr.literal_count for expr in outputs.values())


def is_terminal(expr: Anf) -> bool:
    """Outputs are terminal once they depend on at most one variable."""
    mask = expr.support_mask
    return mask == 0 or (mask & (mask - 1)) == 0


@dataclass
class EngineState:
    """Decomposition-in-progress: persistent results plus per-iteration scratch."""

    ctx: Context
    options: DecompositionOptions
    original: Dict[str, Anf]
    current: Dict[str, Anf]
    primary_inputs: List[str]
    input_words: List[List[str]]

    # Accumulated results (survive across iterations).
    blocks: List[Block] = field(default_factory=list)
    iterations: List[IterationRecord] = field(default_factory=list)
    identities: List[Anf] = field(default_factory=list)
    level: int = 0
    forced_full_group: bool = False

    # Per-iteration scratch, reset by :meth:`begin_iteration` and filled in
    # stages by the passes.
    active: Dict[str, Anf] = field(default_factory=dict)
    size_before: int = 0
    group: List[str] = field(default_factory=list)
    extraction: Optional[BasisExtraction] = None
    proposed_names: Optional[List[str]] = None
    identities_found: List[Identity] = field(default_factory=list)
    analysis: Optional[IdentityAnalysis] = None
    removed: Dict[str, Anf] = field(default_factory=dict)
    _tagged_combination: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @classmethod
    def from_outputs(
        cls,
        outputs: Mapping[str, Anf],
        options: DecompositionOptions,
        input_words: Sequence[Sequence[str]] | None = None,
    ) -> "EngineState":
        """Validate a specification and build the initial state for it."""
        if not outputs:
            raise ValueError("progressive_decomposition needs at least one output")
        first_expr = next(iter(outputs.values()))
        ctx = first_expr.ctx
        for expr in outputs.values():
            ctx.require_same(expr.ctx)
        current = dict(outputs)
        # Pack the specification outputs up front: the first iteration then
        # answers literal counts and support queries with popcounts and folds
        # instead of per-term sums, and the first tagged split reuses the
        # matrices as they are.
        for expr in current.values():
            expr.term_matrix(build=True)
        primary_inputs = support_of_outputs(current, ctx)
        if input_words is None:
            words = [list(primary_inputs)]
        else:
            words = [list(word) for word in input_words]
        return cls(
            ctx=ctx,
            options=options,
            original=dict(outputs),
            current=current,
            primary_inputs=primary_inputs,
            input_words=words,
        )

    # ------------------------------------------------------------------
    def done(self) -> bool:
        """True when every output is reduced to (at most) a literal."""
        return all(is_terminal(expr) for expr in self.current.values())

    def begin_iteration(self) -> None:
        """Advance the level and reset the per-iteration scratch fields."""
        self.level += 1
        self.active = {
            port: expr for port, expr in self.current.items() if not is_terminal(expr)
        }
        self.size_before = total_literals(self.current)
        self.group = []
        self.extraction = None
        self.proposed_names = None
        self.identities_found = []
        self.analysis = None
        self.removed = {}
        self._tagged_combination = None

    def tagged_combination(self) -> tuple:
        """``(combined, tag_of_port)`` for the active outputs, cached per iteration.

        ``findGroup``'s exhaustive scoring and ``findBasis`` both combine
        the same active outputs with the same tags; building the giant
        tagged expression once per iteration (instead of once per consumer)
        removes a full word-parallel tag-multiply + concat-sort over the
        combined matrix from every exhaustive-group iteration.  Pure value
        reuse — the consumers receive exactly what they would have built.
        """
        if self._tagged_combination is None:
            from ..core.basis import combine_with_tags

            self._tagged_combination = combine_with_tags(self.active, self.ctx)
        return self._tagged_combination

    def tagged_split(self, group_mask: int) -> tuple:
        """``(buckets, remainder, tag_of_port)`` of the tagged combination.

        When the iteration already built the combined expression (the
        exhaustive-grouping path caches it for its candidate scoring), it is
        split directly — value reuse, same as :meth:`tagged_combination`.
        Otherwise the fused split→build kernel buckets the active outputs
        without ever materialising the combination (the primary-input
        grouping path, i.e. every iteration of the paper's benchmarks).
        """
        if self._tagged_combination is not None:
            combined, tag_of_port = self._tagged_combination
            buckets, remainder = combined.split_by_group(group_mask)
            return buckets, remainder, tag_of_port
        from ..core.basis import split_with_tags

        return split_with_tags(self.active, group_mask, self.ctx)

    def basis_definitions(self) -> List[Anf]:
        """The current candidate basis (pair firsts of the extraction)."""
        if self.extraction is None:
            raise RuntimeError("no basis extracted yet — run a BasisExtractionPass first")
        return self.extraction.pair_list.firsts()

    def propose_names(self, block_prefix: str) -> List[str]:
        """Name the candidate basis: literals keep their name, blocks get fresh ones.

        Idempotent — the first caller (IdentityAnalysisPass or RewritePass)
        fixes the names for the rest of the iteration.
        """
        if self.proposed_names is None:
            names: List[str] = []
            fresh_index = 0
            for definition in self.basis_definitions():
                if definition.is_literal:
                    names.append(definition.literal_name)
                else:
                    names.append(f"{block_prefix}{self.level}_{fresh_index}")
                    fresh_index += 1
            self.proposed_names = names
        return self.proposed_names

    def finish(self) -> Decomposition:
        """Package the accumulated results."""
        return Decomposition(
            ctx=self.ctx,
            original=self.original,
            outputs=self.current,
            blocks=self.blocks,
            iterations=self.iterations,
            options=self.options,
            primary_inputs=self.primary_inputs,
        )
