"""Term-set backends: the interface between the engine and term storage.

The decomposition engine's intrinsic floor is O(terms) work per iteration —
splitting the giant combined expression by group, multiplying tag variables
in, extracting per-port tag components, counting literals.  How fast that
floor runs depends entirely on the *representation* of the term sets, so the
representation-dependent kernels live here, behind one interface:

:class:`SetBackend` (``"set"``)
    The seed behaviour: every kernel iterates Python ``frozenset`` objects.
    Kept both as the reference implementation for the parity suite and as the
    fallback for term sets that cannot be packed (terms over 64 variable
    indices).

:class:`PackedBackend` (``"packed"``, the default)
    Routes the kernels through :class:`~repro.anf.termmatrix.TermMatrix`:
    per-term scans become vectorised sweeps over one read-only numpy
    ``uint64`` row vector per expression (:mod:`repro.anf.sortkernel`, on
    its C primitives when the extension is built), and the expressions
    flowing between pipeline stages stay matrix-backed so frozensets are
    only materialised when a consumer genuinely needs set semantics.

Both backends compute the *same canonical term sets* for every kernel — the
parity test-suite runs the full engine under each and asserts bit-identical
decompositions.  ``packed`` is active at import; :func:`set_backend` and
the :func:`using_backend` context manager switch to ``set`` and back.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import sortkernel
from .context import Context
from .expression import Anf
from .termmatrix import TERM_LIMIT, TermMatrix, concat_sorted

class SetBackend:
    """Reference kernels over plain frozensets (the seed implementation)."""

    name = "set"

    # ------------------------------------------------------------------
    def split_by_group(self, expr: Anf, group_mask: int) -> Tuple[Dict[int, Anf], Anf]:
        """Partition ``expr`` by the group-variable part of each monomial.

        The terms are distinct and (group part, rest part) determines the
        term, so no mod-2 cancellation can occur while bucketing — plain
        list appends suffice and every bucket is non-empty by construction.
        """
        ctx = expr.ctx
        buckets: Dict[int, List[int]] = {}
        remainder: List[int] = []
        remainder_append = remainder.append
        bucket_get = buckets.get
        for term in expr.terms:
            group_part = term & group_mask
            if group_part == 0:
                remainder_append(term)
            else:
                rows = bucket_get(group_part)
                if rows is None:
                    buckets[group_part] = rows = []
                rows.append(term ^ group_part)
        result = {
            group_part: Anf._raw(ctx, frozenset(rest))
            for group_part, rest in buckets.items()
        }
        return result, Anf._raw(ctx, frozenset(remainder))

    # ------------------------------------------------------------------
    def combine_tagged(
        self, items: Sequence[Tuple[int, Anf]], ctx: Context
    ) -> Optional[Anf]:
        """``XOR_i (bit_i & expr_i)`` for fresh single-variable bits, or ``None``.

        ``None`` means "no fast path" — the caller runs the generic product
        loop.  The set backend always declines.
        """
        return None

    # ------------------------------------------------------------------
    def split_tagged(
        self, items: Sequence[Tuple[int, Anf]], group_mask: int, ctx: Context
    ) -> Optional[Tuple[Dict[int, Anf], Anf]]:
        """Fused ``split_by_group(combine_tagged(items))`` — or ``None``.

        ``None`` means "no fused path" — the caller combines then splits in
        two steps.  The set backend always declines.
        """
        return None

    # ------------------------------------------------------------------
    def scatter_by_tags(self, expr: Anf, tags_mask: int) -> Dict[int, Anf]:
        """Split ``expr`` into per-tag components in a single traversal.

        Returns ``{tag_bit: component}`` where ``component`` holds every
        monomial of ``expr`` containing that tag bit, with the bit stripped.
        Distinct terms stay distinct after stripping a shared bit, so no
        cancellation is possible and every component is non-empty.
        """
        ctx = expr.ctx
        buckets: Dict[int, List[int]] = {}
        for term in expr.terms:
            tags = term & tags_mask
            while tags:
                bit = tags & -tags
                rows = buckets.get(bit)
                if rows is None:
                    buckets[bit] = rows = []
                rows.append(term & ~bit)
                tags ^= bit
        return {
            bit: Anf._raw(ctx, frozenset(rows)) for bit, rows in buckets.items()
        }

    # ------------------------------------------------------------------
    def disjoint_xor(self, pieces: Sequence[Anf], ctx: Context) -> Anf:
        """XOR expressions whose term sets are pairwise disjoint."""
        total = Anf.zero(ctx)
        for piece in pieces:
            total = total ^ piece
        return total

    # ------------------------------------------------------------------
    def pair_key(self, expr: Anf):
        """Canonical hashable key for term-set equality in the merge loops."""
        return expr.terms

    # ------------------------------------------------------------------
    def prepare_outputs(self, outputs) -> None:
        """Hook run once per decomposition on the specification outputs."""


class PackedBackend(SetBackend):
    """Word-parallel kernels over packed term matrices.

    Every kernel falls back to the :class:`SetBackend` behaviour when a term
    set cannot be packed, so the two backends are interchangeable point-wise.
    """

    name = "packed"

    # ------------------------------------------------------------------
    def split_by_group(self, expr: Anf, group_mask: int) -> Tuple[Dict[int, Anf], Anf]:
        matrix = expr.term_matrix(build=True)
        if matrix is None:
            return SetBackend.split_by_group(self, expr, group_mask)
        ctx = expr.ctx
        # Composite-key sort-and-slice: one stable sort keyed by the group
        # part of every row, then each contiguous run is a bucket.  Rows
        # sharing a group part keep their ascending order through the stable
        # sort, and clearing the shared part preserves it, so the buckets
        # are born canonical.
        runs, remainder = sortkernel.split_runs_by_group(matrix.words, group_mask)
        result = {
            group_part: Anf._from_matrix(ctx, TermMatrix(rest))
            for group_part, rest in runs
        }
        return result, Anf._from_matrix(ctx, TermMatrix(remainder))

    # ------------------------------------------------------------------
    def combine_tagged(
        self, items: Sequence[Tuple[int, Anf]], ctx: Context
    ) -> Optional[Anf]:
        bits_union = 0
        for bit, _ in items:
            bits_union |= bit
        tagged: List[TermMatrix] = []
        for bit, expr in items:
            if bit >= TERM_LIMIT:
                return None
            matrix = expr.term_matrix(build=True)
            # Port expressions never mention tag variables (the rewrite strips
            # them), so the tag products are disjoint-support single-variable
            # multiplies and the per-port results are pairwise disjoint term
            # sets; anything else declines the fast path.
            if matrix is None or (expr.support_mask & bits_union):
                return None
            tagged.append(matrix.or_all(bit))
        return Anf._from_matrix(ctx, concat_sorted(tagged))

    # ------------------------------------------------------------------
    def split_tagged(
        self, items: Sequence[Tuple[int, Anf]], group_mask: int, ctx: Context
    ) -> Optional[Tuple[Dict[int, Anf], Anf]]:
        # Fused split→build: per port, bucket the rows by group part, strip
        # the group bits and OR the tag in one kernel pass — the buckets come
        # out as the next iteration's sorted matrices with no intermediate
        # combined slab.  Preconditions mirror ``combine_tagged`` exactly
        # (fresh disjoint single-bit tags), plus the group mask must not
        # collide with the tags; any violation declines to the two-step path.
        bits_union = 0
        for bit, _ in items:
            bits_union |= bit
        if group_mask & bits_union:
            return None
        slabs: List[Tuple[int, np.ndarray]] = []
        for bit, expr in items:
            if bit >= TERM_LIMIT:
                return None
            matrix = expr.term_matrix(build=True)
            if matrix is None or (expr.support_mask & bits_union):
                return None
            slabs.append((bit, matrix.words))
        runs, remainder = sortkernel.split_build_by_group(slabs, group_mask)
        buckets = {
            group_part: Anf._from_matrix(ctx, TermMatrix(rest))
            for group_part, rest in runs
        }
        return buckets, Anf._from_matrix(ctx, TermMatrix(remainder))

    # ------------------------------------------------------------------
    def scatter_by_tags(self, expr: Anf, tags_mask: int) -> Dict[int, Anf]:
        matrix = expr.term_matrix(build=True)
        if matrix is None:
            return SetBackend.scatter_by_tags(self, expr, tags_mask)
        ctx = expr.ctx
        if tags_mask and tags_mask & (tags_mask - 1) == 0:
            # One tag (the overwhelmingly common single-output case): either
            # every monomial carries it (strip word-parallel) or none does.
            if matrix.contains_all(tags_mask):
                if matrix.count == 0:
                    return {}
                return {tags_mask: Anf._from_matrix(ctx, matrix.strip_all(tags_mask))}
            if matrix.support_mask() & tags_mask == 0:
                return {}
        # Multi-tag path: one boolean-mask selection per tag bit actually
        # present in the support (a term may carry several tags, so the
        # components overlap and a single sort cannot slice them).
        result: Dict[int, Anf] = {}
        present = matrix.support_mask() & tags_mask
        while present:
            bit = present & -present
            present ^= bit
            rows = sortkernel.scatter_tag(matrix.words, bit)
            if len(rows):
                result[bit] = Anf._from_matrix(ctx, TermMatrix(rows))
        return result

    # ------------------------------------------------------------------
    def disjoint_xor(self, pieces: Sequence[Anf], ctx: Context) -> Anf:
        matrices: List[TermMatrix] = []
        for piece in pieces:
            matrix = piece.term_matrix(build=True)
            if matrix is None:
                return SetBackend.disjoint_xor(self, pieces, ctx)
            matrices.append(matrix)
        return Anf._from_matrix(ctx, concat_sorted(matrices))

    # ------------------------------------------------------------------
    def pair_key(self, expr: Anf):
        # Canonical bytes for any set that packs, frozenset otherwise —
        # equal term sets always map to equal keys (see Anf.term_key).
        return expr.term_key()

    # ------------------------------------------------------------------
    def prepare_outputs(self, outputs) -> None:
        # Pack the specification outputs up front: the engine's first
        # iteration then answers literal counts and support queries with
        # popcounts/folds instead of per-term sums over the giant frozensets,
        # and the first ``combine_with_tags`` reuses the matrices as-is.
        for expr in outputs.values():
            expr.term_matrix(build=True)


_BACKENDS: Dict[str, SetBackend] = {
    SetBackend.name: SetBackend(),
    PackedBackend.name: PackedBackend(),
}

_active: SetBackend = _BACKENDS[PackedBackend.name]


def get_backend() -> SetBackend:
    """The currently active term-set backend."""
    return _active


def set_backend(name: str) -> SetBackend:
    """Activate a backend by name (``"set"`` or ``"packed"``)."""
    global _active
    try:
        _active = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown term backend {name!r} "
            f"(expected one of: {', '.join(sorted(_BACKENDS))})"
        ) from None
    return _active


@contextmanager
def using_backend(name: str) -> Iterator[SetBackend]:
    """Temporarily activate a backend (the parity suite runs both)."""
    previous = _active
    backend = set_backend(name)
    try:
        yield backend
    finally:
        set_backend(previous.name)
