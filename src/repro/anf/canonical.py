"""Canonical, context-independent hashing of multi-output specifications.

The Reed-Muller form is canonical (two expressions denote the same function
iff their monomial sets are equal), so a specification has a well-defined
digest.  The canonical form relabels the support variables *densely in
declaration order*: bit *i* of a canonical monomial is the *i*-th support
variable as declared.  Two specs built in different contexts or processes —
e.g. by re-running the same deterministic builder — hash equal exactly when
they denote the same functions over the same named inputs declared in the
same order; variables outside the support (tags, other problems sharing the
context) never influence the digest.

Declaration order is deliberately part of the key: ``findGroup`` iterates
candidates and breaks ties in declaration order (and the default input word
is the declaration-ordered support), so the same functions declared in a
different order can legitimately decompose differently.  Folding order into
the digest keeps the result-cache contract exact — a warm hit is always the
result the cold run would have produced.

Flat Reed-Muller specs run to millions of monomials, so the digest reads
the sorted ``uint64`` rows of an expression's packed
:class:`~repro.anf.termmatrix.TermMatrix` in place (a set-backed expression
is sorted into a temporary slab, never attached to it) and builds no
per-term Python object.  Declaration order is index order, so the dense
relabelling is an order-preserving bit compaction — one vector pass per run
of consecutive support bits, none when the support is already dense — and
the rows stay sorted.  Each row is hashed as its low ``mask_bytes``
little-endian bytes.  Only masks wider than a 64-bit row take a per-term
bit loop.

This digest keys the on-disk result cache of the batch orchestrator
(:mod:`repro.engine.batch`), together with the pipeline's ``config_key``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Sequence

import numpy as np

from . import sortkernel
from .expression import Anf
from .termmatrix import TERM_LIMIT


def _compact_rows(expr: Anf, support_mask: int) -> np.ndarray:
    """``expr``'s rows with the bits of ``support_mask`` packed to the bottom."""
    matrix = expr.term_matrix()
    rows = matrix.words if matrix is not None else sortkernel.sort_terms(
        expr.terms, count=expr.num_terms
    )
    if support_mask & (support_mask + 1) == 0:
        return rows  # already dense in the low bits
    compacted = np.zeros_like(rows)
    target = 0
    for start, length in sortkernel._bit_runs(sortkernel._mask_bit_positions(support_mask)):
        run = np.uint64(((1 << length) - 1) << target)
        compacted |= (rows >> np.uint64(start - target)) & run
        target += length
    return compacted


def _compact_terms(expr: Anf, support_mask: int) -> List[int]:
    """Per-term fallback of :func:`_compact_rows` for masks wider than 64 bits."""
    positions = sortkernel._mask_bit_positions(support_mask)
    canonical = []
    for mask in sorted(expr.terms):
        image = 0
        for target, source in enumerate(positions):
            if mask >> source & 1:
                image |= 1 << target
        canonical.append(image)
    return canonical


def _canonical_parts(outputs: Mapping[str, Anf]) -> tuple[List[str], Dict[str, object]]:
    """Declaration-ordered support names and each port's relabelled sorted
    rows: a ``uint64`` vector, or a list of ints for masks wider than a row."""
    if not outputs:
        return [], {}
    ctx = next(iter(outputs.values())).ctx
    support_mask = 0
    for expr in outputs.values():
        ctx.require_same(expr.ctx)
        support_mask |= expr.support_mask
    compact = _compact_rows if support_mask < TERM_LIMIT else _compact_terms
    rendered = {port: compact(outputs[port], support_mask) for port in sorted(outputs)}
    return list(ctx.names_of(support_mask)), rendered


def _row_bytes(rows, mask_bytes: int):
    """Rows as concatenated ``mask_bytes``-wide little-endian words.

    Returns a bytes-like object for the hash to read.  For 1-, 2-, 4- and
    8-byte masks that is one narrowing cast (rows fit their mask, so it
    drops only zero bytes) and no copy at all when the rows are already
    ``<u8``; other widths slice each row's low bytes out of a byte view.
    """
    if isinstance(rows, list):
        return b"".join(mask.to_bytes(mask_bytes, "little") for mask in rows)
    if mask_bytes in (1, 2, 4, 8):
        return memoryview(np.ascontiguousarray(rows.astype(f"<u{mask_bytes}", copy=False)))
    little = rows.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return little[:, :mask_bytes].tobytes()


def canonical_spec_payload(
    outputs: Mapping[str, Anf],
    input_words: Sequence[Sequence[str]] | None = None,
) -> dict:
    """The canonical form of a specification as a JSON-serialisable dict.

    ``support`` lists the support variables in declaration order; monomial
    bit *i* refers to ``support[i]``.
    """
    names, rendered = _canonical_parts(outputs)
    payload: dict = {
        "support": names,
        "outputs": {
            port: rows if isinstance(rows, list) else rows.tolist()
            for port, rows in rendered.items()
        },
    }
    if input_words is not None:
        payload["input_words"] = [list(word) for word in input_words]
    return payload


def canonical_spec_digest(
    outputs: Mapping[str, Anf],
    input_words: Sequence[Sequence[str]] | None = None,
) -> str:
    """SHA-256 hex digest of the canonical form of a specification."""
    names, rendered = _canonical_parts(outputs)
    digest = hashlib.sha256()
    header = {"support": names, "ports": sorted(rendered)}
    if input_words is not None:
        header["input_words"] = [list(word) for word in input_words]
    digest.update(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    mask_bytes = (len(names) + 7) // 8 or 1
    for port in sorted(rendered):
        digest.update(port.encode("utf-8") + b"\0")
        digest.update(_row_bytes(rendered[port], mask_bytes))
    return digest.hexdigest()
