"""Whole-matrix sort/scan kernels over packed term matrices.

Every O(terms) scan of the packed backend — the bucketing of
``split_by_group``, the multi-tag scatter, the pack of a spec, the
cancel-adjacent sweep of ``xor_sorted`` and the whole-matrix queries and
rewrites of :class:`~repro.anf.termmatrix.TermMatrix` (popcount, OR-fold,
``| mask`` and ``& ~mask``) — runs here as a handful of vectorised passes
over what a matrix physically is: one contiguous slab of unsigned 64-bit
rows.

``split_runs_by_group``
    The bucketing kernel behind ``split_by_group``.  The key space is tiny —
    a group is at most ``k`` variables, so there are at most ``2^k`` distinct
    group parts (≤ 16 for the paper's ``k = 4``) — which makes a counting /
    radix bucketing strictly cheaper than a comparison sort: compress the
    group bits of every row into a dense small-integer key, count the
    buckets with one ``bincount``, then emit each present bucket with one
    stable masked selection.  Within a bucket the rows already ascend (rows
    sharing a group part keep their input order, and clearing the shared
    part preserves it), so every bucket is born a canonical
    :class:`TermMatrix` without any per-term rebucketing.  Masks wider than
    :data:`RADIX_MAX_GROUP_BITS` fall back to the composite-key stable
    argsort-and-slice this kernel replaced.

``scatter_tag``
    One boolean-mask selection plus a bit-strip per tag: the multi-tag path
    of ``scatter_by_tags`` becomes O(tags) vector passes instead of a
    per-term inner loop over the tag bits.

``sort_terms`` / ``merge_disjoint`` / ``xor_merge`` / ``parity_merge``
    The construction kernels: pack-and-sort an unordered term stream, union
    pairwise-disjoint sorted slabs, symmetric-difference two slabs, and
    reduce a multiset of slabs modulo 2 (terms surviving iff they occur an
    odd number of times).  ``parity_merge`` is what lets a product or a
    substitution accumulate *all* its partial term slabs first and cancel
    them in one sorted sweep, instead of XOR-ing partials one at a time
    (which is quadratic in the result size).

``shared_literal_count`` / ``support_fold`` / ``popcount_rows`` / ``or_into_all`` / ``clear_bits_all`` / ``rows_contain_all``
    Scan helpers: literals shared between two sorted slabs (for the
    optimisation passes), and the whole-matrix queries and rewrites behind
    :class:`~repro.anf.termmatrix.TermMatrix`.

Every kernel takes and returns the one packed spelling of a term set: a
read-only, C-contiguous :mod:`numpy` ``uint64`` vector of rows (the
``TermMatrix.words`` invariant).  Results are sealed read-only where they
are built, so slabs can be shared between matrices without copies.

All kernels are exact and representation-transparent: they compute the same
canonical term sets as the per-term reference loops, which the property
tests in ``tests/test_sortkernel.py`` assert on arbitrary inputs.  Each
kernel owns its small/large decision: below :data:`KERNEL_MIN_ROWS` rows
the fixed numpy call overhead exceeds the per-term loop it replaces, so
tiny inputs iterate ``words.tolist()`` (Python ints — ``np.uint64``
arithmetic would raise on masks wider than a row) and only the result is
packed.

The whole-slab kernels have one seam (:func:`set_core`): the ``native``
backend installs :mod:`repro.anf.cnative` there, and every public kernel
then runs that module's C-first twin instead of its numpy body.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as _np


def _env_int(name: str, default: int, minimum: int = 0) -> int:
    """An integer tunable from the environment.

    Malformed values keep the default and values below ``minimum`` are
    clamped — in both cases with a :class:`RuntimeWarning` naming the
    variable, so a typo'd tunable is visible instead of silently running
    the wrong configuration (and never an import-time crash).
    """
    value = os.environ.get(name, "").strip()
    if not value:
        return default
    try:
        parsed = int(value)
    except ValueError:
        warnings.warn(
            f"ignoring malformed ${name}={value!r} (expected an integer); "
            f"using the default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    if parsed < minimum:
        warnings.warn(
            f"${name}={parsed} is below the minimum {minimum}; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
        return minimum
    return parsed


#: Row count below which the per-term Python paths win (fixed numpy call
#: overhead dominates); measured on the quick-width sweep.  Tunable via
#: ``REPRO_KERNEL_MIN_ROWS`` (0 forces the vector kernels everywhere — the
#: parity suite's forced-numpy mode).
KERNEL_MIN_ROWS = _env_int("REPRO_KERNEL_MIN_ROWS", 1024)

#: Rows are 64-bit; masks are clipped to the row width before vectorising
#: (a variable with index >= 64 cannot occur in any packable term, so
#: clipping never changes a result).
ROW_MASK = (1 << 64) - 1

#: Group masks with at most this many set bits take the counting/radix
#: bucketing path of :func:`split_runs_by_group` (≤ 64 buckets).  Wider
#: masks — only the full-group stall fallback produces them — keep the
#: stable composite-key argsort.
RADIX_MAX_GROUP_BITS = 6

#: With at least this many occupied buckets (including the remainder) the
#: radix split switches from one masked selection per bucket to a single
#: stable argsort of the compressed ``uint8`` key plus one gather: per-bucket
#: selection costs two whole-slab passes per bucket, the argsort-and-slice a
#: fixed ~4, so the crossover sits at a handful of buckets (measured ~1.8x
#: on the comparator's 16-bucket 14.3 M-row split).
RADIX_ARGSORT_MIN_BUCKETS = 4

#: The module whose kernels replace the numpy bodies below — ``None`` (numpy)
#: or :mod:`repro.anf.cnative`, installed by the ``native`` backend.  The
#: public kernels dispatch on it, so *every* caller — backends and
#: module-level users such as ``xor_accumulate`` alike — runs the same core.
_core = None


def set_core(module) -> None:
    """Install (or clear, with ``None``) the kernel core module."""
    global _core
    _core = module


def _frozen(rows: _np.ndarray) -> _np.ndarray:
    """Seal a freshly built contiguous ``uint64`` row vector read-only."""
    rows.setflags(write=False)
    return rows


def _rows_of(values: Sequence[int]) -> _np.ndarray:
    """A read-only row vector from a list of Python ints (small-input paths)."""
    return _frozen(_np.array(values, dtype=_np.uint64))


#: The shared empty slab (read-only, so sharing it is safe).
EMPTY = _rows_of([])


# ----------------------------------------------------------------------
# Sort-and-slice kernels
# ----------------------------------------------------------------------
def split_runs_by_group(
    words: _np.ndarray, group_mask: int
) -> Tuple[List[Tuple[int, _np.ndarray]], _np.ndarray]:
    """Bucket a sorted row slab by the group part of every row.

    Returns ``(buckets, remainder)`` where ``buckets`` is a list of
    ``(group_part, rest_rows)`` with ``group_part != 0`` and ``rest_rows``
    strictly ascending, and ``remainder`` holds the rows containing no group
    variable.  Semantics match the per-term reference: each row ``t`` lands
    in bucket ``t & group_mask`` as ``t ^ (t & group_mask)``.  Buckets are
    emitted in ascending ``group_part`` order.

    Narrow masks (≤ :data:`RADIX_MAX_GROUP_BITS` bits — every real group)
    take the O(n) counting/radix path; wide masks keep the stable
    composite-key argsort, which is order-equivalent: both preserve the
    input (ascending) order within a bucket, so every slice is canonical.
    """
    core = _core
    if core is not None:
        return core.split_runs_by_group(words, group_mask)
    return _split_runs(words, group_mask)


def split_build_by_group(
    tagged_slabs: Sequence[Tuple[int, _np.ndarray]], group_mask: int
) -> Tuple[List[Tuple[int, _np.ndarray]], _np.ndarray]:
    """Fused tag-multiply + combine + split: the engine's ``findBasis`` feed.

    ``tagged_slabs`` is a sequence of ``(tag_mask, rows)`` — one sorted slab
    per output port plus the fresh tag bit that marks it.  The result equals
    splitting ``merge_disjoint([rows_i | tag_i])`` by ``group_mask``, but is
    computed in one pass per slab: each bucket row is emitted directly as
    ``(row ^ group_part) | tag``, so the combined expression — the largest
    allocation of the old pipeline — never materialises, and the per-bucket
    cross-slab merges degenerate to boundary-checked concatenations (tags
    are allocated in ascending order, so slab ``i``'s rows all sort below
    slab ``i+1``'s once the tags are ORed in).

    Preconditions (the backend seam checks them before calling): every tag
    is a fresh single bit disjoint from its slab's support, from every other
    tag, and from ``group_mask``.
    """
    core = _core
    if core is not None:
        return core.split_build_by_group(tagged_slabs, group_mask)
    return _split_build(tagged_slabs, group_mask)


def _split_build(
    tagged_slabs: Sequence[Tuple[int, _np.ndarray]], group_mask: int, split=None
) -> Tuple[List[Tuple[int, _np.ndarray]], _np.ndarray]:
    """One tagged split per slab (``split`` defaults to :func:`_split_runs`),
    then per-bucket disjoint merges."""
    split = split or _split_runs
    per_bucket: Dict[int, List[_np.ndarray]] = {}
    rest_parts: List[_np.ndarray] = []
    for tag, words in tagged_slabs:
        if not len(words):
            continue
        buckets, rest = split(words, group_mask, or_mask=tag)
        for part, rows in buckets:
            pieces = per_bucket.get(part)
            if pieces is None:
                per_bucket[part] = pieces = []
            pieces.append(rows)
        if len(rest):
            rest_parts.append(rest)
    merged = [
        (part, merge_disjoint(per_bucket[part])) for part in sorted(per_bucket)
    ]
    return merged, merge_disjoint(rest_parts)


def _split_runs(
    words: _np.ndarray, group_mask: int, or_mask: int = 0
) -> Tuple[List[Tuple[int, _np.ndarray]], _np.ndarray]:
    """The numpy split kernel; ``or_mask`` is ORed into every emitted row.

    ``or_mask`` (the fused path's tag bit) must be disjoint from the slab's
    support and from ``group_mask``, so ORing it preserves the ascending
    order of every bucket and of the remainder.
    """
    if len(words) < KERNEL_MIN_ROWS:
        return _split_runs_python(words.tolist(), group_mask, or_mask)
    mask = group_mask & ROW_MASK
    bit_positions = _mask_bit_positions(mask)
    if 0 < len(bit_positions) <= RADIX_MAX_GROUP_BITS:
        return _split_runs_radix(words, bit_positions, or_mask)
    gpart = words & _np.uint64(mask)
    if not gpart.any():
        return [], or_into_all(words, or_mask) if or_mask else words
    order = _np.argsort(gpart, kind="stable")
    sorted_g = gpart[order]
    sorted_rest = (words ^ gpart)[order]
    if or_mask:
        sorted_rest |= _np.uint64(or_mask & ROW_MASK)
    _frozen(sorted_rest)
    edges = _np.flatnonzero(sorted_g[1:] != sorted_g[:-1]) + 1
    starts = [0, *edges.tolist()]
    ends = [*edges.tolist(), len(words)]
    buckets: List[Tuple[int, _np.ndarray]] = []
    remainder = EMPTY
    for lo, hi in zip(starts, ends):
        part = int(sorted_g[lo])
        if part == 0:
            remainder = sorted_rest[lo:hi]
        else:
            buckets.append((part, sorted_rest[lo:hi]))
    return buckets, remainder


def _mask_bit_positions(mask: int) -> List[int]:
    """Ascending bit positions set in ``mask``."""
    positions: List[int] = []
    while mask:
        bit = mask & -mask
        positions.append(bit.bit_length() - 1)
        mask ^= bit
    return positions


def _bit_runs(bit_positions: List[int]) -> List[Tuple[int, int]]:
    """Maximal runs of consecutive bit positions as ``(start, length)``."""
    runs: List[Tuple[int, int]] = []
    start = bit_positions[0]
    length = 1
    for pos in bit_positions[1:]:
        if pos == start + length:
            length += 1
        else:
            runs.append((start, length))
            start, length = pos, 1
    runs.append((start, length))
    return runs


def _split_runs_radix(
    rows: _np.ndarray, bit_positions: List[int], or_mask: int = 0
) -> Tuple[List[Tuple[int, _np.ndarray]], _np.ndarray]:
    """Counting split on a ≤``RADIX_MAX_GROUP_BITS``-bit key space.

    The group bits of every row compress into a dense ``uint8`` key — one
    shift-and-mask per *run* of consecutive group bits, and the compression
    is monotone (ascending bit positions map to ascending key bits), so
    ascending keys enumerate ascending group parts.  One ``bincount`` sizes
    all buckets; then the rows are gathered bucket-by-bucket along one of
    two equivalent routes:

    * few occupied buckets — one stable masked selection per bucket (two
      whole-slab passes each, no index permutation);
    * :data:`RADIX_ARGSORT_MIN_BUCKETS` or more — one stable ``argsort`` of
      the byte-wide key plus a single gather, after which every bucket is a
      contiguous slice (fixed number of passes regardless of bucket count).

    Both routes preserve the input (ascending) order within a bucket —
    stability of the masked selection and of the argsort respectively — so
    every bucket is born canonical and the results are bit-identical.
    """
    runs = _bit_runs(bit_positions)
    key = _np.empty(len(rows), dtype=_np.uint8)
    scratch = _np.empty(len(rows), dtype=_np.uint8)
    out = 0
    for start, length in runs:
        packed = (rows >> _np.uint64(start - out)) & _np.uint64(((1 << length) - 1) << out)
        if out == 0:
            _np.copyto(key, packed, casting="unsafe")
        else:
            _np.copyto(scratch, packed, casting="unsafe")
            key |= scratch
        out += length
    counts = _np.bincount(key, minlength=1 << len(bit_positions))
    if len(counts) == 1 or not counts[1:].any():
        return [], or_into_all(rows, or_mask) if or_mask else rows

    def expand(compressed: int) -> int:
        part = 0
        offset = 0
        for start, length in runs:
            part |= ((compressed >> offset) & ((1 << length) - 1)) << start
            offset += length
        return part

    # ``row ^ (part | tag)`` strips the group part *and* marks the tag in one
    # pass: every row of a bucket contains all of ``part``, no row contains
    # the (fresh) tag bit, and the two masks are disjoint — so the XOR equals
    # clear-then-OR without the second whole-slab sweep of the fused path.
    present = _np.flatnonzero(counts).tolist()
    buckets: List[Tuple[int, _np.ndarray]] = []
    remainder = EMPTY
    if len(present) >= RADIX_ARGSORT_MIN_BUCKETS:
        gathered = rows[_np.argsort(key, kind="stable")]
        bounds = [0, *_np.cumsum(counts).tolist()]
        pieces = [(c, gathered[bounds[c] : bounds[c + 1]]) for c in present]
    else:
        mask_buffer = _np.empty(len(rows), dtype=bool)
        pieces = [
            (compressed, rows[_np.equal(key, compressed, out=mask_buffer)])
            for compressed in present
        ]
    for compressed, selected in pieces:
        part = expand(compressed) if compressed else 0
        strip = part | or_mask
        if strip:
            selected ^= _np.uint64(strip)
        if compressed == 0:
            remainder = _frozen(selected)
        else:
            buckets.append((part, _frozen(selected)))
    return buckets, remainder


def _split_runs_python(
    words: Sequence[int], group_mask: int, or_mask: int = 0
) -> Tuple[List[Tuple[int, _np.ndarray]], _np.ndarray]:
    """Per-term reference split over Python ints (also the small-input path)."""
    buckets: Dict[int, List[int]] = {}
    remainder: List[int] = []
    remainder_append = remainder.append
    bucket_get = buckets.get
    for term in words:
        group_part = term & group_mask
        if group_part == 0:
            remainder_append(term | or_mask)
        else:
            rows = bucket_get(group_part)
            if rows is None:
                buckets[group_part] = rows = []
            rows.append((term ^ group_part) | or_mask)
    return (
        [(part, _rows_of(rest)) for part, rest in buckets.items()],
        _rows_of(remainder),
    )


def _split_build_python(
    tagged_slabs: Sequence[Tuple[int, Sequence[int]]], group_mask: int
) -> Tuple[List[Tuple[int, _np.ndarray]], _np.ndarray]:
    """Per-term reference of the fused split (parity oracle for the tests)."""
    per_bucket: Dict[int, List[int]] = {}
    rest: List[int] = []
    for tag, words in tagged_slabs:
        for term in words:
            group_part = term & group_mask
            row = (term ^ group_part) | tag
            if group_part == 0:
                rest.append(row)
            else:
                rows = per_bucket.get(group_part)
                if rows is None:
                    per_bucket[group_part] = rows = []
                rows.append(row)
    return (
        [(part, _rows_of(sorted(per_bucket[part]))) for part in sorted(per_bucket)],
        _rows_of(sorted(rest)),
    )


def scatter_tag(words: _np.ndarray, bit: int) -> _np.ndarray:
    """Rows containing ``bit``, with the bit stripped, in ascending order.

    Rows that all contain a common bit keep their relative order when it is
    cleared, so the selection is born sorted.
    """
    core = _core
    if core is not None:
        return core.scatter_tag(words, bit)
    return _scatter_tag(words, bit)


def _scatter_tag(words: _np.ndarray, bit: int) -> _np.ndarray:
    if bit > ROW_MASK:
        return EMPTY
    if len(words) < KERNEL_MIN_ROWS:
        return _rows_of([t & ~bit for t in words.tolist() if t & bit])
    b = _np.uint64(bit)
    return _frozen(words[(words & b) != 0] & ~b)


# ----------------------------------------------------------------------
# Construction kernels
# ----------------------------------------------------------------------
def sort_terms(terms: Iterable[int], count: Optional[int] = None) -> Optional[_np.ndarray]:
    """Pack an unordered stream of distinct terms into a sorted slab.

    Returns ``None`` when some term does not fit a 64-bit row (the caller
    falls back to frozenset storage, exactly like
    :meth:`TermMatrix.from_terms`).
    """
    if count is None:
        terms = list(terms)
        count = len(terms)
    if count < KERNEL_MIN_ROWS:
        rows = sorted(terms)
        if rows and rows[-1] > ROW_MASK:
            return None
        return _rows_of(rows)
    try:
        rows = _np.fromiter(terms, dtype=_np.uint64, count=count)
    except OverflowError:
        return None
    rows.sort(kind="stable")
    return _frozen(rows)


def merge_disjoint(slabs: Sequence[_np.ndarray]) -> _np.ndarray:
    """Union of pairwise-disjoint sorted slabs, re-sorted into one slab.

    The slabs are first ordered by their smallest row (a permutation cannot
    change the sorted union); when every boundary then ascends —
    ``max(slab_i) < min(slab_i+1)`` — the concatenation *is* the union and
    the sort is skipped entirely.  That O(k) check turns the hot merges of
    the engine into plain memcpys: tag-combined port slabs and the rewrite's
    marker-tagged pieces are each dominated by one fresh high bit, so their
    row ranges never interleave.
    """
    alive = [s for s in slabs if len(s)]
    if not alive:
        return EMPTY
    if len(alive) == 1:
        return alive[0]
    alive.sort(key=lambda s: int(s[0]))
    ordered = all(
        alive[i][-1] < alive[i + 1][0] for i in range(len(alive) - 1)
    )
    merged = _np.concatenate(alive)
    if not ordered:
        if len(merged) < KERNEL_MIN_ROWS:
            return _rows_of(sorted(merged.tolist()))
        merged.sort(kind="stable")
    return _frozen(merged)


def xor_merge(left: _np.ndarray, right: _np.ndarray) -> _np.ndarray:
    """Symmetric difference of two sorted slabs of distinct rows.

    Each operand holds distinct rows, so a shared row occurs exactly twice in
    the concatenation and the adjacent duplicates cancel.
    """
    core = _core
    if core is not None:
        return core.xor_merge(left, right)
    return _xor_merge(left, right)


def _xor_merge(left: _np.ndarray, right: _np.ndarray) -> _np.ndarray:
    if not len(left):
        return right
    if not len(right):
        return left
    if len(left) + len(right) < KERNEL_MIN_ROWS:
        return _xor_merge_python(left.tolist(), right.tolist())
    merged = _np.concatenate((left, right))
    merged.sort(kind="stable")
    dup = merged[1:] == merged[:-1]
    keep = _np.ones(len(merged), dtype=bool)
    keep[1:] &= ~dup
    keep[:-1] &= ~dup
    return _frozen(merged[keep])


def _xor_merge_python(left: Sequence[int], right: Sequence[int]) -> _np.ndarray:
    merged = list(left)
    merged.extend(right)
    merged.sort()
    out: List[int] = []
    append = out.append
    previous = -1
    for row in merged:
        if row == previous:
            out.pop()
            previous = -1
        else:
            append(row)
            previous = row
    return _rows_of(out)


def parity_merge(slabs: Sequence[_np.ndarray]) -> _np.ndarray:
    """Mod-2 reduction of a multiset of row slabs.

    The result holds the rows occurring an odd number of times across all
    slabs — the canonical term set of the XOR of the expressions the slabs
    represent.  One sorted sweep replaces the quadratic one-at-a-time XOR
    accumulation of products and substitutions.  Slabs need not be sorted
    or duplicate-free (product slabs ``rows | term`` are neither when the
    term overlaps the support), so even a single slab is swept.
    """
    core = _core
    if core is not None:
        return core.parity_merge(slabs)
    return _parity_merge(slabs)


def _parity_merge(slabs: Sequence[_np.ndarray]) -> _np.ndarray:
    alive = [s for s in slabs if len(s)]
    if not alive:
        return EMPTY
    total = sum(len(s) for s in alive)
    if total < KERNEL_MIN_ROWS:
        counts: Dict[int, int] = {}
        for s in alive:
            for row in s.tolist():
                counts[row] = counts.get(row, 0) + 1
        return _rows_of(sorted(r for r, c in counts.items() if c & 1))
    # A fresh (writable) copy even for one slab: the sweep sorts in place.
    merged = _np.concatenate(alive)
    # Slabs from expressions are sorted runs — timsort ("stable") gallops
    # through them instead of re-partitioning from scratch.
    merged.sort(kind="stable")
    return _frozen(_odd_runs(merged))


def _odd_runs(merged):
    """Rows of a sorted vector occurring an odd number of times."""
    edges = _np.flatnonzero(merged[1:] != merged[:-1]) + 1
    starts = _np.concatenate(([0], edges))
    ends = _np.concatenate((edges, [len(merged)]))
    odd = ((ends - starts) & 1).astype(bool)
    return merged[starts[odd]]


def product_rows(large: _np.ndarray, small_terms: Sequence[int]) -> _np.ndarray:
    """Sorted canonical rows of ``XOR(small_terms) * large``.

    Each small term contributes one vectorised ``row | term`` slab; the
    slabs reduce mod 2 in one sorted parity sweep (a product term can repeat
    — ``r1 | t1 == r2 | t2`` — whenever the factors overlap, so plain
    dedup is not enough).  A divide-and-conquer split bounds the transient
    slab memory for products where both operands are large; the halves are
    themselves canonical, so they recombine with a run-friendly stable sort.
    """
    core = _core
    if core is not None:
        return core.product_rows(large, small_terms)
    return _product_rows(large, small_terms)


def _product_rows(large: _np.ndarray, small_terms: Sequence[int]) -> _np.ndarray:
    if len(large) * len(small_terms) < KERNEL_MIN_ROWS:
        counts: Dict[int, int] = {}
        rows = large.tolist()
        for term in small_terms:
            for row in rows:
                key = row | term
                counts[key] = counts.get(key, 0) + 1
        return _rows_of(sorted(r for r, c in counts.items() if c & 1))
    return _frozen(_product_rows_rec(large, list(small_terms)))


#: Transient row budget of one product parity sweep (~128 MB of u64 rows).
PRODUCT_SLAB_ROWS = 1 << 24


def _product_rows_rec(rows, small_terms: List[int]):
    if len(small_terms) * len(rows) <= PRODUCT_SLAB_ROWS or len(small_terms) <= 2:
        slabs = [rows | _np.uint64(term & ROW_MASK) for term in small_terms]
        merged = slabs[0] if len(slabs) == 1 else _np.concatenate(slabs)
        # Product slabs are unsorted whenever a term overlaps the support;
        # introsort beats timsort on run-free data.
        merged.sort()
        return _odd_runs(merged)
    mid = len(small_terms) // 2
    left = _product_rows_rec(rows, small_terms[:mid])
    right = _product_rows_rec(rows, small_terms[mid:])
    merged = _np.concatenate((left, right))
    merged.sort(kind="stable")  # two sorted runs: timsort gallops
    return _odd_runs(merged)


# ----------------------------------------------------------------------
# Scan helpers
# ----------------------------------------------------------------------
def or_into_all(words: _np.ndarray, mask: int) -> _np.ndarray:
    """``row | mask`` for every row; ascending whenever the mask is disjoint
    from the slab's support (the caller's precondition).  ``mask`` must fit
    a row."""
    if len(words) < KERNEL_MIN_ROWS:
        return _rows_of([t | mask for t in words.tolist()])
    return _frozen(words | _np.uint64(mask))


def support_fold(words: _np.ndarray) -> int:
    """OR of every row in one vector pass."""
    if len(words) < KERNEL_MIN_ROWS:
        mask = 0
        for term in words.tolist():
            mask |= term
        return mask
    return int(_np.bitwise_or.reduce(words))


def shared_literal_count(left: _np.ndarray, right: _np.ndarray) -> int:
    """Total set bits over the rows present in both sorted slabs."""
    core = _core
    if core is not None:
        return core.shared_literal_count(left, right)
    return _shared_literal_count(left, right)


def _shared_literal_count(left: _np.ndarray, right: _np.ndarray) -> int:
    if min(len(left), len(right)) == 0 or len(left) + len(right) < KERNEL_MIN_ROWS:
        shared = frozenset(left.tolist()) & frozenset(right.tolist())
        return sum(row.bit_count() for row in shared)
    small, large = (left, right) if len(left) <= len(right) else (right, left)
    positions = _np.searchsorted(large, small)
    positions[positions == len(large)] = 0
    hits = large[positions] == small
    return _popcount_rows(small[hits])


def popcount_rows(words: _np.ndarray) -> int:
    """Total set bits over a row slab (the literal count of a matrix).

    One vectorised ``bitwise_count`` + sum on numpy >= 2.0; a single
    big-integer popcount of the raw bytes otherwise (and below the kernel
    floor, where it is the cheaper of the two).
    """
    core = _core
    if core is not None:
        return core.popcount_rows(words)
    return _popcount_rows(words)


def _popcount_rows(words: _np.ndarray) -> int:
    if len(words) < KERNEL_MIN_ROWS or not hasattr(_np, "bitwise_count"):
        return int.from_bytes(words.tobytes(), "little").bit_count()
    return int(_np.bitwise_count(words).sum(dtype=_np.int64))


def clear_bits_all(words: _np.ndarray, mask: int) -> _np.ndarray:
    """``row & ~mask`` for every row; ascending whenever every row contains
    all of ``mask`` (the caller's precondition — tag stripping)."""
    if len(words) < KERNEL_MIN_ROWS:
        return _rows_of([t & ~mask for t in words.tolist()])
    return _frozen(words & _np.uint64(~mask & ROW_MASK))


def rows_contain_all(words: _np.ndarray, mask: int) -> bool:
    """True when every row contains every bit of ``mask`` (one vector pass).
    ``mask`` must fit a row."""
    if len(words) < KERNEL_MIN_ROWS:
        return all(t & mask == mask for t in words.tolist())
    m = _np.uint64(mask)
    return bool(((words & m) == m).all())
