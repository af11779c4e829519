"""Whole-matrix sort/scan kernels over packed term matrices.

Every O(terms) scan over packed term sets — the bucketing of
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

``sort_terms`` / ``merge_disjoint`` / ``xor_merge`` / ``parity_merge`` / ``product_rows``
    The construction kernels: pack-and-sort an unordered term stream, union
    pairwise-disjoint sorted slabs, symmetric-difference two slabs, reduce
    a multiset of slabs modulo 2 (terms surviving iff they occur an odd
    number of times), and distribute a small operand over a slab.
    ``parity_merge`` is what lets a product or a substitution accumulate
    *all* its partial term slabs first and cancel them in one sorted sweep,
    instead of XOR-ing partials one at a time (which is quadratic in the
    result size).  They skip the work their inputs' structure makes moot:
    a product disjoint from the slab's support cannot cancel, so its slabs
    merge as sorted runs without a parity sweep, and the numpy sweep pays
    for run boundaries only when some row occurs three times or more.

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
tests in ``tests/test_sortkernel.py`` assert on arbitrary inputs.

Four kernels have two bodies, and the platform picks between them:
``split_runs_by_group`` and ``split_build_by_group`` (which share one
primitive), ``xor_merge`` and ``shared_literal_count`` run their compiled
C primitive (:mod:`repro.anf._ckernel`) when the extension imported
(:data:`_C`), and their numpy body otherwise.  Both run at every input size, and they return
the same rows bit for bit.  Every other kernel has only its numpy body:
a C body of ``scatter_tag``, ``popcount_rows`` or the overlapping
``product_rows`` sweep bought nothing a whole job could see.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as _np

from .cnative import _C

#: Not a kernel threshold — every kernel runs its vector body at every size.
#: It decides two things outside this module: whether ``Anf.__and__``
#: builds a matrix for its large operand and distributes the product over
#: it (:func:`product_rows`), and the shortest row span the cache's record
#: reader parses straight into a row vector (``engine/cache.py``).  Record
#: bytes do not depend on it.
KERNEL_MIN_ROWS = 1024

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


def _frozen(rows: _np.ndarray) -> _np.ndarray:
    """Seal a freshly built contiguous ``uint64`` row vector read-only."""
    rows.setflags(write=False)
    return rows


def _rows_of(values: Sequence[int]) -> _np.ndarray:
    """A read-only row vector from a list of Python ints (the oracles)."""
    return _frozen(_np.array(values, dtype=_np.uint64))


#: The shared empty slab (read-only, so sharing it is safe).
EMPTY = _rows_of([])


def _c_rows(raw) -> _np.ndarray:
    """A C-produced ``bytearray`` of rows as a read-only vector (no copy)."""
    return _frozen(_np.frombuffer(raw, dtype=_np.uint64))


# ----------------------------------------------------------------------
# Sort-and-slice kernels
# ----------------------------------------------------------------------
def split_runs_by_group(
    words: _np.ndarray, group_mask: int, or_mask: int = 0
) -> Tuple[List[Tuple[int, _np.ndarray]], _np.ndarray]:
    """Bucket a sorted row slab by the group part of every row.

    Returns ``(buckets, remainder)`` where ``buckets`` is a list of
    ``(group_part, rest_rows)`` with ``group_part != 0`` and ``rest_rows``
    strictly ascending, and ``remainder`` holds the rows containing no group
    variable.  Semantics match the per-term reference: each row ``t`` lands
    in bucket ``t & group_mask`` as ``t ^ (t & group_mask)``.  Buckets are
    emitted in ascending ``group_part`` order.  ``or_mask`` (the fused
    path's tag bit) is ORed into every emitted row; it must be disjoint from
    the slab's support and from ``group_mask``, so ORing it preserves the
    ascending order of every bucket and of the remainder.

    Narrow masks (≤ :data:`RADIX_MAX_GROUP_BITS` bits — every real group)
    take the O(n) counting/radix path: the C ``split_radix`` when it is
    built, :func:`_split_runs_radix` otherwise.  Wide masks keep the stable
    composite-key argsort, which is order-equivalent: both preserve the
    input (ascending) order within a bucket, so every slice is canonical.
    """
    mask = group_mask & ROW_MASK
    if _C is not None:
        result = _C.split_radix(words, mask, or_mask & ROW_MASK, RADIX_MAX_GROUP_BITS)
        if result is not None:
            parts, buckets, remainder = result
            if not parts and not or_mask:
                # No row carries a group bit and there is no tag to plant:
                # the input slab *is* the remainder (no copy, as below).
                return [], words
            return (
                [(part, _c_rows(rows)) for part, rows in zip(parts, buckets)],
                _c_rows(remainder),
            )
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

    Preconditions (``split_with_tags`` checks them before calling): every tag
    is a fresh single bit disjoint from its slab's support, from every other
    tag, and from ``group_mask``.
    """
    per_bucket: Dict[int, List[_np.ndarray]] = {}
    rest_parts: List[_np.ndarray] = []
    for tag, words in tagged_slabs:
        if not len(words):
            continue
        buckets, rest = split_runs_by_group(words, group_mask, or_mask=tag)
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
    """Per-term reference split over Python ints (parity oracle for the tests)."""
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
    if bit > ROW_MASK:
        return EMPTY
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
        merged.sort(kind="stable")
    return _frozen(merged)


def xor_merge(left: _np.ndarray, right: _np.ndarray) -> _np.ndarray:
    """Symmetric difference of two sorted slabs of distinct rows.

    Each operand holds distinct rows, so a shared row occurs exactly twice
    in the concatenation and the adjacent duplicates cancel (the C
    primitive does the same with one two-pointer merge).  Timsort merges
    the two sorted runs, and a pair that shares no row returns the merged
    buffer itself (:func:`_odd_runs`).
    """
    if not len(left):
        return right
    if not len(right):
        return left
    if _C is not None:
        return _c_rows(_C.xor_merge(left, right))
    merged = _np.concatenate((left, right))
    merged.sort(kind="stable")
    return _frozen(_odd_runs(merged))


def parity_merge(slabs: Sequence[_np.ndarray]) -> _np.ndarray:
    """Mod-2 reduction of a multiset of row slabs.

    The result holds the rows occurring an odd number of times across all
    slabs — the canonical term set of the XOR of the expressions the slabs
    represent.  One sorted sweep replaces the quadratic one-at-a-time XOR
    accumulation of products and substitutions.  Slabs need not be sorted
    or duplicate-free, so even a single slab is swept.  The sweep costs what
    the slabs cancel: a merge that cancels nothing returns the sorted
    concatenation itself (:func:`_odd_runs`).

    Slabs from expressions are sorted runs, which timsort ("stable") merges
    instead of re-partitioning from scratch; that beats a C radix sort of
    the concatenation (comparator-14's verify, 2-vCPU box: 99–144 ms
    against 234–264 ms).
    """
    alive = [s for s in slabs if len(s)]
    if not alive:
        return EMPTY
    # A fresh (writable) copy even for one slab: the sweep sorts in place.
    merged = _np.concatenate(alive)
    merged.sort(kind="stable")
    return _frozen(_odd_runs(merged))


def _odd_rows(rows: _np.ndarray) -> _np.ndarray:
    """Sort a fresh writable, run-free slab in place down to its odd-count rows.

    The default sort (introsort beats timsort on run-free data) works in
    place, so the sweep's boolean masks are the only scratch.
    """
    rows.sort()
    return _odd_runs(rows)


def _odd_runs(rows: _np.ndarray) -> _np.ndarray:
    """Rows of a sorted vector occurring an odd number of times.

    One ``eq`` pass marks each row equal to its successor.  Nothing equal:
    the vector itself is the answer.  No row three times: the survivors are
    the rows equal to neither neighbour.  Otherwise each odd run keeps its
    last row (:func:`_odd_run_ends`).  Every step is a boolean mask, one
    byte per row; no run boundary is built as an index.
    """
    eq = rows[1:] == rows[:-1]
    if not eq.any():
        return rows
    triples = (eq[1:] & eq[:-1]).any()
    last = _np.empty(len(rows), dtype=bool)  # the last row of each run
    _np.invert(eq, out=last[:-1])
    last[-1] = True
    del eq
    if not triples:
        keep = last.copy()
        keep[1:] &= last[:-1]  # equal to neither neighbour
        return rows[keep]
    return rows[_odd_run_ends(last)]


def _odd_run_ends(last: _np.ndarray) -> _np.ndarray:
    """The marks of ``last`` (run ends) that close a run of odd length.

    A run's length is its last index minus the previous run's, so it is odd
    when the two indices differ in parity; the first run is odd when its
    last index is even.  Sampling an alternating mask at the run ends gives
    every run's parity at once.
    """
    alternating = _np.zeros(len(last), dtype=bool)
    alternating[1::2] = True
    at_end = alternating[last]
    odd = _np.empty_like(at_end)
    odd[0] = not at_end[0]
    _np.not_equal(at_end[1:], at_end[:-1], out=odd[1:])
    keep = _np.zeros(len(last), dtype=bool)
    keep[last] = odd
    return keep


def product_rows(
    large: _np.ndarray, small_terms: Sequence[int], support: Optional[int] = None
) -> _np.ndarray:
    """Sorted canonical rows of ``XOR(small_terms) * large``.

    The small terms first reduce mod 2 (a term listed twice cancels).
    ``support`` is the OR of ``large``'s rows when the caller has it cached
    (``Anf.__and__`` does); without it the slab is folded here.  When no
    remaining term shares a variable with that support,
    ``(row, term) -> row | term`` is injective: every slab ``large | term``
    ascends, no two slabs share a row, and nothing can cancel.  Then the
    slabs are written into one buffer in ascending term order and merged as
    sorted runs (:func:`_disjoint_product`), on both bodies, with no parity
    sweep.  Otherwise each term contributes one ``row | term`` slab and the
    slabs reduce mod 2 in one sorted parity sweep (a product term can
    repeat — ``r1 | t1 == r2 | t2`` — when the factors overlap, so plain
    dedup is not enough).  A divide-and-conquer split bounds the transient
    slab memory of that sweep when both operands are large; the halves are
    themselves canonical, so they recombine with one :func:`xor_merge`.
    An empty operand on either side is the zero product.
    """
    terms: set = set()
    for term in small_terms:
        terms ^= {term & ROW_MASK}
    if not terms or not len(large):
        return EMPTY
    ordered = sorted(terms)
    span = 0
    for term in ordered:
        span |= term
    if support is None:
        support = support_fold(large)
    if span & support == 0:
        return _frozen(_disjoint_product(large, ordered))
    return _frozen(_product_rows_rec(large, ordered))


def _disjoint_product(rows: _np.ndarray, terms: List[int]) -> _np.ndarray:
    """``rows | term`` for ascending ``terms`` disjoint from the support.

    Each slab ascends, so the buffer is a sequence of sorted runs, no two of
    which share a row; it is already sorted when every run starts above the
    previous one's end, and one stable sort (timsort merges runs) sorts it
    otherwise.
    """
    out = _term_slabs(rows, terms)
    n = len(rows)
    if any(out[i * n - 1] > out[i * n] for i in range(1, len(terms))):
        out.sort(kind="stable")
    return out


def _term_slabs(rows: _np.ndarray, terms: List[int]) -> _np.ndarray:
    """One fresh buffer holding the slab ``rows | term`` of each term in turn."""
    n = len(rows)
    out = _np.empty(len(terms) * n, dtype=_np.uint64)
    for i, term in enumerate(terms):
        _np.bitwise_or(rows, _np.uint64(term), out=out[i * n : (i + 1) * n])
    return out


#: Transient row budget of one product parity sweep (~128 MB of u64 rows).
PRODUCT_SLAB_ROWS = 1 << 24


def _product_rows_rec(rows: _np.ndarray, terms: List[int]) -> _np.ndarray:
    if len(terms) * len(rows) <= PRODUCT_SLAB_ROWS or len(terms) <= 2:
        # Some term overlaps the support (disjoint products never get here),
        # so the slabs are unsorted and may collide.
        return _odd_rows(_term_slabs(rows, terms))
    mid = len(terms) // 2
    return xor_merge(
        _product_rows_rec(rows, terms[:mid]), _product_rows_rec(rows, terms[mid:])
    )


# ----------------------------------------------------------------------
# Scan helpers
# ----------------------------------------------------------------------
def or_into_all(words: _np.ndarray, mask: int) -> _np.ndarray:
    """``row | mask`` for every row; ascending whenever the mask is disjoint
    from the slab's support (the caller's precondition).  ``mask`` must fit
    a row."""
    return _frozen(words | _np.uint64(mask))


def support_fold(words: _np.ndarray) -> int:
    """OR of every row in one vector pass."""
    return int(_np.bitwise_or.reduce(words))


def shared_literal_count(left: _np.ndarray, right: _np.ndarray) -> int:
    """Total set bits over the rows present in both sorted slabs."""
    if not len(left) or not len(right):
        return 0
    if _C is not None:
        return _C.shared_literal_count(left, right)
    small, large = (left, right) if len(left) <= len(right) else (right, left)
    positions = _np.searchsorted(large, small)
    positions[positions == len(large)] = 0
    hits = large[positions] == small
    return popcount_rows(small[hits])


def popcount_rows(words: _np.ndarray) -> int:
    """Total set bits over a row slab (the literal count of a matrix):
    one vectorised ``bitwise_count`` and a sum."""
    return int(_np.bitwise_count(words).sum(dtype=_np.int64))


def clear_bits_all(words: _np.ndarray, mask: int) -> _np.ndarray:
    """``row & ~mask`` for every row; ascending whenever every row contains
    all of ``mask`` (the caller's precondition — tag stripping)."""
    return _frozen(words & _np.uint64(~mask & ROW_MASK))


def rows_contain_all(words: _np.ndarray, mask: int) -> bool:
    """True when every row contains every bit of ``mask`` (one vector pass).
    ``mask`` must fit a row."""
    m = _np.uint64(mask)
    return bool(((words & m) == m).all())
