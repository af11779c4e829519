"""Reed-Muller (algebraic normal form) expressions over a Boolean ring.

An :class:`Anf` is an XOR of product terms (monomials) over the variables of a
:class:`~repro.anf.context.Context`.  Each monomial is stored as an integer
bitmask (bit *i* set means the variable with index *i* appears in the
product); the empty monomial (mask ``0``) is the constant ``1``.

The representation is canonical: two expressions denote the same Boolean
function if and only if their monomial sets are equal.  This is the property
the paper relies on ("the Reed-Muller form of an expression is unique, hence
the output of our algorithm is independent of the input description").

Operators:

``a ^ b``
    XOR (ring addition).
``a & b``
    AND (ring multiplication).
``a | b``
    Boolean OR, computed as ``a ⊕ b ⊕ ab``.
``~a``
    Complement, computed as ``1 ⊕ a``.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Iterator, Mapping

from . import sortkernel
from .context import Context
from .termmatrix import TERM_LIMIT, TermMatrix, xor_sorted


def _popcount(mask: int) -> int:
    return mask.bit_count()


#: Cached marker for expressions whose terms do not fit a 64-bit matrix row.
_UNPACKABLE = object()


class Anf:
    """An immutable Boolean-ring (XOR-of-products) expression.

    Derived metrics that the decomposition engine queries in its inner loops
    (:attr:`support_mask`, :attr:`degree`, :attr:`literal_count`) are computed
    lazily and cached; the expression itself is immutable so the caches never
    invalidate.

    The canonical monomial set has two interchangeable storages: a frozenset
    (``_terms``) and a packed :class:`~repro.anf.termmatrix.TermMatrix`
    (``_matrix``).  At least one is always present; the other is materialised
    on demand and cached.  Expressions produced by the packed kernels carry
    only the matrix, so the giant intermediates of the decomposition loop
    never pay for per-term frozenset construction unless a consumer asks for
    set semantics.
    """

    __slots__ = (
        "_ctx", "_terms", "_matrix", "_hash",
        "_support_mask", "_degree", "_literal_count",
    )

    def __init__(self, ctx: Context, terms: Iterable[int] = ()) -> None:
        """Build an expression from monomial bitmasks.

        Duplicate monomials cancel in pairs (mod-2 collection), matching the
        ring semantics.
        """
        if not isinstance(ctx, Context):
            raise TypeError("ctx must be a Context")
        collected: set[int] = set()
        for mask in terms:
            if mask < 0:
                raise ValueError("monomial masks must be non-negative integers")
            if mask in collected:
                collected.discard(mask)
            else:
                collected.add(mask)
        self._ctx = ctx
        self._terms: FrozenSet[int] | None = frozenset(collected)
        self._matrix = None
        self._hash: int | None = None
        self._support_mask: int | None = None
        self._degree: int | None = None
        self._literal_count: int | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _raw(cls, ctx: Context, terms: FrozenSet[int]) -> "Anf":
        """Internal constructor that trusts ``terms`` to already be reduced."""
        expr = object.__new__(cls)
        expr._ctx = ctx
        expr._terms = terms
        expr._matrix = None
        expr._hash = None
        expr._support_mask = None
        expr._degree = None
        expr._literal_count = None
        return expr

    @classmethod
    def _from_matrix(cls, ctx: Context, matrix: TermMatrix) -> "Anf":
        """Internal constructor from a canonical packed term matrix."""
        expr = object.__new__(cls)
        expr._ctx = ctx
        expr._terms = None
        expr._matrix = matrix
        expr._hash = None
        expr._support_mask = None
        expr._degree = None
        expr._literal_count = None
        return expr

    @classmethod
    def zero(cls, ctx: Context) -> "Anf":
        """The constant ``0``."""
        return cls._raw(ctx, frozenset())

    @classmethod
    def one(cls, ctx: Context) -> "Anf":
        """The constant ``1``."""
        return cls._raw(ctx, frozenset({0}))

    @classmethod
    def constant(cls, ctx: Context, value: int | bool) -> "Anf":
        """The constant ``0`` or ``1``."""
        return cls.one(ctx) if value else cls.zero(ctx)

    @classmethod
    def var(cls, ctx: Context, name: str) -> "Anf":
        """The single variable ``name`` (declared in ``ctx`` if new)."""
        index = ctx.add_var(name)
        return cls._raw(ctx, frozenset({1 << index}))

    @classmethod
    def monomial(cls, ctx: Context, names: Iterable[str]) -> "Anf":
        """A single product term over the given variables (``1`` if empty)."""
        mask = 0
        for name in names:
            mask |= 1 << ctx.add_var(name)
        return cls._raw(ctx, frozenset({mask}))

    @classmethod
    def from_monomial_names(cls, ctx: Context, monomials: Iterable[Iterable[str]]) -> "Anf":
        """XOR of product terms, each given as an iterable of variable names."""
        terms = []
        for names in monomials:
            mask = 0
            for name in names:
                mask |= 1 << ctx.add_var(name)
            terms.append(mask)
        return cls(ctx, terms)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def ctx(self) -> Context:
        """The variable context this expression belongs to."""
        return self._ctx

    @property
    def terms(self) -> FrozenSet[int]:
        """The monomial bitmasks (frozen, canonical; materialised on demand)."""
        terms = self._terms
        if terms is None:
            terms = frozenset(self._matrix.to_list())
            self._terms = terms
        return terms

    def term_matrix(self, build: bool = False) -> TermMatrix | None:
        """The packed term matrix, or ``None``.

        With ``build=False`` only an already-attached matrix is returned;
        ``build=True`` packs the frozenset (one C sort) unless some term does
        not fit a 64-bit row, in which case the failure is cached.
        """
        matrix = self._matrix
        if matrix is not None:
            return matrix if matrix is not _UNPACKABLE else None
        if not build:
            return None
        built = TermMatrix.from_terms(self._terms)
        self._matrix = built if built is not None else _UNPACKABLE
        return built

    def term_list(self) -> list[int]:
        """The monomials as a plain list (no frozenset materialisation)."""
        terms = self._terms
        if terms is None:
            return self._matrix.to_list()
        return list(terms)

    def term_key(self):
        """Canonical hashable key for term-set equality across representations.

        Any set that packs gets the matrix's canonical bytes (O(n/8), no
        per-term hashing); a set that cannot pack (a >64-bit term) can never
        equal one that does, so the frozenset fallback preserves the
        equality relation.  The pair merges key their seconds with it.
        """
        matrix = self.term_matrix(build=True)
        if matrix is not None:
            return matrix.key()
        return self.terms

    @property
    def num_terms(self) -> int:
        """Number of monomials in the Reed-Muller form."""
        terms = self._terms
        if terms is None:
            return self._matrix.count
        return len(terms)

    @property
    def is_zero(self) -> bool:
        return self.num_terms == 0

    @property
    def is_one(self) -> bool:
        terms = self._terms
        if terms is None:
            matrix = self._matrix
            return matrix.count == 1 and int(matrix.words[0]) == 0
        return terms == frozenset({0})

    @property
    def is_constant(self) -> bool:
        return self.is_zero or self.is_one

    @property
    def is_literal(self) -> bool:
        """True when the expression is exactly one variable."""
        if self.num_terms != 1:
            return False
        (mask,) = self.term_list()
        return mask != 0 and (mask & (mask - 1)) == 0

    @property
    def literal_name(self) -> str:
        """The variable name when :attr:`is_literal`, otherwise an error."""
        if not self.is_literal:
            raise ValueError("expression is not a single literal")
        (mask,) = self.term_list()
        return self._ctx.name(mask.bit_length() - 1)

    @property
    def support_mask(self) -> int:
        """Bitmask of every variable appearing in the expression (cached)."""
        mask = self._support_mask
        if mask is None:
            matrix = self._matrix
            if matrix is not None and matrix is not _UNPACKABLE:
                mask = matrix.support_mask()
            else:
                mask = 0
                for term in self._terms:
                    mask |= term
            self._support_mask = mask
        return mask

    @property
    def support(self) -> tuple[str, ...]:
        """Names of the variables appearing in the expression."""
        return self._ctx.names_of(self.support_mask)

    @property
    def degree(self) -> int:
        """Largest monomial size (0 for constants, cached)."""
        degree = self._degree
        if degree is None:
            if self.num_terms == 0:
                degree = 0
            else:
                degree = max(mask.bit_count() for mask in self.term_list())
            self._degree = degree
        return degree

    @property
    def literal_count(self) -> int:
        """Total number of literal occurrences (the paper's size metric, cached).

        Matrix-backed expressions answer with one vectorised popcount of
        the packed view instead of a per-term sum.
        """
        count = self._literal_count
        if count is None:
            matrix = self._matrix
            if matrix is not None and matrix is not _UNPACKABLE:
                count = matrix.literal_count()
            else:
                count = sum(mask.bit_count() for mask in self._terms)
            self._literal_count = count
        return count

    def depends_on(self, name: str) -> bool:
        """True when the variable ``name`` appears in some monomial."""
        if name not in self._ctx:
            return False
        bit = 1 << self._ctx.index(name)
        return bool(self.support_mask & bit)

    # ------------------------------------------------------------------
    # Ring operations
    # ------------------------------------------------------------------
    def _check(self, other: "Anf") -> None:
        if not isinstance(other, Anf):
            raise TypeError(f"expected Anf, got {type(other).__name__}")
        self._ctx.require_same(other._ctx)

    def __xor__(self, other: "Anf") -> "Anf":
        self._check(other)
        left, right = self._terms, other._terms
        if left is None or right is None:
            # At least one operand is matrix-only: keep the result packed so
            # the pipeline's giant intermediates never round-trip through
            # frozensets (the merge loops XOR matrix-backed pair seconds).
            left_matrix = self.term_matrix(build=True)
            right_matrix = other.term_matrix(build=True)
            if left_matrix is not None and right_matrix is not None:
                return Anf._from_matrix(self._ctx, xor_sorted(left_matrix, right_matrix))
            left, right = self.terms, other.terms
        return Anf._raw(self._ctx, left.symmetric_difference(right))

    def __and__(self, other: "Anf") -> "Anf":
        self._check(other)
        if self.is_zero or other.is_zero:
            return Anf.zero(self._ctx)
        if self.is_one:
            return other
        if other.is_one:
            return self
        small, large = (self, other)
        if small.num_terms > large.num_terms:
            small, large = large, small
        disjoint = self.support_mask & other.support_mask == 0
        if disjoint and small.num_terms == 1:
            # A fresh-variable (tag/block) multiply: OR one mask into every
            # term.  Keep it word-parallel when the big operand is (or is
            # worth making) matrix-backed — this is the hot product of the
            # combine and rewrite stages.
            matrix = large.term_matrix(
                build=large.num_terms >= sortkernel.KERNEL_MIN_ROWS
            )
            (mask,) = small.term_list()
            if matrix is not None and mask < TERM_LIMIT:
                return Anf._from_matrix(self._ctx, matrix.or_all(mask))
        if (
            large.num_terms >= sortkernel.KERNEL_MIN_ROWS
            and small.support_mask < TERM_LIMIT
        ):
            # Distribute the small operand over the large one's matrix: each
            # small term is one vectorised OR sweep, and the partial slabs
            # cancel mod 2 in a single sorted parity sweep.  The result stays
            # matrix-backed, so chained products (spec builders, flatten)
            # never round-trip through frozensets.
            matrix = large.term_matrix(build=True)
            if matrix is not None:
                rows = sortkernel.product_rows(
                    matrix.words, small.term_list(), large.support_mask
                )
                return Anf._from_matrix(self._ctx, TermMatrix(rows))
        if disjoint:
            # Disjoint supports make (left, right) -> left | right injective
            # (each factor is recovered by masking with its own support), so
            # no mod-2 cancellation can occur and the pairwise unions are the
            # product's canonical term set as-is.
            return Anf._raw(
                self._ctx,
                frozenset(left | right for left in self.terms for right in other.terms),
            )
        # Multiply the smaller operand into the larger one.
        acc: set[int] = set()
        for left in small.terms:
            for right in large.terms:
                product = left | right
                if product in acc:
                    acc.discard(product)
                else:
                    acc.add(product)
        return Anf._raw(self._ctx, frozenset(acc))

    def cached_and(self, other: "Anf") -> "Anf":
        """Ring product via the context-scoped memo.

        The rewrite step multiplies the same ``replacement`` into the same
        tag components over and over across ports and iterations; memoising
        on the (canonical, hash-cached) term sets makes the repeats O(1).
        Only worthwhile for products that are themselves non-trivial — tiny
        operands go straight to :meth:`__and__`.
        """
        self._check(other)
        if self.num_terms * other.num_terms < 4:
            return self & other
        if (self.num_terms == 1 or other.num_terms == 1) and (
            self.support_mask & other.support_mask == 0
        ):
            # Single-variable disjoint products run word-parallel in
            # :meth:`__and__`; skipping the memo keeps giant matrix-backed
            # operands from materialising frozensets for the memo key.
            return self & other
        memo = self._ctx._product_memo
        # Products commute; normalise the key so (a, b) and (b, a) share one
        # memo slot (hash ties keep both orders as distinct keys, which is
        # merely a missed dedup, never a wrong answer).
        left, right = self.terms, other.terms
        if hash(left) > hash(right):
            left, right = right, left
        key = (left, right)
        product = memo.get(key)
        if product is None:
            product = self & other
            if len(memo) >= Context.PRODUCT_MEMO_LIMIT:
                memo.clear()
            memo[key] = product
        return product

    def __or__(self, other: "Anf") -> "Anf":
        self._check(other)
        return self ^ other ^ self.cached_and(other)

    def __invert__(self) -> "Anf":
        if self._terms is None:
            # Matrix-only operand: complement via the packed XOR so giant
            # intermediates (spec-builder borrow chains) stay matrix-backed.
            return self ^ Anf.one(self._ctx)
        return Anf._raw(self._ctx, self._terms.symmetric_difference({0}))

    def __bool__(self) -> bool:
        return not self.is_zero

    # ------------------------------------------------------------------
    # Equality / hashing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Anf):
            return NotImplemented
        if self._ctx is not other._ctx:
            return False
        left, right = self._terms, other._terms
        if left is not None and right is not None:
            return left == right
        # At least one side is matrix-only.  Matrices are canonical, so two
        # packed sides compare by rows; for a mixed pair try the cheap
        # invariants before materialising a giant frozenset.
        if self.num_terms != other.num_terms:
            return False
        left_matrix = self.term_matrix()
        right_matrix = other.term_matrix()
        if left_matrix is not None and right_matrix is not None:
            return left_matrix.equal_rows(right_matrix)
        if self.support_mask != other.support_mask:
            return False
        if self.literal_count != other.literal_count:
            return False
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((id(self._ctx), self.terms))
        return self._hash

    # ------------------------------------------------------------------
    # Evaluation and substitution
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Mapping[str, int | bool]) -> int:
        """Evaluate under a full assignment of the expression's support.

        Variables outside the support may be omitted; support variables must
        all be present.
        """
        ones_mask = 0
        known_mask = 0
        for name, value in assignment.items():
            if name not in self._ctx:
                continue
            bit = 1 << self._ctx.index(name)
            known_mask |= bit
            if value:
                ones_mask |= bit
        missing = self.support_mask & ~known_mask
        if missing:
            names = self._ctx.names_of(missing)
            raise ValueError(f"assignment is missing variables: {', '.join(names)}")
        result = 0
        for term in self._term_iterable():
            if term & ones_mask == term:
                result ^= 1
        return result

    def evaluate_mask(self, ones_mask: int) -> int:
        """Evaluate with variable values given as a bitmask of true variables."""
        # Iterate whichever storage is live: truth-table loops call this once
        # per assignment, so it must not build (and cache) a frozenset.
        result = 0
        for term in self._term_iterable():
            if term & ones_mask == term:
                result ^= 1
        return result

    def _term_iterable(self):
        """The live storage's terms as Python ints, with no frozenset built.

        Matrix rows go through ``tolist()``: ``np.uint64`` scalars would
        raise on masks wider than a row (contexts past 64 variables).
        """
        terms = self._terms
        return terms if terms is not None else self._matrix.to_list()

    def substitute(self, mapping: Mapping[str, "Anf"]) -> "Anf":
        """Replace variables by expressions (simultaneously).

        Variables not present in ``mapping`` are left unchanged.  All
        replacement expressions must belong to the same context.
        """
        if not mapping:
            return self
        replace: Dict[int, Anf] = {}
        for name, expr in mapping.items():
            if not isinstance(expr, Anf):
                raise TypeError(f"replacement for {name!r} must be an Anf")
            self._ctx.require_same(expr._ctx)
            if name in self._ctx:
                replace[self._ctx.index(name)] = expr
        if not replace:
            return self
        replace_mask = 0
        for index in replace:
            replace_mask |= 1 << index

        cache: Dict[int, Anf] = {}

        def substituted_monomial(term: int) -> Anf:
            cached = cache.get(term)
            if cached is not None:
                return cached
            untouched = term & ~replace_mask
            result = Anf._raw(self._ctx, frozenset({untouched}))
            touched = term & replace_mask
            index = 0
            while touched:
                if touched & 1:
                    result = result & replace[index]
                    if result.is_zero:
                        break
                touched >>= 1
                index += 1
            cache[term] = result
            return result

        return xor_accumulate(
            (substituted_monomial(term) for term in self.term_list()), self._ctx
        )

    def cofactor(self, name: str, value: int | bool) -> "Anf":
        """Shannon cofactor: the expression with ``name`` fixed to ``value``."""
        if name not in self._ctx:
            return self
        bit = 1 << self._ctx.index(name)
        acc: set[int] = set()
        if value:
            for term in self.term_list():
                reduced = term & ~bit
                if reduced in acc:
                    acc.discard(reduced)
                else:
                    acc.add(reduced)
        else:
            for term in self.term_list():
                if term & bit:
                    continue
                if term in acc:
                    acc.discard(term)
                else:
                    acc.add(term)
        return Anf._raw(self._ctx, frozenset(acc))

    def derivative(self, name: str) -> "Anf":
        """Boolean derivative d/d(name) = f|name=1 ⊕ f|name=0."""
        return self.cofactor(name, 1) ^ self.cofactor(name, 0)

    # ------------------------------------------------------------------
    # Structure helpers used by the decomposition engine
    # ------------------------------------------------------------------
    def split_by_group(self, group_mask: int) -> tuple[dict[int, "Anf"], "Anf"]:
        """Partition the expression by the group-variable part of each monomial.

        Returns ``(bucket, remainder)`` where ``bucket[g]`` is the XOR of the
        non-group parts of all monomials whose group part equals ``g`` (with
        ``g != 0``), and ``remainder`` collects the monomials containing no
        group variable at all.  The expression equals
        ``XOR_g (g & bucket[g]) ^ remainder``.

        The terms are distinct and (group part, rest part) determines the
        term, so no mod-2 cancellation can occur while bucketing and every
        bucket is non-empty.
        """
        ctx = self._ctx
        matrix = self.term_matrix(build=True)
        if matrix is not None:
            # One stable bucketing keyed by the group part of every row:
            # rows sharing a group part keep their ascending order, and
            # clearing the shared part preserves it, so the buckets are born
            # canonical.
            runs, remainder = sortkernel.split_runs_by_group(matrix.words, group_mask)
            buckets = {
                group_part: Anf._from_matrix(ctx, TermMatrix(rest))
                for group_part, rest in runs
            }
            return buckets, Anf._from_matrix(ctx, TermMatrix(remainder))
        rows_of: dict[int, list[int]] = {}
        rest_rows: list[int] = []
        for term in self._terms:
            group_part = term & group_mask
            if group_part == 0:
                rest_rows.append(term)
            else:
                rows = rows_of.get(group_part)
                if rows is None:
                    rows_of[group_part] = rows = []
                rows.append(term ^ group_part)
        buckets = {
            group_part: Anf._raw(ctx, frozenset(rows))
            for group_part, rows in rows_of.items()
        }
        return buckets, Anf._raw(ctx, frozenset(rest_rows))

    def restricted_to(self, mask: int) -> bool:
        """True when every monomial only uses variables inside ``mask``."""
        return self.support_mask & ~mask == 0

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def sorted_terms(self) -> list[int]:
        """Monomials sorted by (size, variable indices) for stable printing."""
        return sorted(self.term_list(), key=lambda mask: (_popcount(mask), mask))

    def to_str(self, xor_symbol: str = " ^ ", and_symbol: str = "*") -> str:
        """Readable rendering, e.g. ``a ^ b*c ^ 1``."""
        if self.is_zero:
            return "0"
        parts = []
        for mask in self.sorted_terms():
            if mask == 0:
                parts.append("1")
            else:
                parts.append(and_symbol.join(self._ctx.names_of(mask)))
        return xor_symbol.join(parts)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        text = self.to_str()
        if len(text) > 120:
            text = f"<{self.num_terms} terms over {len(self.support)} vars>"
        return f"Anf({text})"

    def __iter__(self) -> Iterator[int]:
        return iter(self.terms)

    def __len__(self) -> int:
        return self.num_terms


def xor_accumulate(exprs: Iterable[Anf], ctx: Context) -> Anf:
    """XOR many expressions in one mod-2 sweep instead of pairwise folds.

    Folding ``total ^= piece`` re-traverses the accumulated set once per
    piece — quadratic in the result size, which is what dominated
    ``Decomposition.verify`` on the full-width sweeps.  When every piece
    packs, the pieces' slabs reduce in a single sorted parity pass; any
    unpackable piece degrades to the fold.
    """
    # Stream the pieces, batching their slabs against a row budget: the
    # transient concatenation stays O(budget + result) even when the pieces
    # are individually giant but mostly cancel, and the pieces themselves
    # are never all held at once (callers may pass a generator).
    accumulated = None
    batch: list = []
    batch_rows = 0
    last_alive: Anf | None = None
    alive_count = 0
    residue: Anf | None = None
    for expr in exprs:
        if expr.is_zero:
            continue
        alive_count += 1
        if residue is not None:
            residue = residue ^ expr
            continue
        matrix = expr.term_matrix(build=True)
        if matrix is None:
            # An unpackable piece: collapse what is batched so far and fall
            # back to pairwise folds for the rest of the stream.
            merged = batch if accumulated is None else [accumulated, *batch]
            rows = sortkernel.parity_merge(merged)
            residue = Anf._from_matrix(ctx, TermMatrix(rows)) ^ expr
            batch, batch_rows = [], 0
            continue
        last_alive = expr
        batch.append(matrix.words)
        batch_rows += matrix.count
        if batch_rows >= sortkernel.PRODUCT_SLAB_ROWS:
            merged = batch if accumulated is None else [accumulated, *batch]
            accumulated = sortkernel.parity_merge(merged)
            batch, batch_rows = [], 0
    if residue is not None:
        return residue
    if alive_count == 0:
        return Anf.zero(ctx)
    if alive_count == 1 and last_alive is not None:
        return last_alive
    merged = batch if accumulated is None else [accumulated, *batch]
    return Anf._from_matrix(
        ctx, TermMatrix(sortkernel.parity_merge(merged))
    )


def anf_product(exprs: Iterable[Anf], ctx: Context) -> Anf:
    """AND together a sequence of expressions (``1`` for an empty sequence)."""
    result = Anf.one(ctx)
    for expr in exprs:
        result = result & expr
        if result.is_zero:
            break
    return result


def anf_xor(exprs: Iterable[Anf], ctx: Context) -> Anf:
    """XOR together a sequence of expressions (``0`` for an empty sequence)."""
    return xor_accumulate(exprs, ctx)


def anf_or(exprs: Iterable[Anf], ctx: Context) -> Anf:
    """OR together a sequence of expressions (``0`` for an empty sequence)."""
    result = Anf.zero(ctx)
    for expr in exprs:
        result = result | expr
    return result


def build_from_function(
    ctx: Context, names: list[str], function: Callable[[tuple[int, ...]], int | bool]
) -> Anf:
    """Build the ANF of an arbitrary Boolean function by Moebius transform.

    ``function`` receives a tuple of 0/1 values ordered like ``names`` and
    must return the function value.  Exponential in ``len(names)``; intended
    for specifications of at most ~20 variables.
    """
    n = len(names)
    if n > 24:
        raise ValueError("build_from_function is exponential; refusing more than 24 variables")
    size = 1 << n
    values = bytearray(size)
    for point in range(size):
        bits = tuple((point >> i) & 1 for i in range(n))
        values[point] = 1 if function(bits) else 0
    # In-place Moebius (zeta) transform over GF(2).
    step = 1
    while step < size:
        for block in range(0, size, step << 1):
            for offset in range(block, block + step):
                values[offset + step] ^= values[offset]
        step <<= 1
    indices = [ctx.add_var(name) for name in names]
    terms = []
    for point in range(size):
        if values[point]:
            mask = 0
            for local_bit in range(n):
                if point >> local_bit & 1:
                    mask |= 1 << indices[local_bit]
            terms.append(mask)
    return Anf(ctx, terms)
