"""Variable registry shared by all expressions of one problem instance.

Every :class:`~repro.anf.expression.Anf` stores its monomials as integer
bitmasks; a :class:`Context` owns the mapping between variable names and bit
positions.  Expressions can only be combined when they share a context, which
keeps bitmask indices consistent and makes mixing unrelated problems an error
instead of a silent bug.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class ContextError(ValueError):
    """Raised when variables or expressions from different contexts are mixed."""


class Context:
    """Registry of Boolean variables for one decomposition problem.

    Variables are identified by name (a non-empty string) and are assigned
    consecutive bit positions in the order they are declared.  The bit
    position of a variable never changes once assigned, so bitmask-encoded
    monomials remain valid for the lifetime of the context.
    """

    __slots__ = ("_name_to_index", "_names", "_product_memo", "_kernels")

    #: Bound on the number of memoised products / truth-table kernels kept per
    #: context; both caches are cleared wholesale when they outgrow it.
    PRODUCT_MEMO_LIMIT = 1 << 14
    KERNEL_LIMIT = 64

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._name_to_index: dict[str, int] = {}
        self._names: list[str] = []
        # Caches scoped to this context (see Anf.cached_and and anf.bitset):
        # expression products recur heavily in the rewrite step, and truth
        # bitset kernels recur per support set in the identity search.
        self._product_memo: dict = {}
        self._kernels: dict = {}
        for name in names:
            self.add_var(name)

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def add_var(self, name: str) -> int:
        """Declare ``name`` (if new) and return its bit position."""
        if not isinstance(name, str) or not name:
            raise ContextError(f"variable name must be a non-empty string, got {name!r}")
        index = self._name_to_index.get(name)
        if index is None:
            index = len(self._names)
            self._name_to_index[name] = index
            self._names.append(name)
        return index

    def add_vars(self, names: Iterable[str]) -> list[int]:
        """Declare several variables and return their bit positions."""
        return [self.add_var(name) for name in names]

    def bus(self, prefix: str, width: int, start: int = 0) -> list[str]:
        """Declare ``width`` variables ``prefix0 .. prefix{width-1}`` (LSB first).

        Returns the list of names ordered from least significant (index
        ``start``) to most significant.
        """
        if width < 0:
            raise ContextError(f"bus width must be non-negative, got {width}")
        names = [f"{prefix}{i}" for i in range(start, start + width)]
        self.add_vars(names)
        return names

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def index(self, name: str) -> int:
        """Bit position of a declared variable."""
        try:
            return self._name_to_index[name]
        except KeyError:
            raise ContextError(f"unknown variable {name!r}") from None

    def name(self, index: int) -> str:
        """Name of the variable at bit position ``index``."""
        try:
            return self._names[index]
        except IndexError:
            raise ContextError(f"no variable with index {index}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._name_to_index

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    @property
    def names(self) -> tuple[str, ...]:
        """All declared variable names in declaration order."""
        return tuple(self._names)

    # ------------------------------------------------------------------
    # Mask helpers
    # ------------------------------------------------------------------
    def mask_of(self, names: Iterable[str]) -> int:
        """Bitmask with the bits of all the given variables set."""
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        """Variable names present in a monomial bitmask, in index order."""
        if mask < 0:
            raise ContextError("monomial masks must be non-negative")
        names = []
        index = 0
        while mask:
            if mask & 1:
                names.append(self.name(index))
            mask >>= 1
            index += 1
        return tuple(names)

    def monomial_str(self, mask: int) -> str:
        """Human-readable rendering of one monomial (``1`` for the empty one)."""
        if mask == 0:
            return "1"
        return "*".join(self.names_of(mask))

    def require_same(self, other: "Context") -> None:
        """Raise :class:`ContextError` unless ``other`` is this same context."""
        if other is not self:
            raise ContextError("expressions belong to different contexts")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        preview = ", ".join(self._names[:8])
        if len(self._names) > 8:
            preview += ", ..."
        return f"Context({len(self._names)} vars: {preview})"
