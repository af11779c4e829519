"""Symbolic bit-vectors (words) of ANF expressions.

A :class:`Word` is an unsigned little-endian vector of :class:`Anf` bits.  It
provides the integer arithmetic used to specify the paper's benchmark
circuits (adders, comparators, counters, leading-zero/one detectors) directly
as Reed-Muller expressions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .builders import full_adder, mux
from .context import Context
from .expression import Anf


class Word:
    """Little-endian vector of Boolean expressions representing an unsigned int."""

    __slots__ = ("_ctx", "_bits")

    def __init__(self, ctx: Context, bits: Iterable[Anf]) -> None:
        bits = list(bits)
        for bit in bits:
            if not isinstance(bit, Anf):
                raise TypeError("Word bits must be Anf expressions")
            ctx.require_same(bit.ctx)
        self._ctx = ctx
        self._bits = bits

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def inputs(cls, ctx: Context, prefix: str, width: int) -> "Word":
        """Fresh input word ``prefix0 .. prefix{width-1}`` (LSB first)."""
        names = ctx.bus(prefix, width)
        return cls(ctx, [Anf.var(ctx, name) for name in names])

    @classmethod
    def constant(cls, ctx: Context, value: int, width: int) -> "Word":
        """Constant word of the given width."""
        if value < 0:
            raise ValueError("Word constants must be non-negative")
        bits = [Anf.constant(ctx, (value >> i) & 1) for i in range(width)]
        return cls(ctx, bits)

    @classmethod
    def zeros(cls, ctx: Context, width: int) -> "Word":
        """All-zero word."""
        return cls.constant(ctx, 0, width)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    @property
    def ctx(self) -> Context:
        return self._ctx

    @property
    def bits(self) -> list[Anf]:
        """The bits, least significant first (a copy)."""
        return list(self._bits)

    @property
    def width(self) -> int:
        return len(self._bits)

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self) -> Iterator[Anf]:
        return iter(self._bits)

    def __getitem__(self, index: int | slice) -> "Anf | Word":
        if isinstance(index, slice):
            return Word(self._ctx, self._bits[index])
        return self._bits[index]

    def bit(self, index: int) -> Anf:
        """Bit ``index`` (0 = least significant); zero beyond the width."""
        if 0 <= index < len(self._bits):
            return self._bits[index]
        return Anf.zero(self._ctx)

    def zero_extend(self, width: int) -> "Word":
        """Extend with constant-zero bits up to ``width``."""
        if width < self.width:
            raise ValueError("cannot zero-extend to a smaller width")
        extra = [Anf.zero(self._ctx)] * (width - self.width)
        return Word(self._ctx, self._bits + extra)

    def truncate(self, width: int) -> "Word":
        """Keep only the ``width`` least significant bits."""
        return Word(self._ctx, self._bits[:width])

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def add(self, other: "Word", carry_in: Anf | None = None, keep_carry: bool = True) -> "Word":
        """Ripple-carry addition; the result is one bit wider when ``keep_carry``."""
        self._ctx.require_same(other.ctx)
        width = max(self.width, other.width)
        carry = carry_in if carry_in is not None else Anf.zero(self._ctx)
        bits: list[Anf] = []
        for i in range(width):
            total, carry = full_adder(self.bit(i), other.bit(i), carry)
            bits.append(total)
        if keep_carry:
            bits.append(carry)
        return Word(self._ctx, bits)

    def __add__(self, other: "Word") -> "Word":
        return self.add(other)

    def sub(self, other: "Word") -> tuple["Word", Anf]:
        """Subtraction ``self - other`` (two's complement).

        Returns ``(difference, borrow)`` where ``borrow`` is true when
        ``other > self``.  The difference has the width of the wider operand.
        """
        self._ctx.require_same(other.ctx)
        width = max(self.width, other.width)
        carry = Anf.one(self._ctx)
        bits: list[Anf] = []
        for i in range(width):
            total, carry = full_adder(self.bit(i), ~other.bit(i), carry)
            bits.append(total)
        borrow = ~carry
        return Word(self._ctx, bits), borrow

    def greater_than(self, other: "Word") -> Anf:
        """Unsigned ``self > other``."""
        _, borrow = other.sub(self)
        return borrow

    def less_than(self, other: "Word") -> Anf:
        """Unsigned ``self < other``."""
        _, borrow = self.sub(other)
        return borrow

    def equals(self, other: "Word") -> Anf:
        """Bitwise equality of the two words (width-extended)."""
        self._ctx.require_same(other.ctx)
        width = max(self.width, other.width)
        result = Anf.one(self._ctx)
        for i in range(width):
            result = result & ~(self.bit(i) ^ other.bit(i))
        return result

    def select(self, condition: Anf, other: "Word") -> "Word":
        """Word-wise multiplexer: ``self`` when ``condition`` else ``other``."""
        self._ctx.require_same(other.ctx)
        width = max(self.width, other.width)
        bits = [mux(condition, self.bit(i), other.bit(i)) for i in range(width)]
        return Word(self._ctx, bits)

    def shifted_left(self, amount: int) -> "Word":
        """Logical left shift by a constant amount (width grows)."""
        if amount < 0:
            raise ValueError("shift amount must be non-negative")
        zeros = [Anf.zero(self._ctx)] * amount
        return Word(self._ctx, zeros + self._bits)

    # ------------------------------------------------------------------
    # Evaluation helpers (used heavily by tests)
    # ------------------------------------------------------------------
    def evaluate(self, assignment: dict[str, int]) -> int:
        """Evaluate the word to an integer under a variable assignment."""
        value = 0
        for i, bit in enumerate(self._bits):
            if bit.evaluate(assignment):
                value |= 1 << i
        return value

    def as_outputs(self, prefix: str) -> dict[str, Anf]:
        """Name the bits ``prefix0..`` and return an output dictionary."""
        return {f"{prefix}{i}": bit for i, bit in enumerate(self._bits)}


def popcount_word(ctx: Context, bits: Sequence[Anf]) -> Word:
    """Population count of the given bits as a word (adder-tree construction)."""
    words = [Word(ctx, [bit]) for bit in bits]
    if not words:
        return Word.constant(ctx, 0, 1)
    while len(words) > 1:
        next_round: list[Word] = []
        for i in range(0, len(words) - 1, 2):
            next_round.append(words[i].add(words[i + 1]))
        if len(words) % 2:
            next_round.append(words[-1])
        words = next_round
    return words[0]


def carry_save_reduce(ctx: Context, operands: Sequence[Word]) -> tuple[Word, Word]:
    """Reduce three or more operands to two using 3:2 carry-save adders.

    Returns ``(sum_word, carry_word)`` such that the true total equals
    ``sum_word + carry_word`` (as integers).
    """
    pending = [list(op.bits) for op in operands]
    if len(pending) < 2:
        raise ValueError("carry_save_reduce needs at least two operands")
    while len(pending) > 2:
        a, b, c = pending[0], pending[1], pending[2]
        width = max(len(a), len(b), len(c))

        def bit_of(vec: list[Anf], i: int) -> Anf:
            return vec[i] if i < len(vec) else Anf.zero(ctx)

        sums: list[Anf] = []
        carries: list[Anf] = [Anf.zero(ctx)]
        for i in range(width):
            s, cy = full_adder(bit_of(a, i), bit_of(b, i), bit_of(c, i))
            sums.append(s)
            carries.append(cy)
        pending = [sums, carries] + pending[3:]
    return Word(ctx, pending[0]), Word(ctx, pending[1])
