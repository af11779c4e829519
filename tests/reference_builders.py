"""The ring-emulating spec builders, kept verbatim as executable oracles.

``repro.benchcircuits`` builds the comparator, LZD, counter, majority and
three-input adder specs from their closed forms.  The builders here are
the ones those replaced: each emulates a ripple circuit (or an adder tree,
or a threshold recurrence) in the Boolean ring.  ``test_spec_builders.py``
builds both and asserts identical specs — output names and order, context
names, inputs, input words, term sets and canonical digest.  Apart from the
imports, this file is the old code unchanged; do not "improve" it.
"""

from typing import Dict

from repro.anf.builders import majority, variables
from repro.anf.context import Context
from repro.anf.expression import Anf, anf_product
from repro.anf.word import Word, popcount_word
from repro.benchcircuits import (
    ComparatorSpec,
    CounterSpec,
    LzdSpec,
    MajoritySpec,
    ThreeInputAdderSpec,
)
from repro.benchcircuits.lod import _position_indicators


def comparator_spec(width: int = 15, ctx: Context | None = None,
                    prefix_a: str = "a", prefix_b: str = "b") -> ComparatorSpec:
    """Canonical specification of the unsigned comparison ``A > B``."""
    if width < 1:
        raise ValueError("comparator needs at least one bit")
    ctx = ctx or Context()
    a = Word.inputs(ctx, prefix_a, width)
    b = Word.inputs(ctx, prefix_b, width)
    gt = a.greater_than(b)
    a_bits = [f"{prefix_a}{i}" for i in range(width)]
    b_bits = [f"{prefix_b}{i}" for i in range(width)]
    return ComparatorSpec(ctx, width, a_bits + b_bits, {"gt": gt}, [a_bits, b_bits])


def lzd_spec(width: int = 16, ctx: Context | None = None, prefix: str = "a") -> LzdSpec:
    """Flat LZD specification in canonical Reed-Muller form."""
    if width < 2:
        raise ValueError("LZD needs at least 2 input bits")
    ctx = ctx or Context()
    bits = ctx.bus(prefix, width)
    indicators = _position_indicators(ctx, bits, detect_one=True)
    position_bits = max(1, (width - 1).bit_length())
    outputs: Dict[str, Anf] = {}
    for k in range(position_bits):
        acc = Anf.zero(ctx)
        for i, indicator in enumerate(indicators):
            count = i if i < width else width - 1
            if count >> k & 1:
                acc = acc ^ indicator
        # All-zero input saturates the count at width-1.
        all_zero = anf_product([~Anf.var(ctx, bit) for bit in bits], ctx)
        if (width - 1) >> k & 1:
            acc = acc ^ all_zero
        outputs[f"z{k}"] = acc
    valid = Anf.zero(ctx)
    for bit in bits:
        valid = valid | Anf.var(ctx, bit)
    outputs["v"] = valid
    return LzdSpec(ctx, width, bits, outputs, [list(bits)])


def counter_spec(width: int = 16, ctx: Context | None = None, prefix: str = "a") -> CounterSpec:
    """Population count of ``width`` input bits, as canonical Reed-Muller outputs."""
    if width < 1:
        raise ValueError("counter needs at least one input")
    ctx = ctx or Context()
    bits = ctx.bus(prefix, width)
    count = popcount_word(ctx, [Anf.var(ctx, bit) for bit in bits])
    outputs = count.as_outputs("s")
    return CounterSpec(ctx, width, bits, outputs, [list(bits)])


def majority_spec(width: int = 15, ctx: Context | None = None, prefix: str = "a") -> MajoritySpec:
    """Majority of ``width`` inputs (true when at least ``(width+1)//2`` are one)."""
    if width < 1:
        raise ValueError("majority needs at least one input")
    ctx = ctx or Context()
    bits = ctx.bus(prefix, width)
    expr = majority(variables(ctx, bits), ctx)
    return MajoritySpec(ctx, width, bits, {"maj": expr}, [list(bits)])


def three_input_adder_spec(width: int = 8, ctx: Context | None = None,
                           prefix_a: str = "a", prefix_b: str = "b",
                           prefix_c: str = "c") -> ThreeInputAdderSpec:
    """Canonical specification of ``A + B + C`` for three ``width``-bit operands."""
    if width < 1:
        raise ValueError("three-input adder needs at least one bit")
    ctx = ctx or Context()
    a = Word.inputs(ctx, prefix_a, width)
    b = Word.inputs(ctx, prefix_b, width)
    c = Word.inputs(ctx, prefix_c, width)
    total = a.add(b).add(c)
    outputs = total.as_outputs("s")
    a_bits = [f"{prefix_a}{i}" for i in range(width)]
    b_bits = [f"{prefix_b}{i}" for i in range(width)]
    c_bits = [f"{prefix_c}{i}" for i in range(width)]
    return ThreeInputAdderSpec(
        ctx, width, a_bits + b_bits + c_bits, outputs, [a_bits, b_bits, c_bits]
    )
