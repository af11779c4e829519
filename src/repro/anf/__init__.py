"""Reed-Muller (Boolean ring) expression engine.

This package is the symbolic substrate of the reproduction: canonical
XOR-of-products expressions (:class:`Anf`), SOP cube lists, truth tables,
symbolic bit-vectors (:class:`Word`) and a small infix parser.  An
expression's term set is a packed :class:`TermMatrix` whenever its terms
fit 64-bit rows; the kernels keep a per-term loop for the sets that do not.
"""

from .bitset import BitsetKernel, kernel_for_exprs, kernel_for_support, truth_table
from .canonical import canonical_spec_digest, canonical_spec_payload
from .termmatrix import TermMatrix
from .builders import (
    and_all,
    elementary_symmetric,
    equivalent,
    false,
    full_adder,
    half_adder,
    implies,
    majority,
    mux,
    not_,
    or_all,
    parity,
    threshold,
    true,
    var,
    variables,
    xor_all,
)
from .context import Context, ContextError
from .expression import Anf, anf_or, anf_product, anf_xor, build_from_function
from .parser import ParseError, parse
from .sop import Cube, Sop, anf_to_sop
from .truthtable import TruthTable
from .word import Word, carry_save_reduce, popcount_word

__all__ = [
    "Anf",
    "TermMatrix",
    "BitsetKernel",
    "Context",
    "ContextError",
    "Cube",
    "ParseError",
    "Sop",
    "TruthTable",
    "Word",
    "and_all",
    "anf_or",
    "anf_product",
    "anf_to_sop",
    "anf_xor",
    "build_from_function",
    "canonical_spec_digest",
    "canonical_spec_payload",
    "carry_save_reduce",
    "elementary_symmetric",
    "equivalent",
    "false",
    "full_adder",
    "half_adder",
    "implies",
    "kernel_for_exprs",
    "kernel_for_support",
    "majority",
    "mux",
    "not_",
    "or_all",
    "parity",
    "parse",
    "popcount_word",
    "threshold",
    "true",
    "truth_table",
    "var",
    "variables",
    "xor_all",
]
