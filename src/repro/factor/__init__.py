"""Classical algebraic factorisation (kernels, weak division, factoring).

This is the baseline technique the paper argues is insufficient for
XOR-dominated arithmetic circuits; it is also reused by the block-level
synthesiser to produce compact structures for small expressions.
"""

from .division import (
    common_cube,
    divide_by_cube,
    is_cube_free,
    literal_frequencies,
    make_cube_free,
    most_frequent_literal,
    weak_divide,
)
from .factoring import FactorNode, factor
from .kernels import Kernel, best_kernel, kernels

__all__ = [
    "FactorNode",
    "Kernel",
    "best_kernel",
    "common_cube",
    "divide_by_cube",
    "factor",
    "is_cube_free",
    "kernels",
    "literal_frequencies",
    "make_cube_free",
    "most_frequent_literal",
    "weak_divide",
]
