"""Progressive Decomposition — the paper's primary contribution.

The public entry point is :func:`progressive_decomposition`; the submodules
expose the individual procedures of the algorithm (Fig. 5 of the paper) for
finer-grained use and for the ablation benchmarks.
"""

from .basis import BasisExtraction, combine_with_tags, extract_basis, tag_name_for
from .decompose import (
    Block,
    Decomposition,
    DecompositionOptions,
    IterationRecord,
    progressive_decomposition,
)
from .grouping import find_group, group_from_primary_inputs, score_group, support_of_outputs
from .identities import Identity, IdentityAnalysis, find_identities, reduce_basis_using_identities
from .nullspace import (
    NullSpaceTable,
    ideal_contains,
    ideal_product_generator,
    split_over_ideals,
)
from .optimize import improve_basis_by_size_reduction, minimize_basis_by_linear_dependence
from .pairs import Pair, PairList, initial_pairs, merge_equal_parts, merge_with_nullspaces
from .rewrite import extract_tag_component, rewrite_identities, rewrite_outputs
from .structure import HierarchyStats, decomposition_to_netlist, hierarchy_stats
from .verify import (
    VerificationError,
    check_rewrite_invariant,
    flatten_port_via_dag,
    semantically_equal,
    substitute_bits,
    verify_decomposition,
    verify_ports,
)

__all__ = [
    "BasisExtraction",
    "Block",
    "VerificationError",
    "check_rewrite_invariant",
    "flatten_port_via_dag",
    "semantically_equal",
    "substitute_bits",
    "verify_decomposition",
    "verify_ports",
    "Decomposition",
    "DecompositionOptions",
    "HierarchyStats",
    "Identity",
    "IdentityAnalysis",
    "IterationRecord",
    "NullSpaceTable",
    "Pair",
    "PairList",
    "combine_with_tags",
    "decomposition_to_netlist",
    "extract_basis",
    "extract_tag_component",
    "find_group",
    "find_identities",
    "group_from_primary_inputs",
    "hierarchy_stats",
    "ideal_contains",
    "ideal_product_generator",
    "improve_basis_by_size_reduction",
    "initial_pairs",
    "merge_equal_parts",
    "merge_with_nullspaces",
    "minimize_basis_by_linear_dependence",
    "progressive_decomposition",
    "reduce_basis_using_identities",
    "rewrite_identities",
    "rewrite_outputs",
    "score_group",
    "split_over_ideals",
    "support_of_outputs",
    "tag_name_for",
]
