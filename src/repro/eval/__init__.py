"""Evaluation harness: flows, Table 1 regeneration, figure reproductions."""

from .figures import (
    Figure4Result,
    Figure6Result,
    Figure12Result,
    figure1_vs_figure2,
    figure4_online_hierarchy,
    figure6_majority7_trace,
)
from .flows import FlowResult, run_baseline_flow, run_progressive_flow, run_structural_flow
from .table1 import (
    PAPER_TABLE1,
    PaperNumbers,
    Table1Row,
    build_table1,
    format_table1,
    pd_width_for_row,
    row_adder,
    row_comparator,
    row_counter,
    row_lod,
    row_lzd,
    row_majority,
    row_three_input_adder,
)

__all__ = [
    "PAPER_TABLE1",
    "PaperNumbers",
    "Figure4Result",
    "Figure6Result",
    "Figure12Result",
    "FlowResult",
    "Table1Row",
    "build_table1",
    "figure1_vs_figure2",
    "figure4_online_hierarchy",
    "figure6_majority7_trace",
    "format_table1",
    "pd_width_for_row",
    "row_adder",
    "row_comparator",
    "row_counter",
    "row_lod",
    "row_lzd",
    "row_majority",
    "row_three_input_adder",
    "run_baseline_flow",
    "run_progressive_flow",
    "run_structural_flow",
]
