"""Gate-level netlist substrate: structure, simulation, equivalence, statistics."""

from . import gates
from .convert import anf_to_netlist, netlist_to_anf, sop_to_netlist
from .dot import to_dot
from .equivalence import (
    EquivalenceResult,
    check_anf_specs_equal,
    check_netlist_against_anf,
    check_netlist_anf_exact,
    check_netlists_equivalent,
)
from .gates import GateError
from .netlist import Gate, Netlist
from .stats import StructureStats, structure_stats

__all__ = [
    "EquivalenceResult",
    "Gate",
    "GateError",
    "Netlist",
    "StructureStats",
    "anf_to_netlist",
    "check_anf_specs_equal",
    "check_netlist_against_anf",
    "check_netlist_anf_exact",
    "check_netlists_equivalent",
    "gates",
    "netlist_to_anf",
    "sop_to_netlist",
    "structure_stats",
    "to_dot",
]
