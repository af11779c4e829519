"""Hierarchies from effective online algorithms (paper Theorem 1 / Fig. 4)."""

from .scan import (
    OnlineSpec,
    online_adder_spec,
    online_comparator_spec,
    online_to_hierarchy_netlist,
    online_to_serial_netlist,
)

__all__ = [
    "OnlineSpec",
    "online_adder_spec",
    "online_comparator_spec",
    "online_to_hierarchy_netlist",
    "online_to_serial_netlist",
]
