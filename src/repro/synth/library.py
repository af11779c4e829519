"""Standard-cell library model (the UMC 0.13 µm substitute).

The paper synthesises every circuit with Synopsys Design Compiler onto a UMC
0.13 µm standard-cell library and reports cell area (µm²) and critical-path
delay (ns).  We model a comparable library: each cell has an area, an
intrinsic delay and a per-fanout load delay.  Absolute numbers are calibrated
to be 0.13 µm-plausible; the evaluation only relies on *relative* comparisons
between architectures mapped onto the same library.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable

from ..circuit import gates


@dataclass(frozen=True)
class Cell:
    """One standard cell.

    ``load_delay`` is added once per fanout beyond the first, a simple lumped
    model of output loading and wiring that penalises the high-fanout nets the
    paper's motivation section complains about.
    """

    name: str
    op: str
    arity: int
    area: float
    delay: float
    load_delay: float

    def delay_with_fanout(self, fanout: int) -> float:
        """Pin-to-pin delay when the output drives ``fanout`` sinks."""
        extra_sinks = max(0, fanout - 1)
        return self.delay + self.load_delay * extra_sinks


class Library:
    """A collection of cells indexed by (operator, arity)."""

    def __init__(self, name: str, cells: Iterable[Cell]) -> None:
        self.name = name
        self._cells: Dict[str, Cell] = {}
        self._by_op: Dict[tuple[str, int], Cell] = {}
        self._fingerprint: str | None = None
        for cell in cells:
            self.add_cell(cell)

    def add_cell(self, cell: Cell) -> None:
        if cell.name in self._cells:
            raise ValueError(f"duplicate cell name {cell.name!r}")
        self._cells[cell.name] = cell
        self._fingerprint = None
        key = (cell.op, cell.arity)
        existing = self._by_op.get(key)
        # Keep the smallest-area cell as the default choice for an op/arity.
        if existing is None or cell.area < existing.area:
            self._by_op[key] = cell

    def fingerprint(self) -> str:
        """Stable digest of the library's name and every cell's timing/area
        model (cached until the next :meth:`add_cell`).

        Two libraries with the same content share it, so it keys whatever
        outlives one ``Library`` object: synthesis cache records and the
        per-process structuring memo.
        """
        if self._fingerprint is None:
            cells = ";".join(
                f"{cell.name}:{cell.op}/{cell.arity}:{cell.area}:{cell.delay}:{cell.load_delay}"
                for _, cell in sorted(self._cells.items())
            )
            self._fingerprint = hashlib.sha256(f"{self.name}|{cells}".encode("utf-8")).hexdigest()
        return self._fingerprint

    @property
    def cells(self) -> Dict[str, Cell]:
        return dict(self._cells)

    def cell(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"no cell named {name!r} in library {self.name!r}") from None

    def cell_for(self, op: str, arity: int) -> Cell | None:
        """The default cell implementing ``op`` with the given arity, if any."""
        return self._by_op.get((op, arity))

    def has(self, op: str, arity: int) -> bool:
        return (op, arity) in self._by_op

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Library({self.name!r}, {len(self._cells)} cells)"


def default_library() -> Library:
    """A 0.13 µm-class generic standard-cell library.

    Areas are in µm², delays in ns.  Values follow the usual relative ordering
    of a commercial library: inverters and NAND gates are the cheapest and
    fastest, XOR/MUX cost roughly two simple gates, and the dedicated
    full-adder cell has a fast carry output (which is what makes ripple-carry
    adders competitive at 16 bits, as Table 1 of the paper shows).
    """
    cells = [
        Cell("INVX1", gates.NOT, 1, 2.9, 0.011, 0.0045),
        Cell("BUFX2", gates.BUF, 1, 3.6, 0.016, 0.0035),
        Cell("NAND2X1", gates.NAND, 2, 3.6, 0.014, 0.0050),
        Cell("NOR2X1", gates.NOR, 2, 3.6, 0.018, 0.0055),
        Cell("AND2X1", gates.AND, 2, 4.3, 0.021, 0.0050),
        Cell("OR2X1", gates.OR, 2, 4.3, 0.023, 0.0050),
        Cell("NAND3X1", gates.NAND, 3, 4.7, 0.019, 0.0060),
        Cell("NOR3X1", gates.NOR, 3, 4.7, 0.026, 0.0065),
        Cell("AND3X1", gates.AND, 3, 5.4, 0.026, 0.0060),
        Cell("OR3X1", gates.OR, 3, 5.4, 0.029, 0.0060),
        Cell("AND4X1", gates.AND, 4, 6.5, 0.031, 0.0065),
        Cell("OR4X1", gates.OR, 4, 6.5, 0.034, 0.0065),
        Cell("XOR2X1", gates.XOR, 2, 7.2, 0.040, 0.0060),
        Cell("XNOR2X1", gates.XNOR, 2, 7.2, 0.040, 0.0060),
        Cell("MUX2X1", gates.MUX, 3, 7.9, 0.036, 0.0060),
        Cell("HAX1_S", gates.HA_SUM, 2, 6.5, 0.040, 0.0060),
        Cell("HAX1_C", gates.HA_CARRY, 2, 4.3, 0.020, 0.0050),
        Cell("FAX1_S", gates.FA_SUM, 3, 11.5, 0.058, 0.0060),
        Cell("FAX1_C", gates.FA_CARRY, 3, 7.9, 0.033, 0.0055),
        Cell("TIE0", gates.CONST0, 0, 1.4, 0.0, 0.0),
        Cell("TIE1", gates.CONST1, 0, 1.4, 0.0, 0.0),
    ]
    return Library("generic-0.13um", cells)
