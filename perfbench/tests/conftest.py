"""Put the benchmark's modules and the program's sources on the import path.

Run from the root of a checkout: ``python -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
