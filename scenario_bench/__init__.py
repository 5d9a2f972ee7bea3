"""Scenario benchmark for koszul_index: seeded workload documents, a
closed-loop runner over the public scenario API, and an outside-in tracer
for per-layer numbers. Run it as `python3 -m scenario_bench.run`.

The package under test is imported from the `src` directory next to this
one, so the benchmark measures the checkout it sits in, not an installed
copy.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
