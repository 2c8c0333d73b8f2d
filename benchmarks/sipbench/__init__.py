"""sipbench: the repo's one benchmark -- "where does a SIAL second go".

Five workloads, five end-to-end metrics, and a per-layer trace recorded
from these files by wrapping the public functions at each layer
boundary of ``repro`` (``src/`` is not edited).  See ``README.md`` here
for the workload and metric tables and ``run.py`` for the command line.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: environment variables that pin BLAS to one thread (set by run.py)
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: benchmarks/sipbench/
HERE = Path(__file__).resolve().parent
#: the checkout root (holds BENCHMARK.json and src/)
REPO = HERE.parent.parent

_SRC = REPO / "src"
if str(_SRC) not in sys.path:
    # the benchmark command names no file outside its own directory, so
    # the program under test is located relative to this package
    sys.path.insert(0, str(_SRC))
