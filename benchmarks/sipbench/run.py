#!/usr/bin/env python3
"""Command-line entry of sipbench (see ``README.md`` beside this file).

    python benchmarks/sipbench/run.py [--seed 42] [--out FILE] [--quick]
    python benchmarks/sipbench/run.py --workload ccsd_sim --seed 1 --seconds 16 --trace 0
    python benchmarks/sipbench/run.py compare A.json B.json
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    import sipbench

    if not (sipbench.REPO / "src" / "repro").is_dir():
        sys.exit("sipbench: no src/repro beside benchmarks/, nothing to measure")
    # An mp run already forks 4 ranks onto the box's cores; an unpinned
    # BLAS on top of that gave a 7x outlier while sizing the workloads.
    # Must happen before numpy is imported anywhere.
    for var in sipbench.BLAS_PINS:
        os.environ[var] = "1"
    from sipbench.cli import main

    sys.exit(main(sys.argv[1:]))
