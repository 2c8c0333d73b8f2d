"""Golden simulated counters: what a *host-only* change must not move.

A change that only makes the Python hot path cheaper (hashing, heap
entries, event names, memo keys) schedules the same events in the same
order, so the simulated time-to-solution and every counter in
``RunResult.stats`` repeat exactly.  ``tests/data/host_only_counters.json``
pins them for CCSD at toy size, the paper's Section IV-D contraction and
a spill-enabled CCSD run at half its unconstrained resident peak, each
at 1, 2 and 4 workers under ``-O2``, plus CCSD under ``-O0``, whose
unoptimised loops give the lookahead prefetcher the most operands to
probe.

A PR that *means* to change simulated behaviour regenerates the file
and says so::

    PYTHONPATH=src python tests/integration/test_host_only_counters.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.programs import run_ccsd, run_paper_contraction
from repro.sip import SIPConfig
from repro.sip.stats import TABLE

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "host_only_counters.json"

#: host timing -- the stats table's "varies from run to run" keys: the
#: only numeric stats allowed to move (zero or near it on the simulator)
HOST_KEYS = frozenset(stat.key for stat in TABLE if stat.varies)

WORKERS = (1, 2, 4)


def _config(workers: int, opt_level: int = 2, **kw) -> SIPConfig:
    return SIPConfig(
        workers=workers, io_servers=1, segment_size=2, opt_level=opt_level, **kw
    )


def _ccsd(workers: int, **kw):
    return run_ccsd(
        n_basis=4, n_occ=2, iterations=1, config=_config(workers, **kw)
    ).result


def _contraction(workers: int):
    return run_paper_contraction(n_basis=6, n_occ=4, config=_config(workers)).result


def _ccsd_spill(workers: int):
    """CCSD with spill on, held to half the unconstrained resident peak."""
    base = _ccsd(workers, spill=True, scheduling="static")
    budget = max(
        base.dry_run.pinned_floor_bytes, base.stats["mem_peak_bytes"] // 2
    )
    out = _ccsd(
        workers, spill=True, scheduling="static", memory_per_worker=float(budget)
    )
    assert out.stats["mem_spills"] > 0, "the spill case no longer spills"
    return out


def _ccsd_o0(workers: int):
    return _ccsd(workers, opt_level=0)


CASES = {
    "ccsd": _ccsd,
    "ccsd_o0": _ccsd_o0,
    "contraction": _contraction,
    "ccsd_spill": _ccsd_spill,
}


def counters(result) -> dict:
    """Every int/float stat except host wall clock, plus ``elapsed``."""
    out = {
        key: value
        for key, value in result.stats.items()
        if isinstance(value, (int, float)) and key not in HOST_KEYS
    }
    out["elapsed"] = result.elapsed
    return out


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_simulated_counters_match_golden(case, workers):
    golden = json.loads(GOLDEN.read_text())[f"{case}/w{workers}"]
    got = counters(CASES[case](workers))
    assert got.keys() == golden.keys()
    moved = {k: (golden[k], got[k]) for k in golden if got[k] != golden[k]}
    assert not moved, f"simulated counters moved (golden, now): {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    table = {
        f"{case}/w{workers}": counters(fn(workers))
        for case, fn in sorted(CASES.items())
        for workers in WORKERS
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}")
