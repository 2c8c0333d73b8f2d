"""Memory-stress sweep: every bundled SIAL program at half its peak.

The paper's core promise is that SIAL programs keep working when the
arrays stop fitting: the SIP degrades to disk traffic, never to a wrong
answer.  This benchmark runs the whole program library twice per entry
-- once spill-enabled but unconstrained (the baseline), once with the
per-worker budget clamped to half the baseline's observed resident
peak (never below the dry-run pinned-only floor) -- and asserts that
every constrained run

* completes (no ``OutOfBlockMemory``),
* matches the baseline **bitwise** (static pardo scheduling keeps the
  iteration assignment identical; only timing may differ),
* reports victim-cascade activity whenever the budget actually bites,
* never runs faster than the unconstrained baseline in simulated time,
* never holds more than its budget, scattered inputs included
  (``mem_peak_bytes <= mem_budget_bytes``),
* keeps at least 0.6x the baseline's block-cache hit rate when the
  program uses the cache at all (>= 1 000 baseline accesses): pressure
  must cost disk time, not the replicas the running iteration needs.

Pressure statistics for every program, with simulated time, message
count and cache hit rate of both runs, are written to a JSON report
(CI uploads it as an artifact).

Usage::

    PYTHONPATH=src python benchmarks/bench_memory_stress.py \
        [--smoke] [--out BENCH_memory_stress.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.programs import (
    run_ao2mo,
    run_ccsd,
    run_ccsd_t,
    run_fock_build,
    run_lccd,
    run_lccd_anderson,
    run_mp2,
    run_paper_contraction,
    run_uhf_mp2,
)
from repro.sip import SIPConfig

# the differential-test registry's program set, sized up slightly so the
# working sets are big enough for a halved budget to actually bite
DRIVERS = {
    "paper_contraction": lambda cfg: run_paper_contraction(
        n_basis=8, n_occ=3, config=cfg
    ),
    "mp2_energy": lambda cfg: run_mp2(n_basis=10, n_occ=4, config=cfg),
    "uhf_mp2_energy": lambda cfg: run_uhf_mp2(
        n_basis=8, n_alpha=3, n_beta=2, config=cfg
    ),
    "ao2mo_transform": lambda cfg: run_ao2mo(n_basis=6, config=cfg),
    "lccd_iteration": lambda cfg: run_lccd(
        n_basis=6, n_occ=2, iterations=2, config=cfg
    ),
    "lccd_anderson": lambda cfg: run_lccd_anderson(
        n_basis=6, n_occ=2, iterations=2, config=cfg
    ),
    "ccsd": lambda cfg: run_ccsd(n_basis=6, n_occ=2, iterations=2, config=cfg),
    "ccsd_t": lambda cfg: run_ccsd_t(n_basis=4, n_occ=1, sweeps=1, config=cfg),
    "fock_build": lambda cfg: run_fock_build(n_basis=8, n_occ=3, config=cfg),
}

SMOKE_DRIVERS = ("mp2_energy", "ao2mo_transform", "fock_build")

STAT_KEYS = (
    "mem_budget_bytes",
    "mem_peak_bytes",
    "mem_cascades",
    "mem_pressure_evictions",
    "mem_spills",
    "mem_spill_bytes",
    "mem_faults_in",
    "mem_fault_bytes",
    "mem_peak_spill_bytes",
)

# programs with fewer baseline cache accesses than this barely use the
# cache; their hit-rate ratio is reported, not gated
HIT_RATE_MIN_ACCESSES = 1000
HIT_RATE_FLOOR = 0.6


def _run_columns(result) -> dict:
    """Simulated time, traffic and cache behaviour of one run."""
    stats = result.stats
    accesses = stats["cache_hits"] + stats["cache_misses"]
    return {
        "elapsed": result.elapsed,
        "messages_sent": int(stats["messages_sent"]),
        "cache_accesses": int(accesses),
        "cache_hit_rate": round(stats["cache_hits"] / accesses, 4) if accesses else None,
    }


def _config(budget=None):
    kw = dict(
        workers=2,
        io_servers=1,
        segment_size=2,
        scheduling="static",
        spill=True,
    )
    if budget is not None:
        kw["memory_per_worker"] = float(budget)
    return SIPConfig(**kw)


def run_one(name: str) -> dict:
    driver = DRIVERS[name]
    base = driver(_config())
    assert base.error < 1e-10, (name, base.error)
    peak = base.result.stats["mem_peak_bytes"]
    floor = base.result.dry_run.pinned_floor_bytes
    requirement = base.result.dry_run.per_worker_bytes
    budget = max(floor, peak // 2)

    out = driver(_config(budget=budget))
    assert out.error < 1e-10, (name, out.error)
    base_v = np.asarray(base.value)
    out_v = np.asarray(out.value)
    bitwise = bool(np.array_equal(out_v, base_v))
    assert bitwise, f"{name}: constrained run is not bitwise identical"

    stats = out.result.stats
    pressured = budget < peak
    if pressured:
        assert stats["mem_cascades"] > 0, (name, stats)
        assert stats["mem_spills"] > 0, (name, stats)
    assert out.result.elapsed >= base.result.elapsed, name
    assert stats["mem_peak_bytes"] <= stats["mem_budget_bytes"], (name, stats)

    baseline, constrained = _run_columns(base.result), _run_columns(out.result)
    hit_ratio = None
    if baseline["cache_hit_rate"]:
        hit_ratio = round(constrained["cache_hit_rate"] / baseline["cache_hit_rate"], 4)
    if baseline["cache_accesses"] >= HIT_RATE_MIN_ACCESSES:
        assert hit_ratio >= HIT_RATE_FLOOR, (
            f"{name}: pressure thrashes the block cache "
            f"({constrained['cache_hit_rate']} of {baseline['cache_hit_rate']})"
        )

    row = {
        "program": name,
        "dry_run_requirement_bytes": int(requirement),
        "pinned_floor_bytes": int(floor),
        "baseline_peak_bytes": int(peak),
        "budget_bytes": int(budget),
        "budget_fraction_of_peak": round(budget / peak, 4) if peak else None,
        "pressured": pressured,
        "bitwise_identical": bitwise,
        "baseline": baseline,
        "constrained": constrained,
        "slowdown": (
            round(out.result.elapsed / base.result.elapsed, 4)
            if base.result.elapsed
            else None
        ),
        "cache_hit_rate_ratio": hit_ratio,
        "stats": {k: int(stats[k]) for k in STAT_KEYS},
    }
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true", help="subset, quick CI run")
    ap.add_argument("--out", default="BENCH_memory_stress.json")
    args = ap.parse_args()

    names = SMOKE_DRIVERS if args.smoke else sorted(DRIVERS)
    rows = []
    for name in names:
        row = run_one(name)
        rows.append(row)
        s, b, c = row["stats"], row["baseline"], row["constrained"]
        print(
            f"{name:>18}: budget {row['budget_bytes']:>6} B "
            f"({row['budget_fraction_of_peak']}x peak, peak {s['mem_peak_bytes']})  "
            f"cascades={s['mem_cascades']:<5} spills={s['mem_spills']:<5} "
            f"faults_in={s['mem_faults_in']:<5} "
            f"elapsed {b['elapsed']:.4g}->{c['elapsed']:.4g}s ({row['slowdown']}x)  "
            f"messages {b['messages_sent']}->{c['messages_sent']}  "
            f"hit rate {b['cache_hit_rate']}->{c['cache_hit_rate']} "
            f"({row['cache_hit_rate_ratio']}x)  "
            f"bitwise={'yes' if row['bitwise_identical'] else 'NO'}"
        )

    total_spills = sum(r["stats"]["mem_spills"] for r in rows)
    assert total_spills > 0, "no program generated any spill traffic"
    assert all(r["bitwise_identical"] for r in rows)

    report = {
        "benchmark": "memory_stress",
        "smoke": args.smoke,
        "programs": rows,
        "total_spills": total_spills,
        "total_spill_bytes": sum(r["stats"]["mem_spill_bytes"] for r in rows),
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.out}: {len(rows)} programs, {total_spills} spills")
    return 0


if __name__ == "__main__":
    sys.exit(main())
