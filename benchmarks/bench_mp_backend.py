"""Wall-clock benchmark: multiprocess backend vs. the simulator.

Runs the bundled MP2 and CCSD drivers end-to-end on both execution
backends -- the discrete-event simulator (``execution="sim"``) and the
true multiprocess backend (``execution="mp"``, real forked ranks over
pipes and POSIX shared memory) -- at 1, 2 and 4 worker processes.
Every mp run must be **bitwise identical** to its simulator twin
(scalars and all persistent arrays) and must leak no shared-memory
segment or arena slot lease; a violation fails the benchmark.

Transport efficiency is asserted unconditionally (independent of
machine speed): at least 90 % of the at-or-above-threshold block
bytes must cross zero-copy through the slab arena, and per-transfer
segment creation must be ~0 after warmup (a handful of long-lived
slabs instead of one segment per payload).

Wall time for the mp backend is the runtime's own
``stats["wallclock_seconds"]`` (fork through gather); the simulator is
timed around the driver call.  Note that mp wall-clock only *beats* the
simulator when real cores are available to run the ranks concurrently:
on a single-core host the 4-worker fleet (6 processes) merely
time-slices one CPU, so the speedup expectation is asserted only when
``os.cpu_count()`` provides at least ``--min-cores`` cores.  The
measured ratios and the detected core count are recorded in the JSON
either way.

Usage::

    PYTHONPATH=src python benchmarks/bench_mp_backend.py \
        [--smoke] [--repeats N] [--out BENCH_mp_backend.json] \
        [--min-cores 4]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.programs import run_ccsd, run_mp2
from repro.sip import SIPConfig, SIPError

REPO_ROOT = Path(__file__).resolve().parent.parent

WORKER_COUNTS = (1, 2, 4)

#: (driver, kwargs) per benchmark case; --smoke shrinks the problem
CASES = {
    "mp2": (run_mp2, {"n_basis": 10, "n_occ": 3}),
    "ccsd": (run_ccsd, {"n_basis": 8, "n_occ": 2, "iterations": 2}),
}
SMOKE_CASES = {
    "mp2": (run_mp2, {"n_basis": 6, "n_occ": 2}),
    "ccsd": (run_ccsd, {"n_basis": 4, "n_occ": 1, "iterations": 1}),
}


def _config(workers: int, execution: str, smoke: bool, **kw) -> SIPConfig:
    if execution == "mp":
        # benchmark blocks are small; drop the threshold so payloads
        # genuinely exercise the shared-memory paths and the zero-leak
        # and zero-copy assertions have something to bite on
        kw.setdefault("mp_payload_shm_min", 64)
    return SIPConfig(
        workers=workers,
        io_servers=1,
        segment_size=2,
        execution=execution,
        backend="real",
        **kw,
    )


def _persistent_arrays(result) -> list[str]:
    program = result._rt.program
    return [
        desc.name
        for desc in program.array_table
        if desc.kind in ("static", "distributed", "served")
    ]


def _check_identical(case: str, workers: int, sim, mp) -> None:
    if mp.result.scalars != sim.result.scalars:
        raise SystemExit(
            f"{case}@{workers}: scalars differ between sim and mp backends"
        )
    for array in _persistent_arrays(sim.result):
        try:
            expected = sim.result.array(array)
        except SIPError:
            continue  # declared but never materialized on this run
        if not np.array_equal(expected, mp.result.array(array)):
            raise SystemExit(
                f"{case}@{workers}: array {array!r} differs between backends"
            )
    stats = mp.result.stats
    if stats["mp_shm_leaked"] != 0:
        raise SystemExit(
            f"{case}@{workers}: mp backend leaked "
            f"{stats['mp_shm_leaked']} shared-memory segments"
        )
    if stats["arena_refs_leaked"] != 0:
        raise SystemExit(
            f"{case}@{workers}: mp backend leaked "
            f"{stats['arena_refs_leaked']} arena slot leases"
        )


def _check_transport(case: str, workers: int, stats: dict) -> None:
    """The alloc/copy-elimination claims, asserted on every machine."""
    detoured = stats["arena_hits"] + stats["arena_handoffs"] + stats["arena_misses"]
    if detoured == 0:
        return  # nothing crossed the threshold on this tiny problem
    shared_bytes = stats["bytes_zero_copy"] + stats["mp_shm_bytes"]
    zero_copy_ratio = (
        stats["bytes_zero_copy"] / shared_bytes if shared_bytes else 1.0
    )
    if zero_copy_ratio < 0.9:
        raise SystemExit(
            f"{case}@{workers}: only {100 * zero_copy_ratio:.1f} % of "
            "detoured block bytes moved zero-copy (need >= 90 %)"
        )
    # a handful of long-lived slabs, not one segment per transfer; only
    # meaningful once there are enough transfers to amortize the warmup
    # slabs (a 3-transfer smoke problem would trivially fail the ratio)
    if detoured >= 100:
        creates_per_transfer = (
            stats["mp_shm_segments"] + stats["arena_slabs"]
        ) / detoured
        if creates_per_transfer >= 0.05:
            raise SystemExit(
                f"{case}@{workers}: {creates_per_transfer:.3f} segment "
                "creates per detoured transfer (need ~0 after warmup)"
            )


def _run_pair(case: str, workers: int, repeats: int, smoke: bool) -> dict:
    driver, kwargs = _ACTIVE_CASES[case]
    sim_wall = float("inf")
    mp_wall = float("inf")
    sim = mp = None
    mp_stats: dict = {}
    for _ in range(repeats):
        t0 = time.perf_counter()
        sim = driver(config=_config(workers, "sim", smoke), **kwargs)
        sim_wall = min(sim_wall, time.perf_counter() - t0)
        mp = driver(config=_config(workers, "mp", smoke), **kwargs)
        mp_stats = mp.result.stats
        mp_wall = min(mp_wall, mp_stats["wallclock_seconds"])
    _check_identical(case, workers, sim, mp)
    _check_transport(case, workers, mp_stats)
    return {
        "workers": workers,
        "sim_wall": sim_wall,
        "mp_wall": mp_wall,
        "mp_over_sim": sim_wall / mp_wall,
        "bit_identical": True,
        "mp_processes": mp_stats["mp_processes"],
        "shm_segments": mp_stats["mp_shm_segments"],
        "shm_bytes": mp_stats["mp_shm_bytes"],
        "shm_leaked": mp_stats["mp_shm_leaked"],
        "arena_hits": mp_stats["arena_hits"],
        "arena_handoffs": mp_stats["arena_handoffs"],
        "arena_misses": mp_stats["arena_misses"],
        "arena_slabs": mp_stats["arena_slabs"],
        "arena_refs_leaked": mp_stats["arena_refs_leaked"],
        "bytes_zero_copy": mp_stats["bytes_zero_copy"],
        "batch_msgs_per_write": mp_stats["batch_msgs_per_write"],
    }


_ACTIVE_CASES = CASES


def main() -> int:
    global _ACTIVE_CASES
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problems, 2 workers only, single repeat (CI)")
    ap.add_argument("--repeats", type=int, default=None,
                    help="timing repeats per pairing (default: 3, 1 with "
                         "--smoke); the minimum wall time is kept")
    ap.add_argument("--out", default="BENCH_mp_backend.json")
    ap.add_argument("--min-cores", type=int, default=4,
                    help="assert wall-clock improvements only when this "
                         "many CPU cores are available")
    args = ap.parse_args()

    _ACTIVE_CASES = SMOKE_CASES if args.smoke else CASES
    worker_counts = (2,) if args.smoke else WORKER_COUNTS
    repeats = args.repeats if args.repeats else (1 if args.smoke else 3)
    cores = os.cpu_count() or 1

    report: dict = {
        "cpu_cores": cores,
        "repeats": repeats,
        "smoke": args.smoke,
        "cases": {},
    }
    failures: list[str] = []
    for case in _ACTIVE_CASES:
        rows = []
        for workers in worker_counts:
            row = _run_pair(case, workers, repeats, args.smoke)
            rows.append(row)
            print(
                f"{case}@{workers}: sim {row['sim_wall']:.3f}s, "
                f"mp {row['mp_wall']:.3f}s "
                f"({row['mp_over_sim']:.2f}x, bitwise identical, "
                f"{row['arena_hits']} fills + {row['arena_handoffs']} "
                f"handoffs / {row['arena_misses']} misses, "
                f"{row['arena_slabs']} slabs, "
                f"{row['batch_msgs_per_write']:.1f} msgs/write, 0 leaked)"
            )
        report["cases"][case] = rows

    # wall-clock claims are only physical when the ranks can actually
    # run in parallel; otherwise record the measurement and move on
    if cores >= args.min_cores:
        if not args.smoke:
            for case, rows in report["cases"].items():
                row = rows[-1]
                if row["mp_over_sim"] <= 1.0:
                    failures.append(
                        f"{case}: mp@4 not faster than sim "
                        f"({row['mp_wall']:.3f}s vs {row['sim_wall']:.3f}s) "
                        f"despite {cores} cores"
                    )
    else:
        report["speedup_assertion"] = (
            f"skipped: {cores} CPU core(s) < --min-cores "
            f"{args.min_cores}; a time-sliced fleet cannot beat the "
            f"in-process simulator (copy/alloc-elimination metrics "
            f"were still asserted)"
        )
        print(report["speedup_assertion"])

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
