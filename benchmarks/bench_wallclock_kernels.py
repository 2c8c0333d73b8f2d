"""Host wall-clock benchmark of the execution fast path.

Times the bundled CCSD and Fock-build drivers end-to-end (compiled
kernel plans, pre-decoded instruction stream, copy-on-write transport)
and writes the measurements to ``BENCH_kernels.json``.

Per-kernel wall-clock comes from ``SIPConfig.kernel_wallclock``, which
wraps every backend kernel in a ``perf_counter`` accumulator.

The plan-cache health metric is the *warm* hit rate: the hit rate over
every contraction issued after the first amplitude sweep (each driver
is first run for a single sweep to count the signatures discovered
there; by design all compilation misses happen during that first
sweep).  The run fails if the warm hit rate drops below
``--min-hit-rate`` (default 0.9).

``--baseline-rev REV`` additionally times the same drivers against a
clean checkout of ``REV`` (via ``git worktree``); it is the comparison
with the pre-fast-path code, which no longer exists in the tree.  It is
skipped gracefully when the revision is unavailable (e.g. shallow CI
clones).

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock_kernels.py \
        [--smoke] [--out BENCH_kernels.json] [--min-hit-rate 0.9] \
        [--baseline-rev HEAD~1]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from repro.programs.drivers import _default_config, run_ccsd, run_fock_build

REPO_ROOT = Path(__file__).resolve().parent.parent

# each driver's own default SIP configuration, replicated here so the
# kernel_wallclock toggle can be applied on top of it
_DRIVER_CONFIG = {
    "ccsd": lambda: _default_config(segment_size=3),
    "fock_build": lambda: _default_config(),
}

DRIVERS = {
    "ccsd": lambda cfg, **kw: run_ccsd(config=cfg, **kw),
    "fock_build": lambda cfg, **kw: run_fock_build(config=cfg, **kw),
}


def _config(name: str, timed: bool = False):
    cfg = _DRIVER_CONFIG[name]()
    cfg.kernel_wallclock = timed
    return cfg


def _time_driver(name: str, repeats: int, timed: bool = False):
    """Best-of-``repeats`` wall time; returns (seconds, last outcome)."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        cfg = _config(name, timed)
        t0 = time.perf_counter()
        out = DRIVERS[name](cfg)
        best = min(best, time.perf_counter() - t0)
    return best, out


def _warm_hit_rate(name: str, full_stats: dict) -> float:
    """Plan-cache hit rate over contractions issued after the first sweep."""
    kw = {"iterations": 1} if name == "ccsd" else {}
    first = DRIVERS[name](_config(name), **kw).result.stats
    a1 = first["plan_cache_hits"] + first["plan_cache_misses"]
    m1 = first["plan_cache_misses"]
    a = full_stats["plan_cache_hits"] + full_stats["plan_cache_misses"]
    m = full_stats["plan_cache_misses"]
    warm_attempts = a - a1
    if warm_attempts <= 0:
        return 1.0
    return (warm_attempts - max(0, m - m1)) / warm_attempts


def _baseline_walls(rev: str, repeats: int) -> dict | None:
    """Time the drivers against a clean checkout of ``rev``."""
    wt = REPO_ROOT / ".bench_baseline_worktree"
    try:
        subprocess.run(
            ["git", "worktree", "add", "--force", str(wt), rev],
            cwd=REPO_ROOT, check=True, capture_output=True,
        )
    except (subprocess.CalledProcessError, FileNotFoundError) as exc:
        print(f"baseline rev {rev!r} unavailable, skipping: {exc}")
        return None
    try:
        code = (
            "import time, json, sys\n"
            "from repro.programs.drivers import run_ccsd, run_fock_build\n"
            f"reps = {repeats}\n"
            "out = {}\n"
            "for name, fn in [('ccsd', run_ccsd), ('fock_build', run_fock_build)]:\n"
            "    best = float('inf')\n"
            "    for _ in range(reps):\n"
            "        t0 = time.perf_counter(); fn(); best = min(best, time.perf_counter() - t0)\n"
            "    out[name] = best\n"
            "print(json.dumps(out))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(wt / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
            capture_output=True, text=True, timeout=1800,
        )
        if proc.returncode != 0:
            print(f"baseline run failed, skipping:\n{proc.stderr[-2000:]}")
            return None
        return {"rev": rev, "wall": json.loads(proc.stdout.strip().splitlines()[-1])}
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(wt)],
            cwd=REPO_ROOT, capture_output=True,
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true", help="single repeat, quick CI run")
    ap.add_argument("--out", default="BENCH_kernels.json")
    ap.add_argument("--min-hit-rate", type=float, default=0.9,
                    help="fail if the warm plan-cache hit rate is below this")
    ap.add_argument("--baseline-rev", default=None,
                    help="git rev of the pre-fast-path code to time against")
    args = ap.parse_args()
    repeats = 1 if args.smoke else 3

    report: dict = {
        "config": "driver defaults (workers=3, io_servers=1)",
        "repeats": repeats,
        "drivers": {},
    }
    failures = []
    for name in DRIVERS:
        fast_wall, fast = _time_driver(name, repeats=repeats)
        _, timed = _time_driver(name, repeats=1, timed=True)
        stats = fast.result.stats
        warm = _warm_hit_rate(name, stats)
        entry = {
            "wall_fastpath": fast_wall,
            "simulated_elapsed": fast.result.elapsed,
            "plan_cache": {
                "hits": stats["plan_cache_hits"],
                "misses": stats["plan_cache_misses"],
                "hit_rate": stats["plan_cache_hit_rate"],
                "warm_hit_rate": warm,
                "gemm_plans": stats["plan_cache_gemm"],
                "einsum_plans": stats["plan_cache_einsum"],
            },
            "zero_copy": {
                "shared_payloads": stats["cow_shared_payloads"],
                "bytes_not_copied": stats["cow_bytes_not_copied"],
                "cow_copies": stats["cow_copies"],
                "cow_bytes_copied": stats["cow_bytes_copied"],
            },
            "kernel_wall": timed.result.stats["kernel_wall"],
        }
        report["drivers"][name] = entry
        print(
            f"{name}: {fast_wall:.3f}s, warm hit rate {warm:.3f}, "
            f"{entry['zero_copy']['bytes_not_copied']} bytes not copied"
        )
        if warm < args.min_hit_rate:
            failures.append(
                f"{name}: warm plan-cache hit rate {warm:.3f} "
                f"< {args.min_hit_rate}"
            )

    if args.baseline_rev:
        baseline = _baseline_walls(args.baseline_rev, repeats)
        if baseline is not None:
            report["baseline"] = baseline
            for name, wall in baseline["wall"].items():
                fastw = report["drivers"][name]["wall_fastpath"]
                report["drivers"][name]["speedup_vs_baseline"] = wall / fastw
                print(f"{name}: baseline ({args.baseline_rev}) {wall:.3f}s "
                      f"-> {wall / fastw:.2f}x speedup")

    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    if failures:
        for f in failures:
            print("FAIL:", f)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
