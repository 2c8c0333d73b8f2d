"""The one-command run: every workload in its own fresh subprocess.

Each workload is measured twice, one process each and one at a time:
untraced for the end-to-end numbers, then traced for the per-layer
numbers.  This module spawns those workers (``run.py --workload ...``),
collects the detail line each prints, and assembles the result file,
which starts with one header describing the machine and the run.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from typing import Optional

import numpy as np

from . import BLAS_PINS, HERE, REPO
from . import workloads as wl
from .metrics import END_TO_END, PER_LAYER

#: marks the machine-readable line a worker prints before its last line
DETAIL_TAG = "SIPBENCH_DETAIL "

SCHEMA = 1
QUICK_REPEATS = 3
#: traced operations per workload in the one-command run
TRACED_REPEATS = 3


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=REPO, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def header(seed: int, quick: bool, toy: bool, repeats: dict[str, int]) -> dict:
    status = _git("status", "--porcelain")
    return {
        "benchmark": "sipbench",
        "schema": SCHEMA,
        "git_rev": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PINS},
        "seed": seed,
        # a quick or toy run is a smoke test: never part of a trajectory
        "comparable": not (quick or toy),
        "quick": quick,
        "toy": toy,
        "bounds": {m.name: m.bound for m in END_TO_END},
        "workloads": {
            name: {
                "config_digest": wl.config_digest(wl.WORKLOADS[name], toy),
                "repeats": n,
            }
            for name, n in repeats.items()
        },
    }


def format_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def end_to_end_lines(name: str, entry: dict) -> list[str]:
    lines = []
    for metric in END_TO_END:
        s = entry["end_to_end"][metric.name]
        lines.append(
            f"{name:13s} {metric.name:34s} {format_value(s['value']):>12s} "
            f"{metric.unit:6s} {s['statistic']} of n {s['n']}: q1 {s['q1']:.6g} "
            f"median {s['median']:.6g} q3 {s['q3']:.6g} min {s['min']:.6g}"
        )
    lines.append(
        f"{name:13s} {'warmup_s':34s} {format_value(entry['warmup_s']):>12s} "
        f"{'s':6s} informational, n 1"
    )
    lines.append(
        f"{name:13s} {'ops_attempted':34s} {entry['ops_attempted']:>12d} count"
    )
    lines.append(f"{name:13s} {'ops_failed':34s} {entry['ops_failed']:>12d} count")
    if entry["config_keys_dropped"]:
        lines.append(
            f"{name:13s} config keys SIPConfig no longer has: "
            + ", ".join(entry["config_keys_dropped"])
        )
    return lines


def per_layer_lines(name: str, traced: dict) -> list[str]:
    lines = [
        f"{name:13s} {metric.name:34s} "
        f"{format_value(traced['per_layer'][metric.name]):>12s} {metric.unit}"
        for metric in PER_LAYER
    ]
    for target in traced["missing_targets"]:
        lines.append(f"{name:13s} trace target missing: {target}")
    return lines


def result_line(entry: dict, traced: bool) -> str:
    """The last line of a worker's output: the driver's contract."""
    if traced:
        values = entry["per_layer"]
        # a deleted layer reads 0 here; trace.missing_targets counts it
        metrics = {
            m.name: {"value": values[m.name] or 0, "unit": m.unit} for m in PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": entry["end_to_end"][m.name]["value"], "unit": m.unit}
            for m in END_TO_END
        }
    return json.dumps(
        {
            "correct": entry["correct"],
            "attempted": entry["ops_attempted"],
            "failed": entry["ops_failed"],
            "metrics": metrics,
        }
    )


def _spawn_worker(name: str, seed: int, repeats: int, trace: bool, toy: bool) -> dict:
    """One workload, one fresh process; returns its detail entry."""
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(seed),
        "--repeats", str(repeats), "--trace", "1" if trace else "0",
    ]  # fmt: skip
    if toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=900)
    for line in proc.stdout.splitlines():
        if line.startswith(DETAIL_TAG):
            return json.loads(line[len(DETAIL_TAG) :])
    raise RuntimeError(
        f"worker for {name} (trace={int(trace)}) exited {proc.returncode} "
        f"without a result:\n{proc.stdout}\n{proc.stderr}"
    )


def run_all(seed: int, quick: bool, toy: bool, out: Optional[str]) -> int:
    """The one command: print every metric, return the exit status."""
    repeats = {
        name: QUICK_REPEATS if quick else w.repeats for name, w in wl.WORKLOADS.items()
    }
    report = {"header": header(seed, quick, toy, repeats), "workloads": {}}
    print(json.dumps({"header": report["header"]}))
    ok = True
    for name in wl.WORKLOADS:
        entry = _spawn_worker(name, seed, repeats[name], False, toy)
        print("\n".join(end_to_end_lines(name, entry)), flush=True)
        traced = _spawn_worker(name, seed, TRACED_REPEATS, True, toy)
        print("\n".join(per_layer_lines(name, traced)), flush=True)
        entry["traced"] = traced
        report["workloads"][name] = entry
        for failure in entry["failures"] + traced["failures"]:
            ok = False
            print(f"{name:13s} FAILED {failure}")
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print("sipbench:", "all operations correct" if ok else "FAILURES (see above)")
    return 0 if ok else 1
