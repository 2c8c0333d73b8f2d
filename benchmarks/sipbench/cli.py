"""Argument parsing for the three ways sipbench is invoked.

* no ``--workload``: the one command -- all five workloads, untraced
  then traced, each in a fresh subprocess (see :mod:`.report`);
* ``--workload NAME --seed N --seconds S --trace 0|1``: one workload in
  this process, the form the benchmark driver calls;
* ``compare A.json B.json``: judge two result files (see :mod:`.compare`).
"""

from __future__ import annotations

import argparse
import json

from . import workloads as wl


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sipbench", description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=42, help="workload input seed")
    p.add_argument("--out", help="write the full result file here (one command)")
    p.add_argument(
        "--quick",
        action="store_true",
        help="3 repeats per workload; the result is marked not comparable",
    )
    p.add_argument(
        "--toy",
        action="store_true",
        help="toy problem sizes (self-tests); the result is marked not comparable",
    )
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS), help="measure one")
    p.add_argument("--seconds", type=float, help="measure for this long (>= 3 runs)")
    p.add_argument("--repeats", type=int, help="measure exactly this many runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _worker(args: argparse.Namespace) -> int:
    """One workload in this (fresh) process; last line is the result."""
    from . import measure, report

    if (args.seconds is None) == (args.repeats is None):
        raise SystemExit("--workload needs exactly one of --seconds and --repeats")
    workload = wl.WORKLOADS[args.workload]
    how = {"repeats": args.repeats, "seconds": args.seconds, "toy": args.toy}
    if args.trace:
        entry = measure.measure_layers(workload, args.seed, **how)
        lines = report.per_layer_lines(workload.name, entry)
    else:
        entry = measure.measure_end_to_end(workload, args.seed, **how)
        lines = report.end_to_end_lines(workload.name, entry)
    print("\n".join(lines))
    for failure in entry["failures"]:
        print(f"{workload.name:13s} FAILED {failure}")
    print(report.DETAIL_TAG + json.dumps(entry))
    print(report.result_line(entry, bool(args.trace)), flush=True)
    return 0 if entry["correct"] else 1


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        from . import compare

        return compare.main(argv[1:])
    args = _parser().parse_args(argv)
    if args.workload:
        return _worker(args)
    from . import report

    return report.run_all(args.seed, args.quick, args.toy, args.out)
