"""``run.py compare A.json B.json``: judge result file B against base A.

One row per (workload, end-to-end metric) with both values (for a time,
the lower quartile of its samples) and quartiles, the ratio B/A, the
metric's bound and a verdict:

* ``worse`` / ``better``: B's value is beyond the bound from A's;
* ``unchanged``: within the bound;
* ``unresolved``: a side's quartile spread is wider than the bound and
  the two sets of runs interleave, so the files cannot tell.

Counters that repeat exactly on the simulator are diffed exactly.  The
exit status is non-zero on any ``worse`` and when a workload fails a
larger share of its operations in B than in A.
"""

from __future__ import annotations

import argparse
import json

from .metrics import END_TO_END, PER_LAYER


def verdict(a: dict, b: dict, bound: float) -> tuple[str, float]:
    """(verdict, B/A) for one lower-is-better metric's two summaries."""
    ratio = b["value"] / a["value"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    b_all_lower = max(b["runs"]) < min(a["runs"])
    b_all_higher = min(b["runs"]) > max(a["runs"])
    if spread > bound and not (b_all_lower or b_all_higher):
        return "unresolved", ratio
    if ratio > 1 + bound:
        return "worse", ratio
    if ratio < 1 - bound:
        return "better", ratio
    return "unchanged", ratio


def _spread(s: dict) -> str:
    return f"{s['value']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """(report lines, whether B regressed against A)."""
    lines: list[str] = []
    regressed = False
    for side, report in (("A", a), ("B", b)):
        head = report["header"]
        if not head["comparable"]:
            lines.append(f"warning: {side} is a quick or toy run, not comparable")
        lines.append(
            f"{side}: rev {head['git_rev'][:12]}"
            f"{' (dirty)' if head['git_dirty'] else ''} seed {head['seed']} "
            f"nproc {head['nproc']} python {head['python']} numpy {head['numpy']}"
        )
    bounds = a["header"]["bounds"]
    lines.append(
        f"{'workload':13s} {'metric':12s} {'A value [q1, q3]':>32s} "
        f"{'B value [q1, q3]':>32s} {'B/A':>7s} {'bound':>6s}  verdict"
    )
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name:13s} missing from B")
            regressed = True
            continue
        if wa["config_digest"] != wb["config_digest"]:
            lines.append(f"warning: {name} is defined differently in A and B")
        for metric in END_TO_END:
            sa, sb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            bound = bounds[metric.name]
            what, ratio = verdict(sa, sb, bound)
            regressed |= what == "worse"
            lines.append(
                f"{name:13s} {metric.name:12s} {_spread(sa):>32s} {_spread(sb):>32s} "
                f"{ratio:7.3f} {bound:6.2f}  {what}"
            )
        fail_a = wa["ops_failed"] / wa["ops_attempted"]
        fail_b = wb["ops_failed"] / wb["ops_attempted"]
        if fail_b > fail_a:
            regressed = True
            lines.append(
                f"{name:13s} ops_failed {wa['ops_failed']}/{wa['ops_attempted']} -> "
                f"{wb['ops_failed']}/{wb['ops_attempted']}  worse"
            )
        if wa["execution"] == "sim":
            la, lb = wa["traced"]["per_layer"], wb["traced"]["per_layer"]
            changed = [
                f"{name:13s} {m.name}: {la.get(m.name)} -> {lb.get(m.name)}  changed"
                for m in PER_LAYER
                if m.exact and la.get(m.name) != lb.get(m.name)
            ]
            lines += changed or [f"{name:13s} exact counters identical"]
    return lines, regressed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="sipbench compare", description=__doc__)
    parser.add_argument("a", help="base result file")
    parser.add_argument("b", help="result file judged against the base")
    args = parser.parse_args(argv)
    reports = []
    for path in (args.a, args.b):
        with open(path) as fh:
            reports.append(json.load(fh))
    lines, regressed = compare(*reports)
    print("\n".join(lines))
    return 1 if regressed else 0
