"""Self-tests of the benchmark harness, on toy sizes.

Run with ``python -m pytest benchmarks/sipbench`` (not part of tier-1:
``testpaths`` in pyproject.toml names ``tests`` only).
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import re
import subprocess
import sys

import pytest

from sipbench import HERE, REPO, compare, measure, report, tracing
from sipbench import workloads as wl
from sipbench.metrics import END_TO_END, PER_LAYER

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )


# -- the declared surface ----------------------------------------------------


def test_benchmark_json_lists_exactly_the_declared_surface():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert doc["paths"] == ["benchmarks/sipbench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == [tuple(m[:4]) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m[:3]) for m in PER_LAYER
    ]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])


@pytest.mark.parametrize("trace, declared", [(0, END_TO_END), (1, PER_LAYER)])
def test_worker_prints_every_declared_metric_and_nothing_else(trace, declared):
    proc = _run_cli(
        "--workload", "ccsd_sim", "--toy", "--seed", "3",
        "--repeats", "2", "--trace", str(trace),
    )  # fmt: skip
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m.name for m in declared}
    for metric in declared:
        got = last["metrics"][metric.name]
        assert set(got) == {"value", "unit"} and got["unit"] == metric.unit
        assert isinstance(got["value"], (int, float))
        assert NAME.match(metric.name)
        # every metric is also printed by name, with its unit
        assert re.search(
            rf"^ccsd_sim\s+{re.escape(metric.name)}\s+\S+\s+{re.escape(metric.unit)}\b",
            proc.stdout,
            re.M,
        )


# -- spans --------------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    now = [0]

    def tick(ns):
        now[0] += ns

    tracer = tracing.Tracer(clock=lambda: now[0])
    leaf = tracer.wrap("leaf", lambda: tick(5))

    def middle_body():
        tick(10)
        leaf()
        leaf()
        tick(1)

    middle = tracer.wrap("middle", middle_body)
    with tracer.span("root"):
        tick(100)
        middle()
        tick(7)
        leaf()

    assert tracer.calls == {"leaf": 3, "middle": 1, "root": 1}
    assert tracer.total_ns == {"leaf": 15, "middle": 21, "root": 133}
    assert tracer.self_ns == {"leaf": 15, "middle": 11, "root": 107}
    # self times partition the root's duration
    assert sum(tracer.self_ns.values()) == tracer.total_ns["root"]
    assert tracer.edges == {
        ("middle", "leaf"): 2, ("root", "leaf"): 1, ("root", "middle"): 1, ("", "root"): 1,
    }  # fmt: skip


def test_a_raising_span_still_closes():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        with tracer.span("root"):
            tracer.wrap("inner", boom)()
    assert tracer.calls == {"inner": 1, "root": 1}
    assert tracer._stack == []


def _target_objects():
    for _, module_name, class_name, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        yield owner, attr, vars(owner)[attr]


def test_traced_run_uninstalls_every_wrapper():
    before = list(_target_objects())
    workload = wl.WORKLOADS["ccsd_spill"]
    inputs = wl.make_inputs(workload, 5, toy=True)
    rep, tracer, installed = measure.traced_run(workload, inputs, toy=True)
    assert rep.failure is None and installed.missing == []
    assert tracer.calls["sip.decode.resolve"] > 0 and tracer.calls["sip.memman"] > 0
    assert tracer.calls[measure.ROOT_SPAN] == 1
    for (owner, attr, original), (_, _, now) in zip(before, _target_objects()):
        assert now is original, f"{owner.__name__}.{attr} still wrapped"


def test_deleted_target_is_reported_not_fatal():
    targets = tracing.TARGETS + (
        ("sip.gone", "repro.sip.cache", "BlockCache", "no_such_method", "inproc"),
        ("sip.gone", "repro.sip.no_such_module", None, "f", "any"),
    )
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, "sim", targets)
    try:
        assert installed.missing == [
            "repro.sip.cache:BlockCache.no_such_method",
            "repro.sip.no_such_module:f",
        ]
        assert "sip.gone" not in installed.spans
    finally:
        installed.uninstall()


def test_mp_run_installs_parent_side_targets_only():
    installed = tracing.install(tracing.Tracer(), "mp")
    try:
        assert "sip.decode.resolve" in installed.skipped
        assert installed.spans == {
            "sial.compile", "sial.passes.optimize", "sip.dryrun", "sip.mprunner.execute",
        }  # fmt: skip
    finally:
        installed.uninstall()


# -- measurement and checks ---------------------------------------------------


def test_corrupted_result_is_counted_as_a_failed_operation():
    calls = [0]

    def corrupting_run(workload, inputs, toy):
        result = wl.run_once(workload, inputs, toy)
        calls[0] += 1
        if calls[0] == 3:  # warm-up is call 1, so this is repeat 1
            result.scalars["ecc"] += 1e-6
        return result

    entry = measure.measure_end_to_end(
        wl.WORKLOADS["ccsd_sim"], 11, repeats=3, toy=True, run=corrupting_run
    )
    assert (entry["ops_attempted"], entry["ops_failed"]) == (3, 1)
    assert entry["correct"] is False
    assert entry["failures"][0].startswith("repeat 1: |value - reference|")


def test_raising_operation_is_counted_not_propagated():
    def failing_run(workload, inputs, toy):
        raise RuntimeError("rank died")

    entry = measure.measure_end_to_end(
        wl.WORKLOADS["contract_sim"], 11, repeats=2, toy=True, run=failing_run
    )
    assert (entry["ops_attempted"], entry["ops_failed"]) == (2, 2)
    assert "RuntimeError: rank died" in entry["failures"][0]


def test_mp_workload_is_checked_bitwise_against_its_simulator_twin():
    entry = measure.measure_end_to_end(
        wl.WORKLOADS["contract_mp"], 2, repeats=2, toy=True
    )
    assert entry["correct"], entry["failures"]
    twin = measure.measure_end_to_end(
        wl.WORKLOADS["contract_sim"], 2, repeats=2, toy=True
    )
    assert entry["fingerprint"] == twin["fingerprint"]
    assert measure.leftovers() == []


def test_unknown_config_keys_are_dropped_and_listed():
    base = wl.WORKLOADS["ccsd_spill"]
    workload = dataclasses.replace(base, config={**base.config, "retired_switch": 1})
    inputs = wl.make_inputs(workload, 1, toy=True)
    config, dropped = wl.build_config(workload, inputs, toy=True)
    assert dropped == ["retired_switch"]
    assert config.spill is True and config.workers == 2 and config.opt_level == 2


def test_inert_spill_budget_fails_loudly():
    base = wl.WORKLOADS["ccsd_spill"]
    roomy = dataclasses.replace(base, toy_config={"memory_per_worker": 10**9})
    entry = measure.measure_end_to_end(roomy, 1, repeats=2, toy=True)
    assert not entry["correct"]
    assert any("spilled nothing" in f for f in entry["failures"])


def test_same_seed_same_inputs():
    workload = wl.WORKLOADS["contract_sim"]
    a, b = (wl.make_inputs(workload, 9, toy=True) for _ in range(2))
    assert (a.reference == b.reference).all()
    assert (wl.make_inputs(workload, 10, toy=True).reference != a.reference).any()


# -- compare ------------------------------------------------------------------


def _summary(runs):
    return measure.summary(list(runs))


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([1.00, 1.01, 1.02, 1.01], [1.03, 1.02, 1.04, 1.03], "unchanged"),
        ([1.00, 1.01, 1.02, 1.01], [1.20, 1.21, 1.22, 1.21], "worse"),
        ([1.00, 1.01, 1.02, 1.01], [0.80, 0.81, 0.82, 0.81], "better"),
        # wide and interleaved: the files cannot tell
        ([1.0, 1.4, 0.9, 1.3], [1.1, 1.5, 0.95, 1.2], "unresolved"),
        # wide but every B run beyond every A run: resolved
        ([1.0, 1.4, 0.9, 1.3], [2.0, 2.6, 1.9, 2.4], "worse"),
        ([2.0, 2.6, 1.9, 2.4], [1.0, 1.4, 0.9, 1.3], "better"),
    ],
)
def test_compare_verdicts(a, b, expected):
    assert compare.verdict(_summary(a), _summary(b), 0.10)[0] == expected


def _synthetic_report(wall, failed=0, spills=7):
    entry = {
        "execution": "sim",
        "config_digest": "d",
        "ops_attempted": 4,
        "ops_failed": failed,
        "end_to_end": {m.name: _summary(wall) for m in END_TO_END},
        "traced": {"per_layer": {m.name: 1 for m in PER_LAYER}},
    }
    entry["traced"]["per_layer"]["sip.memman.spills"] = spills
    head = report.header(1, quick=False, toy=False, repeats={"ccsd_sim": 4})
    return {"header": head, "workloads": {"ccsd_sim": entry}}


def test_compare_reports_and_exit_status():
    base = _synthetic_report([1.0, 1.01, 1.02, 1.01])
    lines, regressed = compare.compare(base, base)
    assert not regressed
    assert any(line.endswith("exact counters identical") for line in lines)
    slower = _synthetic_report([1.3, 1.31, 1.32, 1.31], spills=9)
    lines, regressed = compare.compare(base, slower)
    assert regressed
    assert any(line.endswith("worse") and "wall_s" in line for line in lines)
    assert any("sip.memman.spills: 7 -> 9  changed" in line for line in lines)
    flaky = _synthetic_report([1.0, 1.01, 1.02, 1.01], failed=1)
    assert compare.compare(base, flaky)[1]
    assert not compare.compare(flaky, base)[1]


# -- the one command ----------------------------------------------------------


def test_one_command_quick_toy_run_and_self_compare(tmp_path):
    out = tmp_path / "result.json"
    proc = _run_cli("--quick", "--toy", "--seed", "4", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())
    assert next(iter(doc)) == "header"
    head = doc["header"]
    assert head["comparable"] is False and head["quick"] and head["seed"] == 4
    for key in ("git_rev", "git_dirty", "nproc", "python", "numpy", "blas_threads"):
        assert key in head
    assert set(head["blas_threads"].values()) == {"1"}
    assert list(doc["workloads"]) == list(wl.WORKLOADS)
    for name, entry in doc["workloads"].items():
        assert head["workloads"][name]["repeats"] == entry["ops_attempted"] == 3
        assert entry["ops_failed"] == 0 and entry["correct"] and entry["traced"]["correct"]
        for metric in PER_LAYER:
            assert re.search(rf"^{name}\s+{re.escape(metric.name)}\s", proc.stdout, re.M)
    layers = {n: e["traced"]["per_layer"] for n, e in doc["workloads"].items()}
    assert layers["ccsd_spill"]["sip.memman.spills"] > 0
    assert layers["ccsd_sim"]["sip.memman.spills"] == 0
    assert layers["ccsd_sim"]["trace.coverage"] >= 0.95
    assert layers["contract_mp"]["mp.messages"] > 0
    assert _run_cli("compare", str(out), str(out)).returncode == 0
