"""Measure one workload inside the current (fresh) process.

``measure_end_to_end`` is the untraced measurement every end-to-end
number comes from; ``measure_layers`` is the separate traced run that
yields the per-layer numbers, with the difference between the two as
the tracing overhead.

How a workload is timed: set-up (synthetic integrals from the seed,
SCF, numpy reference) runs several times and ``setup_s`` is the lower
quartile of those samples; the first compile + run in the process is
the warm-up (it pays lazy imports, plan compilation and einsum path
search; reported, not bounded); then a closed loop of timed repeats --
one client, the next run starts when the previous returns -- each of
exactly ``api.compile_sial(source)`` + ``api.run(program, fresh_config,
symbolics)``.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from multiprocessing import active_children
from typing import Any, Callable, Optional

import numpy as np

from . import micro, tracing
from . import workloads as wl


def _cpu_seconds() -> tuple[float, float, float]:
    """(total, children user, children sys) CPU seconds so far."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return total, kids.ru_utime, kids.ru_stime


def _reset_peak_rss() -> bool:
    """Restart this process's RSS high-water mark from its current RSS.

    Generating the inputs peaks far above anything the run needs (the
    contraction's integrals go through several 79 MB temporaries), so
    without this the metric would measure the benchmark, not the program.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def _peak_rss_mb() -> float:
    """Largest single-process high-water mark: this process or a rank."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # Linux reports KiB


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: list[float], statistic: str = "median") -> dict:
    """Quartiles of the samples; ``value`` is the statistic reported."""
    q1, median, q3 = quartiles(values)
    return {
        "value": {"median": median, "q1": q1}[statistic],
        "statistic": statistic,
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
        "runs": list(values),
    }


@dataclass
class Repeat:
    """One timed operation and the evidence its checks need."""

    wall_s: float
    cpu_s: float
    children_user_s: float
    children_sys_s: float
    error: Optional[float] = None
    fingerprint: Optional[str] = None
    stats: dict = field(default_factory=dict)
    sim_elapsed_s: float = 0.0
    wait_fraction: float = 0.0
    failure: Optional[str] = None


def timed_run(
    workload: wl.Workload,
    inputs: wl.Inputs,
    toy: bool,
    run: Callable = wl.run_once,
) -> Repeat:
    """One operation: time it, then (outside the timing) examine it."""
    gc.collect()
    cpu0, ku0, ks0 = _cpu_seconds()
    started = time.perf_counter()
    try:
        result = run(workload, inputs, toy)
    except Exception as exc:  # noqa: BLE001 - a failed operation is data
        wall = time.perf_counter() - started
        return Repeat(wall, 0.0, 0.0, 0.0, failure=f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - started
    cpu1, ku1, ks1 = _cpu_seconds()
    value = wl.result_value(inputs, result)
    return Repeat(
        wall_s=wall,
        cpu_s=cpu1 - cpu0,
        children_user_s=ku1 - ku0,
        children_sys_s=ks1 - ks0,
        error=float(np.max(np.abs(np.asarray(value) - np.asarray(inputs.reference)))),
        fingerprint=wl.fingerprint(result, value),
        stats=result.stats,
        sim_elapsed_s=result.elapsed,
        wait_fraction=result.profile.wait_fraction,
    )


def check(rep: Repeat, first: Optional[str], twin: Optional[str]) -> Optional[str]:
    """Why this operation failed, or None.

    An operation fails if it raised, misses the numpy reference, differs
    bitwise from the process's first run or from its simulator twin, or
    leaked a shared-memory segment or an arena lease.
    """
    if rep.failure is not None:
        return rep.failure
    if not rep.error <= wl.TOLERANCE:
        return f"|value - reference| = {rep.error:g} > {wl.TOLERANCE:g}"
    if rep.fingerprint != first:
        return "result differs bitwise from the first run"
    if twin is not None and rep.fingerprint != twin:
        return "mp result differs bitwise from its simulator twin"
    leaks = {k: rep.stats.get(k, 0) for k in ("mp_shm_leaked", "arena_refs_leaked")}
    if any(leaks.values()):
        return f"leaked shared memory: {leaks}"
    return None


def failed_runs(runs: list[Repeat], twin: Optional[str] = None) -> dict[int, str]:
    """index -> reason for every failed run; ``runs[0]`` is the process's first."""
    first = runs[0].fingerprint
    return {
        i: why
        for i, rep in enumerate(runs)
        if (why := check(rep, first, twin)) is not None
    }


def leftovers() -> list[str]:
    """Child processes or shm segments this process left behind."""
    found = [f"child process {p.name}" for p in active_children()]
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        names = []
    # mprunner names its segments rmp<parent pid in hex><random>...
    prefix = f"rmp{os.getpid():x}"
    found += [f"/dev/shm/{n}" for n in names if n.startswith(prefix)]
    return found


def timed_setup(
    workload: wl.Workload, seed: int, toy: bool, budget_s: float = 1.5
) -> tuple[wl.Inputs, list[float]]:
    """Generate the inputs 5 to 50 times; every duration is a sample."""
    times: list[float] = []
    inputs = None
    while len(times) < 5 or (len(times) < 50 and sum(times) < budget_s):
        del inputs  # one input set alive at a time keeps peak RSS honest
        gc.collect()
        started = time.perf_counter()
        inputs = wl.make_inputs(workload, seed, toy)
        times.append(time.perf_counter() - started)
    return inputs, times


def pair_run(workload: wl.Workload, inputs: wl.Inputs, toy: bool) -> Repeat:
    """The same inputs on the simulator twin of an mp workload."""
    return timed_run(wl.WORKLOADS[workload.pair], inputs, toy)


def _closed_loop(
    one: Callable[[], Any],
    repeats: Optional[int],
    seconds: Optional[float],
    started: Optional[float] = None,
) -> list:
    """Run ``one`` a fixed number of times, or until ``seconds`` after
    ``started`` (default: now) but at least 3 times."""
    out = []
    if started is None:
        started = time.perf_counter()
    while True:
        out.append(one())
        if repeats is not None:
            if len(out) >= repeats:
                return out
        elif len(out) >= 3 and time.perf_counter() - started >= seconds:
            return out


def measure_end_to_end(
    workload: wl.Workload,
    seed: int,
    *,
    repeats: Optional[int] = None,
    seconds: Optional[float] = None,
    toy: bool = False,
    run: Callable = wl.run_once,
) -> dict:
    """The untraced measurement; returns the workload's report entry."""
    inputs, setup_times = timed_setup(workload, seed, toy)
    _, dropped = wl.build_config(workload, inputs, toy)
    rss_reset = _reset_peak_rss()

    warmup = timed_run(workload, inputs, toy, run)
    reps = _closed_loop(
        lambda: timed_run(workload, inputs, toy, run), repeats, seconds
    )
    peak_rss_mb = _peak_rss_mb()

    # the twin runs after the timed region, so the parent a rank forks
    # from is not inflated by a whole simulator run
    twin = pair_run(workload, inputs, toy) if workload.pair else None
    # the warm-up is checked like a repeat but is not a counted operation
    bad = failed_runs([warmup] + reps, twin.fingerprint if twin else None)
    failed = len(bad) - (0 in bad)
    failures = [
        f"{'warm-up' if i == 0 else f'repeat {i - 1}'}: {why}" for i, why in bad.items()
    ]
    if twin is not None and twin.failure is not None:
        failures.append(f"simulator twin: {twin.failure}")
    good = [r for r in reps if r.failure is None] or reps
    last = good[-1]
    if workload.config.get("spill") and not last.stats.get("mem_spills", 0):
        failures.append("spill workload spilled nothing: the memory budget is inert")
    failures += [f"left behind: {item}" for item in leftovers()]

    return {
        "execution": workload.execution,
        "config_digest": wl.config_digest(workload, toy),
        "config_keys_dropped": dropped,
        "ops_attempted": len(reps),
        "ops_failed": failed,
        "correct": not failures,
        "failures": failures,
        "fingerprint": warmup.fingerprint,
        "peak_rss_excludes_setup": rss_reset,
        # Every time is the lower quartile of its samples.  Interference
        # on a shared box only ever adds time, and first-touch page faults
        # in a VM make the large-array samples bimodal (about a third of
        # the 79 MB set-ups take twice as long, at random): over ten runs
        # of every workload the lower quartile spread less than the median.
        "end_to_end": {
            "wall_s": summary([r.wall_s for r in good], "q1"),
            "cpu_s": summary([r.cpu_s for r in good], "q1"),
            "peak_rss_mb": summary([peak_rss_mb]),
            "setup_s": summary(setup_times, "q1"),
        },
        # informational: one sample; the traced run reports the same
        # quantity as the per-layer metric sip.runner.cold_run_s
        "warmup_s": warmup.wall_s,
    }


# -- the traced run ----------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _stat_metrics(rep: Repeat, execution: str) -> dict:
    """Per-layer counts read from RunResult.stats / RunResult.profile."""
    s = rep.stats.get
    sim = execution == "sim"
    removed = s("opt_instructions_before", 0) - s("opt_instructions_after", 0)
    return {
        "sial.passes.instr_removed": removed,
        "sip.vm.instr_executed": s("instr_executed", 0),
        "sip.vm.sim_wait_frac": rep.wait_fraction if sim else 0.0,
        "sip.vm.sim_elapsed_s": rep.sim_elapsed_s if sim else 0.0,
        "sip.plans.hit_rate": s("plan_cache_hit_rate", 0.0),
        "sip.backend.cow_bytes_copied": s("cow_bytes_copied", 0),
        "sip.blockio.issued": s("blockio_issued", 0),
        "sip.blockio.coalesced_ratio": _ratio(
            s("blockio_coalesced", 0), s("blockio_issued", 0) + s("blockio_coalesced", 0)
        ),
        "sip.blockio.backpressure_stalls": s("blockio_backpressure_stalls", 0),
        "sip.cache.hit_rate": _ratio(
            s("cache_hits", 0), s("cache_hits", 0) + s("cache_misses", 0)
        ),
        "sip.cache.evictions": s("cache_evictions", 0),
        "sip.cache.refetches": s("refetches", 0),
        "sip.memman.spills": s("mem_spills", 0),
        "sip.memman.faults_in": s("mem_faults_in", 0),
        "sip.memman.cascades": s("mem_cascades", 0),
        "sip.memman.peak_bytes": s("mem_peak_bytes", 0),
        "simmpi.messages": s("messages_sent", 0) if sim else 0,
        "simmpi.remote_bytes": s("remote_bytes", 0) if sim else 0,
        "sip.master.chunks": s("sched_chunks", 0),
        "sip.scheduler.steals": s("sched_steals", 0),
        "sip.ioserver.disk_reads": s("disk_reads", 0),
        "sip.ioserver.disk_writes": s("disk_writes", 0),
        "sip.ioserver.cache_hit_rate": _ratio(
            s("server_cache_hits", 0),
            s("server_cache_hits", 0) + s("server_cache_misses", 0),
        ),
        "mp.messages": 0 if sim else s("messages_sent", 0),
        "mp.bytes_sent": 0 if sim else s("bytes_sent", 0),
        "mp.bytes_zero_copy_frac": _ratio(s("bytes_zero_copy", 0), s("bytes_sent", 0)),
        "mp.arena_hits": s("arena_hits", 0),
        "mp.arena_handoffs": s("arena_handoffs", 0),
        "mp.arena_misses": s("arena_misses", 0),
        "mp.batch_msgs_per_write": s("batch_msgs_per_write", 0.0),
    }


#: the span the harness itself opens around each traced operation
ROOT_SPAN = "bench.repeat"

#: metric <- (span, "self" seconds | "calls")
_SPAN_METRICS = {
    "sial.compile_s": ("sial.compile", "self"),
    "sial.passes.optimize_s": ("sial.passes.optimize", "self"),
    "sip.vm.residual_s": ("sip.vm.residual", "self"),
    "sip.decode.resolve_s": ("sip.decode.resolve", "self"),
    "sip.decode.resolve_calls": ("sip.decode.resolve", "calls"),
    "sip.backend.kernel_s": ("sip.backend.kernel", "self"),
    "sip.backend.kernel_calls": ("sip.backend.kernel", "calls"),
    "sip.plans.lookup_s": ("sip.plans.lookup", "self"),
    "sip.blockio.sync_s": ("sip.blockio.sync", "self"),
    "sip.cache.s": ("sip.cache", "self"),
    "sip.memman.s": ("sip.memman", "self"),
    "simmpi.comm_s": ("simmpi.comm", "self"),
    "sip.dryrun.s": ("sip.dryrun", "self"),
    "sip.mprunner.execute_s": ("sip.mprunner.execute", "self"),
    "sip.runner.other_s": (ROOT_SPAN, "self"),
}


def traced_run(
    workload: wl.Workload,
    inputs: wl.Inputs,
    toy: bool,
) -> tuple[Repeat, tracing.Tracer, tracing.Installation]:
    """One operation with the wrappers in place, removed again after."""
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, workload.execution)

    def run(*args):
        with tracer.span(ROOT_SPAN):
            return wl.run_once(*args)

    try:
        rep = timed_run(workload, inputs, toy, run)
    finally:
        installed.uninstall()
    return rep, tracer, installed


def measure_layers(
    workload: wl.Workload,
    seed: int,
    *,
    repeats: Optional[int] = None,
    seconds: Optional[float] = None,
    toy: bool = False,
) -> dict:
    """The traced measurement; returns the workload's per-layer entry.

    ``_s`` metrics are medians of span self time over the traced
    repeats; counts come from the last traced repeat.  A metric whose
    every target is gone is ``None``.
    """
    inputs = wl.make_inputs(workload, seed, toy)
    cold = timed_run(workload, inputs, toy)
    started = time.perf_counter()
    plain = [timed_run(workload, inputs, toy) for _ in range(2)]
    untraced_wall = statistics.median(r.wall_s for r in plain)

    traced = _closed_loop(
        lambda: traced_run(workload, inputs, toy), repeats, seconds, started
    )
    reps = [t[0] for t in traced]
    tracers = [t[1] for t in traced]
    installed = traced[-1][2]
    bad = failed_runs([cold] + plain + reps)
    failed = len(bad)
    failures = [f"run {i}: {why}" for i, why in bad.items()]
    last = reps[-1]

    def span_value(span: str, what: str) -> Optional[float]:
        if span in installed.skipped:
            return 0.0  # runs inside forked ranks: not seen from the parent
        if span != ROOT_SPAN and span not in installed.spans:
            return None  # every target of this span is gone
        if what == "calls":
            return tracers[-1].calls.get(span, 0)
        return statistics.median(t.self_s(span) for t in tracers)

    values: dict = {m: span_value(*src) for m, src in _SPAN_METRICS.items()}
    values.update(_stat_metrics(last, workload.execution))

    traced_wall = statistics.median(r.wall_s for r in reps)
    kernel_s = values["sip.backend.kernel_s"] or 0.0
    instr = values["sip.vm.instr_executed"]
    values["sip.vm.us_per_instr"] = (
        1e6 * (untraced_wall - kernel_s) / instr if instr else 0.0
    )
    values["sip.runner.cold_run_s"] = cold.wall_s
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    values["trace.coverage"] = statistics.median(
        _ratio(sum(t.self_ns.values()) / 1e9, r.wall_s) for t, r in zip(tracers, reps)
    )

    mp = workload.execution == "mp"
    values["mp.children_user_s"] = statistics.median(r.children_user_s for r in plain)
    values["mp.children_sys_s"] = statistics.median(r.children_sys_s for r in plain)
    values["mp.cpu_parallelism"] = (
        statistics.median(r.cpu_s / r.wall_s for r in plain) if mp else 0.0
    )
    values["mp.over_sim"] = 0.0
    if workload.pair:
        twin = min(pair_run(workload, inputs, toy).wall_s for _ in range(2))
        values["mp.over_sim"] = untraced_wall / twin

    _, config = workload.resolved(toy)
    micro_values, micro_missing = micro.run_all(
        {k: config[k] for k in ("workers", "io_servers")} | {"execution": "mp"}
    )
    values.update(micro_values)
    missing = installed.missing + micro_missing
    values["trace.missing_targets"] = len(missing)
    failures += [f"left behind: {item}" for item in leftovers()]

    return {
        "ops_attempted": 1 + len(plain) + len(reps),
        "ops_failed": failed,
        "correct": not failures,
        "failures": failures,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "missing_targets": missing,
        "per_layer": values,
        "spans": tracers[-1].table(),
    }
