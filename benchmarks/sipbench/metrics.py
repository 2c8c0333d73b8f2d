"""The declared metric surface; ``BENCHMARK.json`` lists exactly these.

``exact`` marks a per-layer metric that repeats exactly on simulator
workloads (a count made by the deterministic simulator); ``compare``
diffs those exactly instead of judging them against noise.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: end-to-end only: share of the parent's median it may worsen by
    bound: Optional[float] = None
    exact: bool = False


END_TO_END: tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)


def _count(name: str, better: str = "lower") -> Metric:
    return Metric(name, "count", better, exact=True)


PER_LAYER: tuple[Metric, ...] = (
    # sial, sial.passes
    Metric("sial.compile_s", "s", "lower"),
    Metric("sial.passes.optimize_s", "s", "lower"),
    _count("sial.passes.instr_removed", "higher"),
    # sip.vm
    Metric("sip.vm.residual_s", "s", "lower"),
    _count("sip.vm.instr_executed"),
    Metric("sip.vm.us_per_instr", "us", "lower"),
    Metric("sip.vm.sim_wait_frac", "ratio", "lower", exact=True),
    Metric("sip.vm.sim_elapsed_s", "s", "lower", exact=True),
    # sip.decode
    Metric("sip.decode.resolve_s", "s", "lower"),
    _count("sip.decode.resolve_calls"),
    # sip.backend, sip.plans
    Metric("sip.backend.kernel_s", "s", "lower"),
    _count("sip.backend.kernel_calls"),
    Metric("sip.plans.lookup_s", "s", "lower"),
    Metric("sip.plans.hit_rate", "ratio", "higher", exact=True),
    Metric("sip.backend.cow_bytes_copied", "B", "lower", exact=True),
    # sip.blockio
    Metric("sip.blockio.sync_s", "s", "lower"),
    _count("sip.blockio.issued"),
    Metric("sip.blockio.coalesced_ratio", "ratio", "higher", exact=True),
    _count("sip.blockio.backpressure_stalls"),
    # sip.cache
    Metric("sip.cache.s", "s", "lower"),
    Metric("sip.cache.hit_rate", "ratio", "higher", exact=True),
    _count("sip.cache.evictions"),
    _count("sip.cache.refetches"),
    # sip.memman
    Metric("sip.memman.s", "s", "lower"),
    _count("sip.memman.spills"),
    _count("sip.memman.faults_in"),
    _count("sip.memman.cascades"),
    Metric("sip.memman.peak_bytes", "B", "lower", exact=True),
    # simmpi
    Metric("simmpi.comm_s", "s", "lower"),
    _count("simmpi.messages"),
    Metric("simmpi.remote_bytes", "B", "lower", exact=True),
    Metric("simmpi.eventloop.events_per_s", "1/s", "higher"),
    Metric("simmpi.comm.msgs_per_s", "1/s", "higher"),
    # sip.master, sip.scheduler
    _count("sip.master.chunks"),
    _count("sip.scheduler.steals"),
    # sip.ioserver, simmpi.disk
    _count("sip.ioserver.disk_reads"),
    _count("sip.ioserver.disk_writes"),
    Metric("sip.ioserver.cache_hit_rate", "ratio", "higher", exact=True),
    # sip.runner
    Metric("sip.runner.other_s", "s", "lower"),
    Metric("sip.runner.cold_run_s", "s", "lower"),
    Metric("sip.dryrun.s", "s", "lower"),
    # sip.mprunner, sip.mptransport, sip.arena (seen from the parent)
    Metric("mp.children_user_s", "s", "lower"),
    Metric("mp.children_sys_s", "s", "lower"),
    Metric("mp.cpu_parallelism", "ratio", "higher"),
    Metric("mp.over_sim", "ratio", "lower"),
    Metric("mp.messages", "count", "lower"),
    Metric("mp.bytes_sent", "B", "lower"),
    Metric("mp.bytes_zero_copy_frac", "ratio", "higher"),
    Metric("mp.arena_hits", "count", "higher"),
    Metric("mp.arena_handoffs", "count", "higher"),
    Metric("mp.arena_misses", "count", "lower"),
    Metric("mp.batch_msgs_per_write", "ratio", "higher"),
    Metric("sip.mprunner.execute_s", "s", "lower"),
    Metric("sip.mprunner.startup_s", "s", "lower"),
    Metric("sip.mptransport.frame_us_per_msg", "us", "lower"),
    Metric("sip.mptransport.inline_block_us", "us", "lower"),
    Metric("sip.arena.transfer_us", "us", "lower"),
    # the trace itself
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("trace.coverage", "ratio", "higher"),
    Metric("trace.missing_targets", "count", "lower"),
)
