"""Top-level execution of a compiled SIAL program on the simulated SIP.

``run_program`` wires a master, N workers (each with a service pump),
and M I/O servers onto a simulated MPI world, scatters any initial
array contents, runs the discrete-event simulation to completion, and
returns a :class:`RunResult` with the simulated wall time, the full
profile, scalar values, and (in real mode) array contents.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..sial.bytecode import CompiledProgram
from ..sial.compiler import compile_source
from ..simmpi import Simulator, World
from ..simmpi.faults import FaultReport, ResilienceStats, WorkerCrashed
from .blockio import BlockIOStats
from .blocks import Block, BlockId
from .checkpoint import has_checkpoint
from .config import SIPConfig, SIPError
from .dryrun import DryRunReport, InfeasibleComputation, dry_run
from .ioserver import IOServerProcess
from .master import MasterProcess
from .profiling import RunProfile
from .runtime import SharedRuntime
from .sanitizer import SanitizerReport
from .vm import WorkerProcess

__all__ = ["RunResult", "run_program", "run_source"]


@dataclass
class RunResult:
    """Everything a run produced."""

    elapsed: float
    profile: RunProfile
    scalars: dict[str, float]
    dry_run: DryRunReport
    stats: dict[str, Any]
    external_store: dict[str, Any]
    fault_report: Optional[FaultReport] = None
    sanitizer_report: Optional[SanitizerReport] = None
    _rt: SharedRuntime = field(repr=False, default=None)
    _workers: list = field(repr=False, default_factory=list)
    _servers: list = field(repr=False, default_factory=list)

    def array(self, name: str) -> np.ndarray:
        """Gather a named array's final contents (real mode only)."""
        rt = self._rt
        array_id = rt.array_id_by_name(name)
        desc = rt.array_desc(array_id)
        blocks: dict[tuple[int, ...], Block] = {}
        if desc.kind == "static":
            for bid, block in self._workers[0].local_blocks.items():
                if bid.array_id == array_id:
                    blocks[bid.coords] = block
        elif desc.kind == "distributed":
            for w in self._workers:
                for bid, block in w.owned.items():
                    if bid.array_id == array_id:
                        blocks[bid.coords] = block
        elif desc.kind == "served":
            for s in self._servers:
                blocks.update(s.current_blocks(array_id))
        else:
            raise SIPError(
                f"array {name!r} has kind {desc.kind!r}; only static, "
                "distributed and served arrays persist after a run"
            )
        return rt.assemble_array(array_id, blocks)

    def scalar(self, name: str) -> float:
        return self.scalars[name.lower()]


def run_source(
    source: str,
    config: Optional[SIPConfig] = None,
    symbolics: Optional[dict[str, float]] = None,
) -> RunResult:
    """Compile SIAL source and run it (convenience wrapper)."""
    # verbatim: run_program applies the config's -O level
    return run_program(compile_source(source, optimize=0), config, symbolics)


def run_program(
    program: CompiledProgram,
    config: Optional[SIPConfig] = None,
    symbolics: Optional[dict[str, float]] = None,
) -> RunResult:
    config = config if config is not None else SIPConfig()
    symbolics = dict(symbolics or {})

    # Apply the optimizing middle-end once, before the restart loop:
    # every attempt (and every mp child, which receives the program by
    # pickle) executes the same optimized bytecode
    if config.opt_level > 0:
        from ..sial.passes import optimize_program

        program = optimize_program(program, config.opt_level)

    # Retry counters accumulate across crash-triggered restarts (the
    # FaultPlan's own injection counters already persist on the plan).
    retries = ResilienceStats()
    restarts = 0
    while True:
        try:
            return _execute(program, config, symbolics, retries, restarts)
        except WorkerCrashed as crash:
            plan = config.faults
            if plan is None:
                raise
            if not has_checkpoint(config.external_store):
                raise SIPError(
                    f"{crash} and no checkpoint exists to restart from"
                ) from crash
            if restarts >= plan.max_restarts:
                raise SIPError(
                    f"{crash}; giving up after {restarts} restarts"
                ) from crash
            restarts += 1
            # the program-level restart idiom: SIAL programs branch on
            # the `restart` symbolic to reload checkpointed state
            if any(n.lower() == "restart" for n in program.symbolic_table):
                symbolics["restart"] = 1.0


def _execute(
    program: CompiledProgram,
    config: SIPConfig,
    symbolics: dict[str, float],
    retries: ResilienceStats,
    restarts: int,
) -> RunResult:
    if config.execution == "mp":
        from .mprunner import execute_mp

        return execute_mp(program, config, symbolics, retries, restarts)

    wall_start = time.perf_counter()
    sim = Simulator()
    world = World(sim, config.world_size, config.machine.network(), config.faults)
    rt = SharedRuntime(program, config, symbolics, sim, world)

    report = dry_run(program, config, rt.table)
    if not report.feasible:
        raise InfeasibleComputation(report.report())

    workers = [
        WorkerProcess(rt, i, world.comm(config.worker_rank(i)))
        for i in range(config.workers)
    ]
    servers = [
        IOServerProcess(rt, i, world.comm(config.server_rank(i)))
        for i in range(config.io_servers)
    ]
    master = MasterProcess(rt, world.comm(config.master_rank))

    scatter_inputs(rt, workers, servers)

    sim.spawn(master.run(), name="master")
    for i, w in enumerate(workers):
        sim.spawn(w.run(), name=f"worker{i}")
        sim.spawn(w.service(), name=f"worker{i}.service")
    for i, s in enumerate(servers):
        sim.spawn(s.run(), name=f"ioserver{i}")

    try:
        sim.run()
    finally:
        # harvest retry counters even from a crashed attempt, so the
        # post-restart FaultReport covers the whole recovery story
        for w in workers:
            retries.add(w.resilience)
        for s in servers:
            retries.add(s.resilience)
        retries.add(master.resilience)
        # fault spilled blocks back in so result gathering (and the
        # external store) sees every block's data
        for w in workers:
            w.memman.restore_all()
        # fold any never-read buffered '+=' contributions so gathered
        # arrays see them (canonical key order keeps results identical
        # to an in-run fold)
        for w in workers:
            w.fold_pending_accums()
        for s in servers:
            s.flush_pending()

    return _finalize(
        program,
        config,
        rt,
        report,
        workers,
        servers,
        master,
        retries,
        restarts,
        wall_seconds=time.perf_counter() - wall_start,
    )


def _finalize(
    program: CompiledProgram,
    config: SIPConfig,
    rt: SharedRuntime,
    report: DryRunReport,
    workers: list,
    servers: list,
    master,
    retries: ResilienceStats,
    restarts: int,
    wall_seconds: float = 0.0,
) -> RunResult:
    """Assemble a :class:`RunResult` from finished rank objects.

    Shared by both execution backends: the simulator passes its live
    ``WorkerProcess``/``IOServerProcess``/``MasterProcess`` objects, the
    multiprocess runner passes gathered per-rank stand-ins exposing the
    same attributes (see :mod:`repro.sip.mprunner`).
    """
    elapsed = max((w.profile.elapsed for w in workers), default=0.0)
    memory = _aggregate_mem(workers, servers)
    blockio = _aggregate_blockio(workers, servers)
    profile = RunProfile(
        workers=[w.profile for w in workers],
        elapsed=elapsed,
        program=program,
        plan_cache=rt.plan_cache.stats if rt.plan_cache is not None else None,
        cow=rt.cow,
        memory=memory,
        memory_budget=config.memory_budget,
        scheduling=master.sched_stats,
        blockio=blockio,
    )
    scalars = {
        name.lower(): workers[0].scalars[i]
        for i, name in enumerate(program.scalar_table)
    }
    stats = _collect_stats(rt, workers, servers, master)
    stats["execution"] = config.execution
    stats["wallclock_seconds"] = wall_seconds
    tracer = config.tracer
    if tracer is not None and hasattr(tracer, "annotate"):
        if rt.plan_cache is not None:
            p = rt.plan_cache.stats
            tracer.annotate(
                "plan_cache",
                f"{p.hits} hits / {p.misses} misses "
                f"(hit rate {100.0 * p.hit_rate:.1f} %)",
            )
        tracer.annotate(
            "zero_copy",
            f"{rt.cow.sends_shared} payloads shared, "
            f"{rt.cow.bytes_not_copied} bytes not copied, "
            f"{rt.cow.cow_copies} cow copies",
        )
        if memory.cascades or memory.spills or memory.pressure_evictions:
            tracer.annotate(
                "memory_pressure",
                f"{memory.pressure_evictions} pressure evictions, "
                f"{memory.spills} spills ({memory.spill_bytes} B), "
                f"{memory.faults_in} faults back in, "
                f"peak {memory.peak_bytes} B of "
                f"{config.memory_budget:.0f} B budget",
            )
        if blockio.issued or blockio.disk_loads:
            tracer.annotate(
                "blockio",
                f"{blockio.issued} fetches issued "
                f"({blockio.coalesced} coalesced, peak "
                f"{blockio.in_flight_peak} in flight), "
                f"{blockio.puts_posted + blockio.prepares_posted} writes "
                f"posted, {blockio.hint_drops} hints dropped",
            )
        sched = master.sched_stats
        if sched.chunks:
            text = (
                f"{sched.policy}: {sched.chunks} chunks, "
                f"{sched.iterations} iterations"
            )
            if sched.policy == "locality":
                text += (
                    f", {sched.locality_hits} locality hits, "
                    f"{sched.steals} steals"
                )
            tracer.annotate("scheduling", text)
    fault_report = None
    if config.faults is not None:
        fault_report = FaultReport(
            injected=config.faults.stats,
            retries=retries,
            restarts=restarts,
            completed=True,
            log=list(config.faults.log),
        )
    return RunResult(
        elapsed=elapsed,
        profile=profile,
        scalars=scalars,
        dry_run=report,
        stats=stats,
        external_store=rt.external_store,
        fault_report=fault_report,
        sanitizer_report=(
            rt.sanitizer.report() if rt.sanitizer is not None else None
        ),
        _rt=rt,
        _workers=workers,
        _servers=servers,
    )


def scatter_inputs(rt: SharedRuntime, workers=(), servers=()) -> None:
    """Pre-load the given ranks' share of the initial array contents.

    Runs outside simulated time.  The simulator passes every worker and
    I/O server, an mp child the one rank object it holds.  Static arrays
    are fully replicated; a distributed or served array is sliced only
    at the coordinates one of the given ranks owns.
    """
    for name, value in rt.config.inputs.items():
        try:
            array_id = rt.array_id_by_name(name)
        except KeyError:
            raise SIPError(f"input provided for undeclared array {name!r}") from None
        kind = rt.array_desc(array_id).kind
        if value is not None:
            value = np.asarray(value, dtype=rt.dtype)  # convert once, not per rank
        if kind == "static":
            # the input is sliced once and every worker holds a
            # copy-on-write share of the same block (copies happen on
            # first write)
            blocks = rt.blocks_from_input(array_id, value) if workers else {}
            for w in workers:
                for coords, block in blocks.items():
                    bid = BlockId(array_id, coords)
                    held = block.share()
                    w.local_blocks[bid] = held
                    w.memman.adopt(bid, held, "static")
        elif kind == "distributed":
            placement = rt.placements[array_id]
            for w in workers:
                mine = placement.owned_by(w.worker_index)
                for coords, block in rt.blocks_from_input(array_id, value, mine).items():
                    bid = BlockId(array_id, coords)
                    w.owned[bid] = block
                    w.memman.adopt(bid, block, "distributed")
        elif kind == "served":
            placement = rt.served_placements[array_id]
            for s in servers:
                mine = placement.owned_by(s.server_index)
                for coords, block in rt.blocks_from_input(array_id, value, mine).items():
                    s.disk_data[BlockId(array_id, coords)] = (
                        block.data if block.data is not None else block.shape
                    )
        else:
            raise SIPError(
                f"cannot provide input for {kind} array {name!r}; "
                "only static, distributed, and served arrays take inputs"
            )


def _aggregate_mem(workers, servers):
    from .memman import MemStats

    agg = MemStats()
    for w in workers:
        agg.add(w.memman.stats)
    for s in servers:
        agg.add(s.memman.stats)
    return agg


def _aggregate_blockio(workers, servers) -> BlockIOStats:
    """Sum every rank's transfer-engine counters (peaks take max)."""
    total = BlockIOStats()
    for rank_obj in list(workers) + list(servers):
        total.add(rank_obj.blockio.stats)
    return total


def _collect_stats(rt, workers, servers, master) -> dict[str, Any]:
    cache_hits = sum(w.cache.stats.hits for w in workers)
    cache_misses = sum(w.cache.stats.misses for w in workers)
    plans = rt.plan_cache
    opt_counters: dict[str, Any] = {"opt_level": rt.program.opt_level}
    if rt.program.opt_report is not None:
        opt_counters = rt.program.opt_report.counters()
    bio = _aggregate_blockio(workers, servers)
    return {
        **opt_counters,
        "instr_executed": sum(w.profile.instructions for w in workers),
        "plan_cache_hits": plans.stats.hits if plans is not None else 0,
        "plan_cache_misses": plans.stats.misses if plans is not None else 0,
        "plan_cache_hit_rate": plans.stats.hit_rate if plans is not None else 0.0,
        "plan_cache_gemm": plans.stats.gemm_plans if plans is not None else 0,
        # every plan that is not a GEMM, as before outer products had
        # a plan of their own: the golden counters pin this sum
        "plan_cache_einsum": (
            plans.stats.einsum_plans + plans.stats.outer_plans
            if plans is not None
            else 0
        ),
        "cow_shared_payloads": rt.cow.sends_shared,
        "cow_bytes_not_copied": rt.cow.bytes_not_copied,
        "cow_copies": rt.cow.cow_copies,
        "cow_bytes_copied": rt.cow.cow_bytes_copied,
        "messages_sent": rt.world.stats.messages_sent,
        "bytes_sent": rt.world.stats.bytes_sent,
        "remote_bytes": rt.world.stats.remote_bytes,
        # mp transport counters; zero on the simulator so the stats
        # surface is uniform across backends (mprunner overwrites)
        "arena_hits": 0,
        "arena_misses": 0,
        "arena_handoffs": 0,
        "bytes_zero_copy": 0,
        "arena_refs_leaked": 0,
        "batch_msgs_per_write": 0.0,
        "mp_engine_blocked_s": 0.0,
        "mp_engine_blocked_max_s": 0.0,
        "mp_engine_blocked_waits": 0,
        "mp_engine_polls": 0,
        "mp_engine_poll_deliveries": 0,
        "mp_engine_events_fired": 0,
        "blockio_issued": bio.issued,
        "blockio_issued_gets": bio.issued_gets,
        "blockio_issued_requests": bio.issued_requests,
        "blockio_coalesced": bio.coalesced,
        "blockio_waiters": bio.waiters,
        "blockio_waiter_peak": bio.waiter_peak,
        "blockio_in_flight_peak": bio.in_flight_peak,
        "blockio_backpressure_stalls": bio.backpressure_stalls,
        "blockio_hint_drops": bio.hint_drops,
        "blockio_puts": bio.puts_posted,
        "blockio_prepares": bio.prepares_posted,
        "blockio_replies": bio.replies_served,
        "blockio_disk_loads": bio.disk_loads,
        "blockio_writebacks": bio.writebacks,
        "blockio_writebacks_superseded": bio.writebacks_superseded,
        "blockio_accums_buffered": bio.accums_buffered,
        "blockio_accum_folds": bio.accum_folds,
        "blockio_fault_ins": bio.fault_ins,
        "blockio_spills": bio.spills,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "cache_evictions": sum(w.cache.stats.evictions for w in workers),
        "cache_evicted_before_use": sum(
            w.cache.stats.evicted_before_use for w in workers
        ),
        "refetches": sum(w.cache.stats.refetches for w in workers),
        "pool_peak_bytes": max((w.pool.stats.peak_bytes for w in workers), default=0),
        "mem_budget_bytes": rt.config.memory_budget,
        "mem_peak_bytes": max(
            (w.memman.stats.peak_bytes for w in workers), default=0
        ),
        "mem_cascades": sum(w.memman.stats.cascades for w in workers)
        + sum(s.memman.stats.cascades for s in servers),
        "mem_pressure_evictions": sum(
            w.memman.stats.pressure_evictions for w in workers
        )
        + sum(s.memman.stats.pressure_evictions for s in servers),
        "mem_spills": sum(w.memman.stats.spills for w in workers),
        "mem_spill_bytes": sum(w.memman.stats.spill_bytes for w in workers),
        "mem_faults_in": sum(w.memman.stats.faults_in for w in workers),
        "mem_fault_bytes": sum(w.memman.stats.fault_bytes for w in workers),
        "mem_peak_spill_bytes": max(
            (w.memman.stats.peak_spill_bytes for w in workers), default=0
        ),
        "mem_spill_retries": sum(
            w.memman.stats.spill_write_retries + w.memman.stats.spill_read_retries
            for w in workers
        ),
        "chunks_served": master.chunks_served,
        "sched_policy": master.sched_stats.policy,
        "sched_chunks": master.sched_stats.chunks,
        "sched_iterations": master.sched_stats.iterations,
        "sched_locality_hits": master.sched_stats.locality_hits,
        "sched_locality_misses": master.sched_stats.locality_misses,
        "sched_steals": master.sched_stats.steals,
        "sched_stolen_iterations": master.sched_stats.stolen_iterations,
        "server_cache_hits": sum(s.cache.stats.hits for s in servers),
        "server_cache_misses": sum(s.cache.stats.misses for s in servers),
        "disk_reads": sum(s.disk.stats.reads for s in servers),
        "disk_writes": sum(s.disk.stats.writes for s in servers),
        "disk_bytes_read": sum(s.disk.stats.bytes_read for s in servers),
        "disk_bytes_written": sum(s.disk.stats.bytes_written for s in servers),
    }
