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
from .blocks import Block, BlockId
from .checkpoint import has_checkpoint
from .config import SIPConfig, SIPError
from .dryrun import DryRunReport, InfeasibleComputation, dry_run
from .fold import fold
from .ioserver import IOServerProcess
from .master import MasterProcess
from .profiling import RunProfile
from .runtime import SharedRuntime
from .sanitizer import SanitizerReport
from .stats import RankReport, RunStats, build_stats, rank_report, run_profile
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
    #: what each rank left behind, in rank order (master, workers, servers)
    reports: list[RankReport] = field(repr=False, default_factory=list)
    _rt: SharedRuntime = field(repr=False, default=None)

    def array(self, name: str) -> np.ndarray:
        """Gather a named array's final contents (real mode only)."""
        rt = self._rt
        array_id = rt.array_id_by_name(name)
        desc = rt.array_desc(array_id)
        held = {"static": "local_blocks", "distributed": "owned", "served": "served"}
        if desc.kind not in held:
            raise SIPError(
                f"array {name!r} has kind {desc.kind!r}; only static, "
                "distributed and served arrays persist after a run"
            )
        blocks: dict[tuple[int, ...], Block] = {}
        for r in self.reports:
            for bid, block in getattr(r, held[desc.kind]).items():
                if bid.array_id == array_id:
                    blocks[bid.coords] = block
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
        for proc in (*workers, *servers, master):
            fold(retries, proc.resilience)
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

    reports = [rank_report(proc, rt) for proc in (master, *workers, *servers)]
    run = RunStats(wallclock_seconds=time.perf_counter() - wall_start)
    return _finalize(program, config, rt, report, reports, retries, restarts, run)


def _finalize(
    program: CompiledProgram,
    config: SIPConfig,
    rt: SharedRuntime,
    report: DryRunReport,
    reports: list[RankReport],
    retries: ResilienceStats,
    restarts: int,
    run: RunStats,
) -> RunResult:
    """Assemble a :class:`RunResult` from the ranks' reports (both
    backends).  ``rt`` serves result assembly, the external store and
    the sanitizer, never the counters."""
    stats = build_stats(reports, run, config, program)
    profile = run_profile(reports, run, stats, config, program)
    tracer = config.tracer
    if tracer is not None and hasattr(tracer, "annotate"):
        for key, line in profile.sections().items():
            tracer.annotate(key, line)
    worker0 = next(r for r in reports if r.role == "worker")
    scalars = {
        name.lower(): worker0.scalars[i] for i, name in enumerate(program.scalar_table)
    }
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
        elapsed=profile.elapsed,
        profile=profile,
        scalars=scalars,
        dry_run=report,
        stats=stats,
        external_store=rt.external_store,
        fault_report=fault_report,
        sanitizer_report=(
            rt.sanitizer.report() if rt.sanitizer is not None else None
        ),
        reports=reports,
        _rt=rt,
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
