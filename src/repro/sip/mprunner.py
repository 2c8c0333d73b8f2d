"""Multiprocess execution of a compiled SIAL program (``execution="mp"``).

The parent builds the shared runtime exactly like the simulator path
(feasibility check, placements, gather/assembly helpers), then forks
one OS process per SIP rank.  Each child wires its single rank object
(:class:`~.vm.WorkerProcess`, :class:`~.ioserver.IOServerProcess` or
:class:`~.master.MasterProcess`) onto an :class:`~.mptransport.MPWorld`
over a pre-forked full mesh of duplex pipes, drives it with an
:class:`~.mptransport.MPEngine`, and ships its results home: its rank
report and sanitizer/trace state pickled over a dedicated result pipe,
every array byte (owned blocks, served blocks, external store writes)
through one shared-memory segment per rank that the parent maps
instead of copying (:mod:`~.gather`).

The parent supervises: it drains result pipes while children run (a
send larger than the pipe buffer blocks until the reader catches up,
so results must be read *before* join), detects a child that died
without reporting, tears the fleet down on any error, and finally
sweeps ``/dev/shm`` for segments the crashed path may have leaked.  A
child's report is the :class:`~.stats.RankReport` the simulator builds
from its live ranks, so both backends finish through one path.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import re
import time
import traceback
from multiprocessing import connection as mpconn
from multiprocessing import get_context
from typing import Any, Optional

from ..sial.bytecode import CompiledProgram
from ..simmpi import Simulator, World
from ..simmpi.faults import ResilienceStats
from . import gather
from .config import SIPConfig, SIPError
from .dryrun import InfeasibleComputation, dry_run
from .ioserver import IOServerProcess
from .master import MasterProcess
from .mptransport import MPEngine, MPWorld, mp_barrier_service
from .runner import _finalize, scatter_inputs
from .runtime import SharedRuntime
from .stats import RunStats, rank_report
from .vm import WorkerProcess

__all__ = ["execute_mp"]

#: seconds to wait for an already-reported child to exit before terminating
_JOIN_GRACE = 10.0

#: report fields that hold array data; they travel through the rank's
#: gather segment (with a worker's external-store writes), never
#: through the result pipe
_GATHERED = ("owned", "local_blocks", "served")


def _rank_roles(config: SIPConfig) -> dict[int, tuple[str, int]]:
    roles: dict[int, tuple[str, int]] = {config.master_rank: ("master", 0)}
    for i in range(config.workers):
        roles[config.worker_rank(i)] = ("worker", i)
    for i in range(config.io_servers):
        roles[config.server_rank(i)] = ("server", i)
    return roles


def _store_baseline(store: dict) -> dict:
    return {k: dict(v) if isinstance(v, dict) else v for k, v in store.items()}


def _store_delta(store: dict, baseline: dict) -> dict:
    """Entries this rank wrote (identity check: writes bind new objects)."""
    delta: dict = {}
    for k, v in store.items():
        base = baseline.get(k)
        if isinstance(v, dict):
            if not isinstance(base, dict):
                delta[k] = dict(v)
            else:
                d = {c: val for c, val in v.items() if base.get(c) is not val}
                if d:
                    delta[k] = d
        elif k not in baseline or base is not v:
            delta[k] = v
    return delta


#: an arena slab name after its run/rank prefix: e<epoch>a<class>x<seq>
_SLAB_SUFFIX = re.compile(r"^r\d+e\d+a\d+x\d+$")


def _sweep_shm(run_id: str) -> tuple[int, int]:
    """Unlink this run's leftover segments: ``(slabs_swept, leaked)``.

    Arena slabs live for the whole run by design -- children never
    unlink them (a straggler may still be copying results out of a
    mapped slot into its gather segment), so finding them here is the
    expected lifecycle, not a leak.  Anything else under the run prefix
    (a one-shot or gather segment a crashed rank left behind) counts
    as leaked; a gather segment the parent mapped is already unlinked.
    """
    slabs = leaked = 0
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return 0, 0
    prefix = f"rmp{run_id}"
    for name in names:
        if not name.startswith(prefix):
            continue
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            continue
        if _SLAB_SUFFIX.match(name[len(prefix):]):
            slabs += 1
        else:
            leaked += 1
    return slabs, leaked


def _ship(result_conn: Any, status: str, payload: dict) -> None:
    """The one way out of a child: one pickle, sent as bytes, so the
    parent can report how many bytes crossed the pipe."""
    result_conn.send_bytes(pickle.dumps((status, payload), protocol=5))
    result_conn.close()


def _child_main(
    role: str,
    index: int,
    rank: int,
    program: CompiledProgram,
    config: SIPConfig,
    symbolics: dict[str, float],
    conns: dict[int, Any],
    run_id: str,
    result_conn: Any,
) -> None:
    """One SIP rank, from fork to result shipment.  Never returns."""
    world = None
    status = 0
    try:
        sim = Simulator()
        world = MPWorld(
            sim,
            config.world_size,
            rank,
            conns,
            run_id,
            shm_min=config.mp_payload_shm_min,
            timeout=config.mp_timeout,
            coordinator=config.master_rank,
            arena_slab_bytes=config.mp_arena_slab_bytes,
            arena_max_bytes=config.mp_arena_max_bytes,
        )
        rt = SharedRuntime(program, config, symbolics, sim, world)
        baseline = _store_baseline(rt.external_store)
        comm = world.comm(rank)
        proc: Any
        scatter_start = time.perf_counter()
        if role == "worker":
            proc = WorkerProcess(rt, index, comm)
            scatter_inputs(rt, workers=[proc])
            sim.spawn(proc.run(), name=f"worker{index}")
            sim.spawn(proc.service(), name=f"worker{index}.service")
        elif role == "server":
            proc = IOServerProcess(rt, index, comm)
            scatter_inputs(rt, servers=[proc])
            sim.spawn(proc.run(), name=f"ioserver{index}")
        else:
            proc = MasterProcess(rt, comm)
            sim.spawn(proc.run(), name="master")
            sim.spawn(
                mp_barrier_service(world.comm(rank), world),
                name="barrier.service",
                daemon=True,
            )
        scatter_s = time.perf_counter() - scatter_start

        if role in ("worker", "server"):
            # slab footprints count against the rank's memory budget
            world.arena.ledger = proc.memman

        MPEngine(sim, world).run()

        if role == "worker":
            proc.memman.restore_all()
            proc.fold_pending_accums()
        elif role == "server":
            proc.flush_pending()
        report = rank_report(proc, rt)
        arrays = {k: getattr(report, k) for k in _GATHERED}
        report = dataclasses.replace(report, **{k: {} for k in _GATHERED})
        if role == "worker":
            arrays["store_delta"] = _store_delta(rt.external_store, baseline)
        res: dict[str, Any] = {"report": report, "scatter_s": scatter_s}
        if rt.sanitizer is not None:
            res["sanitizer"] = (rt.sanitizer._records, rt.sanitizer.report_data)
        if config.tracer is not None:
            # the forked recorder holds exactly this rank's events
            res["tracer"] = config.tracer
        # lease balance right before anything ships: every mapped slot
        # must be released or still held by a live block; the report's
        # arena stats are pickled with the updated fields
        world.receiver.account_exit()
        res["gathered"] = gather.pack(arrays, f"rmp{run_id}r{rank}g")
        _ship(result_conn, "ok", res)
    except BaseException as exc:  # noqa: BLE001 - ship *any* failure home
        try:
            _ship(
                result_conn,
                "error",
                {
                    "role": role,
                    "rank": rank,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                },
            )
        except Exception:
            pass
        status = 1
    finally:
        if world is not None:
            world.close()
    # os._exit skips atexit/teardown inherited from the parent (pytest
    # plugins, coverage hooks, the parent's resource tracker state)
    os._exit(status)


def execute_mp(
    program: CompiledProgram,
    config: SIPConfig,
    symbolics: dict[str, float],
    retries: ResilienceStats,
    restarts: int,
):
    """Run one attempt on the multiprocess backend; returns a RunResult."""
    wall_start = time.perf_counter()
    # The parent's runtime serves feasibility checking, result assembly
    # and merged stats; its (simulated) world never runs a coroutine.
    sim = Simulator()
    world = World(sim, config.world_size, config.machine.network(), None)
    rt = SharedRuntime(program, config, symbolics, sim, world)
    report = dry_run(program, config, rt.table)
    if not report.feasible:
        raise InfeasibleComputation(report.report())

    size = config.world_size
    roles = _rank_roles(config)
    run_id = f"{os.getpid():x}{os.urandom(3).hex()}"
    ctx = get_context("fork")

    # full mesh of duplex pipes, one per unordered rank pair
    mesh: dict[tuple[int, int], tuple[Any, Any]] = {}
    for i in range(size):
        for j in range(i + 1, size):
            mesh[(i, j)] = ctx.Pipe(duplex=True)

    def conns_for(rank: int) -> dict[int, Any]:
        out: dict[int, Any] = {}
        for (i, j), (ci, cj) in mesh.items():
            if i == rank:
                out[j] = ci
            elif j == rank:
                out[i] = cj
        return out

    result_pipes = [ctx.Pipe(duplex=False) for _ in range(size)]
    procs: dict[int, Any] = {}
    try:
        for rank in range(size):
            role, index = roles[rank]
            p = ctx.Process(
                target=_child_main,
                args=(
                    role,
                    index,
                    rank,
                    program,
                    config,
                    symbolics,
                    conns_for(rank),
                    run_id,
                    result_pipes[rank][1],
                ),
                name=f"sip-{role}{index}-r{rank}",
            )
            p.daemon = True  # never outlive a dying parent
            p.start()
            procs[rank] = p
    finally:
        # the parent keeps no mesh or child-side result ends open, so
        # a dead peer reads as EOF instead of a silent hang
        for ci, cj in mesh.values():
            ci.close()
            cj.close()
        for _, child_end in result_pipes:
            child_end.close()

    results: dict[int, dict] = {}
    try:
        results = _supervise(procs, result_pipes, roles)
    except BaseException:
        for p in procs.values():
            if p.is_alive():
                p.terminate()
        for p in procs.values():
            p.join(timeout=_JOIN_GRACE)
            if p.is_alive():
                p.kill()
                p.join()
        _sweep_shm(run_id)
        raise
    for p in procs.values():
        p.join(timeout=_JOIN_GRACE)
        if p.is_alive():
            p.terminate()
            p.join()
    slabs_swept, leaked = _sweep_shm(run_id)

    return _merge(
        program,
        config,
        rt,
        report,
        results,
        retries,
        restarts,
        slabs_swept,
        leaked,
        time.perf_counter() - wall_start,
    )


def _supervise(
    procs: dict[int, Any],
    result_pipes: list,
    roles: dict[int, tuple[str, int]],
) -> dict[int, dict]:
    """Read every rank's result, watching for children dying early."""
    recvs = {rank: result_pipes[rank][0] for rank in procs}
    results: dict[int, dict] = {}
    # ranks whose pipe closed with nothing in it.  Every child inherits
    # every result pipe, so this EOF shows only once the whole fleet has
    # exited: a rank killed after the others reported.  A closed pipe
    # polls readable for ever and must not be read as "still in flight".
    closed: set[int] = set()
    while len(results) < len(procs):
        by_conn = {recvs[r]: r for r in procs if r not in results and r not in closed}
        sentinels = [p.sentinel for p in procs.values() if p.is_alive()]
        for obj in mpconn.wait(list(by_conn) + sentinels, timeout=1.0):
            rank = by_conn.get(obj)
            if rank is None:
                continue  # a sentinel; the liveness check below handles it
            readable_at = time.perf_counter()
            try:
                raw = obj.recv_bytes()
            except (EOFError, OSError):
                closed.add(rank)  # the liveness check below reports it
                continue
            status, payload = pickle.loads(raw)
            role, index = roles[rank]
            if status == "error":
                raise SIPError(
                    f"mp backend: {role} {index} (rank {rank}) failed:\n"
                    f"{payload['traceback']}"
                )
            manifest, name, nbytes = payload.pop("gathered")
            try:
                payload.update(gather.unpack(manifest, name, nbytes))
            except (OSError, ValueError) as exc:
                raise SIPError(
                    f"mp backend: cannot map the results {role} {index} (rank "
                    f"{rank}) gathered in {name}: {type(exc).__name__}: {exc}"
                ) from exc
            payload.update(
                gather_bytes=nbytes,
                pickle_bytes=len(raw),
                readable_at=readable_at,
                mapped_at=time.perf_counter(),
            )
            results[rank] = payload
        for rank, p in procs.items():
            if rank in results or p.is_alive():
                continue
            try:
                if rank not in closed and recvs[rank].poll(0):
                    continue  # result (or error) still in flight
            except (EOFError, OSError):
                pass
            role, index = roles[rank]
            raise SIPError(
                f"mp backend: {role} {index} (rank {rank}) died with exit "
                f"code {p.exitcode} before reporting a result"
            )
    return results


def _merge(
    program: CompiledProgram,
    config: SIPConfig,
    rt: SharedRuntime,
    report,
    results: dict[int, dict],
    retries: ResilienceStats,
    restarts: int,
    slabs_swept: int,
    leaked: int,
    wall_seconds: float,
):
    """Put the children's reports back together with their gathered
    arrays, absorb sanitizer, trace and external-store state, and add
    what only the parent saw."""
    reports = []
    for rank in sorted(results):
        res = results[rank]
        reports.append(
            dataclasses.replace(res["report"], **{k: res[k] for k in _GATHERED})
        )
        san = res.get("sanitizer")
        if san is not None and rt.sanitizer is not None:
            rt.sanitizer.absorb(*san)
        child_tracer = res.get("tracer")
        if child_tracer is not None and config.tracer is not None:
            config.tracer.absorb(child_tracer)
        # a worker's external-store writes; rank order is worker order,
        # which keeps checkpoint chaining deterministic (owned coords
        # are disjoint)
        for key, val in res.get("store_delta", {}).items():
            if isinstance(val, dict):
                rt.external_store.setdefault(key, {}).update(val)
            else:
                rt.external_store[key] = val
    ranks = list(results.values())
    run = RunStats(
        wallclock_seconds=wall_seconds,
        processes=len(results),
        shm_leaked=leaked,
        arena_slabs_swept=slabs_swept,
        scatter_s=max(r["scatter_s"] for r in ranks),
        gather_s=max(r["mapped_at"] for r in ranks)
        - min(r["readable_at"] for r in ranks),
        gather_bytes=sum(r["gather_bytes"] for r in ranks),
        result_pickle_bytes=sum(r["pickle_bytes"] for r in ranks),
    )
    return _finalize(program, config, rt, report, reports, retries, restarts, run)
