"""One stats surface: how finished ranks become ``RunResult.stats``.

A finished rank leaves a :class:`RankReport`: the simulator reports its
live ranks, an mp child ships its report home.  :data:`TABLE` declares
every stats key once (ranks, source, fold, host timing or not), so both
backends report one key set.  Runtime-level sources (plan cache,
copy-on-write, traffic, mp transport) are one shared object on the
simulator and one per child on mp; folding each *distinct* object once
counts both right, I/O servers and master included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Optional, Union

from ..simmpi import DiskStats, WorldStats
from .arena import ArenaStats
from .blockio import BlockIOStats
from .blocks import CowStats
from .cache import CacheStats
from .config import SIPConfig
from .fold import folded
from .ioserver import IOServerProcess
from .master import MasterProcess
from .memman import MemStats
from .memory import PoolStats
from .mptransport import BatchStats, EngineStats, ShmStats
from .plans import PlanCacheStats
from .profiling import RunProfile, WorkerProfile
from .scheduler import SchedStats


@dataclass
class RankReport:
    """What one finished rank leaves behind: plain, picklable data."""

    role: str  # "worker" | "server" | "master"
    index: int
    stats: dict[str, Any]  # source name -> that rank's counters (or None)
    scalars: list[float] = field(default_factory=list)
    owned: dict = field(default_factory=dict)  # a worker's distributed blocks
    local_blocks: dict = field(default_factory=dict)  # worker 0's static blocks
    served: dict = field(default_factory=dict)  # a server's served blocks


@dataclass
class RunStats:
    """What the process that started the run measured around it; the
    mp fields stay zero on the simulator."""

    wallclock_seconds: float = 0.0
    processes: int = 0
    shm_leaked: int = 0
    arena_slabs_swept: int = 0
    scatter_s: float = 0.0
    gather_s: float = 0.0
    gather_bytes: int = 0
    result_pickle_bytes: int = 0


def rank_report(proc: Any, rt: Any) -> RankReport:
    """The report of one finished worker, I/O server or master."""
    world = rt.world
    stats: dict[str, Any] = {
        "plan_cache": rt.plan_cache.stats if rt.plan_cache is not None else None,
        "cow": rt.cow,
        "world": world.stats,
        # the mp world's transport counters; the simulated World has none
        **{
            name: getattr(world, f"{name}_stats", None)
            for name in ("shm", "arena", "batch", "engine")
        },
    }
    if isinstance(proc, MasterProcess):
        stats["sched"] = proc.sched_stats
        return RankReport("master", 0, stats)
    stats.update(mem=proc.memman.stats, cache=proc.cache.stats)
    if isinstance(proc, IOServerProcess):
        stats.update(disk=proc.disk.stats, blockio=proc.blockio.stats)
        served = proc.current_blocks()
        return RankReport("server", proc.server_index, stats, served=served)
    stats.update(pool=proc.pool.stats, blockio=proc.engine.stats, profile=proc.profile)
    return RankReport(
        "worker",
        proc.worker_index,
        stats,
        scalars=list(proc.scalars),
        owned=proc.owned,
        local_blocks=proc.local_blocks if proc.worker_index == 0 else {},
    )


#: source name -> the class of its counters; a group with no such
#: object reads a fresh (all-zero) instance
SOURCES: dict[str, type] = dict(
    profile=WorkerProfile, plan_cache=PlanCacheStats, cow=CowStats,
    world=WorldStats, shm=ShmStats, arena=ArenaStats, batch=BatchStats,
    engine=EngineStats, mem=MemStats, cache=CacheStats, pool=PoolStats,
    blockio=BlockIOStats, disk=DiskStats, sched=SchedStats, run=RunStats,
    config=SIPConfig,
)  # fmt: skip

# the ranks a key reads; the run's own process reports as "parent"
WORKERS = ("worker",)
SERVERS = ("server",)
MASTER = ("master",)
WORKERS_SERVERS = ("worker", "server")
RUNTIMES = ("worker", "server", "master")
PARENT = ("parent",)


@dataclass(frozen=True)
class Stat:
    """One ``RunResult.stats`` key."""

    key: str
    ranks: tuple[str, ...]
    source: str
    #: a field or property of the source, or an expression over it
    read: Union[str, Callable[[Any], Any]]
    #: None: fold the ranks' sources by their field metadata, then read;
    #: "sum" / "max": read each rank's source, then fold the values
    fold: Optional[str] = None
    #: host timing: differs on every run, so no golden value pins it
    varies: bool = False


def _rows(ranks, source, prefix="", names="", fold=None, varies=False, **reads):
    """Rows over one source: key ``prefix + name`` reads the field of
    that name; a keyword ``name=read`` reads another field or a derived
    expression."""
    reads = {name: name for name in names.split()} | reads
    return tuple(
        Stat(prefix + name, ranks, source, read, fold, varies)
        for name, read in reads.items()
    )


# fmt: off
TABLE: tuple[Stat, ...] = (
    *_rows(WORKERS, "profile", fold="sum", instr_executed="instructions"),
    # every plan that is not a GEMM counts as einsum, as before outer
    # products had a plan of their own: the golden counters pin this sum
    *_rows(RUNTIMES, "plan_cache", "plan_cache_", "hits misses hit_rate",
           gemm="gemm_plans", einsum=lambda p: p.einsum_plans + p.outer_plans),
    *_rows(RUNTIMES, "cow", "cow_", "bytes_not_copied", shared_payloads="sends_shared",
           copies="cow_copies", bytes_copied="cow_bytes_copied"),
    *_rows(RUNTIMES, "world", "", "messages_sent bytes_sent remote_bytes"),
    *_rows(RUNTIMES, "arena", "arena_", "hits misses handoffs slab_bytes refs_leaked",
           slabs="slabs_created"),
    *_rows(RUNTIMES, "arena", "", "bytes_zero_copy"),
    *_rows(RUNTIMES, "batch", mp_batches="batches",
           batch_msgs_per_write="msgs_per_write"),
    *_rows(RUNTIMES, "shm", "mp_shm_", segments="segments_created",
           bytes="bytes_shared", unlinked="segments_unlinked"),
    # the workers' engine loops; master and servers only ever wait, so
    # their blocked time is idleness, not cost
    *_rows(WORKERS, "engine", "mp_engine_",
           "blocked_s blocked_waits polls poll_deliveries events_fired", varies=True),
    *_rows(WORKERS, "engine", "mp_engine_", fold="max", varies=True,
           blocked_max_s="blocked_s"),
    *_rows(WORKERS_SERVERS, "blockio", "blockio_",
           "issued issued_gets issued_requests coalesced waiters waiter_peak "
           "in_flight_peak backpressure_stalls hint_drops disk_loads writebacks "
           "writebacks_superseded accums_buffered accum_folds",
           puts="puts_posted", prepares="prepares_posted", replies="replies_served"),
    # spills and faults-in are local block movement: one counter each,
    # the memory manager's
    *_rows(WORKERS_SERVERS, "mem", "blockio_", fault_ins="faults_in", spills="spills"),
    *_rows(WORKERS, "cache", "cache_", "hits misses evictions evicted_before_use"),
    *_rows(WORKERS, "cache", "", "refetches"),
    *_rows(WORKERS, "pool", "pool_", "peak_bytes"),
    *_rows(WORKERS_SERVERS, "mem", "mem_", "cascades pressure_evictions"),
    *_rows(WORKERS, "mem", "mem_",
           "peak_bytes spills spill_bytes faults_in fault_bytes peak_spill_bytes",
           spill_retries=lambda m: m.spill_write_retries + m.spill_read_retries),
    *_rows(MASTER, "sched", "sched_", "policy chunks iterations locality_hits "
           "locality_misses steals stolen_iterations"),
    *_rows(MASTER, "sched", chunks_served="replies"),
    *_rows(SERVERS, "cache", "server_cache_", "hits misses"),
    *_rows(SERVERS, "disk", "disk_", "reads writes bytes_read bytes_written"),
    *_rows(PARENT, "config", "", "execution", mem_budget_bytes="memory_budget"),
    *_rows(PARENT, "run", "", "wallclock_seconds", varies=True),
    # mp: what the parent saw of its children (zero on the simulator);
    # the run's two ends are input scatter in the children and result
    # gather from the first result readable to the last segment mapped
    *_rows(PARENT, "run", "mp_", "processes shm_leaked arena_slabs_swept "
           "gather_bytes result_pickle_bytes"),
    *_rows(PARENT, "run", "mp_", "scatter_s gather_s", varies=True),
)
# fmt: on


def sources(reports: list[RankReport], ranks: tuple[str, ...], source: str) -> list:
    """The distinct ``source`` objects of the reports in ``ranks``."""
    found: dict[int, Any] = {}
    for report in reports:
        if report.role in ranks:
            obj = report.stats.get(source)
            if obj is not None:
                found.setdefault(id(obj), obj)
    return list(found.values())


def build_stats(
    reports: list[RankReport], run: RunStats, config: SIPConfig, program: Any
) -> dict[str, Any]:
    """``RunResult.stats``: the optimizer's counters, then :data:`TABLE`."""
    everyone = [*reports, RankReport("parent", 0, {"run": run, "config": config})]
    stats: dict[str, Any] = {"opt_level": program.opt_level}
    if program.opt_report is not None:
        stats = dict(program.opt_report.counters())
    for row in TABLE:
        read = row.read if callable(row.read) else attrgetter(row.read)
        objs = sources(everyone, row.ranks, row.source) or [SOURCES[row.source]()]
        if row.fold is None:
            stats[row.key] = read(folded(objs))
        else:
            values = [read(o) for o in objs]
            stats[row.key] = max(values) if row.fold == "max" else sum(values)
    return stats


#: the stats of an mp run's two ends (input scatter, result gather)
_ENDS = ("mp_scatter", "mp_gather", "mp_result")


def run_profile(
    reports: list[RankReport], run: RunStats, stats: dict, config: SIPConfig, program
) -> RunProfile:
    """The run's profile: the workers' own, plus the folded counters
    its report sections print."""
    workers = [r for r in reports if r.role == "worker"]
    transport = None
    if config.execution == "mp":
        transport = {
            "arena": folded(sources(reports, RUNTIMES, "arena")),
            "batches": folded(sources(reports, RUNTIMES, "batch")),
            "engines": [w.stats["engine"] for w in workers],
            "slabs_swept": run.arena_slabs_swept,
            "batch_msgs_per_write": stats["batch_msgs_per_write"],
            "ends": {k: v for k, v in stats.items() if k.startswith(_ENDS)},
        }
    return RunProfile(
        workers=[w.stats["profile"] for w in workers],
        elapsed=max((w.stats["profile"].elapsed for w in workers), default=0.0),
        program=program,
        plan_cache=folded(sources(reports, RUNTIMES, "plan_cache")),
        cow=folded(sources(reports, RUNTIMES, "cow")),
        memory=folded(sources(reports, WORKERS_SERVERS, "mem")),
        memory_budget=config.memory_budget,
        scheduling=folded(sources(reports, MASTER, "sched")),
        transport=transport,
        blockio=folded(sources(reports, WORKERS_SERVERS, "blockio")),
    )
