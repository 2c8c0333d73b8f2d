"""Runtime configuration of the SIP virtual machine.

Everything the paper treats as a runtime parameter lives here: the
number of workers and I/O servers, segment sizes (globally or per index
kind), the prefetch lookahead depth, memory budgets, the pardo
chunking policy, and the target machine model.  SIAL programs never see
any of this -- retuning for a new platform means changing a
:class:`SIPConfig`, not the program (paper, Section VI-B).

A value with a single setting in use is not a field: it is a constant
beside the one module that reads it (guided chunk sizing in
:mod:`~repro.sip.scheduler`, locality weights in
:mod:`~repro.sip.master`, the block engine's reserve and in-flight
cap in :mod:`~repro.sip.blockio`, outbox flush thresholds in
:mod:`~repro.sip.mptransport`, the shm slab size and per-rank arena
cap in :mod:`~repro.sip.arena`, the block element type -- the paper's
double precision -- in :mod:`~repro.sip.blocks`).  The resilient
protocol's retry timing is read by every rank kind, so its constants
live here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..machines import LAPTOP, Machine
from ..simmpi.faults import FaultPlan

__all__ = ["SIPConfig", "SIPError", "RETRY_TIMEOUT", "RETRY_LIMIT", "RETRY_BACKOFF"]

#: seconds a resilient requester waits for a reply/ack before re-sending;
#: must comfortably exceed the slowest normal round trip (disk reads,
#: back-pressured prepares) or spurious retries inflate traffic -- they
#: stay harmless for correctness
RETRY_TIMEOUT = 0.05
#: re-sends attempted before a requester declares the peer dead
RETRY_LIMIT = 10
#: multiplier applied to the timeout after each retry
RETRY_BACKOFF = 2.0


class SIPError(Exception):
    """Base class for SIP runtime errors."""


@dataclass
class SIPConfig:
    """Tunable parameters of one SIP run.

    Parameters
    ----------
    workers:
        Number of worker ranks (the master and I/O servers are extra).
    io_servers:
        Number of I/O server ranks backing served arrays.
    segment_size:
        Default elements per segment for every segment-index kind.
    segment_sizes:
        Per-kind overrides, e.g. ``{"ao": 12, "mo": 8}``.
    subsegments_per_segment:
        How many subsegments a subindex carves out of each segment.
    prefetch_depth:
        How many future loop iterations the lookahead prefetcher
        requests blocks for.  0 disables prefetching.
    scheduling:
        Pardo dole-out policy: ``"guided"`` (shrinking chunks from one
        shared queue), ``"static"`` (one equal slice per worker), or
        ``"locality"`` (per-worker affinity queues scored from block
        placement, with work stealing; see
        :class:`~repro.sip.scheduler.LocalityScheduler`).  Results are
        bitwise identical across policies.
    backend:
        ``"real"`` executes numpy kernels (correctness); ``"model"``
        charges only modeled time (scaling studies).
    execution:
        Which execution backend carries the ranks: ``"sim"`` (default)
        runs every rank cooperatively inside the deterministic
        :mod:`repro.simmpi` discrete-event simulator; ``"mp"`` runs
        each rank as a real OS process (``multiprocessing`` fork) with
        pickled control messages over duplex pipes and block payloads
        in POSIX shared memory (see :mod:`repro.sip.mptransport`).
        Results are bitwise identical between the two; the simulator
        stays the reference oracle while ``"mp"`` uses all cores.
    mp_timeout:
        Watchdog, in seconds, for the multiprocess backend: a rank that
        makes no progress and receives no message for this long aborts
        the run, and the parent reports which rank stalled.
    opt_level:
        SIAL optimization level applied to the compiled program before
        execution (the ``-O`` flag): 0 runs the compiler's output
        verbatim, 1 runs the cheap cleanup passes (constant folding,
        dead-code elimination), 2 additionally fuses contract+apply
        pairs, hoists loop-invariant fetches, inserts pardo prefetch
        hints and coalesces provably redundant barriers (see
        :mod:`repro.sial.passes`).  Results are bitwise identical
        across levels.  The default is 2, the level every benchmark
        and golden counter runs at; 0 is the differential suites'
        reference.
    machine:
        Machine performance model used for all costs.
    memory_per_worker:
        Override of the machine's per-rank memory budget, bytes.  It
        bounds every worker *and* every I/O server rank.  A worker's
        remote-block cache and an I/O server's write-back cache are
        bounded by what this budget leaves beside the rank's resident
        blocks, not by a count of blocks.
    spill:
        Give each worker ``scratch_per_worker`` bytes of scratch disk.
        Every rank charges its pool, cache, adopted input and arena
        bytes to one budget, and under pressure the victim cascade
        takes the least recently used of a clean cached replica
        (dropped) and a resident block (spilled to scratch and faulted
        back in on next touch).  Off by default: with no scratch the
        cascade drops replicas only.  With spill on the dry run also
        admits budgets down to the pinned-only floor.
    scratch_per_worker:
        Scratch-disk capacity available for spilled blocks on each
        worker when ``spill`` is on, bytes.  None (default) means
        unbounded scratch.
    race_check:
        What the runtime race checker does with distributed/served
        accesses from different pardo iterations that do not commute
        within a barrier epoch (paper, Section IV-C; see
        :mod:`repro.sip.sanitizer`): ``"raise"`` (default) raises
        :class:`~repro.sip.sanitizer.BarrierViolation` after the run,
        ``"report"`` completes the run and attaches the conflicts to
        ``RunResult.sanitizer_report``, ``"off"`` records nothing.
        Pure bookkeeping: results and timings are identical in every
        mode.  The ``REPRO_SANITIZE`` environment variable (any
        non-empty value) turns the default into ``"report"``, so a
        whole test suite can be run sanitized without touching code.
    integral_source:
        Callable mapping per-axis global element ranges to an ndarray
        of two-electron integrals; used by ``compute_integrals``.
    inputs:
        Initial contents for arrays, by (case-insensitive) name.
        Static arrays are replicated; distributed/served arrays are
        scattered to their owners before simulated time starts.
    external_store:
        Dict shared across runs for ``blocks_to_list`` /
        ``list_to_blocks`` serialization and checkpoint/restart.
    superinstructions:
        Extra user super instructions: name -> callable (see
        :mod:`repro.sip.registry`).
    tracer:
        Optional :class:`~repro.sip.tracing.TraceRecorder` that records
        per-rank timelines and the run's recovery, memory-pressure and
        chunk-scheduling events.
    faults:
        Optional :class:`~repro.simmpi.faults.FaultPlan` injecting
        message drops/delays, disk errors and rank crashes.  Attaching
        one also enables the resilient messaging protocol (timeouts,
        retries with exponential backoff, sequence-number dedup); an
        empty ``FaultPlan()`` runs that protocol with no fault injected.
    """

    workers: int = 4
    io_servers: int = 1
    segment_size: int = 4
    segment_sizes: dict[str, int] = field(default_factory=dict)
    subsegments_per_segment: int = 2
    prefetch_depth: int = 2
    scheduling: str = "guided"
    backend: str = "real"
    execution: str = "sim"
    mp_timeout: float = 120.0
    opt_level: int = 2
    machine: Machine = LAPTOP
    memory_per_worker: Optional[float] = None
    spill: bool = False
    scratch_per_worker: Optional[float] = None
    race_check: str = "raise"
    integral_source: Optional[Callable[..., Any]] = None
    inputs: dict[str, Any] = field(default_factory=dict)
    external_store: dict[str, Any] = field(default_factory=dict)
    superinstructions: dict[str, Callable[..., Any]] = field(default_factory=dict)
    tracer: Optional[Any] = None  # a repro.sip.tracing.TraceRecorder
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.race_check == "raise" and os.environ.get("REPRO_SANITIZE"):
            self.race_check = "report"
        if self.race_check not in ("raise", "report", "off"):
            raise ValueError(f"unknown race_check mode {self.race_check!r}")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.io_servers < 0:
            raise ValueError("io_servers must be >= 0")
        if self.segment_size < 1:
            raise ValueError("segment_size must be >= 1")
        if self.backend not in ("real", "model"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.execution not in ("sim", "mp"):
            raise ValueError(f"unknown execution backend {self.execution!r}")
        if self.execution == "mp":
            if self.faults is not None:
                raise ValueError(
                    "fault injection needs virtual time; use execution='sim'"
                )
            if self.mp_timeout <= 0:
                raise ValueError("mp_timeout must be positive")
        if self.opt_level not in (0, 1, 2):
            raise ValueError("opt_level must be 0, 1 or 2")
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        if self.scheduling not in ("guided", "static", "locality"):
            raise ValueError(f"unknown scheduling policy {self.scheduling!r}")
        if self.scratch_per_worker is not None and self.scratch_per_worker <= 0:
            raise ValueError("scratch_per_worker must be positive")

    @property
    def memory_budget(self) -> float:
        if self.memory_per_worker is not None:
            return self.memory_per_worker
        return self.machine.memory_per_rank

    # -- rank layout: [master][workers...][io servers...] -------------------
    @property
    def world_size(self) -> int:
        return 1 + self.workers + self.io_servers

    @property
    def master_rank(self) -> int:
        return 0

    def worker_rank(self, worker_index: int) -> int:
        return 1 + worker_index

    def server_rank(self, server_index: int) -> int:
        return 1 + self.workers + server_index

    @property
    def worker_ranks(self) -> range:
        return range(1, 1 + self.workers)

    @property
    def server_ranks(self) -> range:
        return range(1 + self.workers, self.world_size)
