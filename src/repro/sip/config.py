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
:mod:`~repro.sip.mptransport`).  The resilient protocol's retry timing
is read by every rank kind, so its constants live here.
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
    server_cache_blocks:
        Capacity of each I/O server's block cache, in blocks.
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
    mp_payload_shm_min:
        Smallest block payload, in bytes, shipped through a shared
        memory segment rather than pickled inline on the pipe
        (``execution="mp"`` only).
    mp_timeout:
        Watchdog, in seconds, for the multiprocess backend: a rank that
        makes no progress and receives no message for this long aborts
        the run, and the parent reports which rank stalled.
    mp_arena_slab_bytes:
        Size of one arena slab segment in bytes; also the largest
        payload the arena serves (bigger blocks overflow to one-shot
        segments).
    mp_arena_max_bytes:
        Cap on a rank's total arena footprint; when all size classes
        are saturated, further payloads overflow to one-shot segments.
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
    kernel_wallclock:
        Accumulate host wall-clock time per kernel opcode on each
        worker's backend (``backend.wall``); the benchmark harness uses
        this for per-kernel timings.
    machine:
        Machine performance model used for all costs.
    memory_per_worker:
        Override of the machine's per-rank memory budget, bytes.  A
        worker's remote-block cache is bounded by what this budget
        leaves beside its resident blocks, not by a count of blocks.
    spill:
        Unify each rank's pool, cache and adopted input bytes under one
        budget and, under pressure, run the victim cascade (least
        recently used first: a clean cached replica is dropped, a
        resident block is spilled to the rank's scratch disk and
        faulted back in on next touch) instead of raising
        ``OutOfBlockMemory``.  Off by default: without it every
        mechanism enforces its own budget exactly as before, and runs
        are bitwise identical to historical behaviour.
    scratch_per_worker:
        Scratch-disk capacity available for spilled blocks on each
        rank, bytes.  None (default) means unbounded scratch.
    dtype:
        Numpy dtype name of block elements (default ``"float64"``, the
        paper's double precision).  Threads through block allocation,
        pool/cache byte accounting, and the dry run.
    validate_barriers:
        Detect conflicting distributed/served accesses that are not
        separated by the appropriate barrier (paper, Section IV-C).
    sanitize:
        Record every distributed/served block access with its pardo
        iteration, bytecode pc and source line, and report accesses
        from different iterations that do not commute within a barrier
        epoch (see :mod:`repro.sip.sanitizer`).  Pure bookkeeping: a
        sanitized run is bit-identical to an unsanitized one.  The
        ``REPRO_SANITIZE`` environment variable (any non-empty value)
        turns this on by default, so a whole test suite can be run
        sanitized without touching code.
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
    trace:
        Optional callable ``(time, rank, text)`` for debugging.
    faults:
        Optional :class:`~repro.simmpi.faults.FaultPlan` injecting
        message drops/delays, disk errors and rank crashes.  Attaching
        one also enables the resilient messaging protocol (timeouts,
        retries with exponential backoff, sequence-number dedup).
    resilient:
        Force the resilient protocol on (True) or off (False)
        regardless of ``faults``; None (default) follows ``faults``.
    """

    workers: int = 4
    io_servers: int = 1
    segment_size: int = 4
    segment_sizes: dict[str, int] = field(default_factory=dict)
    subsegments_per_segment: int = 2
    prefetch_depth: int = 2
    server_cache_blocks: int = 128
    scheduling: str = "guided"
    backend: str = "real"
    execution: str = "sim"
    mp_payload_shm_min: int = 1 << 14
    mp_timeout: float = 120.0
    mp_arena_slab_bytes: int = 1 << 22
    mp_arena_max_bytes: int = 1 << 26
    opt_level: int = 2
    kernel_wallclock: bool = False
    machine: Machine = LAPTOP
    memory_per_worker: Optional[float] = None
    spill: bool = False
    scratch_per_worker: Optional[float] = None
    dtype: str = "float64"
    validate_barriers: bool = True
    sanitize: bool = False
    integral_source: Optional[Callable[..., Any]] = None
    inputs: dict[str, Any] = field(default_factory=dict)
    external_store: dict[str, Any] = field(default_factory=dict)
    superinstructions: dict[str, Callable[..., Any]] = field(default_factory=dict)
    trace: Optional[Callable[[float, int, str], None]] = None
    tracer: Optional[Any] = None  # a repro.sip.tracing.TraceRecorder
    faults: Optional[FaultPlan] = None
    resilient: Optional[bool] = None

    def __post_init__(self) -> None:
        if not self.sanitize and os.environ.get("REPRO_SANITIZE"):
            self.sanitize = True
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
            if self.resilient:
                raise ValueError(
                    "the resilient protocol's timeout races need virtual "
                    "time; use execution='sim'"
                )
            if self.mp_payload_shm_min < 0:
                raise ValueError("mp_payload_shm_min must be >= 0")
            if self.mp_timeout <= 0:
                raise ValueError("mp_timeout must be positive")
            if self.mp_arena_slab_bytes < 4096:
                raise ValueError("mp_arena_slab_bytes must be >= 4096")
            if self.mp_arena_max_bytes < self.mp_arena_slab_bytes:
                raise ValueError(
                    "mp_arena_max_bytes must be >= mp_arena_slab_bytes"
                )
        if self.opt_level not in (0, 1, 2):
            raise ValueError("opt_level must be 0, 1 or 2")
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        if self.scheduling not in ("guided", "static", "locality"):
            raise ValueError(f"unknown scheduling policy {self.scheduling!r}")
        if self.scratch_per_worker is not None and self.scratch_per_worker <= 0:
            raise ValueError("scratch_per_worker must be positive")
        try:
            import numpy as _np

            _np.dtype(self.dtype)
        except TypeError:
            raise ValueError(f"unknown dtype {self.dtype!r}") from None

    @property
    def resilience_enabled(self) -> bool:
        """Whether the resilient messaging protocol is active."""
        if self.resilient is not None:
            return self.resilient
        return self.faults is not None

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
