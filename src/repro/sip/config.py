"""Runtime configuration of the SIP virtual machine.

Everything the paper treats as a runtime parameter lives here: the
number of workers and I/O servers, segment sizes (globally or per index
kind), the prefetch lookahead depth, block-cache budgets, the pardo
chunking policy, and the target machine model.  SIAL programs never see
any of this -- retuning for a new platform means changing a
:class:`SIPConfig`, not the program (paper, Section VI-B).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..machines import LAPTOP, Machine
from ..simmpi.faults import FaultPlan

__all__ = ["SIPConfig", "SIPError"]


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
    cache_blocks:
        Capacity of each worker's remote-block LRU cache, in blocks.
    server_cache_blocks:
        Capacity of each I/O server's block cache, in blocks.
    blockio_reserve:
        Cache slots the block-transfer engine keeps free of speculative
        fetches so demand fetches always have room (the engine's
        backpressure predicate drops prefetch hints once fewer than
        this many slots remain).
    blockio_max_in_flight:
        Optional hard bound on a rank's in-flight block fetches;
        ``None`` (the default) bounds them by cache capacity alone.
    chunk_factor:
        Guided-scheduling aggressiveness: a chunk is
        ``ceil(remaining / (chunk_factor * workers))`` iterations.
    min_chunk:
        Lower bound on guided/locality chunk size, in iterations.  1
        (the default) reproduces classic guided scheduling; larger
        values trade tail balance for fewer master round-trips.
    scheduling:
        Pardo dole-out policy: ``"guided"`` (shrinking chunks from one
        shared queue), ``"static"`` (one equal slice per worker), or
        ``"locality"`` (per-worker affinity queues scored from block
        placement, with work stealing; see
        :class:`~repro.sip.scheduler.LocalityScheduler`).  Results are
        bitwise identical across policies.
    affinity_owner_weight:
        Locality scoring: weight (per byte) credited to the worker that
        *owns* a distributed block a pardo iteration gets.
    affinity_replica_weight:
        Locality scoring: weight (per byte) credited to each worker
        recently holding a cached replica of a block the iteration gets
        (distributed or served).
    affinity_replica_history:
        How many recent cache holders the replica map remembers per
        block; 0 disables replica tracking entirely.
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
    mp_arena:
        Use the pooled shared-memory slab arena for at-threshold block
        payloads (``execution="mp"`` only): senders lease size-classed
        slots from long-lived slabs and receivers map block views
        directly over them -- zero per-transfer segment creation and
        zero receive-side copies (see :mod:`repro.sip.arena`).  Off,
        every detoured payload pays the legacy one-shot
        create/copy/attach/copy/unlink lifecycle.
    mp_arena_slab_bytes:
        Size of one arena slab segment in bytes; also the largest
        payload the arena serves (bigger blocks overflow to one-shot
        segments).
    mp_arena_max_bytes:
        Cap on a rank's total arena footprint; when all size classes
        are saturated, further payloads overflow to one-shot segments.
    mp_batch_max_msgs:
        Outbox depth at which a peer's queued control messages are
        flushed as one framed ``send_bytes`` write.  1 disables
        batching (every message is its own frame).
    mp_batch_max_bytes:
        Payload-byte threshold that flushes a peer's outbox early, so
        a burst of inline block replies does not sit queued.
    opt_level:
        SIAL optimization level applied to the compiled program before
        execution (the ``-O`` flag): 0 runs the compiler's output
        verbatim, 1 runs the cheap cleanup passes (constant folding,
        dead-code elimination), 2 additionally fuses contract+apply
        pairs, hoists loop-invariant fetches, inserts pardo prefetch
        hints and coalesces provably redundant barriers (see
        :mod:`repro.sial.passes`).  Results are bitwise identical
        across levels.
    fastpath:
        Enable the execution fast path: compiled kernel plans (cached
        GEMM lowering / einsum paths), memoized operand resolution, and
        zero-copy (copy-on-write) block transport.  Results -- data and
        simulated time -- are bit-identical with it on or off; turning
        it off recovers the legacy per-call einsum + eager-copy
        behaviour for benchmarking.
    kernel_wallclock:
        Accumulate host wall-clock time per kernel opcode on each
        worker's backend (``backend.wall``); the benchmark harness uses
        this for per-kernel timings.
    machine:
        Machine performance model used for all costs.
    memory_per_worker:
        Override of the machine's per-rank memory budget, bytes.
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
    retry_timeout:
        Seconds a resilient requester waits for a reply/ack before
        re-sending.  Must comfortably exceed the slowest normal
        round-trip (disk reads, back-pressured prepares) or spurious
        retries inflate traffic -- they stay harmless for correctness.
    retry_limit:
        Re-sends attempted before the requester declares the peer dead.
    retry_backoff:
        Multiplier applied to the timeout after each retry.
    """

    workers: int = 4
    io_servers: int = 1
    segment_size: int = 4
    segment_sizes: dict[str, int] = field(default_factory=dict)
    subsegments_per_segment: int = 2
    prefetch_depth: int = 2
    cache_blocks: int = 64
    server_cache_blocks: int = 128
    blockio_reserve: int = 2
    blockio_max_in_flight: Optional[int] = None
    chunk_factor: int = 2
    min_chunk: int = 1
    scheduling: str = "guided"
    affinity_owner_weight: float = 2.0
    affinity_replica_weight: float = 1.0
    affinity_replica_history: int = 2
    backend: str = "real"
    execution: str = "sim"
    mp_payload_shm_min: int = 1 << 14
    mp_timeout: float = 120.0
    mp_arena: bool = True
    mp_arena_slab_bytes: int = 1 << 22
    mp_arena_max_bytes: int = 1 << 26
    mp_batch_max_msgs: int = 128
    mp_batch_max_bytes: int = 1 << 20
    opt_level: int = 0
    fastpath: bool = True
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
    retry_timeout: float = 0.05
    retry_limit: int = 10
    retry_backoff: float = 2.0

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
            if self.mp_batch_max_msgs < 1:
                raise ValueError("mp_batch_max_msgs must be >= 1")
            if self.mp_batch_max_bytes < 1:
                raise ValueError("mp_batch_max_bytes must be >= 1")
        if self.opt_level not in (0, 1, 2):
            raise ValueError("opt_level must be 0, 1 or 2")
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        if self.blockio_reserve < 0:
            raise ValueError("blockio_reserve must be >= 0")
        if self.blockio_max_in_flight is not None and self.blockio_max_in_flight < 1:
            raise ValueError("blockio_max_in_flight must be >= 1 (or None)")
        if self.scheduling not in ("guided", "static", "locality"):
            raise ValueError(f"unknown scheduling policy {self.scheduling!r}")
        if self.min_chunk < 1:
            raise ValueError("min_chunk must be >= 1")
        if self.affinity_owner_weight < 0 or self.affinity_replica_weight < 0:
            raise ValueError("affinity weights must be >= 0")
        if self.affinity_replica_history < 0:
            raise ValueError("affinity_replica_history must be >= 0")
        if self.retry_timeout <= 0:
            raise ValueError("retry_timeout must be positive")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be >= 1")
        if self.retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")
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
