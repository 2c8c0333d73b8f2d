"""Unified per-rank memory management.

The paper's SIP treats a rank's memory as one coherent resource: block
stacks sized by the dry run, an LRU cache, and (on I/O servers) a
write-back cache in front of disk (Sections V-B, V-D).  This module
unifies our previously disconnected mechanisms -- :class:`BlockPool`,
:class:`BlockCache`, adopted input blocks -- behind one
:class:`MemoryManager` that charges every live byte against a single
budget and, when ``config.spill`` is enabled, degrades gracefully under
pressure instead of raising.  Everything evictable on the rank -- the
clean replicas in the cache and the resident blocks registered here --
carries the stamp of its last use from one counter, and the victim
cascade takes whichever is least recently used: a replica is dropped
(its owner still has it), a resident block is spilled to the rank's
scratch disk and transparently faulted back in on its next touch.
Under pressure memory is always full, so any static preference (all
replicas first, or all temps first) evicts what the running iteration
just fetched while blocks nobody has used all run stay resident; only
recency tells the two apart.  :class:`OutOfBlockMemory` survives only
when pinned + in-flight blocks alone exceed the budget.

Scratch traffic is charged simulated disk time (seek + bytes/bandwidth
on the rank's machine model) and is subject to injected disk faults
(device ``scratch<rank>``), retried with backoff like every other disk
in the system.  With spill disabled (the default) the manager is pure
accounting: allocation, eviction and failure behaviour are bitwise
identical to the historical per-mechanism budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .blocks import Block, BlockId, block_nbytes
from .cache import BlockCache
from .config import SIPError
from .memory import BlockPool, OutOfBlockMemory

__all__ = ["MemoryManager", "MemStats"]


@dataclass
class MemStats:
    """Observable effect of memory pressure on one rank (or summed)."""

    cascades: int = 0  # allocations that needed the victim cascade
    pressure_evictions: int = 0  # clean cache entries dropped for bytes
    spills: int = 0
    spill_bytes: int = 0
    faults_in: int = 0
    fault_bytes: int = 0
    spill_write_retries: int = 0
    spill_read_retries: int = 0
    peak_bytes: int = 0  # unified resident peak (pool+cache+adopted-spilled)
    peak_spill_bytes: int = 0  # scratch high-water mark
    oom_refusals: int = 0  # cascades that still ended in OutOfBlockMemory
    arena_slab_bytes: int = 0  # mp transport slabs charged to this rank

    def add(self, other: "MemStats") -> None:
        self.cascades += other.cascades
        self.pressure_evictions += other.pressure_evictions
        self.spills += other.spills
        self.spill_bytes += other.spill_bytes
        self.faults_in += other.faults_in
        self.fault_bytes += other.fault_bytes
        self.spill_write_retries += other.spill_write_retries
        self.spill_read_retries += other.spill_read_retries
        self.peak_bytes = max(self.peak_bytes, other.peak_bytes)
        self.peak_spill_bytes = max(self.peak_spill_bytes, other.peak_spill_bytes)
        self.oom_refusals += other.oom_refusals
        self.arena_slab_bytes += other.arena_slab_bytes


class MemoryManager:
    """One budget for everything resident on a rank.

    Composes the rank's :class:`BlockPool` and :class:`BlockCache` and
    tracks adopted blocks (initial inputs scattered outside the pool),
    so ``bytes_in_use`` covers pooled blocks, cached bytes, adopted
    bytes, and (on the mp backend) the rank's transport arena slabs,
    minus whatever is currently spilled out to scratch.

    Two modes:

    * *legacy* (``spill=False``, default): the pool enforces its own
      budget exactly as before; the manager only observes.
    * *unified* (``spill=True``): the pool budget is lifted and the
      manager enforces the total via :meth:`ensure_headroom`'s victim
      cascade.
    """

    def __init__(
        self,
        budget_bytes: float,
        real: bool,
        name: str = "rank",
        *,
        cache_blocks: int = 64,
        nbytes_of: Optional[Callable[[BlockId], int]] = None,
        dtype=np.float64,
        spill: bool = False,
        spill_capacity: Optional[float] = None,
        machine=None,
        faults=None,
        fault_device: Optional[str] = None,
        retry_limit: int = 8,
        retry_backoff: float = 2.0e-3,
        clock: Optional[Callable[[], float]] = None,
        tracer=None,
        rank: int = -1,
        resilience=None,
        on_evict=None,
    ) -> None:
        self.budget_bytes = budget_bytes
        self.real = real
        self.name = name
        self.dtype = np.dtype(dtype)
        self.unified = bool(spill)
        self.spill_capacity = spill_capacity
        self.machine = machine
        self.faults = faults
        self.fault_device = fault_device or f"scratch:{name}"
        self.retry_limit = retry_limit
        self.retry_backoff = retry_backoff
        self.clock = clock
        self.tracer = tracer
        self.rank = rank
        self.resilience = resilience
        self.stats = MemStats()
        # the rank's BlockTransferEngine, when one exists: spill and
        # fault-in traffic is local block movement the engine accounts
        # alongside the wire traffic it owns (set by the rank object)
        self.blockio = None

        pool_budget = float("inf") if self.unified else budget_bytes
        self.pool = BlockPool(pool_budget, real, name=name, dtype=self.dtype)
        self.cache = BlockCache(
            cache_blocks,
            name=f"{name}.cache",
            on_evict=on_evict,
            nbytes_of=nbytes_of,
            ledger=self,
        )

        # resident blocks eligible for spilling, least recently used
        # first: bid -> (block, stamp of its last use on the cache's
        # counter, so replicas and residents share one recency order)
        self._spillable: dict[BlockId, tuple[Block, int]] = {}
        self._tick = self.cache.tick
        # spilled-out blocks: bid -> (block, parked data)
        self._spill: dict[BlockId, tuple[Block, Optional[np.ndarray]]] = {}
        # blocks the current instruction is holding; never spilled
        self.pinned: set[BlockId] = set()
        # input blocks adopted from the scatter phase (not pool-owned)
        self._adopted: set[BlockId] = set()
        self.adopted_bytes = 0
        self.spilled_out_bytes = 0
        # mp transport slab arena footprint charged to this rank (the
        # rank's own send-side slabs; inbound mapped views are charged
        # through whatever cache/pool home holds them)
        self.arena_bytes = 0
        # simulated seconds of scratch I/O not yet waited for; the rank's
        # coroutines drain this with a Timeout after each instruction or
        # service message, so pressure costs time instead of being free
        self.time_debt = 0.0

    # -- accounting ------------------------------------------------------
    @property
    def bytes_in_use(self) -> int:
        """Resident bytes charged against the budget right now."""
        return (
            self.pool.stats.bytes_in_use
            + self.cache.bytes_in_use
            + self.adopted_bytes
            + self.arena_bytes
            - self.spilled_out_bytes
        )

    def charge_arena(self, nbytes: int) -> None:
        """Charge a newly created transport arena slab to the budget."""
        self.arena_bytes += nbytes
        self.stats.arena_slab_bytes += nbytes
        self._note_peak()

    def discharge_arena(self, nbytes: int) -> None:
        self.arena_bytes -= nbytes

    @property
    def spilled_blocks(self) -> int:
        return len(self._spill)

    def _note_peak(self) -> None:
        used = self.bytes_in_use
        if used > self.stats.peak_bytes:
            self.stats.peak_bytes = used

    def _now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def _trace(self, kind: str, bid, nbytes: int) -> None:
        tracer = self.tracer
        if tracer is not None and hasattr(tracer, "record_mem"):
            tracer.record_mem(self._now(), self.rank, kind, str(bid), nbytes)

    # -- block lifecycle -------------------------------------------------
    def allocate(self, shape: tuple[int, ...]) -> Block:
        """Allocate a pool block, making room under the unified budget."""
        if self.unified:
            self.ensure_headroom(block_nbytes(shape, self.dtype))
        block = self.pool.allocate(shape)
        self._note_peak()
        return block

    def register(self, bid: BlockId, block: Block, kind: str) -> None:
        """Mark a resident block as spillable and just used (its array
        ``kind`` orders nothing: recency alone picks victims)."""
        self._spillable.pop(bid, None)  # a re-registration moves to the end
        self._spillable[bid] = (block, self._tick())

    def adopt(self, bid: BlockId, block: Block, kind: str) -> None:
        """Charge an input block scattered outside the pool."""
        self.ensure_headroom(block.nbytes)
        self._adopted.add(bid)
        self.adopted_bytes += block.nbytes
        self.register(bid, block, kind)
        self._note_peak()

    def free(self, bid: Optional[BlockId], block: Block) -> None:
        """Release a block (pool-owned or adopted), wherever it lives."""
        if bid is not None:
            self._spillable.pop(bid, None)
            spilled = self._spill.pop(bid, None)
            if spilled is not None:
                self.spilled_out_bytes -= block.nbytes
            if bid in self._adopted:
                self._adopted.discard(bid)
                self.adopted_bytes -= block.nbytes
                block.surrender()
                block.data = None
                return
        self.pool.free(block)

    # -- pressure --------------------------------------------------------
    def cache_headroom(self, nbytes: int, allow_spill: bool = True) -> None:
        """Headroom check the cache runs before charging an insert (a
        speculative one passes ``allow_spill=False``)."""
        if self.unified:
            self.ensure_headroom(nbytes, allow_spill=allow_spill)
        used = self.bytes_in_use + nbytes
        if used > self.stats.peak_bytes:
            self.stats.peak_bytes = used

    def ensure_headroom(self, nbytes: int, allow_spill: bool = True) -> None:
        """Make room for `nbytes` more resident bytes, or raise.

        The victim cascade: each step takes the least recently used of
        the cache's clean replicas (dropped) and the resident blocks
        (spilled to scratch; never for a speculative insert, which
        passes ``allow_spill=False``).  Raises :class:`OutOfBlockMemory`
        only when what is left is pinned or in flight.
        """
        if not self.unified:
            return
        need = self.bytes_in_use + nbytes - self.budget_bytes
        if need <= 0:
            return
        self.stats.cascades += 1
        refused: set[BlockId] = set()  # scratch had no room for these
        while need > 0:
            victim = self._spill_victim(refused) if allow_spill else None
            # drop the replicas older than that block (all, if there is none)
            freed, count = self.cache.evict_for_pressure(
                int(need), None if victim is None else self._spillable[victim][1]
            )
            self.stats.pressure_evictions += count
            need -= freed
            if need <= 0:
                return
            if victim is None:
                self.stats.oom_refusals += 1
                raise OutOfBlockMemory(
                    f"{self.name}: need {nbytes} more bytes but only "
                    f"{max(0, self.budget_bytes - self.bytes_in_use):.0f} of "
                    f"{self.budget_bytes:.0f} are free after the victim cascade; "
                    "pinned and in-flight blocks alone exceed the budget -- "
                    "rerun with more workers or a smaller segment size"
                )
            freed = self.spill(victim)
            if not freed:
                refused.add(victim)
            need -= freed

    def _spill_victim(self, refused: set[BlockId]) -> Optional[BlockId]:
        """The least recently used resident block that the running
        instruction does not hold and scratch has not refused."""
        pinned = self.pinned
        for bid in self._spillable:
            if bid not in pinned and bid not in refused:
                return bid
        return None

    def spill(self, bid: BlockId) -> int:
        """Park one resident block's buffer on scratch; returns bytes freed."""
        block = self._spillable[bid][0]
        nbytes = block.nbytes
        if (
            self.spill_capacity is not None
            and self.spilled_out_bytes + nbytes > self.spill_capacity
        ):
            # scratch full: this block stays resident, its turn kept,
            # until something faults back in and frees scratch room
            return 0
        del self._spillable[bid]
        self._spill[bid] = (block, block.data)
        block.data = None
        self.spilled_out_bytes += nbytes
        self.stats.spills += 1
        self.stats.spill_bytes += nbytes
        if self.blockio is not None:
            self.blockio.note_spill(nbytes)
        if self.spilled_out_bytes > self.stats.peak_spill_bytes:
            self.stats.peak_spill_bytes = self.spilled_out_bytes
        self._scratch_io("write", nbytes)
        self._trace("spill", bid, nbytes)
        return nbytes

    def touch(self, bid: BlockId) -> None:
        """Note a use of `bid`: a resident block becomes the youngest
        in the recency order, a spilled one is faulted back in."""
        if not self.unified:
            return
        entry = self._spillable.pop(bid, None)
        if entry is not None:
            self._spillable[bid] = (entry[0], self._tick())
            return
        entry = self._spill.pop(bid, None)
        if entry is None:
            return
        block, data = entry
        nbytes = block.nbytes
        self.spilled_out_bytes -= nbytes
        # faulting in may itself need to spill something else; the
        # returning block cannot be re-victimised (not registered yet)
        self.ensure_headroom(0)
        block.data = data
        self._spillable[bid] = (block, self._tick())
        self.stats.faults_in += 1
        self.stats.fault_bytes += nbytes
        if self.blockio is not None:
            self.blockio.note_fault_in(nbytes)
        self._scratch_io("read", nbytes)
        self._trace("fault-in", bid, nbytes)
        self._note_peak()

    def pin_instr(self, bid: BlockId) -> None:
        if self.unified:
            self.pinned.add(bid)

    def clear_instr_pins(self) -> None:
        if self.pinned:
            self.pinned.clear()

    # -- scratch device model -------------------------------------------
    def _scratch_io(self, kind: str, nbytes: int) -> None:
        machine = self.machine
        if machine is None:
            return
        duration = machine.disk_seek + nbytes / machine.disk_bandwidth
        attempts = 0
        while (
            self.faults is not None
            and self.faults.disk_verdict(kind, self.fault_device, self._now())
        ):
            attempts += 1
            self.time_debt += duration + self.retry_backoff * attempts
            if kind == "write":
                self.stats.spill_write_retries += 1
                if self.resilience is not None:
                    self.resilience.writeback_retries += 1
            else:
                self.stats.spill_read_retries += 1
                if self.resilience is not None:
                    self.resilience.disk_read_retries += 1
            if attempts >= self.retry_limit:
                raise SIPError(
                    f"{self.name}: scratch {kind} failed "
                    f"{attempts} times; giving up"
                )
        self.time_debt += duration

    def take_time_debt(self) -> float:
        debt = self.time_debt
        self.time_debt = 0.0
        return debt

    # -- post-run --------------------------------------------------------
    def restore_all(self) -> None:
        """Fault every spilled block back in (result-gathering path)."""
        for bid, (block, data) in self._spill.items():
            block.data = data
            self.spilled_out_bytes -= block.nbytes
            self._spillable[bid] = (block, self._tick())
        self._spill.clear()
