"""LRU block caches.

Workers cache remote distributed-array blocks they fetched (so a recent
``get`` is free), and I/O servers cache served-array blocks with
write-back semantics (paper, Section V-B: "Each I/O server contains a
cache ... Replacement is done using a LRU strategy").

Entries move through three states:

* *pending*  -- a fetch is in flight; an Event fires on arrival;
* *ready*    -- data present (and, on servers, possibly *dirty*);
* evicted    -- removed by LRU pressure; a later use must refetch.

Pending, pinned and dirty entries are never evicted.  No cache has a
block limit: a worker's replicas and an I/O server's write-back
entries alike are bounded by bytes, under the rank's memory budget,
through the ledger.  The cache records the statistics the
prefetch-tuning ablation needs: hits, misses, evictions of blocks that
were fetched but never used (the BlueGene/P pathology from Section
VI-A), and refetches.

Every insert and every touching lookup stamps the entry from the
cache's ``tick`` counter.  The rank's :class:`MemoryManager` stamps its
resident blocks from the same counter, so under memory pressure a
replica and a resident block are compared by one recency order
(:meth:`BlockCache.evict_for_pressure`, ``older_than``).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..simmpi.simulator import Event
from .blocks import Block, BlockId
from .config import SIPError

__all__ = ["BlockCache", "CacheEntry", "CacheStats"]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    evicted_before_use: int = 0
    refetches: int = 0


@dataclass
class CacheEntry:
    block: Optional[Block] = None
    arrival: Optional[Event] = None  # pending fetch completion
    dirty: bool = False
    pinned: int = 0
    used: bool = False  # read at least once since insertion
    fetch_count: int = 0
    charged: int = 0  # bytes charged against the memory ledger
    stamp: int = 0  # last use, on the rank's recency counter
    # race checker (worker replicas): the fetching iteration, the last
    # iteration checked, the latest other reader (iteration, pc) and the
    # first write (epoch, (op, iteration, pc))
    fetched_by: Optional[tuple] = None
    seen: Optional[tuple] = None
    read_by: Optional[tuple] = None
    written: Optional[tuple] = None

    @property
    def pending(self) -> bool:
        return self.block is None


class BlockCache:
    """An LRU cache of blocks keyed by :class:`BlockId`."""

    def __init__(
        self,
        name: str = "cache",
        on_evict: Optional[Callable[[BlockId, CacheEntry], None]] = None,
        nbytes_of: Optional[Callable[[BlockId], int]] = None,
        ledger=None,
    ) -> None:
        self.name = name
        self.on_evict = on_evict
        # Optional byte accounting: `nbytes_of` sizes an entry by its
        # block id, and `ledger` (a MemoryManager) is asked for headroom
        # before each insert so cached bytes share the rank's budget.
        self.nbytes_of = nbytes_of
        self.ledger = ledger
        self.bytes_in_use = 0
        self.stats = CacheStats()
        self._entries: "OrderedDict[BlockId, CacheEntry]" = OrderedDict()
        self._pending = 0  # incremental count of in-flight entries
        # the rank's recency counter: `_entries` is always in stamp order
        self.tick = itertools.count(1).__next__

    def _charge(self, block_id: BlockId, demand: bool) -> int:
        if self.nbytes_of is None:
            return 0
        nbytes = self.nbytes_of(block_id)
        if self.ledger is not None:
            self.ledger.cache_headroom(nbytes, allow_spill=demand)
        self.bytes_in_use += nbytes
        return nbytes

    def _release(self, entry: CacheEntry) -> None:
        self.bytes_in_use -= entry.charged
        entry.charged = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._entries

    def lookup(self, block_id: BlockId, touch: bool = True) -> Optional[CacheEntry]:
        entry = self._entries.get(block_id)
        if entry is not None and touch:
            self._entries.move_to_end(block_id)
            entry.stamp = self.tick()
        return entry

    def record_use(self, block_id: BlockId, hit: bool) -> None:
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        entry = self._entries.get(block_id)
        if entry is not None:
            entry.used = True

    def insert_pending(
        self, block_id: BlockId, arrival: Event, demand: bool = True
    ) -> CacheEntry:
        """Register an in-flight fetch, making room for its bytes.

        A speculative insert (``demand=False``) may only drop replicas
        for its bytes: speculation never pays a disk seek.
        """
        if block_id in self._entries:
            raise SIPError(f"{self.name}: duplicate pending insert of {block_id}")
        charged = self._charge(block_id, demand)
        entry = CacheEntry(
            arrival=arrival, fetch_count=1, charged=charged, stamp=self.tick()
        )
        self._entries[block_id] = entry
        self._pending += 1
        self.stats.insertions += 1
        return entry

    def fulfil(self, block_id: BlockId, block: Block) -> None:
        """Complete a pending fetch (the entry may have been evicted)."""
        entry = self._entries.get(block_id)
        if entry is None:
            return  # evicted while in flight; arrival event still fires
        if entry.pending:
            self._pending -= 1
        entry.block = block
        entry.arrival = None

    def insert_ready(
        self, block_id: BlockId, block: Block, dirty: bool = False
    ) -> CacheEntry:
        """Insert a complete block (server prepare / local store)."""
        entry = self._entries.get(block_id)
        if entry is not None:
            if entry.pending:
                self._pending -= 1
            entry.block = block
            entry.dirty = dirty or entry.dirty
            # A pending entry may have waiters parked on its arrival
            # event; wake them with the block, don't just drop the event.
            arrival, entry.arrival = entry.arrival, None
            if arrival is not None:
                arrival.succeed_if_pending(block)
            self._entries.move_to_end(block_id)
            entry.stamp = self.tick()
            return entry
        charged = self._charge(block_id, demand=True)
        entry = CacheEntry(
            block=block, dirty=dirty, charged=charged, stamp=self.tick()
        )
        self._entries[block_id] = entry
        self.stats.insertions += 1
        return entry

    def mark_refetch(self, block_id: BlockId) -> None:
        self.stats.refetches += 1

    def remove(self, block_id: BlockId) -> None:
        entry = self._entries.pop(block_id, None)
        if entry is not None:
            if entry.pending:
                self._pending -= 1
            self._release(entry)

    def clear_clean(self) -> None:
        """Drop every clean, unpinned, non-pending entry (sip_barrier)."""
        for key in list(self._entries):
            entry = self._entries[key]
            if self.evictable(entry):
                self._evict(key, entry)

    def pin(self, block_id: BlockId) -> None:
        self._entries[block_id].pinned += 1

    def unpin(self, block_id: BlockId) -> None:
        entry = self._entries.get(block_id)
        if entry is None:
            raise SIPError(
                f"{self.name}: unpin of {block_id}, which is not cached "
                "(pinned entries must not be removed before their unpin)"
            )
        if entry.pinned <= 0:
            raise SIPError(f"{self.name}: unpin of unpinned {block_id}")
        entry.pinned -= 1

    def evictable(self, entry: CacheEntry) -> bool:
        return entry.pinned == 0 and entry.block is not None and not entry.dirty

    def _evict(self, key: BlockId, entry: CacheEntry) -> None:
        """Drop one entry with full accounting (evictions, on_evict)."""
        del self._entries[key]
        self._release(entry)
        self.stats.evictions += 1
        if not entry.used:
            self.stats.evicted_before_use += 1
        if self.on_evict is not None:
            self.on_evict(key, entry)

    def _lru_victim(self) -> Optional[tuple[BlockId, CacheEntry]]:
        """The least recently used evictable entry (scanned in place:
        under pressure the victim is almost always among the first few)."""
        for key, entry in self._entries.items():
            if self.evictable(entry):
                return key, entry
        return None

    def evict_for_pressure(
        self, need_bytes: int, older_than: Optional[int] = None
    ) -> tuple[int, int]:
        """Drop clean LRU entries until ~need_bytes are freed.

        Returns (bytes freed, entries evicted).  Pinned, pending, and
        dirty entries are skipped.  With ``older_than`` (the stamp of the
        rank's least recently used resident block) the drops stop at the
        first replica used after it: that block is the better victim.
        Freeing less than asked is fine (the caller's cascade spills it).
        """
        freed = 0
        count = 0
        while freed < need_bytes:
            victim = self._lru_victim()
            if victim is None:
                break
            if older_than is not None and victim[1].stamp > older_than:
                break
            freed += victim[1].charged
            count += 1
            self._evict(*victim)
        return freed, count

    def items(self):
        return self._entries.items()

    @property
    def pending_count(self) -> int:
        return self._pending

    def any_pending_arrival(self) -> Optional[Event]:
        """The arrival event of some in-flight fetch (backpressure hook)."""
        for entry in self._entries.values():
            if entry.pending and entry.arrival is not None:
                return entry.arrival
        return None
