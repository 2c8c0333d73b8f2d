"""The block-transfer engine: every in-flight block movement of one rank.

Before this module existed the runtime had three parallel copies of the
block-movement discipline -- the worker interpreter hand-rolled
pending-cache insertion and arrival waits, the lookahead prefetcher
duplicated the cache-full guard, and the I/O server re-implemented its
own variant for disk loads and write-backs.  The
:class:`BlockTransferEngine` consolidates all of it behind one request
table per rank:

* **coalescing** -- a second get/prefetch/request for a block already in
  flight attaches a waiter to the existing pending cache entry instead
  of issuing a new wire message (counted in ``BlockIOStats.coalesced``);
* **unified pending-cache insertion** -- only the engine (and the cache
  it drives) calls ``insert_pending``/``fulfil``;
* **backpressure** -- one :meth:`BlockTransferEngine.headroom` predicate
  bounds speculative fetches (replacing the duplicated
  ``pending_count >= capacity - 2`` guards), while demand fetches wait
  for an in-flight arrival to free a slot;
* **canonical accumulation** -- the '+=' contributions buffered against
  owned/served blocks live in the engine's :class:`AccumLedger` and are
  folded sorted by their sender-side order key, which is what keeps
  results bitwise identical across backends and worker counts.

The engine is transport-agnostic: it talks to a
:class:`~repro.sip.transport.CommEndpoint`, so the simulated world and
the multiprocess transport sit below it unchanged.  Clients are the VM
interpreter, the lookahead prefetcher, the locality scheduler's
ReplicaMap (via :attr:`on_issue`), the memory manager's fault-in/spill
paths (via :meth:`note_fault_in`/:meth:`note_spill`) and the I/O
server's read/write-back machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from .blocks import Block, BlockId
from .config import SIPError
from .messages import (
    SERVER_TAG,
    SERVICE_TAG,
    BlockReply,
    GetBlock,
    PrepareBlock,
    PutBlock,
    RequestBlock,
    message_nbytes,
    snapshot_for_transport,
)

__all__ = ["AccumLedger", "BlockIOStats", "BlockTransferEngine"]


@dataclass
class BlockIOStats:
    """Counters for every block movement an engine mediated."""

    issued_gets: int = 0  # GetBlock messages put on the wire
    issued_requests: int = 0  # RequestBlock messages put on the wire
    coalesced: int = 0  # fetches satisfied by attaching to an in-flight one
    waiters: int = 0  # demand acquires that blocked on an arrival
    waiter_peak: int = 0  # most waiters ever attached to one in-flight block
    in_flight_peak: int = 0  # largest request table this engine ever held
    backpressure_stalls: int = 0  # demand fetches that waited for cache space
    hint_drops: int = 0  # speculative fetches dropped for lack of headroom
    puts_posted: int = 0  # PutBlock messages put on the wire
    prepares_posted: int = 0  # PrepareBlock messages put on the wire
    replies_served: int = 0  # BlockReply messages sent by this rank
    disk_loads: int = 0  # server-side cache fills from disk (or zero-fill)
    writebacks: int = 0  # server-side write-backs started
    writebacks_superseded: int = 0  # write-backs dropped for a fresher one
    accums_buffered: int = 0  # '+=' contributions parked in the ledger
    accum_folds: int = 0  # ledger folds applied (in canonical key order)
    fault_ins: int = 0  # spilled blocks faulted back in by the memman
    spills: int = 0  # resident blocks parked on scratch by the memman

    @property
    def issued(self) -> int:
        return self.issued_gets + self.issued_requests

    def add(self, other: "BlockIOStats") -> None:
        """Merge another rank's counters into this one (peaks take max)."""
        self.issued_gets += other.issued_gets
        self.issued_requests += other.issued_requests
        self.coalesced += other.coalesced
        self.waiters += other.waiters
        self.waiter_peak = max(self.waiter_peak, other.waiter_peak)
        self.in_flight_peak = max(self.in_flight_peak, other.in_flight_peak)
        self.backpressure_stalls += other.backpressure_stalls
        self.hint_drops += other.hint_drops
        self.puts_posted += other.puts_posted
        self.prepares_posted += other.prepares_posted
        self.replies_served += other.replies_served
        self.disk_loads += other.disk_loads
        self.writebacks += other.writebacks
        self.writebacks_superseded += other.writebacks_superseded
        self.accums_buffered += other.accums_buffered
        self.accum_folds += other.accum_folds
        self.fault_ins += other.fault_ins
        self.spills += other.spills


class AccumLedger:
    """Canonical '+=' contribution buffer for one rank.

    Accumulate puts/prepares are buffered with a sender-side order key
    and folded sorted by that key at the first read (or at run end), so
    the floating-point sum is independent of message arrival order --
    the block analogue of the collective scalar ledger, and what makes
    the multiprocess backend bitwise identical to the simulator.
    """

    def __init__(self, stats: Optional[BlockIOStats] = None) -> None:
        self._pending: dict[BlockId, list[tuple[tuple, Block]]] = {}
        self.stats = stats or BlockIOStats()
        self._seq = 0

    def __contains__(self, bid: BlockId) -> bool:
        return bid in self._pending

    def __bool__(self) -> bool:
        return bool(self._pending)

    def pending_ids(self) -> list[BlockId]:
        return list(self._pending)

    def next_key(self, iter_key: Optional[tuple], worker_index: int) -> tuple:
        """Canonical ordering key for a '+=' put/prepare contribution.

        Inside a pardo the key leads with the iteration identity, so the
        fold order matches the iteration space no matter which worker ran
        which iteration; outside one it leads with the worker index (all
        workers execute the same SPMD statement).  The trailing per-sender
        counter only breaks ties *within* one iteration, where it follows
        program order on a single worker in every backend.
        """
        self._seq += 1
        if iter_key is not None:
            pardo_id, activation, combo = iter_key
            return (0, pardo_id, activation, combo, self._seq)
        return (1, worker_index, self._seq)

    def buffer(self, bid: BlockId, key: tuple, block: Block) -> None:
        self._pending.setdefault(bid, []).append((key, block))
        self.stats.accums_buffered += 1

    def discard(self, bid: BlockId) -> None:
        """Drop buffered contributions (an overwrite supersedes them)."""
        self._pending.pop(bid, None)

    def pop_sorted(self, bid: BlockId) -> list[tuple[tuple, Block]]:
        """Detach ``bid``'s contributions, sorted in canonical key order."""
        pending = self._pending.pop(bid, None)
        if not pending:
            return []
        pending.sort(key=lambda kv: kv[0])
        self.stats.accum_folds += 1
        return pending

    def fold_into(self, bid: BlockId, block: Block) -> bool:
        """Apply buffered contributions to ``block`` in canonical order.

        The caller is responsible for the copy-on-write barrier (and any
        touch/dirty bookkeeping) around the target block.
        """
        pending = self.pop_sorted(bid)
        if not pending:
            return False
        if block.data is not None:
            for _key, inc in pending:
                if inc.data is not None:
                    block.data[...] += inc.data
        return True


@dataclass
class _InFlight:
    """One outstanding block movement in the engine's request table."""

    kind: str  # "get" | "request" | "load"
    arrival: object  # event fired when the block lands in the cache
    waiters: int = 0


class BlockTransferEngine:
    """Owns every in-flight block movement for one rank.

    ``port`` is the owning rank object (a ``WorkerProcess`` or
    ``IOServerProcess``); the engine reads its ``sim``, ``comm``,
    ``cache`` and ``rt`` attributes, plus -- on the worker
    fetch/post paths only -- ``worker_index``, ``epoch``,
    ``served_epoch``, ``next_tag()``, ``next_msg_seq()`` and
    ``spawn_retry_monitor()``.
    """

    def __init__(
        self,
        port,
        *,
        reserve: int = 2,
        max_in_flight: Optional[int] = None,
    ) -> None:
        self.port = port
        self.sim = port.sim
        self.comm = port.comm
        self.cache = port.cache
        self.rt = port.rt
        self.reserve = reserve
        self.max_in_flight = max_in_flight
        self.stats = BlockIOStats()
        self.accums = AccumLedger(self.stats)
        self._inflight: dict[BlockId, _InFlight] = {}
        self.ever_fetched: set[BlockId] = set()
        # fire-and-forget write acks still outstanding (drained at
        # barriers and at run end so every write lands before it counts)
        self.outstanding_put_acks: list = []
        self.outstanding_prepare_acks: list = []
        # server-side write-back version ledger: a completed write-back
        # only owns the disk image if no fresher one was started since
        self._writeback_version: dict[BlockId, int] = {}
        # broadcast event: "an entry just became evictable" -- server
        # back-pressure when the cache is full of dirty/pending blocks
        self._evictable_signal = None
        # hook invoked with the BlockId whenever a wire fetch is issued
        # (the locality scheduler's ReplicaMap subscribes here)
        self.on_issue: Optional[Callable[[BlockId], None]] = None

    # -- request-table introspection --------------------------------------
    @property
    def in_flight_count(self) -> int:
        return len(self._inflight)

    def in_flight(self, bid: BlockId) -> bool:
        return bid in self._inflight

    # -- backpressure ------------------------------------------------------
    def headroom(self) -> bool:
        """Whether a *speculative* fetch may be issued right now.

        The single backpressure predicate for every prefetch path:
        leaves ``reserve`` cache slots free for demand fetches, and
        optionally bounds the request table at ``max_in_flight``.
        """
        if (
            self.max_in_flight is not None
            and len(self._inflight) >= self.max_in_flight
        ):
            return False
        return self.cache.pending_count < self.cache.capacity - self.reserve

    # -- worker fetch paths ------------------------------------------------
    def hint(self, bid: BlockId, kind: str, *, mark_refetch: bool = True) -> bool:
        """Speculative fetch: issue early, never wait, never fault.

        Returns False when the hint had to be dropped (cache momentarily
        full of in-flight blocks); the demand access that follows fetches
        with backpressure.  A hint for a block already cached or already
        in flight is a success -- the in-flight case is the coalesced
        duplicate the request table exists to absorb.
        """
        entry = self.cache.lookup(bid, touch=False)
        if entry is not None:
            if entry.pending:
                self.stats.coalesced += 1
            return True
        if mark_refetch and bid in self.ever_fetched:
            self.cache.mark_refetch(bid)
        try:
            self._issue(bid, kind, demand=False)
        except SIPError:
            self.stats.hint_drops += 1
            return False
        return True

    def acquire(self, bid: BlockId, kind: str, wait) -> Generator:
        """Demand read: return the ready block, waiting/refetching as needed.

        ``wait`` is the port's accounting wait (``event -> Generator``),
        so time blocked here lands in the busy/wait profile.
        """
        entry = self.cache.lookup(bid)
        if entry is None:
            # miss: never requested, or evicted before use -> refetch
            if bid in self.ever_fetched:
                self.cache.mark_refetch(bid)
            entry = yield from self._issue_with_backpressure(bid, kind, wait)
            self.cache.record_use(bid, hit=False)
        else:
            pending = entry.pending
            if pending:
                self.stats.coalesced += 1
            self.cache.record_use(bid, hit=not pending)
        if entry.pending:
            self._note_waiter(bid)
            yield from wait(entry.arrival)
            entry = self.cache.lookup(bid)
            if entry is None or entry.pending:
                # evicted between arrival and resume: refetch synchronously
                self.cache.mark_refetch(bid)
                entry = yield from self._issue_with_backpressure(bid, kind, wait)
                self._note_waiter(bid)
                yield from wait(entry.arrival)
                entry = self.cache.lookup(bid)
                if entry is None or entry.block is None:
                    raise SIPError(
                        f"block {bid} thrashed out of the cache; increase "
                        "cache_blocks or reduce prefetch_depth"
                    )
        self.cache.record_use(bid, hit=True)  # mark used for eviction stats
        self.cache.stats.hits -= 1  # the extra record_use is bookkeeping only
        return entry.block

    def _note_waiter(self, bid: BlockId) -> None:
        self.stats.waiters += 1
        inf = self._inflight.get(bid)
        if inf is not None:
            inf.waiters += 1
            if inf.waiters > self.stats.waiter_peak:
                self.stats.waiter_peak = inf.waiters

    def _issue_with_backpressure(self, bid: BlockId, kind: str, wait) -> Generator:
        """Issue a fetch, waiting for cache space when it is full of
        in-flight blocks (demand fetches outrank prefetches)."""
        while True:
            try:
                return self._issue(bid, kind)
            except SIPError:
                pending = self.cache.any_pending_arrival()
                if pending is None:
                    raise
                self.stats.backpressure_stalls += 1
                yield from wait(pending)

    def _issue(self, bid: BlockId, kind: str, demand: bool = True):
        """Put one fetch on the wire and register it in the request table.

        Raises :class:`SIPError` when the cache cannot take another
        pending entry (full of pinned/pending/dirty blocks).  A demand
        fetch may spill resident blocks for its bytes; a speculative one
        (``demand=False``) only ever drops clean replicas.
        """
        port = self.port
        if kind == "get":
            dest = self.rt.owner_rank(bid)
            arrival = self.sim.event(name=("arrive {}", bid))
        else:
            dest = self.rt.server_rank_for(bid)
            arrival = self.sim.event(name=("arrive-served {}", bid))
        reply_tag = port.next_tag()
        entry = self.cache.insert_pending(bid, arrival, demand)
        self._inflight[bid] = _InFlight(kind=kind, arrival=arrival)
        if len(self._inflight) > self.stats.in_flight_peak:
            self.stats.in_flight_peak = len(self._inflight)
        req = self.comm.irecv(source=dest, tag=reply_tag)

        def on_reply(ev) -> None:
            self._complete(bid, ev.value.payload.block, arrival)

        req.event.add_callback(on_reply)
        if kind == "get":
            payload = GetBlock(bid, reply_tag, port.worker_index, port.epoch)
            send_tag = SERVICE_TAG
            self.stats.issued_gets += 1
        else:
            payload = RequestBlock(
                bid, reply_tag, port.worker_index, port.served_epoch
            )
            send_tag = SERVER_TAG
            self.stats.issued_requests += 1

        def send() -> None:
            self.comm.isend(payload, dest=dest, tag=send_tag)

        send()
        port.spawn_retry_monitor(arrival, send, "fetch_retries", kind)
        self.ever_fetched.add(bid)
        if self.on_issue is not None:
            self.on_issue(bid)
        return entry

    def _complete(self, bid: BlockId, block: Block, arrival) -> None:
        """A fetched payload landed: fill the cache entry, wake waiters."""
        self._inflight.pop(bid, None)
        self.cache.fulfil(bid, block)
        arrival.succeed(None)

    # -- worker write paths ------------------------------------------------
    def snapshot(self, block: Block) -> Block:
        """Transport snapshot of a block (zero-copy share when enabled)."""
        return snapshot_for_transport(block, self.rt.cow_enabled, self.rt.cow)

    def post_put(
        self, bid: BlockId, op: str, src_block: Block, accum_key: Optional[tuple]
    ) -> None:
        """Fire a PutBlock at the owning worker; its ack joins the
        outstanding ledger drained at barriers and run end."""
        port = self.port
        owner = self.rt.owner_rank(bid)
        ack_tag = port.next_tag()
        req = self.comm.irecv(source=owner, tag=ack_tag)
        self.outstanding_put_acks.append(req.event)
        payload = PutBlock(
            bid,
            op,
            self.snapshot(src_block),
            port.worker_index,
            port.epoch,
            ack_tag,
            port.next_msg_seq(),
            accum_key,
        )

        def send() -> None:
            self.comm.isend(
                payload, dest=owner, tag=SERVICE_TAG, nbytes=message_nbytes(payload)
            )

        send()
        port.spawn_retry_monitor(req.event, send, "put_retries", "put-ack")
        self.stats.puts_posted += 1

    def post_prepare(
        self, bid: BlockId, op: str, src_block: Block, accum_key: Optional[tuple]
    ) -> None:
        """Fire a PrepareBlock at the serving I/O rank (ack ledgered)."""
        port = self.port
        server = self.rt.server_rank_for(bid)
        ack_tag = port.next_tag()
        req = self.comm.irecv(source=server, tag=ack_tag)
        self.outstanding_prepare_acks.append(req.event)
        payload = PrepareBlock(
            bid,
            op,
            self.snapshot(src_block),
            port.worker_index,
            port.served_epoch,
            ack_tag,
            port.next_msg_seq(),
            accum_key,
        )

        def send() -> None:
            self.comm.isend(
                payload, dest=server, tag=SERVER_TAG, nbytes=message_nbytes(payload)
            )

        send()
        port.spawn_retry_monitor(req.event, send, "prepare_retries", "prepare-ack")
        self.stats.prepares_posted += 1

    # -- serving side ------------------------------------------------------
    def reply_block(self, dest: int, reply_tag: int, bid: BlockId, block: Block) -> None:
        """Answer a get/request with a BlockReply snapshot."""
        reply = BlockReply(bid, self.snapshot(block))
        self.comm.isend(
            reply, dest=dest, tag=reply_tag, nbytes=message_nbytes(reply)
        )
        self.stats.replies_served += 1

    # -- server read path --------------------------------------------------
    def ensure_cached(self, bid: BlockId, loader) -> Generator:
        """Get a ready cache entry for ``bid``, loading it if necessary.

        ``loader`` is a zero-argument generator factory producing the
        block (a disk read on the I/O server).  Concurrent callers for
        the same block coalesce on the in-flight load; when the cache is
        full of dirty/pending entries the engine waits for one to become
        evictable (write-back backpressure) before inserting.
        """
        while True:
            entry = self.cache.lookup(bid)
            if entry is None:
                arrival = self.sim.event(name=("diskload {}", bid))
                try:
                    self.cache.insert_pending(bid, arrival)
                except SIPError:
                    # back-pressure only helps if something can still
                    # become evictable (a write-back or load in flight);
                    # otherwise the budget is genuinely too small
                    if not any(
                        e.dirty or e.pending for _, e in self.cache.items()
                    ):
                        raise
                    self.stats.backpressure_stalls += 1
                    yield self._wait_evictable()
                    continue
                self._inflight[bid] = _InFlight(kind="load", arrival=arrival)
                if len(self._inflight) > self.stats.in_flight_peak:
                    self.stats.in_flight_peak = len(self._inflight)
                self.stats.disk_loads += 1
                block = yield from loader()
                self._complete(bid, block, arrival)
                self.signal_evictable()
                entry = self.cache.lookup(bid)
                if entry is not None and entry.block is not None:
                    return entry
                continue  # evicted mid-load: retry
            if entry.pending:
                self.stats.coalesced += 1
                self._note_waiter(bid)
                yield entry.arrival
                continue
            return entry

    def _wait_evictable(self):
        """An event firing the next time a cache entry becomes evictable."""
        if self._evictable_signal is None or self._evictable_signal.triggered:
            self._evictable_signal = self.sim.event(name="cache-evictable")
        return self._evictable_signal

    def signal_evictable(self) -> None:
        if self._evictable_signal is not None and not self._evictable_signal.triggered:
            self._evictable_signal.succeed(None)

    # -- server write-back ledger -----------------------------------------
    def begin_writeback(self, bid: BlockId) -> int:
        """Register a new write-back; returns its version token."""
        version = self._writeback_version.get(bid, 0) + 1
        self._writeback_version[bid] = version
        self.stats.writebacks += 1
        return version

    def writeback_current(self, bid: BlockId, version: int) -> bool:
        """Whether the write-back holding ``version`` still owns the disk
        image (a newer one supersedes this snapshot)."""
        current = self._writeback_version.get(bid) == version
        if not current:
            self.stats.writebacks_superseded += 1
        return current

    # -- memory-manager observability --------------------------------------
    def note_fault_in(self, nbytes: int) -> None:
        """A spilled block was faulted back in (local block movement)."""
        self.stats.fault_ins += 1

    def note_spill(self, nbytes: int) -> None:
        """A resident block was parked on scratch."""
        self.stats.spills += 1
