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
ReplicaMap (via :attr:`on_issue`) and the I/O server's read/write-back
machinery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from .blocks import Block, BlockId
from .config import SIPError
from .fold import MAX
from .messages import (
    SERVER_TAG,
    SERVICE_TAG,
    BlockReply,
    GetBlock,
    PutBlock,
    message_nbytes,
    snapshot_for_transport,
)

__all__ = ["AccumLedger", "BlockIOStats", "BlockTransferEngine", "IN_FLIGHT_CAP"]

#: fetches a rank may have in flight before speculation stops (the
#: cache itself is bounded by bytes, not by a count of blocks)
IN_FLIGHT_CAP = 64


@dataclass(frozen=True)
class _Route:
    """How the blocks of one array ``kind`` move.

    ``tag`` is the owner's mailbox, ``epoch`` the port attribute holding
    the kind's barrier epoch, ``issued`` / ``posted`` the
    :class:`BlockIOStats` counters of a fetch and a write, and
    ``write_retries`` / ``fetch_label`` / ``write_label`` the resilience
    counter and trace labels of a resend.
    """

    kind: str
    tag: int
    epoch: str
    issued: str
    posted: str
    write_retries: str
    fetch_label: str
    write_label: str


#: array kind -> route: SIAL's get/put move distributed blocks between
#: workers, request/prepare move served blocks to and from I/O servers
ROUTES = {
    route.kind: route
    for route in (
        _Route("distributed", SERVICE_TAG, "epoch", "issued_gets", "puts_posted",
               "put_retries", "get", "put-ack"),
        _Route("served", SERVER_TAG, "served_epoch", "issued_requests",
               "prepares_posted", "prepare_retries", "request", "prepare-ack"),
    )
}  # fmt: skip


@dataclass
class BlockIOStats:
    """Counters for every block movement an engine mediated."""

    issued_gets: int = 0  # GetBlock messages sent to a worker
    issued_requests: int = 0  # GetBlock messages sent to an I/O server
    coalesced: int = 0  # fetches satisfied by attaching to an in-flight one
    waiters: int = 0  # demand acquires that blocked on an arrival
    # most waiters ever attached to one in-flight block
    waiter_peak: int = field(default=0, metadata=MAX)
    # largest request table this engine ever held
    in_flight_peak: int = field(default=0, metadata=MAX)
    backpressure_stalls: int = 0  # demand fetches that waited for cache space
    hint_drops: int = 0  # speculative fetches dropped for lack of headroom
    puts_posted: int = 0  # PutBlock messages sent to a worker
    prepares_posted: int = 0  # PutBlock messages sent to an I/O server
    replies_served: int = 0  # BlockReply messages sent by this rank
    disk_loads: int = 0  # server-side cache fills from disk (or zero-fill)
    writebacks: int = 0  # server-side write-backs started
    writebacks_superseded: int = 0  # write-backs dropped for a fresher one
    accums_buffered: int = 0  # '+=' contributions parked in the ledger
    accum_folds: int = 0  # ledger folds applied (in canonical key order)

    @property
    def issued(self) -> int:
        return self.issued_gets + self.issued_requests


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

    arrival: object  # event fired when the block lands in the cache
    waiters: int = 0


class BlockTransferEngine:
    """Owns every in-flight block movement for one rank.

    ``port`` is the owning rank object (a ``WorkerProcess`` or
    ``IOServerProcess``); the engine reads its ``sim``, ``comm``,
    ``cache`` and ``rt`` attributes, plus -- on the worker
    fetch/post paths only -- ``race_iter``, ``races``, ``next_tag()``,
    ``next_msg_seq()``, ``spawn_retry_monitor()`` and the epoch
    attribute of each array kind's route (``epoch`` for distributed
    blocks, ``served_epoch`` for served ones).

    A fetch or write goes to the block's owner (``rt.owner_rank``) by
    the route of its array's kind (:data:`ROUTES`): the same messages
    carry distributed and served blocks, only the mailbox, epoch and
    counters differ.

    A worker fetch or write carries its pc and the iteration it is for
    (``race_iter``, the running one, unless a prefetch names a later
    one) to the owner's race recorder; reads of cached replicas go to
    the rank's own (:mod:`repro.sip.sanitizer`).
    """

    def __init__(self, port, *, reserve: int = 2) -> None:
        self.port = port
        self.sim = port.sim
        self.comm = port.comm
        self.cache = port.cache
        self.rt = port.rt
        self.reserve = reserve
        self.stats = BlockIOStats()
        self.accums = AccumLedger(self.stats)
        self._inflight: dict[BlockId, _InFlight] = {}
        self.ever_fetched: set[BlockId] = set()
        # fire-and-forget write acks still outstanding, per array kind
        # (drained at the kind's barrier and at run end so every write
        # lands before it counts)
        self.outstanding_acks: dict[str, list] = {kind: [] for kind in ROUTES}
        # server-side write-back version ledger: a completed write-back
        # only owns the disk image if no fresher one was started since
        self._writeback_version: dict[BlockId, int] = {}
        # loads parked until an entry becomes evictable (server
        # back-pressure when the cache is full of dirty/pending
        # blocks), oldest first; each write-back or load wakes one
        self._evictable_waiters: deque = deque()
        # hook invoked with the BlockId whenever a wire fetch is issued
        # (the locality scheduler's ReplicaMap subscribes here)
        self.on_issue: Optional[Callable[[BlockId], None]] = None

    # -- backpressure ------------------------------------------------------
    def headroom(self) -> bool:
        """Whether a *speculative* fetch may be issued right now.

        The single backpressure predicate for every prefetch path:
        leaves ``reserve`` of the ``IN_FLIGHT_CAP`` in-flight slots free
        for demand fetches.
        """
        return self.cache.pending_count < IN_FLIGHT_CAP - self.reserve

    # -- worker fetch paths ------------------------------------------------
    def hint(
        self, bid: BlockId, iteration: tuple, pc: int, *, mark_refetch: bool = True
    ) -> bool:
        """Speculative fetch: issue early, never wait, never fault.

        Returns False when the hint had to be dropped (no
        :meth:`headroom`, or no room for its bytes without a spill); the
        demand access that follows fetches with backpressure.  A hint for
        a block already cached or already in flight is a success -- the
        in-flight case is the coalesced duplicate the request table
        exists to absorb.
        """
        entry = self.cache.lookup(bid, touch=False)
        if entry is not None:
            if entry.pending:
                self.stats.coalesced += 1
            if entry.seen is not iteration:
                self.port.races.replica_read(entry, bid, iteration, pc)
            return True
        if not self.headroom():
            self.stats.hint_drops += 1
            return False
        if mark_refetch and bid in self.ever_fetched:
            self.cache.mark_refetch(bid)
        try:
            self._issue(bid, pc, iteration, demand=False)
        except SIPError:
            self.stats.hint_drops += 1
            return False
        return True

    def acquire(self, bid: BlockId, wait, pc: int) -> Generator:
        """Demand read: return the ready block, waiting/refetching as needed.

        ``wait`` is the port's accounting wait (``event -> Generator``),
        so time blocked here lands in the busy/wait profile.
        """
        entry = self.cache.lookup(bid)
        if entry is None:
            # miss: never requested, or evicted before use -> refetch
            if bid in self.ever_fetched:
                self.cache.mark_refetch(bid)
            entry = yield from self._issue_with_backpressure(bid, wait, pc)
            self.cache.record_use(bid, hit=False)
        else:
            iteration = self.port.race_iter
            if entry.seen is not iteration:
                self.port.races.replica_read(entry, bid, iteration, pc)
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
                entry = yield from self._issue_with_backpressure(bid, wait, pc)
                self._note_waiter(bid)
                yield from wait(entry.arrival)
                entry = self.cache.lookup(bid)
                if entry is None or entry.block is None:
                    raise SIPError(
                        f"block {bid} thrashed out of the cache; increase "
                        "memory_per_worker or reduce prefetch_depth"
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

    def _issue_with_backpressure(self, bid: BlockId, wait, pc: int) -> Generator:
        """Issue a fetch, waiting for an in-flight arrival when the cache
        has no room for it (demand fetches outrank prefetches)."""
        while True:
            try:
                return self._issue(bid, pc, self.port.race_iter)
            except SIPError:
                pending = self.cache.any_pending_arrival()
                if pending is None:
                    raise
                self.stats.backpressure_stalls += 1
                yield from wait(pending)

    def _count(self, counter: str) -> None:
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def _issue(self, bid: BlockId, pc: int, iteration: tuple, demand: bool = True):
        """Put one fetch on the wire and register it in the request table.

        Raises :class:`SIPError` when the cache cannot take another
        pending entry (what it holds is pinned, pending or dirty).  A demand
        fetch may spill resident blocks for its bytes; a speculative one
        (``demand=False``) only ever drops clean replicas.
        """
        port = self.port
        route = ROUTES[self.rt.array_desc(bid.array_id).kind]
        dest = self.rt.owner_rank(bid)
        arrival = self.sim.event(name=("arrive {}", bid))
        reply_tag = port.next_tag()
        entry = self.cache.insert_pending(bid, arrival, demand)
        entry.fetched_by = entry.seen = iteration
        self._inflight[bid] = _InFlight(arrival)
        if len(self._inflight) > self.stats.in_flight_peak:
            self.stats.in_flight_peak = len(self._inflight)
        req = self.comm.irecv(source=dest, tag=reply_tag)

        def on_reply(ev) -> None:
            self._complete(bid, ev.value.payload.block, arrival)

        req.event.add_callback(on_reply)
        payload = GetBlock(
            bid, reply_tag, getattr(port, route.epoch), iteration, pc
        )
        self._count(route.issued)

        def send() -> None:
            self.comm.isend(payload, dest=dest, tag=route.tag)

        send()
        port.spawn_retry_monitor(arrival, send, "fetch_retries", route.fetch_label)
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
        """Transport snapshot of a block (a copy-on-write share)."""
        return snapshot_for_transport(block, self.rt.cow)

    def _replica_write(self, bid: BlockId, epoch: int, op: str, pc: int) -> None:
        entry = self.cache.lookup(bid, touch=False)
        if entry is not None:
            port = self.port
            port.races.replica_write(entry, epoch, bid, op, port.race_iter, pc)

    def post_put(
        self, bid: BlockId, op: str, src_block: Block, accum_key: Optional[tuple],
        pc: int,
    ) -> None:
        """Fire a PutBlock at the block's owner (a put or a prepare); its
        ack joins the kind's outstanding list, drained at the kind's
        barrier and at run end."""
        port = self.port
        route = ROUTES[self.rt.array_desc(bid.array_id).kind]
        epoch = getattr(port, route.epoch)
        self._replica_write(bid, epoch, op, pc)
        owner = self.rt.owner_rank(bid)
        ack_tag = port.next_tag()
        req = self.comm.irecv(source=owner, tag=ack_tag)
        self.outstanding_acks[route.kind].append(req.event)
        payload = PutBlock(
            bid,
            op,
            self.snapshot(src_block),
            epoch,
            ack_tag,
            port.next_msg_seq(),
            accum_key,
            port.race_iter if accum_key is None else None,
            pc,
        )

        def send() -> None:
            self.comm.isend(
                payload, dest=owner, tag=route.tag, nbytes=message_nbytes(payload)
            )

        send()
        port.spawn_retry_monitor(
            req.event, send, route.write_retries, route.write_label
        )
        self._count(route.posted)

    post_prepare = post_put  # one body; tracers wrap each verb's name

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
        woken = False  # holds a wake-up it has not used for an insert
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
                    woken = True
                    continue
                woken = False
                self._inflight[bid] = _InFlight(arrival)
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
            if woken:
                # another caller loaded the block: hand the room on
                woken = False
                self.signal_evictable()
            if entry.pending:
                self.stats.coalesced += 1
                self._note_waiter(bid)
                yield entry.arrival
                continue
            return entry

    def _wait_evictable(self):
        """An event firing when an entry becomes evictable and every
        load parked before this one has been woken."""
        event = self.sim.event(name="cache-evictable")
        self._evictable_waiters.append(event)
        return event

    def signal_evictable(self) -> None:
        """An entry became evictable: wake the oldest parked load."""
        if self._evictable_waiters:
            self._evictable_waiters.popleft().succeed(None)

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
