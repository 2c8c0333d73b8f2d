"""SIP I/O servers: the disk-backed (served) array ranks.

Each I/O server owns a static share of every served array's blocks, a
write-back LRU cache, and one simulated disk.  All of its operations
are non-blocking (paper, Section V-B): a ``prepare`` is acknowledged as
soon as the block lands in the cache and is *lazily* written to disk; a
``request`` is answered from the cache when possible and otherwise
spawns an asynchronous disk read, so a slow disk never stalls the
message loop.  Blocks are materialized only when actually filled with
data, which keeps symmetric arrays cheap to declare (paper, Section
V-B).

Cache fills, write-back versioning, accumulate buffering and reply
snapshots all go through the rank's
:class:`~repro.sip.blockio.BlockTransferEngine` -- the same engine the
workers use, so concurrent loads coalesce and back-pressure is applied
by one discipline.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..simmpi import Disk, Timeout
from ..simmpi.faults import ResilienceStats
from .blockio import BlockTransferEngine
from .blocks import Block, BlockId, block_nbytes
from .config import SIPError
from .memman import MemoryManager
from .distributed import ConflictTracker
from .messages import (
    Ack,
    PrepareBlock,
    RequestBlock,
    SERVER_TAG,
    Shutdown,
)
from .runtime import SharedRuntime
from .transport import CommEndpoint

__all__ = ["IOServerProcess"]


class IOServerProcess:
    def __init__(
        self, rt: SharedRuntime, server_index: int, comm: CommEndpoint
    ) -> None:
        self.rt = rt
        self.server_index = server_index
        self.rank = rt.config.server_rank(server_index)
        self.comm = comm
        self.sim = rt.sim
        self._nbytes_memo: dict[BlockId, int] = {}
        # the server's cache shares the rank budget through the same
        # MemoryManager workers use; it has no spillable blocks, so
        # pressure resolves through eviction and write-back alone
        self.memman = MemoryManager(
            rt.config.memory_budget,
            real=rt.real,
            name=f"ioserver{server_index}",
            cache_blocks=rt.config.server_cache_blocks,
            nbytes_of=self._block_nbytes,
            dtype=rt.dtype,
            spill=rt.config.spill,
            clock=lambda: rt.sim.now,
            tracer=rt.config.tracer,
            rank=self.rank,
        )
        self.cache = self.memman.cache
        self.disk = Disk(
            rt.sim,
            seek_latency=rt.config.machine.disk_seek,
            bandwidth=rt.config.machine.disk_bandwidth,
            name=f"disk{server_index}",
            faults=rt.config.faults,
        )
        # "on-disk" contents: ndarray in real mode, block shape in model mode
        self.disk_data: dict[BlockId, object] = {}
        self.trackers: dict[int, ConflictTracker] = {}
        # all block movement (cache fills, write-back versions, the
        # canonical '+=' ledger, reply snapshots) goes through the engine
        self.blockio = BlockTransferEngine(
            self,
            reserve=rt.config.blockio_reserve,
            max_in_flight=rt.config.blockio_max_in_flight,
        )
        self.memman.blockio = self.blockio
        # resilient protocol: (source rank, seq) -> "pending" | "done",
        # so a retried prepare is applied exactly once but still acked
        self._prepare_state: dict[tuple[int, int], str] = {}
        self.resilience = ResilienceStats()

    def tracker(self, epoch: int) -> ConflictTracker:
        t = self.trackers.get(epoch)
        if t is None:
            t = self.trackers[epoch] = ConflictTracker(
                "served",
                enabled=self.rt.config.validate_barriers,
                sink=(
                    self.rt.sanitizer.note_owner_violation
                    if self.rt.sanitizer is not None
                    else None
                ),
            )
        return t

    # -- main pump -----------------------------------------------------------
    def run(self) -> Generator:
        while True:
            msg = yield from self.comm.recv(tag=SERVER_TAG)
            payload = msg.payload
            if isinstance(payload, Shutdown):
                if payload.ack_tag >= 0:
                    self.comm.isend(
                        Ack(payload.ack_tag), dest=msg.source, tag=payload.ack_tag
                    )
                return
            if isinstance(payload, PrepareBlock):
                self._handle_prepare(payload, msg.source)
            elif isinstance(payload, RequestBlock):
                self._handle_request(payload, msg.source)
            else:
                raise SIPError(f"I/O server got unexpected message {payload!r}")

    # -- prepare -----------------------------------------------------------------
    def _handle_prepare(self, p: PrepareBlock, source: int) -> None:
        if p.seq >= 0:
            # resilient protocol: exactly-once apply of retried prepares.
            # While the original is still being applied we stay silent
            # (its own ack will come); once done, re-ack duplicates.
            state = self._prepare_state.get((source, p.seq))
            if state == "done":
                self.resilience.duplicates_ignored += 1
                self._ack(p, source)
                return
            if state == "pending":
                self.resilience.duplicates_ignored += 1
                return
            self._prepare_state[(source, p.seq)] = "pending"
        self.tracker(p.epoch).record_write(p.worker_index, p.block_id, p.op)
        bid = p.block_id
        if p.op != "=" and p.accum_key is not None:
            self.blockio.accums.buffer(bid, p.accum_key, p.block)
            self._finish_prepare(p, source)
            return
        if p.op == "=":
            # an overwrite supersedes any buffered contributions
            self.blockio.accums.discard(bid)
        entry = self.cache.lookup(bid)
        if entry is not None and not entry.pending:
            self._apply(entry.block, p)
            entry.dirty = True
            self._start_writeback(bid)
            self._finish_prepare(p, source)
        else:
            # contents must be pulled (pending fetch / disk) or cache
            # space must free up first; do it off the message pump
            self.sim.spawn(
                self._prepare_later(p, source),
                name=f"ioserver{self.server_index}.prepare",
            )

    def _prepare_later(self, p: PrepareBlock, source: int) -> Generator:
        entry = yield from self._ensure_cached(p.block_id, allow_missing=True)
        self._apply(entry.block, p)
        entry.dirty = True
        self._start_writeback(p.block_id)
        self._finish_prepare(p, source)

    def _finish_prepare(self, p: PrepareBlock, source: int) -> None:
        if p.seq >= 0:
            self._prepare_state[(source, p.seq)] = "done"
        self._ack(p, source)

    def _ack(self, p: PrepareBlock, source: int) -> None:
        self.comm.isend(Ack(p.ack_tag), dest=source, tag=p.ack_tag)

    def _apply(self, block: Block, p: PrepareBlock) -> None:
        if block.data is None or p.block.data is None:
            return
        # the cached block may have been shared zero-copy with a
        # requester; detach before writing
        copied = block.ensure_writable()
        if copied:
            self.rt.cow.cow_copies += 1
            self.rt.cow.cow_bytes_copied += copied
        if p.op == "=":
            block.data[...] = p.block.data
        else:
            block.data[...] += p.block.data

    def _block_nbytes(self, bid: BlockId) -> int:
        n = self._nbytes_memo.get(bid)
        if n is None:
            n = self._nbytes_memo[bid] = block_nbytes(
                self.rt.block_shape(bid), self.rt.dtype
            )
        return n

    def _fresh_block(self, bid: BlockId) -> Block:
        shape = self.rt.block_shape(bid)
        data = np.zeros(shape, dtype=self.rt.dtype) if self.rt.real else None
        return Block(shape, data, dtype=self.rt.dtype)

    def _start_writeback(self, bid: BlockId) -> None:
        version = self.blockio.begin_writeback(bid)
        entry = self.cache.lookup(bid, touch=False)
        snapshot = (
            entry.block.data.copy()
            if entry.block.data is not None
            else entry.block.shape
        )
        nbytes = entry.block.nbytes

        def writer() -> Generator:
            attempts = 0
            while True:
                fault = yield self.disk.write(nbytes)
                if fault is None:
                    break
                attempts += 1
                self.resilience.writeback_retries += 1
                self._trace_fault("disk-write-retry", bid)
                if attempts > self.rt.config.retry_limit:
                    raise SIPError(
                        f"ioserver{self.server_index}: write-back of {bid} "
                        f"still failing after {attempts} attempts"
                    )
                yield Timeout(
                    self.rt.config.retry_timeout
                    * self.rt.config.retry_backoff ** (attempts - 1)
                )
            if not self.blockio.writeback_current(bid, version):
                # a newer write-back owns the disk image; storing this
                # snapshot would clobber fresher data
                return
            self.disk_data[bid] = snapshot
            current = self.cache.lookup(bid, touch=False)
            if current is not None:
                current.dirty = False
                self.blockio.signal_evictable()

        self.sim.spawn(writer(), name=f"ioserver{self.server_index}.writeback")

    # -- request -----------------------------------------------------------------
    def _handle_request(self, p: RequestBlock, source: int) -> None:
        self.tracker(p.epoch).record_read(p.worker_index, p.block_id)
        entry = self.cache.lookup(p.block_id)
        if entry is not None and not entry.pending:
            self.cache.record_use(p.block_id, hit=True)
            self._fold_pending(p.block_id)
            self.blockio.reply_block(source, p.reply_tag, p.block_id, entry.block)
            return
        self.cache.record_use(p.block_id, hit=False)
        self.sim.spawn(
            self._request_later(p, source),
            name=f"ioserver{self.server_index}.read",
        )

    def _request_later(self, p: RequestBlock, source: int) -> Generator:
        # a block that only ever received buffered '+=' contributions
        # has no disk image yet: fold onto zeros
        allow_missing = p.block_id in self.blockio.accums
        entry = yield from self._ensure_cached(
            p.block_id, allow_missing=allow_missing
        )
        self._fold_pending(p.block_id)
        self.blockio.reply_block(source, p.reply_tag, p.block_id, entry.block)

    def _fold_pending(self, bid: BlockId) -> None:
        """Fold buffered '+=' contributions into the (ready) cache entry."""
        if bid not in self.blockio.accums:
            return
        entry = self.cache.lookup(bid, touch=False)
        block = entry.block
        copied = block.ensure_writable()
        if copied:
            self.rt.cow.cow_copies += 1
            self.rt.cow.cow_bytes_copied += copied
        self.blockio.accums.fold_into(bid, block)
        entry.dirty = True
        self._start_writeback(bid)

    def _ensure_cached(self, bid: BlockId, allow_missing: bool) -> Generator:
        """Get a ready cache entry, loading from disk if necessary.

        The engine coalesces concurrent loads of the same block and
        applies write-back back-pressure when the cache is full of
        dirty/pending entries.
        """
        return (
            yield from self.blockio.ensure_cached(
                bid, lambda: self._load_block(bid, allow_missing)
            )
        )

    def _load_block(self, bid: BlockId, allow_missing: bool) -> Generator:
        """Read a block from disk (or create zeros if allowed)."""
        stored = self.disk_data.get(bid)
        if stored is None:
            if not allow_missing:
                desc = self.rt.array_desc(bid.array_id)
                raise SIPError(
                    f"request of block {bid.coords} of served array "
                    f"{desc.name!r} that was never prepared"
                )
            return self._fresh_block(bid)
        shape = self.rt.block_shape(bid)
        attempts = 0
        while True:
            fault = yield self.disk.read(self._block_nbytes(bid))
            if fault is None:
                break
            attempts += 1
            self.resilience.disk_read_retries += 1
            self._trace_fault("disk-read-retry", bid)
            if attempts > self.rt.config.retry_limit:
                raise SIPError(
                    f"ioserver{self.server_index}: read of {bid} still "
                    f"failing after {attempts} attempts"
                )
            yield Timeout(
                self.rt.config.retry_timeout
                * self.rt.config.retry_backoff ** (attempts - 1)
            )
        if isinstance(stored, np.ndarray):
            return Block(shape, stored.copy())
        return Block(shape, None)

    def _trace_fault(self, kind: str, detail: object) -> None:
        tracer = self.rt.config.tracer
        if tracer is not None and hasattr(tracer, "record_fault"):
            tracer.record_fault(self.sim.now, self.rank, kind, str(detail))

    # -- post-run access (outside simulated time) -------------------------------
    def flush_pending(self) -> None:
        """Fold never-read buffered '+=' contributions into the disk image.

        Called after the run (outside simulated time) so result
        gathering through :meth:`current_blocks` sees every
        contribution; canonical key order keeps the result identical to
        what an in-run fold would have produced.
        """
        for bid in self.blockio.accums.pending_ids():
            pending = self.blockio.accums.pop_sorted(bid)
            entry = self.cache.lookup(bid, touch=False)
            if entry is not None and not entry.pending and entry.block is not None:
                base = entry.block
                copied = base.ensure_writable()
                if copied:
                    self.rt.cow.cow_copies += 1
                    self.rt.cow.cow_bytes_copied += copied
                if base.data is not None:
                    for _key, inc in pending:
                        if inc.data is not None:
                            base.data[...] += inc.data
                    self.disk_data[bid] = base.data.copy()
                else:
                    self.disk_data[bid] = base.shape
                continue
            stored = self.disk_data.get(bid)
            shape = self.rt.block_shape(bid)
            if self.rt.real:
                data = (
                    stored.copy()
                    if isinstance(stored, np.ndarray)
                    else np.zeros(shape, dtype=self.rt.dtype)
                )
                for _key, inc in pending:
                    if inc.data is not None:
                        data += inc.data
                self.disk_data[bid] = data
            else:
                self.disk_data[bid] = shape

    def current_blocks(self, array_id: int) -> dict[tuple[int, ...], Block]:
        """Freshest contents of one array's blocks on this server."""
        out: dict[tuple[int, ...], Block] = {}
        for bid, stored in self.disk_data.items():
            if bid.array_id != array_id:
                continue
            if isinstance(stored, np.ndarray):
                out[bid.coords] = Block(stored.shape, stored)
            else:
                out[bid.coords] = Block(tuple(stored), None)
        for bid, entry in self.cache.items():
            if bid.array_id == array_id and entry.block is not None:
                out[bid.coords] = entry.block
        return out
