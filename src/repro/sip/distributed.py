"""Distributed arrays: static block placement and barrier-misuse detection.

Blocks of a distributed array are assigned to workers with a simple
static strategy (paper, Section V-B): the linearized block coordinate
modulo the number of workers.  The applications' irregular access
patterns show little locality, so this works well in practice and --
exactly as the paper argues -- the placement could be swapped out here
without touching any SIAL program.

The runtime also detects most improper uses of barriers (paper,
Section IV-C): within one barrier epoch, a put-'=' conflicts with any
other access to the same block by a different worker, and a get
conflicts with any write.  Atomic accumulate (put +=) operations do not
conflict with each other.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from math import prod
from typing import Callable, Optional

from .blocks import BlockId, ResolvedIndexTable
from .config import SIPError

__all__ = ["Placement", "ReplicaMap", "BarrierViolation", "ConflictTracker"]


class BarrierViolation(SIPError):
    """Conflicting accesses to an array without an intervening barrier."""


class Placement:
    """Static block-to-worker mapping for one distributed array."""

    def __init__(
        self, table: ResolvedIndexTable, array_id: int, n_workers: int
    ) -> None:
        desc = table.program.array_table[array_id]
        self.array_id = array_id
        self.n_workers = n_workers
        dims = [table[i].n_segments for i in desc.index_ids]
        self.dims = dims
        # row-major strides over block coordinates
        strides = []
        acc = 1
        for d in reversed(dims):
            strides.append(acc)
            acc *= d
        self.strides = tuple(reversed(strides))
        self.n_blocks = prod(dims, start=1)

    def linearize(self, coords: tuple[int, ...]) -> int:
        return sum((c - 1) * s for c, s in zip(coords, self.strides))

    def owner_index(self, coords: tuple[int, ...]) -> int:
        """0-based worker index owning the block at these coordinates."""
        return self.linearize(coords) % self.n_workers

    def owned_by(self, worker_index: int) -> list[tuple[int, ...]]:
        """All block coordinates owned by one worker."""
        out = []
        for lin in range(worker_index, self.n_blocks, self.n_workers):
            out.append(self.delinearize(lin))
        return out

    def delinearize(self, lin: int) -> tuple[int, ...]:
        coords = []
        for s in self.strides:
            coords.append(lin // s + 1)
            lin %= s
        return tuple(coords)


class ReplicaMap:
    """Recently cached replicas of remote blocks, by block id.

    Workers note each block they fetch into their LRU cache; the
    locality scheduler reads the map to steer iterations toward workers
    that already hold a copy.  The map is a *hint*, not a directory: a
    bounded number of recent holders is kept per block, entries are
    discarded on barrier-epoch cache clears but may outlive silent LRU
    evictions, and staleness only ever mis-scores an assignment -- it
    can never affect results, because every rank still fetches through
    the normal ownership protocol.
    """

    def __init__(self, history: int = 2) -> None:
        self.history = history
        self._holders: dict[BlockId, OrderedDict[int, None]] = {}

    def note(self, block_id: BlockId, worker_index: int) -> None:
        if self.history <= 0:
            return
        holders = self._holders.setdefault(block_id, OrderedDict())
        holders.pop(worker_index, None)
        holders[worker_index] = None
        while len(holders) > self.history:
            holders.popitem(last=False)

    def discard(self, block_id: BlockId, worker_index: int) -> None:
        holders = self._holders.get(block_id)
        if holders is None:
            return
        holders.pop(worker_index, None)
        if not holders:
            del self._holders[block_id]

    def holders(self, block_id: BlockId) -> tuple[int, ...]:
        holders = self._holders.get(block_id)
        return tuple(holders) if holders else ()

    def __len__(self) -> int:
        return len(self._holders)


@dataclass
class _EpochRecord:
    readers: set[int] = field(default_factory=set)
    writers: set[int] = field(default_factory=set)
    accumulators: set[int] = field(default_factory=set)


class ConflictTracker:
    """Owner-side epoch-scoped conflict detection for one array class.

    One tracker guards all blocks a rank owns (distributed arrays on
    workers, served arrays on I/O servers); the matching barrier resets
    it.

    A ``sink`` callable turns the tracker into a recorder: violations
    are reported to it (the sanitizer collects them) instead of raised,
    and the run continues.
    """

    def __init__(
        self,
        name: str,
        enabled: bool = True,
        sink: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.name = name
        self.enabled = enabled
        self.sink = sink
        self._records: dict[BlockId, _EpochRecord] = {}

    def _violation(self, message: str) -> None:
        if self.sink is not None:
            self.sink(message)
            return
        raise BarrierViolation(message)

    def record_read(self, worker: int, block_id: BlockId) -> None:
        if not self.enabled:
            return
        rec = self._records.get(block_id)
        if rec is None:
            rec = self._records[block_id] = _EpochRecord()
        elif rec.writers or rec.accumulators:
            others_wrote = (rec.writers | rec.accumulators) - {worker}
            if others_wrote:
                self._violation(
                    f"{self.name}: worker {worker} reads block {block_id} written "
                    f"by worker(s) {sorted(others_wrote)} in the same epoch; "
                    "separate conflicting accesses with the appropriate barrier"
                )
        rec.readers.add(worker)

    def record_write(self, worker: int, block_id: BlockId, op: str) -> None:
        if not self.enabled:
            return
        rec = self._records.get(block_id)
        if rec is None:
            rec = self._records[block_id] = _EpochRecord()
        if rec.readers:
            other_readers = rec.readers - {worker}
            if other_readers:
                self._violation(
                    f"{self.name}: worker {worker} writes block {block_id} read "
                    f"by worker(s) {sorted(other_readers)} in the same epoch; "
                    "separate conflicting accesses with the appropriate barrier"
                )
        if op == "+=":
            # accumulates commute with each other but not with plain writes
            if rec.writers:
                other_writers = rec.writers - {worker}
                if other_writers:
                    self._violation(
                        f"{self.name}: accumulate to block {block_id} conflicts "
                        f"with plain put by worker(s) {sorted(other_writers)}"
                    )
            rec.accumulators.add(worker)
        else:
            if rec.writers or rec.accumulators:
                others = (rec.writers | rec.accumulators) - {worker}
                if others:
                    self._violation(
                        f"{self.name}: worker {worker} overwrites block {block_id} "
                        f"also written by worker(s) {sorted(others)} in the same "
                        "epoch"
                    )
            rec.writers.add(worker)

    def new_epoch(self) -> None:
        self._records.clear()
