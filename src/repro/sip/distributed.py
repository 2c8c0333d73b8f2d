"""Distributed arrays: static block placement and the replica map.

Blocks of a distributed array are assigned to workers with a simple
static strategy (paper, Section V-B): the linearized block coordinate
modulo the number of workers.  The applications' irregular access
patterns show little locality, so this works well in practice and --
exactly as the paper argues -- the placement could be swapped out here
without touching any SIAL program.

Improper uses of barriers (paper, Section IV-C) are detected by the
owning rank's race recorder (:mod:`repro.sip.sanitizer`).
"""

from __future__ import annotations

from collections import OrderedDict
from math import prod

from .blocks import BlockId, ResolvedIndexTable

__all__ = ["Placement", "ReplicaMap"]


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
