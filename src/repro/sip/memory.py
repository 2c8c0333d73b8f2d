"""Per-worker block memory pools.

The paper's SIP manages each worker's memory as stacks of preallocated
blocks of the sizes the dry run predicted (Section V-B).  We reproduce
that design: a :class:`BlockPool` keeps a free-stack per block shape,
reuses buffers on allocate/free, enforces the worker's memory budget,
and records the peak usage that the dry-run analysis is validated
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import Block, block_nbytes
from .config import SIPError
from .fold import MAX

__all__ = ["BlockPool", "OutOfBlockMemory", "PoolStats"]


class OutOfBlockMemory(SIPError):
    """The worker's block memory budget would be exceeded."""


@dataclass
class PoolStats:
    allocations: int = 0
    reuses: int = 0
    frees: int = 0
    bytes_in_use: int = 0
    peak_bytes: int = field(default=0, metadata=MAX)
    # peak *total* live block count across all shapes
    peak_blocks: int = field(default=0, metadata=MAX)
    blocks_in_use: int = 0
    # peak live block count per shape, for dry-run validation (how many
    # buffers of each size a preallocating runtime would need)
    peak_by_shape: dict[tuple[int, ...], int] = field(
        default_factory=dict, metadata=MAX
    )


class BlockPool:
    """Stacks of reusable blocks, one stack per shape.

    In *real* mode freed numpy buffers are kept on the stack and handed
    back on the next allocation of the same shape, exactly like the
    preallocated Fortran block stacks in the paper.  In *model* mode no
    data is allocated but all accounting still happens, so memory
    feasibility behaves identically in both modes.
    """

    def __init__(
        self,
        budget_bytes: float,
        real: bool,
        name: str = "pool",
        dtype=np.float64,
    ) -> None:
        self.budget_bytes = budget_bytes
        self.real = real
        self.name = name
        self.dtype = np.dtype(dtype)
        self.stats = PoolStats()
        self._free: dict[tuple[int, ...], list[np.ndarray]] = {}
        self._live_by_shape: dict[tuple[int, ...], int] = {}

    def allocate(self, shape: tuple[int, ...]) -> Block:
        nbytes = block_nbytes(shape, self.dtype)
        if self.stats.bytes_in_use + nbytes > self.budget_bytes:
            raise OutOfBlockMemory(
                f"{self.name}: allocating {nbytes} bytes for shape {shape} "
                f"would exceed the budget ({self.stats.bytes_in_use} of "
                f"{self.budget_bytes:.0f} bytes in use); rerun with more "
                "workers or a smaller segment size"
            )
        self.stats.bytes_in_use += nbytes
        self.stats.blocks_in_use += 1
        self.stats.peak_bytes = max(self.stats.peak_bytes, self.stats.bytes_in_use)
        self.stats.peak_blocks = max(self.stats.peak_blocks, self.stats.blocks_in_use)
        live = self._live_by_shape.get(shape, 0) + 1
        self._live_by_shape[shape] = live
        if live > self.stats.peak_by_shape.get(shape, 0):
            self.stats.peak_by_shape[shape] = live
        data = None
        if self.real:
            stack = self._free.get(shape)
            if stack:
                data = stack.pop()
                self.stats.reuses += 1
            else:
                data = np.zeros(shape, dtype=self.dtype)
                self.stats.allocations += 1
        else:
            self.stats.allocations += 1
        return Block(shape, data, dtype=self.dtype)

    def free(self, block: Block) -> None:
        self.stats.bytes_in_use -= block.nbytes
        self.stats.blocks_in_use -= 1
        self.stats.frees += 1
        live = self._live_by_shape.get(block.shape, 0) - 1
        if live > 0:
            self._live_by_shape[block.shape] = live
        else:
            self._live_by_shape.pop(block.shape, None)
        if self.stats.bytes_in_use < 0:  # pragma: no cover - double free guard
            raise SIPError(f"{self.name}: double free detected")
        if self.real and block.data is not None:
            # a copy-on-write twin (in-flight message payload, another
            # worker's cache entry) may still reference this buffer; it
            # can only be recycled once the last holder surrenders it
            if block.surrender():
                self._free.setdefault(block.shape, []).append(block.data)
            block.data = None
