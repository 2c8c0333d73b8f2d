"""Dry-run memory-feasibility analysis.

Before committing supercomputer time, the master inspects the program
and estimates each worker's memory requirement from the number of
workers, the array sizes, and the distributed data layout (paper,
Section V-B).  If the computation cannot fit, the report says so *and*
states how many workers would be sufficient -- exactly the user
experience the paper describes.

The estimate covers, per worker:

* replicated static arrays (full size each),
* the largest owned share of every distributed array (exact, from the
  placement function),
* one live block per temp array and per local array (the block-stack
  working set),
* the remote-block cache reserve (``IN_FLIGHT_CAP`` x largest block:
  the replicas a worker may have in flight at once).

Their sum is the *no-spill requirement*: with that much memory no
block ever leaves RAM.  The report also states the *pinned-only
floor* -- the blocks one instruction must hold resident at once plus
in-flight transfers -- which is what a spill-enabled run actually
needs; between floor and requirement, the MemoryManager's victim
cascade trades scratch-disk traffic for the shortfall.  Beside the
same budget it states each I/O server's served working set (its
largest share of the served arrays): below that, a server's
write-back cache reads served blocks from disk again.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, prod

from ..sial.bytecode import CompiledProgram
from .blockio import IN_FLIGHT_CAP
from .blocks import DTYPE_BYTES, ResolvedIndexTable
from .config import SIPConfig, SIPError

__all__ = ["DryRunReport", "dry_run", "InfeasibleComputation"]


class InfeasibleComputation(SIPError):
    """The computation does not fit in the configured memory."""


# blocks one instruction can pin at once (destination + two sources)
# plus headroom for an in-flight demand fetch, an incoming put being
# applied by the service pump, and one spare for a fault-in in progress
PINNED_FLOOR_BLOCKS = 6


@dataclass
class DryRunReport:
    feasible: bool
    workers: int
    budget_bytes: float
    static_bytes: int
    distributed_max_bytes: int
    temp_bytes: int
    local_bytes: int
    cache_reserve_bytes: int
    array_bytes: dict[str, int]
    required_workers: int
    pinned_floor_bytes: int = 0
    spill: bool = False
    served_share_bytes: int = 0  # per I/O server

    @property
    def per_worker_bytes(self) -> int:
        return (
            self.static_bytes
            + self.distributed_max_bytes
            + self.temp_bytes
            + self.local_bytes
            + self.cache_reserve_bytes
        )

    @property
    def spill_headroom_bytes(self) -> int:
        """Budget left above the pinned-only floor (what spill can use)."""
        return int(self.budget_bytes - self.pinned_floor_bytes)

    def report(self) -> str:
        lines = [
            f"dry run: {self.workers} workers, "
            f"{self.budget_bytes / 1e6:.1f} MB per worker",
            "  pool (resident blocks):",
            f"    static (replicated):     {self.static_bytes:>14d} B",
            f"    distributed (max owned): {self.distributed_max_bytes:>14d} B",
            f"    temp working set:        {self.temp_bytes:>14d} B",
            f"    local working set:       {self.local_bytes:>14d} B",
            f"  block cache reserve:     {self.cache_reserve_bytes:>14d} B",
            f"  total per worker:        {self.per_worker_bytes:>14d} B "
            "(no-spill requirement)",
            f"  pinned-only floor:       {self.pinned_floor_bytes:>14d} B",
            f"  spill headroom:          {self.spill_headroom_bytes:>14d} B "
            f"(spill {'enabled' if self.spill else 'disabled'})",
        ]
        if self.served_share_bytes:
            over = self.served_share_bytes > self.budget_bytes
            lines.append(
                f"  served per I/O server:   {self.served_share_bytes:>14d} B "
                f"({'over budget: re-read from disk' if over else 'within budget'})"
            )
        for name, nbytes in sorted(self.array_bytes.items()):
            lines.append(f"    array {name:<12s} {nbytes:>14d} B total")
        if self.feasible:
            lines.append("  FEASIBLE")
        elif self.spill:
            lines.append(
                "  INFEASIBLE: the pinned-only floor exceeds the budget; "
                "even spilling everything evictable cannot help"
            )
        elif self.required_workers < 0:
            lines.append(
                "  INFEASIBLE: the fixed per-worker bytes alone exceed the "
                "budget, whatever the worker count"
            )
        else:
            lines.append(
                f"  INFEASIBLE: would need at least {self.required_workers} "
                "workers at this memory size"
            )
        return "\n".join(lines)


def dry_run(
    program: CompiledProgram, config: SIPConfig, table: ResolvedIndexTable
) -> DryRunReport:
    """Estimate per-worker memory and feasibility for this configuration."""
    static_bytes = 0
    temp_bytes = 0
    local_bytes = 0
    # distributed and served arrays: totals and largest block
    totals: dict[str, list[int]] = {"distributed": [], "served": []}
    max_blocks = dict.fromkeys(totals, 0)
    array_bytes: dict[str, int] = {}
    max_block = 0

    for desc in program.array_table:
        dims = [table[i] for i in desc.index_ids]
        total = prod((d.n_elements for d in dims), start=1) * DTYPE_BYTES
        largest_block = prod(
            (max((s.length for s in d.segments), default=d.n_elements) for d in dims),
            start=1,
        ) * DTYPE_BYTES
        array_bytes[desc.name] = total
        max_block = max(max_block, largest_block)
        if desc.kind == "static":
            static_bytes += total
        elif desc.kind == "temp":
            temp_bytes += largest_block
        elif desc.kind == "local":
            local_bytes += largest_block
        else:  # distributed, or served (on the I/O servers' disks)
            totals[desc.kind].append(total)
            max_blocks[desc.kind] = max(max_blocks[desc.kind], largest_block)

    cache_reserve = IN_FLIGHT_CAP * max_block
    pinned_floor = PINNED_FLOOR_BLOCKS * max_block

    def share(kind: str, ranks: int) -> int:
        # owned share: ceil-split of each array plus one block of slack
        # for placement imbalance
        return sum(ceil(t / ranks) + max_blocks[kind] for t in totals[kind])

    dist_totals, dist_max_block = totals["distributed"], max_blocks["distributed"]

    per_worker = (
        static_bytes
        + share("distributed", config.workers)
        + temp_bytes
        + local_bytes
        + cache_reserve
    )
    budget = config.memory_budget
    if config.spill:
        # with spill, only what must stay pinned at once has to fit;
        # everything else can live on scratch between touches
        feasible = pinned_floor <= budget
    else:
        feasible = per_worker <= budget

    fixed = static_bytes + temp_bytes + local_bytes + cache_reserve
    if fixed >= budget:
        required = -1  # no worker count can help
    else:
        required = 1
        total_dist = sum(dist_totals)
        head = budget - fixed - dist_max_block * max(1, len(dist_totals))
        if head > 0:
            required = max(1, ceil(total_dist / head))
        else:
            required = -1

    return DryRunReport(
        feasible=feasible,
        workers=config.workers,
        budget_bytes=budget,
        static_bytes=static_bytes,
        distributed_max_bytes=share("distributed", config.workers),
        temp_bytes=temp_bytes,
        local_bytes=local_bytes,
        cache_reserve_bytes=cache_reserve,
        array_bytes=array_bytes,
        required_workers=required,
        pinned_floor_bytes=pinned_floor,
        spill=config.spill,
        served_share_bytes=share("served", max(1, config.io_servers)),
    )
