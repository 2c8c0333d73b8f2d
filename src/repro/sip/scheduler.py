"""Master-side pardo scheduling.

All parallelism in SIAL is the pardo loop; the master enumerates its
iteration space (the cross product of the index ranges filtered by the
``where`` clauses) and doles it out to workers in *chunks*.  Three
policies exist:

* ``guided`` -- shrinking chunks from one shared queue, the paper's
  guided self-scheduling (Section V-B);
* ``static`` -- one equal contiguous slice per worker (ablation
  baseline);
* ``locality`` -- per-worker affinity queues built from the placement
  of the blocks each iteration gets, with work stealing when a queue
  drains, so data affinity never sacrifices the guided policy's tail
  balance.

Every policy serves each iteration exactly once, and because pardo
iterations are independent (and collective sums are canonicalized by
iteration, see :mod:`repro.sip.master`), results are bitwise identical
across policies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product
from math import ceil
from typing import Optional, Sequence

from ..sial.bytecode import CompiledCondition, evaluate_condition
from .blocks import ResolvedIndexTable

__all__ = [
    "enumerate_pardo",
    "conditions_read_scalars",
    "SchedStats",
    "GuidedScheduler",
    "StaticScheduler",
    "LocalityScheduler",
    "make_scheduler",
]


def conditions_read_scalars(
    conditions: Sequence[CompiledCondition],
) -> bool:
    """Whether any ``where`` clause references a program scalar.

    The analyzer rejects scalars in where clauses for programs compiled
    from source, but hand-built bytecode may carry them; such a pardo's
    iteration space depends on worker-side scalar state, so the chunk
    request must ship a snapshot for the master to evaluate against.
    """
    return any(
        item[0] == "scalar"
        for c in conditions
        for rpn in (c.left_rpn, c.right_rpn)
        for item in rpn
    )


def enumerate_pardo(
    table: ResolvedIndexTable,
    index_ids: Sequence[int],
    conditions: Sequence[CompiledCondition],
    symbolics: Sequence[float] | None = None,
    scalars: Sequence[float] | None = None,
) -> list[tuple[int, ...]]:
    """All (ordered) iteration tuples of a pardo loop."""
    sym = list(symbolics) if symbolics is not None else table.symbolic_values
    scal = list(scalars) if scalars is not None else None
    ranges = [table[i].values() for i in index_ids]
    out: list[tuple[int, ...]] = []
    for combo in product(*ranges):
        values = dict(zip(index_ids, combo))
        if all(
            evaluate_condition(c, scalars=scal, symbolics=sym, index_values=values)
            for c in conditions
        ):
            out.append(combo)
    return out


@dataclass
class SchedStats:
    """Dole-out counters, shared by every scheduler of one run."""

    policy: str = "guided"
    chunks: int = 0
    replies: int = 0  # chunk replies sent, the empty end-of-pardo ones included
    iterations: int = 0
    # locality policy only: iterations served to their preferred worker
    # vs elsewhere, and steal events when a worker's own queue drained
    locality_hits: int = 0
    locality_misses: int = 0
    steals: int = 0
    stolen_iterations: int = 0

    @property
    def locality_rate(self) -> float:
        total = self.locality_hits + self.locality_misses
        return self.locality_hits / total if total else 0.0


@dataclass
class GuidedScheduler:
    """Shrinking-chunk dole-out of one pardo's iterations.

    The first chunks are large (so dole-out overhead is amortized) and
    chunk size decreases with the remaining work (so the tail balances
    load): ``chunk = ceil(remaining / (chunk_factor * workers))``.
    """

    iterations: list[tuple[int, ...]]
    workers: int
    chunk_factor: int = 2
    min_chunk: int = 1
    stats: SchedStats = field(default_factory=SchedStats)
    _pos: int = 0
    chunks_served: int = 0

    def next_chunk(self) -> list[tuple[int, ...]]:
        remaining = len(self.iterations) - self._pos
        if remaining <= 0:
            return []
        size = max(self.min_chunk, ceil(remaining / (self.chunk_factor * self.workers)))
        chunk = self.iterations[self._pos : self._pos + size]
        self._pos += len(chunk)
        self.chunks_served += 1
        self.stats.chunks += 1
        self.stats.iterations += len(chunk)
        return chunk

    def next_chunk_for(self, worker_index: int) -> list[tuple[int, ...]]:
        return self.next_chunk()

    @property
    def done(self) -> bool:
        return self._pos >= len(self.iterations)


@dataclass
class StaticScheduler:
    """Ablation baseline: equal pre-partitioned chunks, one per worker.

    Worker ``w`` receives the ``w``-th contiguous slice on its first
    request and nothing afterwards -- classic static scheduling, which
    load-imbalances when iteration costs vary.
    """

    iterations: list[tuple[int, ...]]
    workers: int
    stats: SchedStats = field(default_factory=SchedStats)
    _served: set[int] = field(default_factory=set)

    def next_chunk_for(self, worker_index: int) -> list[tuple[int, ...]]:
        if worker_index in self._served:
            return []
        self._served.add(worker_index)
        n = len(self.iterations)
        per = ceil(n / self.workers) if n else 0
        lo = worker_index * per
        chunk = self.iterations[lo : lo + per]
        if chunk:
            self.stats.chunks += 1
            self.stats.iterations += len(chunk)
        return chunk


@dataclass
class LocalityScheduler:
    """Affinity queues per worker, with guided chunk sizing and stealing.

    ``preferred[i]`` names the worker with the best data affinity for
    ``iterations[i]`` (the master scores iterations against block
    placement; see :meth:`MasterProcess._affinity_map`).  Each worker is
    served guided-sized chunks from its own queue, in enumeration order.
    When a worker's queue drains while others still hold work, it
    *steals* half of the largest foreign queue -- taken from that
    queue's tail, i.e. the iterations its home worker would reach last
    and is least likely to have warmed caches for ("coldest first") --
    so the tail stays balanced exactly like guided scheduling.
    """

    iterations: list[tuple[int, ...]]
    workers: int
    chunk_factor: int = 2
    min_chunk: int = 1
    preferred: Optional[list[int]] = None
    stats: SchedStats = field(default_factory=SchedStats)

    def __post_init__(self) -> None:
        n = len(self.iterations)
        home = self.preferred
        if home is None:
            home = [i % self.workers for i in range(n)]
        if len(home) != n:
            raise ValueError(
                f"preferred map has {len(home)} entries for {n} iterations"
            )
        if any(not (0 <= w < self.workers) for w in home):
            raise ValueError("preferred worker index out of range")
        self._home = list(home)
        self._queues: list[deque[int]] = [deque() for _ in range(self.workers)]
        for i, w in enumerate(self._home):
            self._queues[w].append(i)
        self._remaining = n

    @property
    def done(self) -> bool:
        return self._remaining <= 0

    def next_chunk_for(self, worker_index: int) -> list[tuple[int, ...]]:
        if self._remaining <= 0:
            return []
        queue = self._queues[worker_index]
        if not queue:
            self._steal_into(worker_index)
        size = max(
            self.min_chunk,
            ceil(self._remaining / (self.chunk_factor * self.workers)),
        )
        taken: list[int] = []
        while queue and len(taken) < size:
            taken.append(queue.popleft())
        if not taken:
            return []
        self._remaining -= len(taken)
        hits = sum(1 for i in taken if self._home[i] == worker_index)
        self.stats.chunks += 1
        self.stats.iterations += len(taken)
        self.stats.locality_hits += hits
        self.stats.locality_misses += len(taken) - hits
        return [self.iterations[i] for i in taken]

    def _steal_into(self, thief: int) -> None:
        victim = max(
            (w for w in range(self.workers) if w != thief),
            key=lambda w: (len(self._queues[w]), -w),
            default=None,
        )
        if victim is None or not self._queues[victim]:
            return
        source = self._queues[victim]
        count = ceil(len(source) / 2)
        # pop from the victim's tail (its coldest work), but keep the
        # moved run in enumeration order for the thief
        moved = [source.pop() for _ in range(count)]
        moved.reverse()
        self._queues[thief].extend(moved)
        self.stats.steals += 1
        self.stats.stolen_iterations += count


def make_scheduler(
    policy: str,
    iterations: list[tuple[int, ...]],
    workers: int,
    chunk_factor: int = 2,
    min_chunk: int = 1,
    preferred: Optional[list[int]] = None,
    stats: Optional[SchedStats] = None,
):
    if stats is None:
        stats = SchedStats(policy=policy)
    if policy == "guided":
        return GuidedScheduler(
            iterations, workers, chunk_factor, min_chunk, stats=stats
        )
    if policy == "static":
        return StaticScheduler(iterations, workers, stats=stats)
    if policy == "locality":
        return LocalityScheduler(
            iterations,
            workers,
            chunk_factor,
            min_chunk,
            preferred=preferred,
            stats=stats,
        )
    raise ValueError(f"unknown scheduling policy {policy!r}")
