"""The runtime race checker: one recorder per rank, keyed by pardo iteration.

The static race detector (:mod:`repro.sial.racecheck`) must pass any
program whose conflicts depend on runtime values; the runtime checker
catches those (paper, Section IV-C).  Each access is recorded at the
rank owning the block -- a worker for its distributed blocks, an I/O
server for its served blocks -- with the pardo iteration it was issued
for (``(0, pardo_id, activation, combo)``, or ``(1, worker_index)``
outside pardo) and the pc of its instruction.  Two accesses to one block
in one barrier epoch of its array class conflict when they come from
different iterations and are not both reads or both ``+=``.  Keying by
iteration, not worker, makes the verdict independent of the worker count.

A read served from a worker's cached replica never reaches the owner,
so the cache entry remembers the iteration that fetched it and the
worker checks other iterations' reads of the replica against its own
writes of the block (a write from another worker meets the fetching
iteration's read at the owner).  A replica evicted and fetched again
within one epoch starts with a clean slate.

Per access a recorder stores only the iteration key and the pc;
:func:`fold_races` builds the report, with source lines, from every
rank's :class:`RaceLog` after the run, on both backends.  Recording
consumes no simulated time and never changes scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sial.bytecode import CompiledProgram
from .blocks import BlockId
from .config import SIPError

__all__ = [
    "AccessPoint",
    "BarrierViolation",
    "RaceLog",
    "RaceRecorder",
    "SanitizerConflict",
    "SanitizerReport",
    "fold_races",
]

#: distinct conflicts kept per rank and per report (the total count
#: keeps growing; a racy loop would otherwise flood memory)
MAX_CONFLICTS = 200


class BarrierViolation(SIPError):
    """Conflicting accesses to an array without an intervening barrier."""


@dataclass(frozen=True)
class AccessPoint:
    """One endpoint of a conflict: which iteration touched the block, and where."""

    pc: int
    mode: str  # "read" | "=" | "+="
    line: Optional[int]
    iteration: tuple  # ("iter", pardo_id, activation, combo) | ("seq", worker)

    def describe(self) -> str:
        what = {"read": "read", "=": "overwrite", "+=": "accumulate"}[self.mode]
        if self.iteration[0] == "iter":
            _, pardo_id, activation, combo = self.iteration
            where = f"pardo {pardo_id} iteration {combo}"
            if activation:
                where += f" (activation {activation})"
        else:
            where = f"worker {self.iteration[1]} outside pardo"
        at = f"pc={self.pc}"
        if self.line is not None:
            at += f", line {self.line}"
        return f"{what} in {where} ({at})"


@dataclass(frozen=True)
class SanitizerConflict:
    """Two accesses to one block in one epoch that do not commute."""

    kind: str  # "read-write" | "write-write"
    array: str
    coords: tuple[int, ...]
    epoch: int
    first: AccessPoint
    second: AccessPoint

    def render(self) -> str:
        return (
            f"{self.kind} on {self.array}{list(self.coords)} in epoch "
            f"{self.epoch}: {self.second.describe()} conflicts with "
            f"{self.first.describe()}"
        )


@dataclass
class SanitizerReport:
    """Every conflict the ranks recorded during one run."""

    conflicts: list[SanitizerConflict] = field(default_factory=list)
    total_conflicts: int = 0
    accesses_recorded: int = 0
    blocks_tracked: int = 0

    @property
    def ok(self) -> bool:
        return self.total_conflicts == 0

    def render(self) -> str:
        if self.ok:
            return (
                f"sanitizer: no conflicts ({self.accesses_recorded} accesses "
                f"on {self.blocks_tracked} blocks)"
            )
        lines = [
            f"sanitizer: {self.total_conflicts} conflicting access pair(s)"
            + (
                f" (showing {len(self.conflicts)} distinct)"
                if self.total_conflicts > len(self.conflicts)
                else ""
            )
        ]
        for c in self.conflicts:
            lines.append("  " + c.render())
        return "\n".join(lines)


@dataclass
class RaceLog:
    """What one rank's recorder found: plain, picklable data.

    A conflict is ``(kind, epoch, block_id, first, second)`` with each
    endpoint a ``(mode, iteration, pc)`` triple.
    """

    conflicts: list[tuple] = field(default_factory=list)
    total: int = 0
    accesses: int = 0
    blocks: int = 0


def _dedup_key(kind: str, bid: BlockId, first: tuple, second: tuple) -> tuple:
    """One distinct conflict per statement pair, whichever came first."""
    a, b = first[2], second[2]
    return (kind, bid.array_id, a, b) if a <= b else (kind, bid.array_id, b, a)


#: what an access of each mode conflicts with: (earlier mode, kind)
_CONFLICTS = {
    "read": (("=", "read-write"), ("+=", "read-write")),
    "=": (("read", "read-write"), ("=", "write-write"), ("+=", "write-write")),
    "+=": (("read", "read-write"), ("=", "write-write")),
}


class RaceRecorder:
    """Per-epoch access tables of the blocks one rank owns, by array class.

    A block's record maps each mode seen to ``{iteration: pc of its
    first such access}``.  An iteration's later access of the same mode is not
    checked again: any conflict it could meet, its first one met already
    or meets when the other side arrives.
    """

    def __init__(self, mode: str = "raise") -> None:
        self.enabled = mode != "off"
        self.log = RaceLog()
        # array class -> epoch -> block id -> record
        self.tables: dict[str, dict[int, dict]] = {"distributed": {}, "served": {}}
        self._kept: set[tuple] = set()

    def _open(self, cls: str, epoch: int) -> Optional[dict]:
        """The table of a class's epoch not seen yet; None for a late one.

        An access of epoch ``e`` arrives only after its issuer passed
        barrier ``e - 1``, which every worker reached after its puts
        (or prepares) of earlier epochs were acknowledged -- and an ack
        is sent after the write is recorded -- and after every fetch an
        instruction waited on was answered.  So once epoch ``e`` opens,
        epochs up to ``e - 1`` can only still receive fetch hints that no
        instruction waited for; epoch ``e - 1`` stays open for those,
        older epochs are freed and a hint for one is not recorded.
        """
        tables = self.tables[cls]
        if tables and epoch < max(tables) - 1:
            return None
        for old in [e for e in tables if e < epoch - 1]:
            del tables[old]
        table = tables[epoch] = {}
        return table

    def record(
        self, cls: str, epoch: int, bid: BlockId, mode: str, iteration: tuple, pc: int
    ) -> None:
        """One access; a ``+=`` names its iteration by its accum key's head."""
        if not self.enabled:
            return
        self.log.accesses += 1
        table = self.tables[cls].get(epoch)
        if table is None and (table := self._open(cls, epoch)) is None:
            return
        rec = table.get(bid)
        if rec is None:
            table[bid] = {mode: {iteration: pc}}
            self.log.blocks += 1
            return
        mine = rec.get(mode)
        if mine is None:
            mine = rec[mode] = {}
        elif iteration in mine:
            return
        for earlier, kind in _CONFLICTS[mode]:
            prior = rec.get(earlier)
            if prior:
                for other, other_pc in prior.items():
                    if other != iteration:
                        self.conflict(
                            kind, epoch, bid, (earlier, other, other_pc),
                            (mode, iteration, pc),
                        )
        mine[iteration] = pc

    def conflict(
        self, kind: str, epoch: int, bid: BlockId, first: tuple, second: tuple
    ) -> None:
        log = self.log
        log.total += 1
        key = _dedup_key(kind, bid, first, second)
        if key in self._kept or len(log.conflicts) >= MAX_CONFLICTS:
            return
        self._kept.add(key)
        log.conflicts.append((kind, epoch, bid, first, second))

    # -- the replica rule, at the worker holding the replica -------------
    def replica_read(self, entry, bid: BlockId, iteration: tuple, pc: int) -> None:
        """An iteration reads a cached replica (a hit or a coalesced
        fetch).  Called when ``entry.seen`` is not that iteration; the
        fetcher's reads reached the owner, and ``read_by`` keeps the
        latest other reader, whose next read is not checked again."""
        entry.seen = iteration
        read_by = entry.read_by
        if (
            not self.enabled
            or entry.fetched_by in (None, iteration)
            or (read_by is not None and read_by[0] == iteration)
        ):
            return
        written = entry.written
        if written is not None and written[1][1] != iteration:
            epoch, first = written
            self.conflict("read-write", epoch, bid, first, ("read", iteration, pc))
        entry.read_by = (iteration, pc)

    def replica_write(
        self, entry, epoch: int, bid: BlockId, op: str, iteration: tuple, pc: int
    ) -> None:
        """An iteration of this worker writes a block it holds a replica of."""
        if not self.enabled or entry.fetched_by is None:
            return
        read_by = entry.read_by
        if read_by is not None and read_by[0] != iteration:
            first = ("read", *read_by)
            self.conflict("read-write", epoch, bid, first, (op, iteration, pc))
        if entry.written is None:
            entry.written = (epoch, (op, iteration, pc))


def _point(program: CompiledProgram, mode: str, iteration: tuple, pc: int) -> AccessPoint:
    loc = program.instructions[pc].location
    if iteration[0] == 0:
        where = ("iter", *iteration[1:])
    else:
        where = ("seq", iteration[1])
    return AccessPoint(
        pc=pc, mode=mode, line=loc.line if loc is not None else None, iteration=where
    )


def fold_races(program: CompiledProgram, logs: list[RaceLog]) -> SanitizerReport:
    """One report from every rank's log (rank order), distinct conflicts
    kept once per statement pair."""
    report = SanitizerReport()
    seen: set[tuple] = set()
    for log in logs:
        report.total_conflicts += log.total
        report.accesses_recorded += log.accesses
        report.blocks_tracked += log.blocks
        for kind, epoch, bid, first, second in log.conflicts:
            key = _dedup_key(kind, bid, first, second)
            if key in seen or len(report.conflicts) >= MAX_CONFLICTS:
                continue
            seen.add(key)
            report.conflicts.append(
                SanitizerConflict(
                    kind=kind,
                    array=program.array_table[bid.array_id].name,
                    coords=bid.coords,
                    epoch=epoch,
                    first=_point(program, *first),
                    second=_point(program, *second),
                )
            )
    return report
