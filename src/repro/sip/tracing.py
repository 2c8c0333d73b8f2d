"""Execution tracing: per-worker timelines of super instructions.

The SIP's coarse instruction granularity makes detailed tracing cheap
(paper, Section VI-B); this module records one event per executed
(slow) instruction -- start/end simulated time, busy/wait split, rank
and opcode -- and renders text timelines that make communication
overlap visible:

    w0 |####....####======####|
    w1 |..####====####....####|

where ``#`` is contraction time, ``=`` other kernels, ``.`` waiting
(each opcode's glyph is its :data:`~repro.sial.bytecode.OPS` entry's).

Attach a :class:`TraceRecorder` via ``SIPConfig.tracer``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from ..sial.bytecode import OPS

__all__ = ["TraceEvent", "FaultTraceEvent", "SchedTraceEvent", "TraceRecorder"]

_WAIT_GLYPH = "."
_IDLE_GLYPH = " "


@dataclass(frozen=True)
class TraceEvent:
    worker: int
    pc: int
    op: str
    start: float
    end: float
    wait: float
    line: Optional[int] = None  # SIAL source line of the instruction

    @property
    def busy(self) -> float:
        return (self.end - self.start) - self.wait


@dataclass(frozen=True)
class FaultTraceEvent:
    """One recovery action taken by the resilient protocol."""

    time: float
    rank: int
    kind: str  # e.g. "retry-get", "disk-write-retry"
    detail: str


@dataclass(frozen=True)
class MemTraceEvent:
    """One memory-pressure action taken by a rank's MemoryManager."""

    time: float
    rank: int
    kind: str  # "spill" | "fault-in"
    block: str
    nbytes: int


@dataclass(frozen=True)
class SchedTraceEvent:
    """One pardo chunk served by the master."""

    time: float
    worker: int
    pardo_pc: int
    size: int  # iterations in the chunk
    locality_hits: int  # iterations served to their preferred worker
    stolen: int  # iterations moved between affinity queues to fill it


@dataclass
class TraceRecorder:
    """Collects instruction events; query or render after the run."""

    events: list[TraceEvent] = field(default_factory=list)
    fault_events: list[FaultTraceEvent] = field(default_factory=list)
    mem_events: list[MemTraceEvent] = field(default_factory=list)
    sched_events: list[SchedTraceEvent] = field(default_factory=list)

    def record(
        self,
        worker: int,
        pc: int,
        op: str,
        start: float,
        end: float,
        wait: float,
        line: Optional[int] = None,
    ) -> None:
        self.events.append(TraceEvent(worker, pc, op, start, end, wait, line))

    def record_fault(self, time: float, rank: int, kind: str, detail: str = "") -> None:
        self.fault_events.append(FaultTraceEvent(time, rank, kind, detail))

    def record_mem(
        self, time: float, rank: int, kind: str, block: str, nbytes: int
    ) -> None:
        self.mem_events.append(MemTraceEvent(time, rank, kind, block, nbytes))

    def record_sched(
        self,
        time: float,
        worker: int,
        pardo_pc: int,
        size: int,
        locality_hits: int,
        stolen: int,
    ) -> None:
        self.sched_events.append(
            SchedTraceEvent(time, worker, pardo_pc, size, locality_hits, stolen)
        )

    def absorb(self, other: "TraceRecorder") -> None:
        """Merge a child rank's recorder (multiprocess gather)."""
        self.events.extend(other.events)
        self.fault_events.extend(other.fault_events)
        self.mem_events.extend(other.mem_events)
        self.sched_events.extend(other.sched_events)

    # -- queries -----------------------------------------------------------
    def for_worker(self, worker: int) -> list[TraceEvent]:
        return [e for e in self.events if e.worker == worker]

    def op_counts(self) -> Counter:
        return Counter(e.op for e in self.events)

    def total_busy(self) -> float:
        return sum(e.busy for e in self.events)

    def total_wait(self) -> float:
        return sum(e.wait for e in self.events)

    def span(self) -> tuple[float, float]:
        if not self.events:
            return (0.0, 0.0)
        return (
            min(e.start for e in self.events),
            max(e.end for e in self.events),
        )

    # -- rendering ---------------------------------------------------------
    def timeline(self, width: int = 72) -> str:
        """Per-worker text gantt over the traced span."""
        if not self.events:
            return "(no events traced)"
        t0, t1 = self.span()
        duration = max(t1 - t0, 1e-30)
        workers = sorted({e.worker for e in self.events})
        lines = [
            f"timeline: {duration:.6f} s across {len(workers)} workers "
            f"(# contract, % integrals, = kernels, > put, . wait, | barrier)"
        ]
        for w in workers:
            cells = [_IDLE_GLYPH] * width
            for e in self.for_worker(w):
                lo = int((e.start - t0) / duration * width)
                hi = max(lo + 1, int((e.end - t0) / duration * width))
                hi = min(hi, width)
                glyph = OPS[e.op].glyph
                span = hi - lo
                wait_cells = 0
                if e.end > e.start:
                    wait_cells = int(round(span * e.wait / (e.end - e.start)))
                for i in range(lo, hi):
                    cells[i] = _WAIT_GLYPH if i - lo < wait_cells else glyph
            lines.append(f"w{w:<3d}|{''.join(cells)}|")
        return "\n".join(lines)

    def report(self) -> str:
        counts = self.op_counts()
        lines = ["traced instruction counts:"]
        for op, n in counts.most_common():
            lines.append(f"  {op:<18s} {n}")
        lines.append(f"total busy: {self.total_busy():.6f} s")
        lines.append(f"total wait: {self.total_wait():.6f} s")
        if self.fault_events:
            lines.append("recovery actions:")
            for kind, n in Counter(e.kind for e in self.fault_events).most_common():
                lines.append(f"  {kind:<18s} {n}")
        if self.mem_events:
            lines.append("memory pressure actions:")
            for kind, n in Counter(e.kind for e in self.mem_events).most_common():
                total = sum(e.nbytes for e in self.mem_events if e.kind == kind)
                lines.append(f"  {kind:<18s} {n}  ({total} B)")
        if self.sched_events:
            iters = sum(e.size for e in self.sched_events)
            hits = sum(e.locality_hits for e in self.sched_events)
            stolen = sum(e.stolen for e in self.sched_events)
            lines.append(
                f"chunk scheduling: {len(self.sched_events)} chunks, "
                f"{iters} iterations, {hits} locality hits, "
                f"{stolen} stolen"
            )
        return "\n".join(lines)
