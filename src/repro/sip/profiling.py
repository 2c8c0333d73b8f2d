"""Per-super-instruction profiling.

Because basic operations are coarse (one super instruction does real
work), the SIP can keep detailed timing without measurable overhead
(paper, Section VI-B).  Each worker records, per bytecode pc: execution
count, busy (compute) time, and wait time (time blocked on block
arrivals); plus per-pardo elapsed and wait totals.  The relationship
between source and profile is transparent because the compiler does no
reordering -- each pc maps straight back to a source line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..sial.bytecode import CompiledProgram
from .fold import MAX, fold

__all__ = ["InstrStats", "PardoStats", "WorkerProfile", "RunProfile"]


@dataclass
class InstrStats:
    count: int = 0
    busy_time: float = 0.0
    wait_time: float = 0.0


@dataclass
class PardoStats:
    entries: int = 0
    iterations: int = 0
    elapsed: float = field(default=0.0, metadata=MAX)
    wait_time: float = 0.0
    chunk_wait: float = 0.0


@dataclass
class WorkerProfile:
    """One worker's timings, keyed by bytecode pc / pardo id."""

    instr: dict[int, InstrStats] = field(default_factory=dict)
    pardo: dict[int, PardoStats] = field(default_factory=dict)
    total_busy: float = 0.0
    total_wait: float = 0.0
    elapsed: float = 0.0
    #: every instruction dispatched by the interpreter loop, fast-path
    #: included -- the denominator the optimizer's deltas are judged by
    instructions: int = 0

    def record_instr(self, pc: int, busy: float, wait: float) -> None:
        stats = self.instr.get(pc)
        if stats is None:
            stats = self.instr[pc] = InstrStats()
        stats.count += 1
        stats.busy_time += busy
        stats.wait_time += wait
        self.total_busy += busy
        self.total_wait += wait

    def pardo_stats(self, pardo_id: int) -> PardoStats:
        stats = self.pardo.get(pardo_id)
        if stats is None:
            stats = self.pardo[pardo_id] = PardoStats()
        return stats


@dataclass
class RunProfile:
    """Aggregated profile across all workers of one run."""

    workers: list[WorkerProfile]
    elapsed: float
    program: Optional[CompiledProgram] = None
    #: the run's ``RunResult.stats`` (the same dict, not a copy); its
    #: nonzero counters close :meth:`report`
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def total_busy(self) -> float:
        return sum(w.total_busy for w in self.workers)

    @property
    def total_wait(self) -> float:
        return sum(w.total_wait for w in self.workers)

    @property
    def wait_fraction(self) -> float:
        """Average wait time as a fraction of elapsed time per worker.

        This is the paper's "percentage of elapsed time spent waiting
        for communication" (Fig. 2, bottom line).
        """
        if not self.workers or self.elapsed <= 0:
            return 0.0
        return sum(w.total_wait for w in self.workers) / (
            len(self.workers) * self.elapsed
        )

    def pardo_totals(self) -> dict[int, PardoStats]:
        out: dict[int, PardoStats] = {}
        for w in self.workers:
            for pid, stats in w.pardo.items():
                fold(out.setdefault(pid, PardoStats()), stats)
        return out

    def by_line(self) -> dict[Optional[int], InstrStats]:
        """Instruction stats aggregated by SIAL source line.

        Instructions without a recorded location merge under ``None``.
        Requires ``program`` (the pc -> location map).
        """
        out: dict[Optional[int], InstrStats] = {}
        for w in self.workers:
            for pc, stats in w.instr.items():
                line: Optional[int] = None
                if self.program is not None:
                    loc = self.program.instructions[pc].location
                    if loc is not None:
                        line = loc.line
                fold(out.setdefault(line, InstrStats()), stats)
        return out

    def hotspots(self, limit: int = 10) -> list[tuple[int, InstrStats]]:
        """The costliest instructions across all workers."""
        merged: dict[int, InstrStats] = {}
        for w in self.workers:
            for pc, stats in w.instr.items():
                fold(merged.setdefault(pc, InstrStats()), stats)
        ranked = sorted(
            merged.items(), key=lambda kv: kv[1].busy_time + kv[1].wait_time,
            reverse=True,
        )
        return ranked[:limit]

    def report(self, limit: int = 10) -> str:
        """Human-readable profile, mapping pcs back to source lines."""
        lines = [
            f"elapsed (simulated): {self.elapsed:.6f} s",
            f"workers: {len(self.workers)}",
            f"wait fraction: {100.0 * self.wait_fraction:.2f} %",
            "hot super instructions:",
        ]
        for pc, stats in self.hotspots(limit):
            where = ""
            if self.program is not None:
                instr = self.program.instructions[pc]
                if instr.location is not None:
                    where = f"  (line {instr.location.line})"
                lines.append(
                    f"  pc={pc:<5d} {instr.op:<18s} n={stats.count:<8d} "
                    f"busy={stats.busy_time:.6f}s wait={stats.wait_time:.6f}s"
                    f"{where}"
                )
            else:
                lines.append(
                    f"  pc={pc:<5d} n={stats.count:<8d} "
                    f"busy={stats.busy_time:.6f}s wait={stats.wait_time:.6f}s"
                )
        for pid, stats in sorted(self.pardo_totals().items()):
            lines.append(
                f"pardo {pid}: iterations={stats.iterations} "
                f"elapsed={stats.elapsed:.6f}s wait={stats.wait_time:.6f}s "
                f"chunk_wait={stats.chunk_wait:.6f}s"
            )
        # stats.py builds RunProfile, so its renderer is imported late
        from .stats import render

        lines += render(self.stats)
        return "\n".join(lines)
