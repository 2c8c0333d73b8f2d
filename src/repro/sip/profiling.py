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
    elapsed: float = 0.0
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
    # fast-path observability: a PlanCacheStats and a CowStats when the
    # run used compiled kernel plans / zero-copy transport, else None
    plan_cache: Optional[Any] = None
    cow: Optional[Any] = None
    # memory-pressure observability: an aggregated MemStats plus the
    # per-rank budget it was measured against
    memory: Optional[Any] = None
    memory_budget: float = 0.0
    # pardo dole-out observability: the master's SchedStats
    scheduling: Optional[Any] = None
    # mp transport observability: a dict with the summed ArenaStats and
    # BatchStats and each worker's EngineStats when the run used the
    # multiprocess backend, else None
    transport: Optional[Any] = None
    # block movement observability: the summed BlockIOStats of every
    # rank's transfer engine (fetches, coalescing, backpressure)
    blockio: Optional[Any] = None

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
                agg = out.setdefault(pid, PardoStats())
                agg.entries += stats.entries
                agg.iterations += stats.iterations
                agg.elapsed = max(agg.elapsed, stats.elapsed)
                agg.wait_time += stats.wait_time
                agg.chunk_wait += stats.chunk_wait
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
                agg = out.setdefault(line, InstrStats())
                agg.count += stats.count
                agg.busy_time += stats.busy_time
                agg.wait_time += stats.wait_time
        return out

    def hotspots(self, limit: int = 10) -> list[tuple[int, InstrStats]]:
        """The costliest instructions across all workers."""
        merged: dict[int, InstrStats] = {}
        for w in self.workers:
            for pc, stats in w.instr.items():
                agg = merged.setdefault(pc, InstrStats())
                agg.count += stats.count
                agg.busy_time += stats.busy_time
                agg.wait_time += stats.wait_time
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
        if self.plan_cache is not None:
            p = self.plan_cache
            lines.append(
                f"kernel plans: {p.hits} hits / {p.misses} misses "
                f"(hit rate {100.0 * p.hit_rate:.1f} %, "
                f"{p.gemm_plans} gemm / {p.einsum_plans} einsum)"
            )
        if self.cow is not None:
            c = self.cow
            lines.append(
                f"zero-copy transport: {c.sends_shared} payloads shared, "
                f"{c.bytes_not_copied} bytes not copied, "
                f"{c.cow_copies} copy-on-write copies "
                f"({c.cow_bytes_copied} bytes)"
            )
        t = self.transport
        if t is not None:
            a = t["arena"]
            b = t["batches"]
            lines.append(
                f"mp transport arena: {a.hits} slot fills + "
                f"{a.handoffs} zero-copy handoffs / {a.misses} one-shot "
                f"misses, {a.bytes_zero_copy} bytes mapped without a "
                f"receive copy, {a.slabs_created} slabs "
                f"({a.slab_bytes} B), {a.refs_leaked} leases leaked"
            )
            lines.append(
                f"mp control plane: {b.messages} messages in "
                f"{b.batches} frames "
                f"({t['batch_msgs_per_write']:.1f} msgs/write, "
                f"{b.frame_bytes} framed bytes)"
            )
            e = t["engines"]
            lines.append(
                "mp worker engines: blocked "
                + " / ".join(f"{x.blocked_s:.3f}" for x in e)
                + f" s in {sum(x.blocked_waits for x in e)} waits, "
                f"{sum(x.polls for x in e)} polls delivered "
                f"{sum(x.poll_deliveries for x in e)} messages, "
                f"{sum(x.events_fired for x in e)} events fired"
            )
            g = t["ends"]
            lines.append(
                f"mp gather: {g['mp_gather_bytes']} array bytes mapped in "
                f"{1e3 * g['mp_gather_s']:.1f} ms, "
                f"{g['mp_result_pickle_bytes']} bytes pickled through the "
                f"result pipes; input scatter {1e3 * g['mp_scatter_s']:.1f} ms"
            )
        s = self.scheduling
        if s is not None and s.chunks:
            line = (
                f"scheduling ({s.policy}): {s.chunks} chunks, "
                f"{s.iterations} iterations"
            )
            if s.policy == "locality":
                line += (
                    f", {s.locality_hits} locality hits "
                    f"({100.0 * s.locality_rate:.1f} %), "
                    f"{s.steals} steals ({s.stolen_iterations} iterations)"
                )
            lines.append(line)
        m = self.memory
        if m is not None and (m.cascades or m.spills or m.pressure_evictions):
            lines.append(
                f"memory pressure: {m.cascades} cascades, "
                f"{m.pressure_evictions} pressure evictions, "
                f"{m.spills} spills ({m.spill_bytes} B out), "
                f"{m.faults_in} faults back in ({m.fault_bytes} B), "
                f"peak {m.peak_bytes} B resident / "
                f"{m.peak_spill_bytes} B on scratch "
                f"(budget {self.memory_budget:.0f} B)"
            )
        return "\n".join(lines)
