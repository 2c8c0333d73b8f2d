"""Deterministic fault injection for the simulated MPI substrate.

Production SIP deployments (ACES III at 100k+ cores) run for hours on
hardware where transient faults are routine; the reproduction's perfect
network and immortal ranks hide an entire dimension of the runtime's
design.  A :class:`FaultPlan` makes the substrate adversarial in a
fully deterministic, seed-driven way:

* **message drops** -- a remote send is silently discarded in transit;
* **message delay spikes** -- delivery is held back by an extra latency;
* **disk errors** -- a read or write completes with a :class:`DiskFault`
  instead of succeeding;
* **rank crashes** -- a rank dies at a scheduled simulated time
  (surfaced as :class:`WorkerCrashed`).

The :class:`~repro.simmpi.comm.World` and :class:`~repro.simmpi.disk.Disk`
consult the plan only when one is attached, so the default (no plan)
execution path is untouched.  Decisions come from per-category
``random.Random`` streams seeded from the plan's seed, so a fixed seed
gives the same fault pattern on every run -- the same determinism
guarantee the rest of the simulator provides.

The recovery side lives in the SIP layer (retry/backoff/dedup in
:mod:`repro.sip`); this module also defines the bookkeeping they share:
:class:`ResilienceStats` (retry counters) and :class:`FaultReport`
(injected vs. recovered, assembled by the runner).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .simulator import SimulationError

__all__ = [
    "FaultPlan",
    "FaultStats",
    "FaultEvent",
    "DiskFault",
    "WorkerCrashed",
    "ResilienceStats",
    "FaultReport",
]


class WorkerCrashed(SimulationError):
    """A simulated rank died (injected by a :class:`FaultPlan`)."""

    def __init__(self, rank: int, time: float) -> None:
        super().__init__(f"rank {rank} crashed at t={time:g}")
        self.rank = rank
        self.time = time


@dataclass(frozen=True)
class DiskFault:
    """Value a faulted disk operation's completion event carries."""

    kind: str  # "read" | "write"
    device: str
    time: float


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for the report's detailed log."""

    kind: str
    time: float
    detail: str


@dataclass
class FaultStats:
    """Counters of faults actually injected during a run."""

    messages_dropped: int = 0
    messages_delayed: int = 0
    added_latency: float = 0.0
    disk_read_errors: int = 0
    disk_write_errors: int = 0
    crashes: int = 0

    @property
    def total(self) -> int:
        return (
            self.messages_dropped
            + self.messages_delayed
            + self.disk_read_errors
            + self.disk_write_errors
            + self.crashes
        )


class FaultPlan:
    """Seed-driven schedule of injected faults for one (or more) runs.

    Parameters
    ----------
    seed:
        Seeds the per-category decision streams; a fixed seed yields an
        identical fault pattern on every run.
    message_drop_rate / message_delay_rate:
        Per-remote-message probabilities of a drop / a delay spike.
    message_delay:
        Mean added delivery latency of a delay spike, seconds (the
        actual spike varies deterministically in [0.5x, 1.5x]).
    disk_read_error_rate / disk_write_error_rate:
        Per-operation probabilities that a disk read / write fails.
    crash_times:
        ``{rank: simulated_time}`` -- the rank dies the first time its
        interpreter runs at or after that time.  Each crash fires once,
        even across an automatic restart.
    max_message_drops / max_disk_errors:
        Optional hard caps on injected counts (handy for tests that
        want "exactly one disk error").
    max_restarts:
        How many crash-triggered restarts the runner may attempt.
    """

    def __init__(
        self,
        seed: int = 0,
        message_drop_rate: float = 0.0,
        message_delay_rate: float = 0.0,
        message_delay: float = 1.0e-3,
        disk_read_error_rate: float = 0.0,
        disk_write_error_rate: float = 0.0,
        crash_times: Optional[dict[int, float]] = None,
        max_message_drops: Optional[int] = None,
        max_disk_errors: Optional[int] = None,
        max_restarts: int = 3,
        keep_log: bool = True,
    ) -> None:
        for name, rate in (
            ("message_drop_rate", message_drop_rate),
            ("message_delay_rate", message_delay_rate),
            ("disk_read_error_rate", disk_read_error_rate),
            ("disk_write_error_rate", disk_write_error_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if message_drop_rate + message_delay_rate > 1.0:
            raise ValueError("message drop + delay rates must not exceed 1")
        if message_delay < 0:
            raise ValueError("message_delay must be >= 0")
        self.seed = seed
        self.message_drop_rate = message_drop_rate
        self.message_delay_rate = message_delay_rate
        self.message_delay = message_delay
        self.disk_read_error_rate = disk_read_error_rate
        self.disk_write_error_rate = disk_write_error_rate
        self.crash_times = dict(crash_times or {})
        self.max_message_drops = max_message_drops
        self.max_disk_errors = max_disk_errors
        self.max_restarts = max_restarts
        self.keep_log = keep_log
        self.stats = FaultStats()
        self.log: list[FaultEvent] = []
        self._msg_rng = random.Random(f"{seed}/messages")
        self._disk_rng = random.Random(f"{seed}/disk")
        self._crashed: set[int] = set()

    # -- messages ---------------------------------------------------------
    def message_verdict(
        self, src: int, dst: int, tag: int, nbytes: int, now: float
    ) -> tuple[str, float]:
        """Fate of one message: ("ok"|"drop"|"delay", extra_delay)."""
        if src == dst:
            return ("ok", 0.0)  # self-sends are a local memcpy
        r = self._msg_rng.random()
        if r < self.message_drop_rate:
            if (
                self.max_message_drops is not None
                and self.stats.messages_dropped >= self.max_message_drops
            ):
                return ("ok", 0.0)
            self.stats.messages_dropped += 1
            self._log("drop", now, f"{src}->{dst} tag={tag} ({nbytes} B)")
            return ("drop", 0.0)
        if r < self.message_drop_rate + self.message_delay_rate:
            spike = self.message_delay * (0.5 + self._msg_rng.random())
            self.stats.messages_delayed += 1
            self.stats.added_latency += spike
            self._log("delay", now, f"{src}->{dst} tag={tag} +{spike:g}s")
            return ("delay", spike)
        return ("ok", 0.0)

    # -- disks ------------------------------------------------------------
    def disk_verdict(self, kind: str, device: str, now: float) -> bool:
        """True if this disk operation should fail."""
        rate = (
            self.disk_read_error_rate if kind == "read" else self.disk_write_error_rate
        )
        if rate <= 0.0 or self._disk_rng.random() >= rate:
            return False
        errors = self.stats.disk_read_errors + self.stats.disk_write_errors
        if self.max_disk_errors is not None and errors >= self.max_disk_errors:
            return False
        if kind == "read":
            self.stats.disk_read_errors += 1
        else:
            self.stats.disk_write_errors += 1
        self._log(f"disk-{kind}-error", now, device)
        return True

    # -- crashes ----------------------------------------------------------
    def pending_crash_time(self, rank: int) -> Optional[float]:
        """The scheduled crash time of a rank, if it has not fired yet."""
        if rank in self._crashed:
            return None
        return self.crash_times.get(rank)

    def record_crash(self, rank: int, now: float) -> None:
        """Mark a scheduled crash as fired (it will not recur on restart)."""
        self._crashed.add(rank)
        self.stats.crashes += 1
        self._log("crash", now, f"rank {rank}")

    # -- bookkeeping -------------------------------------------------------
    def _log(self, kind: str, now: float, detail: str) -> None:
        if self.keep_log:
            self.log.append(FaultEvent(kind, now, detail))

    @property
    def any_faults_configured(self) -> bool:
        return (
            self.message_drop_rate > 0
            or self.message_delay_rate > 0
            or self.disk_read_error_rate > 0
            or self.disk_write_error_rate > 0
            or bool(self.crash_times)
        )


@dataclass
class ResilienceStats:
    """Recovery-action counters, kept per rank and summed by the runner."""

    fetch_retries: int = 0  # get / request re-sends
    put_retries: int = 0
    prepare_retries: int = 0
    chunk_retries: int = 0
    collective_retries: int = 0
    control_retries: int = 0  # WorkerDone / Shutdown re-sends
    duplicates_ignored: int = 0  # sequence-number dedup hits
    writeback_retries: int = 0
    disk_read_retries: int = 0

    @property
    def message_retries(self) -> int:
        return (
            self.fetch_retries
            + self.put_retries
            + self.prepare_retries
            + self.chunk_retries
            + self.collective_retries
            + self.control_retries
        )


@dataclass
class FaultReport:
    """Injected vs. observed vs. recovered faults for one completed run."""

    injected: FaultStats
    retries: ResilienceStats
    restarts: int = 0
    completed: bool = True
    log: list[FaultEvent] = field(default_factory=list)

    def recovery_gaps(self) -> list[str]:
        """Injected faults with no matching recovery action (empty = all
        faults were retried or recovered)."""
        gaps: list[str] = []
        if not self.completed:
            gaps.append("run did not complete")
        inj, ret = self.injected, self.retries
        if inj.messages_dropped > ret.message_retries:
            gaps.append(
                f"{inj.messages_dropped} dropped messages but only "
                f"{ret.message_retries} retries"
            )
        if inj.disk_write_errors > ret.writeback_retries:
            gaps.append(
                f"{inj.disk_write_errors} disk write errors but only "
                f"{ret.writeback_retries} write-back retries"
            )
        if inj.disk_read_errors > ret.disk_read_retries:
            gaps.append(
                f"{inj.disk_read_errors} disk read errors but only "
                f"{ret.disk_read_retries} read retries"
            )
        if inj.crashes > self.restarts:
            gaps.append(f"{inj.crashes} crashes but only {self.restarts} restarts")
        return gaps

    @property
    def all_recovered(self) -> bool:
        return not self.recovery_gaps()

    def summary(self) -> str:
        inj, ret = self.injected, self.retries
        lines = [
            "fault report:",
            f"  injected : {inj.messages_dropped} drops, "
            f"{inj.messages_delayed} delays (+{inj.added_latency:g}s), "
            f"{inj.disk_read_errors}r/{inj.disk_write_errors}w disk errors, "
            f"{inj.crashes} crashes",
            f"  recovered: {ret.message_retries} message retries "
            f"({ret.fetch_retries} fetch, {ret.put_retries} put, "
            f"{ret.prepare_retries} prepare, {ret.chunk_retries} chunk, "
            f"{ret.collective_retries} collective, {ret.control_retries} control), "
            f"{ret.duplicates_ignored} duplicates deduped, "
            f"{ret.writeback_retries} write-back retries, "
            f"{ret.disk_read_retries} disk read retries, "
            f"{self.restarts} restarts",
        ]
        gaps = self.recovery_gaps()
        if gaps:
            lines.append("  UNRECOVERED: " + "; ".join(gaps))
        else:
            lines.append("  all injected faults retried or recovered")
        return "\n".join(lines)
