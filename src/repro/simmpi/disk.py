"""Simulated asynchronous disks for the SIP I/O servers.

Each I/O server rank owns one :class:`Disk`.  Operations are issued
asynchronously -- ``read``/``write`` immediately return an
:class:`~repro.simmpi.simulator.Event` that fires when the operation
completes -- but the device itself is serial: requests queue and are
serviced one at a time in issue order, each costing a seek latency plus
``nbytes / bandwidth``.  This reproduces the property the paper relies
on: a slow disk operation never blocks the I/O server's message loop,
it only delays the completion event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .faults import DiskFault, FaultPlan
from .simulator import Event, Simulator

__all__ = ["Disk", "DiskStats"]


@dataclass
class DiskStats:
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_time: float = 0.0
    errors: int = 0


class Disk:
    """A serial storage device with seek latency and streaming bandwidth."""

    def __init__(
        self,
        sim: Simulator,
        seek_latency: float = 5.0e-3,
        bandwidth: float = 200.0e6,
        name: str = "disk",
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("disk bandwidth must be positive")
        self.sim = sim
        self.seek_latency = seek_latency
        self.bandwidth = bandwidth
        self.name = name
        self.faults = faults
        self.stats = DiskStats()
        # simulated time at which the device becomes free
        self._free_at = 0.0

    def _enqueue(self, nbytes: int, kind: str) -> Event:
        duration = self.seek_latency + nbytes / self.bandwidth
        start = max(self.sim.now, self._free_at)
        finish = start + duration
        self._free_at = finish
        self.stats.busy_time += duration
        # A faulted operation still occupies the device for its full
        # duration; its completion event carries a DiskFault instead of
        # None so resilient callers can distinguish and retry.
        value = None
        if self.faults is not None and self.faults.disk_verdict(
            kind, self.name, self.sim.now
        ):
            self.stats.errors += 1
            value = DiskFault(kind, self.name, self.sim.now)
        ev = self.sim.event(name=("{} io", self.name))
        self.sim._schedule_call(finish - self.sim.now, ev.succeed, value)
        return ev

    def read(self, nbytes: int) -> Event:
        """Asynchronously read ``nbytes``; event fires on completion.

        The event value is ``None`` on success or a
        :class:`~repro.simmpi.faults.DiskFault` on an injected error.
        """
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        return self._enqueue(nbytes, "read")

    def write(self, nbytes: int) -> Event:
        """Asynchronously write ``nbytes``; event fires on completion.

        The event value is ``None`` on success or a
        :class:`~repro.simmpi.faults.DiskFault` on an injected error.
        """
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        return self._enqueue(nbytes, "write")
