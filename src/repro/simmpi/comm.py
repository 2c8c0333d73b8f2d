"""Simulated MPI point-to-point and collective communication.

The :class:`World` owns the mailboxes of every rank; each rank obtains
a :class:`SimComm` view and uses an mpi4py-flavoured API:

* ``req = comm.isend(payload, dest, tag)`` -- non-blocking send.
* ``req = comm.irecv(source, tag)``        -- non-blocking receive.
* ``msg = yield req.event``                -- wait for completion.
* ``yield from comm.send(...)`` / ``msg = yield from comm.recv(...)``
  -- blocking convenience wrappers.
* ``yield from barrier.wait(comm)``        -- barrier over a rank group.

Matching follows MPI semantics: receives match messages by
``(source, tag)`` with :data:`ANY_SOURCE` / :data:`ANY_TAG` wildcards,
and matching is FIFO with respect to message *delivery* order for a
given (source, dest, tag) triple.  Delivery order is deterministic
because the underlying engine breaks simultaneous-event ties by
schedule order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Iterable, NamedTuple, Optional

from .faults import FaultPlan
from .network import Network, payload_nbytes
from .simulator import Event, Simulator, Timeout

__all__ = ["ANY_SOURCE", "ANY_TAG", "Message", "Request", "SimComm", "World", "Barrier"]

ANY_SOURCE = -1
ANY_TAG = -1


class Message(NamedTuple):
    """A delivered message as seen by the receiver."""

    payload: Any
    source: int
    tag: int
    nbytes: int


class Request:
    """Handle for a non-blocking operation; ``event`` fires on completion.

    For receives the event value is the :class:`Message`; for sends it
    is ``None``.
    """

    __slots__ = ("event", "kind")

    def __init__(self, event: Event, kind: str) -> None:
        self.event = event
        self.kind = kind

    @property
    def completed(self) -> bool:
        return self.event.triggered


@dataclass
class _PostedRecv:
    source: int
    tag: int
    event: Event


class _Mailbox:
    """Per-rank store of arrived-but-unmatched messages and posted receives."""

    __slots__ = ("arrived", "posted")

    def __init__(self) -> None:
        self.arrived: list[Message] = []
        self.posted: list[_PostedRecv] = []

    def deliver(self, msg: Message) -> None:
        for i, pr in enumerate(self.posted):
            if _matches(pr.source, pr.tag, msg):
                del self.posted[i]
                pr.event.succeed(msg)
                return
        self.arrived.append(msg)

    def post(self, pr: _PostedRecv) -> None:
        for i, msg in enumerate(self.arrived):
            if _matches(pr.source, pr.tag, msg):
                del self.arrived[i]
                pr.event.succeed(msg)
                return
        self.posted.append(pr)


def _matches(want_source: int, want_tag: int, msg: Message) -> bool:
    return (want_source in (ANY_SOURCE, msg.source)) and (
        want_tag in (ANY_TAG, msg.tag)
    )


class World:
    """The set of simulated ranks sharing one network."""

    def __init__(
        self,
        sim: Simulator,
        size: int,
        network: Optional[Network] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.sim = sim
        self.size = size
        self.network = network if network is not None else Network()
        self.faults = faults
        self._mailboxes = [_Mailbox() for _ in range(size)]
        self.stats = WorldStats()

    def comm(self, rank: int) -> "SimComm":
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} outside world of size {self.size}")
        return SimComm(self, rank)

    def barrier(self, group: Iterable[int], name: str = "barrier") -> "Barrier":
        """Create a reusable barrier over ``group``.

        Part of the transport interface (see
        :mod:`repro.sip.transport`): the multiprocess world returns a
        message-based barrier here, while the simulated one can simply
        count arrivals in shared memory.
        """
        return Barrier(self, group, name=name)


@dataclass
class WorldStats:
    """Aggregate traffic counters, useful in tests and benchmarks."""

    messages_sent: int = 0
    bytes_sent: int = 0
    # bytes that crossed between distinct ranks (excludes self-sends)
    remote_bytes: int = 0


class SimComm:
    """A single rank's endpoint into the :class:`World`."""

    __slots__ = ("world", "rank")

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank

    @property
    def size(self) -> int:
        return self.world.size

    @property
    def sim(self) -> Simulator:
        return self.world.sim

    # -- point to point ---------------------------------------------------
    def isend(
        self,
        payload: Any,
        dest: int,
        tag: int,
        nbytes: Optional[int] = None,
    ) -> Request:
        """Non-blocking send; the request completes after injection.

        Delivery to the destination mailbox happens after the modeled
        transfer time, independently of the request's completion -- this
        is what lets the SIP overlap communication with computation.
        """
        world = self.world
        if not (0 <= dest < world.size):
            raise ValueError(f"invalid destination rank {dest}")
        sim = world.sim
        size = payload_nbytes(payload, nbytes)
        msg = Message(payload, self.rank, tag, size)
        net = world.network
        dropped = False
        extra_delay = 0.0
        if world.faults is not None:
            verdict, extra_delay = world.faults.message_verdict(
                self.rank, dest, tag, size, sim.now
            )
            dropped = verdict == "drop"
        if not dropped:
            transfer = net.transfer_time(size, self.rank, dest, extra_delay)
            sim._schedule_call(transfer, world._mailboxes[dest].deliver, msg)
        stats = world.stats
        stats.messages_sent += 1
        stats.bytes_sent += size
        if dest != self.rank:
            stats.remote_bytes += size
        done = Event(sim, ("isend {}->{} tag={}", self.rank, dest, tag))
        sim._schedule_call(net.injection_time(size), done.succeed, None)
        return Request(done, "send")

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive for a matching message."""
        world = self.world
        ev = Event(world.sim, ("irecv rank={} src={} tag={}", self.rank, source, tag))
        world._mailboxes[self.rank].post(_PostedRecv(source, tag, ev))
        return Request(ev, "recv")

    def send(
        self, payload: Any, dest: int, tag: int, nbytes: Optional[int] = None
    ) -> Generator[Any, Any, None]:
        """Blocking send (waits for injection, not delivery)."""
        req = self.isend(payload, dest, tag, nbytes=nbytes)
        yield req.event

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Any, Any, Message]:
        """Blocking receive; returns the :class:`Message`."""
        req = self.irecv(source, tag)
        msg = yield req.event
        return msg

    def compute(self, seconds: float) -> Timeout:
        """Effect representing local CPU work of the given duration."""
        return Timeout(seconds)


class Barrier:
    """A reusable barrier over an arbitrary group of ranks.

    Centralized counter semantics: the ``i``-th use of the barrier by
    every member forms generation ``i``; all members of a generation
    resume at the same simulated time (when the last one arrives, plus
    one network latency for the release broadcast).
    """

    def __init__(self, world: World, group: Iterable[int], name: str = "barrier") -> None:
        self.world = world
        self.group = sorted(set(group))
        if not self.group:
            raise ValueError("barrier group must be non-empty")
        self.name = name
        self._generation_counts: dict[int, int] = {}
        self._generation_events: dict[int, Event] = {}
        self._member_generation: dict[int, int] = {r: 0 for r in self.group}

    def wait(self, comm: SimComm) -> Generator[Any, Any, None]:
        rank = comm.rank
        if rank not in self._member_generation:
            raise ValueError(f"rank {rank} is not a member of barrier {self.name!r}")
        gen = self._member_generation[rank]
        self._member_generation[rank] = gen + 1
        count = self._generation_counts.get(gen, 0) + 1
        self._generation_counts[gen] = count
        ev = self._generation_events.get(gen)
        if ev is None:
            ev = self.world.sim.event(name=("{} gen={}", self.name, gen))
            self._generation_events[gen] = ev
        if count == len(self.group):
            release = self.world.network.latency
            self.world.sim._schedule_call(release, ev.succeed, None)
            del self._generation_counts[gen]
        yield ev
        # allow the events dict to be GC'd once everyone has passed
        self._generation_events.pop(gen, None)
