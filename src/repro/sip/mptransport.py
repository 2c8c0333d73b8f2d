"""Real multiprocess transport for the SIP: pipes + shared memory.

The ``execution="mp"`` backend runs every SIP rank as a forked OS
process.  Each child keeps its *own* discrete-event :class:`Simulator`
hosting only that rank's coroutines (a worker's interpreter and service
pump, a server's message loop, the master), and an :class:`MPEngine`
drains the local event queue, blocking on the real pipe mesh whenever
the rank is purely waiting on a message.  This reuses the entire
runtime unchanged -- decoded instruction stream, KernelPlanCache,
MemoryManager, scheduler -- because those only ever talk to the narrow
transport surface of :mod:`repro.sip.transport`:

* :class:`MPComm` implements the endpoint: ``isend`` frames control
  messages over a duplex :class:`multiprocessing.connection.Connection`
  per peer pair, detouring block payloads at or above
  ``SIPConfig.mp_payload_shm_min`` bytes through the pooled
  shared-memory slab arena of :mod:`repro.sip.arena` (slot leased and
  filled by the sender, mapped zero-copy by the receiver; a one-shot
  segment is the overflow path); ``irecv`` posts to the rank's local
  tag-matched mailbox, reused verbatim from the simulator.
* :class:`MPBarrier` replaces the simulator's shared-counter barrier
  with an arrive/release message protocol coordinated by a daemon
  coroutine on the master rank (:func:`mp_barrier_service`).

Control-plane framing: sends are queued in a per-destination outbox
and coalesced -- everything one local event queued (data replies,
Acks, barrier traffic, a whole prefetch burst alike) leaves as a
*single* ``send_bytes`` frame per peer, pickled once with protocol 5
and out-of-band buffers so below-threshold block data crosses the pipe
without an extra pickle copy.  Outboxes flush when they reach
``mp_batch_max_msgs`` messages or ``mp_batch_max_bytes`` payload
bytes, after every event the engine fires, and always before the rank
blocks on the mesh -- a queued message can therefore never deadlock
its own reply, and a posted request never waits on local work.

Intake goes through one :mod:`selectors` selector per rank, holding
every peer connection for the life of the world: a poll is one
``select(0)``, a block is the same call with the watchdog timeout.

Simulated time still advances inside each child (``compute`` /
``Timeout`` effects pile onto the local virtual clock), but it no
longer means anything across ranks -- wallclock is what the backend is
for.  Determinism therefore cannot come from timing: it comes from the
canonical fold order of every reduction (collective ledger, '+=' put
buffering), which is what makes mp output bitwise identical to the
simulator's.

Shared-memory lifecycle: arena slabs are named
``rmp<run>r<rank>e<epoch>a<class>x<seq>`` and live for the whole run
(the parent unlinks them after the fleet joins); overflow one-shot
segments are ``rmp<run>r<rank>e<epoch>n<seq>`` -- the sender copies
the payload in and closes, the receiver attaches, copies out, closes
and unlinks.  The ``e<epoch>`` component makes the name streams of
*distinct* :class:`MPWorld` instances in one process disjoint
(checkpoint-restart chaining re-creates worlds).  Segments bypass the
stdlib resource tracker entirely (see
:func:`repro.sip.arena._untracked_shm`) -- lifecycle is managed
explicitly, and the parent sweeps ``/dev/shm/rmp<run>*`` after the
run.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle
import selectors
import struct
from dataclasses import dataclass
from multiprocessing import shared_memory
from time import perf_counter
from typing import Any, Generator, Iterable, Optional

import numpy as np

from ..simmpi.comm import (
    ANY_SOURCE,
    ANY_TAG,
    Message,
    Request,
    WorldStats,
    _Mailbox,
    _PostedRecv,
)
from ..simmpi.network import payload_nbytes
from ..simmpi.simulator import Simulator, Timeout
from .arena import ArenaReceiver, ArenaRef, ArenaStats, SlabArena, _untracked_shm
from .config import SIPError
from .blocks import Block
from .messages import (
    BARRIER_RELEASE_TAG,
    BARRIER_TAG,
    BarrierArrive,
    BarrierRelease,
)

__all__ = [
    "MPWorld",
    "MPComm",
    "MPBarrier",
    "MPEngine",
    "ShmStats",
    "BatchStats",
    "EngineStats",
    "mp_barrier_service",
    "pack_payload",
    "unpack_payload",
    "encode_batch",
    "decode_batch",
]

#: distinguishes the shm name streams of MPWorlds created in one process
_WORLD_EPOCH = itertools.count()


@dataclass
class ShmStats:
    """One-shot (non-arena) shared-memory traffic of one rank."""

    segments_created: int = 0
    segments_unlinked: int = 0
    bytes_shared: int = 0


@dataclass
class BatchStats:
    """Control-plane frame coalescing of one rank (sender side)."""

    batches: int = 0  # frames written (one send_bytes each)
    messages: int = 0  # messages carried inside those frames
    frame_bytes: int = 0  # total framed bytes on the wire


@dataclass
class EngineStats:
    """What one rank's engine loop did (host timing: varies run to run)."""

    blocked_s: float = 0.0  # wall time inside the blocking select
    blocked_waits: int = 0  # blocking selects entered
    polls: int = 0  # non-blocking mesh polls
    poll_deliveries: int = 0  # messages those polls delivered
    events_fired: int = 0  # local simulator events run


@dataclass(frozen=True)
class _ShmRef:
    """Placeholder for a Block payload travelling via a one-shot segment."""

    name: str
    data_shape: tuple
    dtype_str: str
    block_shape: tuple

    @property
    def nbytes(self) -> int:
        # traffic accounting must see the block bytes this stub stands
        # for, never the size of the stub itself
        count = 1
        for dim in self.data_shape:
            count *= dim
        return count * np.dtype(self.dtype_str).itemsize


def pack_payload(payload: Any, shm_min: int, namer, stats: ShmStats) -> Any:
    """Detach a large Block payload into a one-shot shm segment.

    This is the overflow path (arena full or oversize payload) and the
    whole story when the arena is disabled.
    """
    block = getattr(payload, "block", None)
    if (
        not isinstance(block, Block)
        or block.data is None
        or block.data.nbytes < shm_min
    ):
        return payload
    data = block.data
    name = namer()
    with _untracked_shm():
        seg = shared_memory.SharedMemory(name=name, create=True, size=data.nbytes)
    view = np.ndarray(data.shape, dtype=data.dtype, buffer=seg.buf)
    np.copyto(view, data)
    del view
    seg.close()
    stats.segments_created += 1
    stats.bytes_shared += data.nbytes
    ref = _ShmRef(name, tuple(data.shape), str(data.dtype), tuple(block.shape))
    return dataclasses.replace(payload, block=ref)


def unpack_payload(payload: Any, stats: ShmStats) -> Any:
    """Reattach a one-shot shm Block payload (copy out, then unlink)."""
    ref = getattr(payload, "block", None)
    if not isinstance(ref, _ShmRef):
        return payload
    with _untracked_shm():
        seg = shared_memory.SharedMemory(name=ref.name)
        view = np.ndarray(
            ref.data_shape, dtype=np.dtype(ref.dtype_str), buffer=seg.buf
        )
        data = view.copy()
        del view
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - double delivery guard
            pass
    stats.segments_unlinked += 1
    return dataclasses.replace(payload, block=Block(ref.block_shape, data))


# -- control-plane framing ---------------------------------------------------

_FRAME_HEADER = struct.Struct("<QI")  # pickle length, out-of-band buffer count
_BUF_HEADER = struct.Struct("<Q")  # one out-of-band buffer's length


def encode_batch(raws: list) -> bytes:
    """Frame a list of raw ``(source, tag, nbytes, payload)`` messages.

    The list is pickled once with protocol 5; contiguous buffers
    (below-threshold numpy block data) are carried out-of-band after
    the pickle, each behind its own length word, so they cross the
    pipe without the in-band pickle copy.  Non-contiguous buffers
    (strided views) fall back in-band.
    """
    bufs: list[memoryview] = []

    def _keep(pb: pickle.PickleBuffer) -> bool:
        try:
            raw = pb.raw()
        except BufferError:
            return True  # non-contiguous: pickle in-band
        bufs.append(raw)
        return False  # carried out-of-band

    pkl = pickle.dumps(raws, protocol=5, buffer_callback=_keep)
    parts = [_FRAME_HEADER.pack(len(pkl), len(bufs)), pkl]
    for raw in bufs:
        parts.append(_BUF_HEADER.pack(raw.nbytes))
        parts.append(raw)
    return b"".join(parts)


def decode_batch(frame) -> list:
    """Decode one frame back into its list of raw message tuples.

    The whole frame is copied into a single writable ``bytearray``
    first: out-of-band numpy arrays reconstruct as views over that
    buffer, and views over immutable ``bytes`` would come out
    read-only.
    """
    buf = memoryview(bytearray(frame))
    pkl_len, n_bufs = _FRAME_HEADER.unpack_from(buf, 0)
    off = _FRAME_HEADER.size
    pkl = buf[off : off + pkl_len]
    off += pkl_len
    bufs = []
    for _ in range(n_bufs):
        (blen,) = _BUF_HEADER.unpack_from(buf, off)
        off += _BUF_HEADER.size
        bufs.append(buf[off : off + blen])
        off += blen
    return pickle.loads(pkl, buffers=bufs)


class MPWorld:
    """One rank's view of the process mesh (transport-world surface).

    Unlike the simulated :class:`~repro.simmpi.comm.World`, which holds
    every rank's mailbox, an ``MPWorld`` lives inside a single child
    process: it owns that rank's mailbox, its pipe connections to every
    peer, its slab arena and outboxes, and the local traffic stats
    (merged by the parent afterwards).
    """

    def __init__(
        self,
        sim: Simulator,
        size: int,
        rank: int,
        conns: dict[int, Any],
        run_id: str,
        shm_min: int = 1 << 14,
        timeout: float = 120.0,
        coordinator: int = 0,
        arena: bool = True,
        arena_slab_bytes: int = 1 << 22,
        arena_max_bytes: int = 1 << 26,
        batch_max_msgs: int = 128,
        batch_max_bytes: int = 1 << 20,
        ledger=None,
    ) -> None:
        self.sim = sim
        self.size = size
        self.rank = rank
        self.stats = WorldStats()
        self.shm_stats = ShmStats()
        self.arena_stats = ArenaStats()
        self.batch_stats = BatchStats()
        self.engine_stats = EngineStats()
        self._mailbox = _Mailbox()
        self._conns = dict(conns)
        self._live = dict(self._conns)
        # every peer connection is registered once, for the life of the
        # world; readiness is then one syscall per question
        self._selector = selectors.DefaultSelector()
        for peer, conn in self._conns.items():
            self._selector.register(conn, selectors.EVENT_READ, peer)
        # a send is complete the moment it is queued, so every isend
        # hands back this one pre-completed request
        self._sent = Request(sim.event(name="mpsend").succeed(None), "send")
        self._run_id = run_id
        self._shm_min = shm_min
        self._timeout = timeout
        self._coordinator = coordinator
        self._barrier_groups: dict[str, list[int]] = {}
        self._shm_counter = 0
        self.epoch = next(_WORLD_EPOCH)
        self.arena: Optional[SlabArena] = None
        if arena:
            self.arena = SlabArena(
                run_id,
                rank,
                size,
                slab_bytes=arena_slab_bytes,
                max_bytes=arena_max_bytes,
                epoch=self.epoch,
                stats=self.arena_stats,
                ledger=ledger,
            )
        self.receiver = ArenaReceiver(stats=self.arena_stats)
        self._batch_max_msgs = max(1, int(batch_max_msgs))
        self._batch_max_bytes = max(1, int(batch_max_bytes))
        self._outbox: dict[int, list] = {}
        self._outbox_nbytes: dict[int, int] = {}

    def close(self) -> None:
        """Release the selector's descriptor (idempotent)."""
        self._selector.close()

    # -- transport-world surface -----------------------------------------
    def comm(self, rank: int) -> "MPComm":
        if rank != self.rank:
            raise SIPError(
                f"rank {self.rank} cannot build an endpoint for rank {rank}; "
                "each mp child holds exactly one rank"
            )
        return MPComm(self)

    def barrier(self, group: Iterable[int], name: str = "barrier") -> "MPBarrier":
        members = sorted(set(group))
        if not members:
            raise ValueError("barrier group must be non-empty")
        # the coordinator's service looks groups up by name
        self._barrier_groups[name] = members
        return MPBarrier(self, members, name)

    # -- shared memory -----------------------------------------------------
    def _shm_name(self) -> str:
        self._shm_counter += 1
        return f"rmp{self._run_id}r{self.rank}e{self.epoch}n{self._shm_counter}"

    def _pack(self, payload: Any, dest: int) -> Any:
        """Detour a large Block payload: arena slot, else one-shot shm."""
        block = getattr(payload, "block", None)
        if (
            not isinstance(block, Block)
            or block.data is None
            or block.data.nbytes < self._shm_min
        ):
            return payload
        if self.arena is not None:
            ref = self.arena.place(block, dest)
            if ref is not None:
                return dataclasses.replace(payload, block=ref)
        return pack_payload(payload, self._shm_min, self._shm_name, self.shm_stats)

    def _unpack(self, packed: Any) -> Any:
        ref = getattr(packed, "block", None)
        if isinstance(ref, ArenaRef):
            return dataclasses.replace(packed, block=self.receiver.unpack(ref))
        return unpack_payload(packed, self.shm_stats)

    # -- batched sends -----------------------------------------------------
    def queue_send(self, dest: int, tag: int, size: int, payload: Any) -> None:
        """Queue one message for ``dest``; flush if the outbox is full."""
        packed = self._pack(payload, dest)
        box = self._outbox.setdefault(dest, [])
        box.append((self.rank, tag, size, packed))
        pending = self._outbox_nbytes.get(dest, 0) + size
        self._outbox_nbytes[dest] = pending
        if len(box) >= self._batch_max_msgs or pending >= self._batch_max_bytes:
            self._flush_dest(dest)

    def _flush_dest(self, dest: int) -> None:
        box = self._outbox.pop(dest, None)
        self._outbox_nbytes.pop(dest, None)
        if not box:
            return
        conn = self._conns.get(dest)
        if conn is None:
            raise SIPError(f"rank {self.rank} has no connection to {dest}")
        frame = encode_batch(box)
        self.batch_stats.batches += 1
        self.batch_stats.messages += len(box)
        self.batch_stats.frame_bytes += len(frame)
        try:
            conn.send_bytes(frame)
        except (BrokenPipeError, OSError) as err:
            raise SIPError(
                f"rank {self.rank}: send to rank {dest} failed; "
                f"the peer process is gone ({err})"
            ) from err

    def flush(self) -> None:
        """Write out every queued outbox frame."""
        if self._outbox:
            for dest in list(self._outbox):
                self._flush_dest(dest)

    # -- real message intake ----------------------------------------------
    def _deliver_raw(self, raw: tuple) -> None:
        source, tag, nbytes, packed = raw
        payload = self._unpack(packed)
        self._mailbox.deliver(
            Message(payload=payload, source=source, tag=tag, nbytes=nbytes)
        )

    def _drain(self, ready: list) -> int:
        """Read one frame per ready connection, re-asking until none is."""
        select = self._selector.select
        delivered = 0
        while ready:
            for key, _ in ready:
                try:
                    frame = key.fileobj.recv_bytes()
                except (EOFError, OSError):
                    # a finished peer closing its end is normal shutdown
                    # skew; a *needed* peer's death surfaces as a timeout
                    # (or an all-peers-gone error) on the next wait
                    self._selector.unregister(key.fileobj)
                    del self._live[key.data]
                    continue
                for raw in decode_batch(frame):
                    self._deliver_raw(raw)
                    delivered += 1
            ready = select(0)
        return delivered

    def poll(self) -> int:
        """Drain every readable connection without blocking."""
        delivered = self._drain(self._selector.select(0))
        self.engine_stats.polls += 1
        self.engine_stats.poll_deliveries += delivered
        return delivered

    def wait_for_message(self) -> int:
        """Block until at least one message arrives; deliver it.

        Flushes the outboxes first -- blocking with queued sends could
        deadlock the very reply being awaited.  Raises
        :class:`SIPError` when no peer can still send (all pipes
        closed) or nothing arrives within the configured watchdog
        window -- both mean a stalled or crashed peer.
        """
        self.flush()
        stats = self.engine_stats
        started = now = perf_counter()
        while True:
            if not self._live:
                raise SIPError(
                    f"rank {self.rank}: all peers disconnected while "
                    "work is still pending"
                )
            remaining = self._timeout - (now - started)
            if remaining <= 0:
                raise SIPError(
                    f"rank {self.rank}: no message in {self._timeout:g}s "
                    "while work is still pending (a peer stalled or died)"
                )
            ready = self._selector.select(remaining)
            woke = perf_counter()
            stats.blocked_s += woke - now
            stats.blocked_waits += 1
            now = woke
            delivered = self._drain(ready)
            if delivered:
                return delivered


class MPComm:
    """A single rank's endpoint onto the process mesh."""

    __slots__ = ("world", "rank")

    def __init__(self, world: MPWorld) -> None:
        self.world = world
        self.rank = world.rank

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
        """Non-blocking send: queued on the peer's outbox immediately.

        The returned request is already complete (and shared by every
        send) -- a real transport has no injection time to model; the
        frame leaves the process before the engine fires the next event.
        """
        world = self.world
        if not (0 <= dest < world.size):
            raise ValueError(f"invalid destination rank {dest}")
        size = payload_nbytes(payload, nbytes)
        world.stats.messages_sent += 1
        world.stats.bytes_sent += size
        if dest == self.rank:
            world._mailbox.deliver(
                Message(payload=payload, source=self.rank, tag=tag, nbytes=size)
            )
        else:
            world.stats.remote_bytes += size
            world.queue_send(dest, tag, size, payload)
        return world._sent

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        ev = self.sim.event(name=("mpirecv rank={} src={} tag={}", self.rank, source, tag))
        self.world._mailbox.post(_PostedRecv(source, tag, ev))
        return Request(ev, "recv")

    def send(
        self, payload: Any, dest: int, tag: int, nbytes: Optional[int] = None
    ) -> Generator[Any, Any, None]:
        req = self.isend(payload, dest, tag, nbytes=nbytes)
        yield req.event

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Any, Any, Message]:
        req = self.irecv(source, tag)
        msg = yield req.event
        return msg

    def compute(self, seconds: float) -> Timeout:
        """Local work: advances this rank's (now meaningless) virtual
        clock; the actual CPU time was already spent by the kernel."""
        return Timeout(seconds)



class MPBarrier:
    """Message-based barrier: arrive at the coordinator, await release."""

    def __init__(self, world: MPWorld, group: list[int], name: str) -> None:
        self.world = world
        self.group = group
        self.name = name
        self._member_generation: dict[int, int] = {r: 0 for r in group}

    def wait(self, comm: MPComm) -> Generator[Any, Any, None]:
        rank = comm.rank
        if rank not in self._member_generation:
            raise ValueError(
                f"rank {rank} is not a member of barrier {self.name!r}"
            )
        gen = self._member_generation[rank]
        self._member_generation[rank] = gen + 1
        coordinator = self.world._coordinator
        # post the release receive before announcing arrival, so the
        # coordinator's (possibly instant) answer cannot be missed
        req = comm.irecv(source=coordinator, tag=BARRIER_RELEASE_TAG)
        comm.isend(
            BarrierArrive(self.name, gen, rank), dest=coordinator, tag=BARRIER_TAG
        )
        msg = yield req.event
        release = msg.payload
        if (
            not isinstance(release, BarrierRelease)
            or release.name != self.name
            or release.generation != gen
        ):
            raise SIPError(
                f"rank {rank}: barrier protocol violation: waiting on "
                f"{self.name!r} gen {gen}, got {release!r}"
            )


def mp_barrier_service(comm: MPComm, world: MPWorld) -> Generator:
    """Coordinator daemon (runs on the master rank's engine).

    Counts :class:`BarrierArrive` messages per (name, generation) and
    broadcasts :class:`BarrierRelease` when the whole group arrived.
    Ranks progress through generations at their own pace, so distinct
    generations of the same barrier can be pending at once.  Releases
    ride the normal outboxes, piggybacking on whatever frame the
    master flushes next.
    """
    counts: dict[tuple[str, int], list[int]] = {}
    while True:
        msg = yield from comm.recv(tag=BARRIER_TAG)
        arrive = msg.payload
        if not isinstance(arrive, BarrierArrive):
            raise SIPError(f"barrier service got unexpected message {arrive!r}")
        group = world._barrier_groups.get(arrive.name)
        if group is None:
            raise SIPError(f"barrier service knows no barrier {arrive.name!r}")
        key = (arrive.name, arrive.generation)
        arrived = counts.setdefault(key, [])
        arrived.append(msg.source)
        if len(arrived) == len(group):
            del counts[key]
            for member in sorted(arrived):
                comm.isend(
                    BarrierRelease(arrive.name, arrive.generation),
                    dest=member,
                    tag=BARRIER_RELEASE_TAG,
                )


class MPEngine:
    """Drive one rank's local simulator against the real pipe mesh.

    Events fire one at a time through :meth:`Simulator.run_pending`.
    Whatever an event queued is flushed before the next one fires -- a
    request the prefetcher posts is worth nothing to the overlap it was
    posted for while it sits in an outbox -- and a whole burst queued by
    one event still leaves as one frame per peer.  Every
    :attr:`POLL_INTERVAL` events the mesh is polled (one ``select(0)``), so
    the service pump stays responsive while local work is queued.  When
    the local queue runs dry with coroutines still active the engine
    *blocks* on the mesh instead of declaring deadlock -- the awaited
    event will be triggered by an incoming message.  Nothing queued can
    outlive the loop or be held across a block.
    """

    #: local events between non-blocking mesh polls: a peer's request
    #: waits at most this many events for the service pump.  Second-order
    #: on ccsd_mp once injection is step-granular (wall flat from 1 to 32,
    #: a worker's blocked time 0.39 s at 4 against 0.48 s at 32:
    #: EXPERIMENTS.md "PR 16"); kept small because the wait scales with
    #: event length and a poll is now one syscall.
    POLL_INTERVAL = 4

    def __init__(self, sim: Simulator, world: MPWorld) -> None:
        self.sim = sim
        self.world = world

    def run(self) -> None:
        sim = self.sim
        world = self.world
        step = sim.run_pending
        flush = world.flush
        interval = self.POLL_INTERVAL
        fired = 0
        while True:
            if step(1):
                fired += 1
                flush()
                if fired % interval == 0:
                    world.poll()
            elif sim.active == 0:
                flush()
                world.engine_stats.events_fired += fired
                return
            else:
                world.wait_for_message()
