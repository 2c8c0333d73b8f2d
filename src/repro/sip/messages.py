"""Wire messages exchanged between SIP ranks.

Rank layout: rank 0 is the master, then workers, then I/O servers.
Three well-known tags exist -- every rank's *service* mailbox
(block traffic between workers), the master's mailbox, and each I/O
server's mailbox.  Replies go to per-request tags allocated from a
counter on the requesting rank, so a requester can wait selectively on
exactly its own reply.

Three messages move blocks, whatever the block's array kind:
:class:`GetBlock` and :class:`PutBlock` go to the block's owner -- a
worker's service mailbox for a distributed block, an I/O server's
mailbox for a served one -- and :class:`BlockReply` answers a get.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .blocks import Block, BlockId

__all__ = [
    "SERVICE_TAG",
    "MASTER_TAG",
    "SERVER_TAG",
    "REPLY_TAG_BASE",
    "HEADER_BYTES",
    "GetBlock",
    "PutBlock",
    "BlockReply",
    "Ack",
    "ChunkRequest",
    "ChunkReply",
    "CollectiveContribution",
    "CollectiveResult",
    "WorkerDone",
    "Shutdown",
    "BarrierArrive",
    "BarrierRelease",
    "BARRIER_TAG",
    "BARRIER_RELEASE_TAG",
    "message_nbytes",
    "snapshot_for_transport",
]

SERVICE_TAG = 1
MASTER_TAG = 2
SERVER_TAG = 3
#: Barrier coordination (multiprocess backend): arrivals go to the
#: coordinator's BARRIER_TAG mailbox, releases come back on each
#: member's BARRIER_RELEASE_TAG.  A rank waits on at most one barrier
#: at a time, so one release tag per rank suffices.
BARRIER_TAG = 4
BARRIER_RELEASE_TAG = 5
REPLY_TAG_BASE = 1000

#: Envelope overhead charged per message on top of block payloads.
HEADER_BYTES = 64


@dataclass(frozen=True)
class GetBlock:
    """Worker -> owner (worker or I/O server): send me this block.
    ``epoch`` is the sender's barrier epoch of the block's array kind.
    The owner's race recorder keys the read by the pardo ``iteration``
    it is fetched for and the ``pc`` of the get or request it serves;
    neither is charged as wire bytes."""

    block_id: BlockId
    reply_tag: int
    epoch: int
    iteration: Optional[tuple] = None
    pc: int = -1


@dataclass(frozen=True)
class PutBlock:
    """Worker -> owner (worker or I/O server): store ('=') or
    accumulate ('+=') -- a SIAL ``put`` or ``prepare``.

    ``seq`` is a sender-unique sequence number used by the resilient
    protocol to apply a retried write exactly once; -1 when resilience
    is off.  ``accum_key`` orders '+=' contributions canonically at the
    owner: ``(0, pardo_id, activation, iteration, n)`` inside a pardo,
    ``(1, worker_index, n)`` outside one, so the fold order -- and the
    floating-point result -- is independent of arrival order and
    identical across execution backends.  Every '+=' carries one; an
    '=' carries None and applies on arrival.  ``iteration`` (an '='
    only: a '+=' names it by its key's head) and ``pc`` are as in
    :class:`GetBlock`.
    """

    block_id: BlockId
    op: str
    block: Block
    epoch: int
    ack_tag: int
    seq: int = -1
    accum_key: Optional[tuple] = None
    iteration: Optional[tuple] = None
    pc: int = -1


@dataclass(frozen=True)
class BlockReply:
    block_id: BlockId
    block: Block


@dataclass(frozen=True)
class Ack:
    tag: int


@dataclass(frozen=True)
class ChunkRequest:
    """Worker -> master: give me pardo iterations.

    ``scalars`` is the requester's scalar snapshot at pardo entry; it is
    carried only when the pardo's where clauses reference scalars (legal
    only in hand-built bytecode), so the master enumerates the iteration
    space against the worker's values instead of its own stale copy.
    """

    pardo_pc: int
    activation: int
    worker_index: int
    reply_tag: int
    seq: int = -1  # resilient protocol: replay key for the master's reply cache
    scalars: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class ChunkReply:
    iterations: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CollectiveContribution:
    """Worker -> master: my term of an allreduce-sum.

    ``value`` is the worker's full scalar; ``base`` and ``deltas``
    decompose it into the non-pardo part plus per-iteration increments
    keyed ``(pardo_id, activation, iteration)`` so the master can
    reduce in canonical iteration order -- making the sum bitwise
    independent of which worker ran which iteration.  ``poisoned``
    marks a scalar whose pardo-side updates were not plain
    accumulations; the master then sums the full values in worker
    order.
    """

    seq: int
    worker_index: int
    value: float
    reply_tag: int
    deltas: tuple[tuple[tuple, float], ...]
    base: float = 0.0
    poisoned: bool = False


@dataclass(frozen=True)
class CollectiveResult:
    value: float


@dataclass(frozen=True)
class WorkerDone:
    worker_index: int
    ack_tag: int = -1  # resilient protocol: master acks on this tag


@dataclass(frozen=True)
class Shutdown:
    ack_tag: int = -1  # resilient protocol: receiver acks on this tag


@dataclass(frozen=True)
class BarrierArrive:
    """Member -> barrier coordinator: I reached this barrier generation."""

    name: str
    generation: int
    rank: int


@dataclass(frozen=True)
class BarrierRelease:
    """Barrier coordinator -> member: everyone arrived, proceed."""

    name: str
    generation: int


def message_nbytes(msg: Any) -> Optional[int]:
    """Explicit wire size for messages carrying blocks; None = default.

    The ``block`` field may hold a real :class:`Block` *or* a transport
    detour stub (an arena-slot or one-shot shm reference); either way,
    traffic stats must account the block bytes the message stands for,
    never the few dozen bytes of a stub, so every stub type exposes the
    same ``nbytes`` property as a block.
    """
    block = getattr(msg, "block", None)
    if block is not None:
        return HEADER_BYTES + block.nbytes
    return None


def snapshot_for_transport(block: Block, stats=None) -> Block:
    """Snapshot a block payload for a message.

    The simulated network delivers payloads by reference, so the sender
    must hand over a snapshot that later local writes cannot disturb:
    a copy-on-write share -- the copy happens only if the sender writes
    the block before the buffer is dropped.  ``stats`` (a
    :class:`~repro.sip.blocks.CowStats`) records the bytes that did not
    need copying.
    """
    if block.data is None:
        return block.copy()
    if stats is not None:
        stats.sends_shared += 1
        stats.bytes_not_copied += block.nbytes
    return block.share()
