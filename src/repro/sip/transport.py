"""The narrow transport interface between the SIP and its substrate.

The SIP runtime (workers, I/O servers, master) is written against four
small surfaces, not against the simulator:

* a **world** — the set of ranks, source of per-rank endpoints and
  barriers, carrier of aggregate traffic stats;
* a per-rank **comm endpoint** — MPI-flavoured non-blocking
  ``isend``/``irecv`` (tag-matched, wildcard-capable), blocking
  ``send``/``recv`` wrappers, and ``compute`` for charging local work;
* a **barrier** over an arbitrary rank group, reusable generation by
  generation;
* the **block service**: a block's owner -- a worker for a distributed
  block, an I/O server for a served one -- answers ``GetBlock`` and
  applies ``PutBlock`` on its well-known tag (this one is plain message
  traffic, so it needs no extra interface beyond the endpoint).

Two implementations exist:

* :class:`repro.simmpi.comm.World` / ``SimComm`` / ``Barrier`` — the
  deterministic discrete-event simulator (the reference oracle);
* :class:`repro.sip.mptransport.MPWorld` / ``MPComm`` / ``MPBarrier``
  — real OS processes connected by duplex pipes, with large block
  payloads riding POSIX shared memory.

Both produce bitwise-identical results: every order-sensitive
reduction in the runtime (scalar collectives, '+=' block
accumulation) folds its contributions by canonical sender-side keys,
never by arrival order.  This module pins down the contract with
runtime-checkable protocols so the conformance suite can assert that
both transports implement the same surface.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional, Protocol, runtime_checkable

__all__ = ["CommEndpoint", "BarrierHandle", "TransportWorld"]


@runtime_checkable
class CommEndpoint(Protocol):
    """One rank's endpoint: MPI-flavoured point-to-point messaging."""

    rank: Any  # int on both implementations (attribute, not property)

    @property
    def size(self) -> int: ...

    def isend(
        self, payload: Any, dest: int, tag: int, nbytes: Optional[int] = None
    ) -> Any:
        """Non-blocking send; returns a request whose ``.event`` completes
        once the message is injected (delivery is independent)."""
        ...

    def irecv(self, source: int = -1, tag: int = -1) -> Any:
        """Non-blocking tag/source-matched receive (-1 is a wildcard)."""
        ...

    def send(
        self, payload: Any, dest: int, tag: int, nbytes: Optional[int] = None
    ) -> Generator[Any, Any, None]: ...

    def recv(self, source: int = -1, tag: int = -1) -> Generator[Any, Any, Any]: ...

    def compute(self, seconds: float) -> Any:
        """Effect representing local CPU work of the given duration."""
        ...


@runtime_checkable
class BarrierHandle(Protocol):
    """A reusable barrier over a fixed group of ranks."""

    def wait(self, comm: Any) -> Generator[Any, Any, None]: ...


@runtime_checkable
class TransportWorld(Protocol):
    """The rank set: endpoint factory, barrier factory, traffic stats."""

    @property
    def size(self) -> int: ...

    def comm(self, rank: int) -> Any: ...

    def barrier(self, group: Iterable[int], name: str = "barrier") -> Any: ...
