"""Fault hooks for the worker: retries, backoff, reliable waits.

All of this is inert unless a :class:`~repro.simmpi.faults.FaultPlan`
is set (an empty one runs the protocol with no fault injected); the
mixin exists so the interpreter core stays free of the retry
machinery.  Host classes provide ``sim``, ``comm``, ``config``, ``rt``,
``resilience``, ``worker_index`` and the ``_wait_acc`` accounting
field.
"""

from __future__ import annotations

from typing import Generator

from ...simmpi import AnyOf
from ..config import RETRY_BACKOFF, RETRY_LIMIT, RETRY_TIMEOUT, SIPError

__all__ = ["ResilientMessaging"]


class ResilientMessaging:
    """Retry/backoff/reliable-wait behaviour shared by worker paths."""

    def next_tag(self) -> int:
        self._tag_counter += 1
        return self._tag_counter

    def next_msg_seq(self) -> int:
        """Sender-unique sequence for puts/prepares (dedup on retry)."""
        if not self.rt.resilient:
            return -1
        self._msg_seq += 1
        return self._msg_seq

    def _wait(self, event) -> Generator:
        """Wait on an event, accounting the time as wait time."""
        t0 = self.sim.now
        value = yield event
        self._wait_acc += self.sim.now - t0
        return value

    def _wait_events(self, events: list) -> Generator:
        while events:
            ev = events.pop()
            if not ev.triggered:
                yield from self._wait(ev)

    def _trace_fault(self, kind: str, detail: object) -> None:
        tracer = self.config.tracer
        if tracer is not None and hasattr(tracer, "record_fault"):
            tracer.record_fault(self.sim.now, self.rank, kind, str(detail))

    def _bump_retry(self, counter: str, what: str, attempt: int) -> None:
        setattr(self.resilience, counter, getattr(self.resilience, counter) + 1)
        self._trace_fault(f"retry-{what}", f"attempt {attempt}")

    def _reliable_wait(self, event, resend, counter: str, what: str) -> Generator:
        """Like :meth:`_wait`, but re-send the request whenever the reply
        has not arrived within the (exponentially growing) timeout."""
        if not self.rt.resilient:
            return (yield from self._wait(event))
        t0 = self.sim.now
        yield from self._retry_monitor(event, resend, counter, what)
        self._wait_acc += self.sim.now - t0
        return event.value

    def spawn_retry_monitor(self, event, resend, counter: str, what: str) -> None:
        """Watch a fire-and-forget request in the background and re-send
        it until its completion event fires (resilient mode only)."""
        if not self.rt.resilient:
            return
        self.sim.spawn(
            self._retry_monitor(event, resend, counter, what),
            name=f"worker{self.worker_index}.retry-{what}",
        )

    def _retry_monitor(self, event, resend, counter: str, what: str) -> Generator:
        timeout = RETRY_TIMEOUT
        attempts = 0
        while not event.triggered:
            yield AnyOf([event, self.sim.timeout_event(timeout)])
            if event.triggered:
                return
            attempts += 1
            if attempts > RETRY_LIMIT:
                raise SIPError(
                    f"worker{self.worker_index}: no {what} reply after "
                    f"{attempts} attempts; presuming the peer is dead"
                )
            self._bump_retry(counter, what, attempts)
            resend()
            timeout *= RETRY_BACKOFF
