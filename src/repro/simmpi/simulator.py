"""Deterministic discrete-event simulation engine.

This module is the foundation of the simulated MPI substrate
(:mod:`repro.simmpi`).  It provides a classic event-driven simulator in
the style of SimPy, but trimmed down to exactly what the SIP runtime
needs and made fully deterministic: events scheduled for the same
simulated time fire in the order they were scheduled (a monotonically
increasing sequence number breaks ties), so a given program produces an
identical event trace on every run.

Processes are Python generators that *yield* effect objects:

* :class:`Timeout` -- advance the process's local time by a duration.
* :class:`Event`   -- suspend until another process triggers the event.
* :class:`AnyOf` / :class:`AllOf` -- composite waits.

``yield from`` composes sub-generators naturally, which the SIP bytecode
interpreter relies on heavily (every super instruction that may block is
a sub-generator).
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Process",
    "Simulator",
    "SimulationError",
    "DeadlockError",
]


class SimulationError(Exception):
    """Base class for errors raised by the simulation engine."""


class DeadlockError(SimulationError):
    """Raised when processes remain but no event can ever fire again."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; a call to :meth:`succeed` (or
    :meth:`fail`) makes it *triggered* and schedules the resumption of
    every waiting process at the current simulated time.  Triggering an
    event twice is an error -- it almost always indicates a protocol bug
    in the caller (e.g. completing the same receive twice).
    """

    __slots__ = ("sim", "_value", "_triggered", "_failed", "_callbacks", "_name")

    def __init__(self, sim: "Simulator", name: "str | tuple" = "") -> None:
        self.sim = sim
        # a plain string, or (template, *parts) formatted only when read:
        # hot paths create an event per message and nobody reads its name
        # unless something fails
        self._name = name
        self._value: Any = None
        self._triggered = False
        self._failed = False
        self._callbacks: list[Callable[["Event"], None]] = []

    # -- state ----------------------------------------------------------
    @property
    def name(self) -> str:
        name = self._name
        if isinstance(name, tuple):
            return name[0].format(*name[1:])
        return name

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def failed(self) -> bool:
        return self._failed

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} has no value yet")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            schedule = self.sim._schedule_call
            for cb in callbacks:
                schedule(0.0, cb, self)
        return self

    def succeed_if_pending(self, value: Any = None) -> bool:
        """Trigger the event if still pending; returns whether it fired.

        Useful where two legitimate completion paths can race (e.g. a
        block arriving over the network vs. being installed directly
        into the cache) and "already done" is not a protocol bug.
        """
        if self._triggered:
            return False
        self.succeed(value)
        return True

    def fail(self, exc: BaseException) -> "Event":
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._failed = True
        return self.succeed(exc)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Invoke *cb(event)* when triggered (immediately if already)."""
        if self._triggered:
            self.sim._schedule_call(0.0, cb, self)
        else:
            self._callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Timeout:
    """Effect: suspend the yielding process for ``delay`` simulated time."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = delay

    def __repr__(self) -> str:
        return f"Timeout(delay={self.delay!r})"


class AnyOf:
    """Effect: resume when *any* of the given events has triggered.

    The yielded value is the list of events that are triggered at resume
    time (at least one, possibly several if they fired simultaneously).
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]) -> None:
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")


class AllOf:
    """Effect: resume when *all* of the given events have triggered."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]) -> None:
        self.events = list(events)


ProcessGen = Generator[Any, Any, Any]


class Process:
    """A running simulated process wrapping a generator."""

    __slots__ = (
        "sim",
        "gen",
        "name",
        "finished",
        "result",
        "error",
        "done_event",
        "daemon",
    )

    def __init__(
        self, sim: "Simulator", gen: ProcessGen, name: str, daemon: bool = False
    ) -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.finished = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.done_event = Event(sim, name=f"done:{name}")
        self.daemon = daemon

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """The discrete-event engine.

    Typical use::

        sim = Simulator()
        sim.spawn(my_process(sim), name="worker-0")
        sim.run()
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # heap of (time, seq, fn, args): seq is unique, so ordering is
        # decided before fn is ever compared
        self._queue: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._processes: list[Process] = []
        self._active = 0
        self._errors: list[BaseException] = []

    # -- scheduling primitives -------------------------------------------
    def _schedule_call(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        if delay < 0:
            raise ValueError("cannot schedule in the past")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, fn, args))

    def event(self, name: "str | tuple" = "") -> Event:
        return Event(self, name=name)

    def timeout_event(self, delay: float, value: Any = None) -> Event:
        """An event that triggers after ``delay`` simulated time."""
        ev = Event(self, name=("timeout+{:g}", delay))
        self._schedule_call(delay, ev.succeed, value)
        return ev

    # -- processes ---------------------------------------------------------
    def spawn(self, gen: ProcessGen, name: str = "proc", daemon: bool = False) -> Process:
        """Start a new process from generator *gen*; returns its handle.

        A *daemon* process serves others but never ends on its own (e.g.
        a message pump kept alive for late retries); it is exempt from
        end-of-run deadlock detection.
        """
        proc = Process(self, gen, name, daemon=daemon)
        self._processes.append(proc)
        if not daemon:
            self._active += 1
        self._schedule_call(0.0, self._step, proc, None, None)
        return proc

    def _step(
        self,
        proc: Process,
        value: Any,
        exc: Optional[BaseException],
    ) -> None:
        try:
            if exc is not None:
                effect = proc.gen.throw(exc)
            else:
                effect = proc.gen.send(value)
        except StopIteration as stop:
            self._finish(proc, stop.value, None)
            return
        except BaseException as err:  # noqa: BLE001 - must surface process crashes
            self._finish(proc, None, err)
            return
        if isinstance(effect, Timeout):
            self._schedule_call(effect.delay, self._step, proc, None, None)
        elif isinstance(effect, Event):
            effect.add_callback(partial(self._resume_from_event, proc))
        elif isinstance(effect, AnyOf):
            self._wait_any(proc, effect.events)
        elif isinstance(effect, AllOf):
            self._wait_all(proc, effect.events)
        else:
            self._finish(
                proc,
                None,
                SimulationError(
                    f"process {proc.name!r} yielded unsupported effect {effect!r}"
                ),
            )

    def _resume_from_event(self, proc: Process, ev: Event) -> None:
        if ev.failed:
            self._step(proc, None, ev.value)
        else:
            self._step(proc, ev.value, None)

    def _wait_any(self, proc: Process, events: list[Event]) -> None:
        fired = {"done": False}

        def on_trigger(_ev: Event) -> None:
            if fired["done"]:
                return
            fired["done"] = True
            ready = [e for e in events if e.triggered]
            self._step(proc, ready, None)

        already = [e for e in events if e.triggered]
        if already:
            self._schedule_call(0.0, lambda: on_trigger(already[0]))
            return
        for e in events:
            e.add_callback(on_trigger)

    def _wait_all(self, proc: Process, events: list[Event]) -> None:
        remaining = {"n": sum(1 for e in events if not e.triggered)}
        if remaining["n"] == 0:
            self._schedule_call(0.0, self._step, proc, [e.value for e in events], None)
            return

        def on_trigger(_ev: Event) -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0:
                self._step(proc, [e.value for e in events], None)

        for e in events:
            if not e.triggered:
                e.add_callback(on_trigger)

    def _finish(self, proc: Process, result: Any, error: Optional[BaseException]) -> None:
        proc.finished = True
        proc.result = result
        proc.error = error
        if not proc.daemon:
            self._active -= 1
        if error is not None:
            self._errors.append(error)
            proc.done_event.fail(error)
        else:
            proc.done_event.succeed(result)

    # -- main loop ---------------------------------------------------------
    @property
    def active(self) -> int:
        """Non-daemon processes that have not finished yet."""
        return self._active

    def run_pending(
        self, max_events: Optional[int] = None, until: Optional[float] = None
    ) -> int:
        """Fire queued events in (time, schedule order); returns how many.

        The one owner of the pop loop: stops when the queue is empty,
        after ``max_events`` events, or before the first event later
        than simulated time ``until``.  Raises the first process error
        encountered.  Drivers that interleave the event loop with
        something else (the multiprocess engine polls its pipes between
        batches) call this instead of :meth:`run`.
        """
        queue = self._queue
        errors = self._errors
        pop = heapq.heappop
        fired = 0
        while queue and fired != max_events:
            if until is not None and queue[0][0] > until:
                break
            time, _seq, fn, args = pop(queue)
            if time < self.now - 1e-12:
                raise SimulationError("time went backwards")
            self.now = time
            fn(*args)
            fired += 1
            if errors:
                raise errors[0]
        return fired

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains (or simulated time *until*).

        Returns the final simulated time.  Raises the first process
        error encountered, and :class:`DeadlockError` if processes
        remain un-finished with an empty queue (i.e. they all wait on
        events nobody will trigger).
        """
        self.run_pending(until=until)
        if self._queue:  # only events later than `until` are left
            self.now = until
            return self.now
        if self._active > 0:
            waiting = [
                p.name for p in self._processes if not p.finished and not p.daemon
            ]
            raise DeadlockError(
                f"deadlock at t={self.now:g}: processes still waiting: {waiting[:10]}"
                + ("..." if len(waiting) > 10 else "")
            )
        return self.now
