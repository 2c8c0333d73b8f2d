"""Unit tests for the discrete-event engine."""

import pytest

from repro.simmpi import (
    AllOf,
    AnyOf,
    DeadlockError,
    SimulationError,
    Simulator,
    Timeout,
)


def test_timeout_advances_time():
    sim = Simulator()
    seen = []

    def proc():
        yield Timeout(1.5)
        seen.append(sim.now)
        yield Timeout(2.5)
        seen.append(sim.now)

    sim.spawn(proc())
    end = sim.run()
    assert seen == [1.5, 4.0]
    assert end == 4.0


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Timeout(-1.0)


def test_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def proc(name, delay):
        yield Timeout(delay)
        order.append(name)
        yield Timeout(delay)
        order.append(name)

    sim.spawn(proc("a", 1.0))
    sim.spawn(proc("b", 1.0))
    sim.run()
    # ties broken by spawn/schedule order
    assert order == ["a", "b", "a", "b"]


def test_event_value_passed_to_waiter():
    sim = Simulator()
    ev = sim.event("payload")
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    def trigger():
        yield Timeout(3.0)
        ev.succeed("hello")

    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert got == ["hello"]


def test_event_already_triggered_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(42)
    got = []

    def waiter():
        got.append((yield ev))

    sim.spawn(waiter())
    sim.run()
    assert got == [42]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_failure_propagates_into_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as err:
            caught.append(str(err))

    sim.spawn(waiter())
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_process_exception_aborts_run():
    sim = Simulator()

    def bad():
        yield Timeout(1.0)
        raise ValueError("crash")

    sim.spawn(bad())
    with pytest.raises(ValueError, match="crash"):
        sim.run()


def test_anyof_resumes_on_first():
    sim = Simulator()
    e1, e2 = sim.event("e1"), sim.event("e2")
    got = []

    def waiter():
        ready = yield AnyOf([e1, e2])
        got.append([e.name for e in ready])

    def trigger():
        yield Timeout(2.0)
        e2.succeed()
        yield Timeout(2.0)
        e1.succeed()

    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert got == [["e2"]]


def test_allof_waits_for_all():
    sim = Simulator()
    e1, e2 = sim.event(), sim.event()
    times = []

    def waiter():
        values = yield AllOf([e1, e2])
        times.append((sim.now, values))

    def trigger():
        yield Timeout(1.0)
        e1.succeed("x")
        yield Timeout(1.0)
        e2.succeed("y")

    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert times == [(2.0, ["x", "y"])]


def test_allof_with_empty_list_resumes_immediately():
    sim = Simulator()
    done = []

    def waiter():
        yield AllOf([])
        done.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    assert done == [0.0]


def test_deadlock_detected():
    sim = Simulator()
    ev = sim.event("never")

    def waiter():
        yield ev

    sim.spawn(waiter())
    with pytest.raises(DeadlockError):
        sim.run()


def test_run_until_time_limit():
    sim = Simulator()

    def ticker():
        while True:
            yield Timeout(1.0)

    sim.spawn(ticker())
    end = sim.run(until=10.5)
    assert end == 10.5


def test_done_event_carries_return_value():
    sim = Simulator()
    results = []

    def child():
        yield Timeout(1.0)
        return "child-result"

    def parent():
        proc = sim.spawn(child(), name="child")
        value = yield proc.done_event
        results.append(value)

    sim.spawn(parent(), name="parent")
    sim.run()
    assert results == ["child-result"]


def test_yield_from_subgenerator():
    sim = Simulator()
    trace = []

    def inner():
        yield Timeout(1.0)
        trace.append(("inner", sim.now))
        return 7

    def outer():
        v = yield from inner()
        trace.append(("outer", sim.now, v))

    sim.spawn(outer())
    sim.run()
    assert trace == [("inner", 1.0), ("outer", 1.0, 7)]


def test_unsupported_effect_is_error():
    sim = Simulator()

    def bad():
        yield "not an effect"

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_timeout_event_fires_with_value():
    sim = Simulator()
    got = []

    def waiter():
        got.append((yield sim.timeout_event(5.0, "v")))

    sim.spawn(waiter())
    sim.run()
    assert got == ["v"]
    assert sim.now == 5.0


# ---------------------------------------------------------------------------
# the heap carries plain (time, seq, fn, args) tuples
# ---------------------------------------------------------------------------
def test_same_time_callables_fire_in_scheduling_order_without_being_compared():
    """``seq`` is unique, so the tie-break never reaches ``fn``: callables
    with no ordering at all (bound methods of unrelated objects, a
    lambda, a partial) scheduled for one instant fire as scheduled."""
    from functools import partial

    class Uncomparable:
        def __init__(self, log, tag):
            self.log, self.tag = log, tag

        def fire(self):
            self.log.append(self.tag)

    sim = Simulator()
    fired = []
    with pytest.raises(TypeError):
        Uncomparable(fired, 0).fire < Uncomparable(fired, 1).fire
    sim._schedule_call(1.0, Uncomparable(fired, "a").fire)
    sim._schedule_call(1.0, lambda: fired.append("b"))
    sim._schedule_call(1.0, partial(fired.append, "c"))
    sim._schedule_call(0.5, Uncomparable(fired, "first").fire)
    sim._schedule_call(1.0, Uncomparable(fired, "d").fire)
    sim.run()
    assert fired == ["first", "a", "b", "c", "d"]


def test_timeout_keeps_its_negative_delay_check():
    with pytest.raises(ValueError, match="negative timeout: -1"):
        Timeout(-1)
    assert Timeout(0).delay == 0 and repr(Timeout(2.5)) == "Timeout(delay=2.5)"


# ---------------------------------------------------------------------------
# Simulator.run_pending: the one owner of the pop loop
# ---------------------------------------------------------------------------
def test_run_pending_fires_at_most_max_events_in_order():
    sim = Simulator()
    fired = []
    for n in range(5):
        sim._schedule_call(float(n), fired.append, n)
    assert sim.run_pending(2) == 2
    assert fired == [0, 1] and sim.now == 1.0
    assert sim.run_pending(0) == 0
    assert sim.run_pending(until=3.0) == 2  # stops before the event at t=4
    assert fired == [0, 1, 2, 3] and sim.now == 3.0
    assert sim.run_pending() == 1
    assert sim.run_pending() == 0  # drained


def test_run_pending_surfaces_process_errors_and_counts_active():
    sim = Simulator()

    def ok():
        yield Timeout(1.0)

    def boom():
        yield Timeout(2.0)
        raise RuntimeError("kaboom")

    sim.spawn(ok())
    sim.spawn(boom())
    assert sim.active == 2
    with pytest.raises(RuntimeError, match="kaboom"):
        while sim.run_pending(1):
            pass
    assert sim.active == 0


# ---------------------------------------------------------------------------
# diagnostics survive lazily formatted event names
# ---------------------------------------------------------------------------
def test_event_names_format_on_demand():
    sim = Simulator()
    lazy = sim.event(name=("isend {}->{} tag={}", 0, 3, 1007))
    assert lazy.name == "isend 0->3 tag=1007"
    assert repr(lazy) == "<Event 'isend 0->3 tag=1007' pending>"
    with pytest.raises(SimulationError, match="event 'isend 0->3 tag=1007' has no value yet"):
        lazy.value
    lazy.succeed(1)
    assert repr(lazy) == "<Event 'isend 0->3 tag=1007' triggered>"
    for trigger in (lazy.succeed, lazy.fail):
        with pytest.raises(
            SimulationError, match="event 'isend 0->3 tag=1007' triggered twice"
        ):
            trigger(ValueError("x"))
    assert sim.event("plain").name == "plain"
    assert sim.timeout_event(2.5).name == "timeout+2.5"


def test_deadlock_error_names_the_waiting_processes():
    sim = Simulator()
    never = sim.event(name=("irecv rank={} src={} tag={}", 1, 0, 7))

    def waiter():
        yield never

    sim.spawn(waiter(), name="worker1")
    sim.spawn(waiter(), name="worker1.service", daemon=True)
    with pytest.raises(DeadlockError, match=r"deadlock at t=0: .*\['worker1'\]"):
        sim.run()
    assert "irecv rank=1 src=0 tag=7" in repr(never)
