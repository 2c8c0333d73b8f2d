"""The mp rank loop, tested without forking a single process.

``MPEngine.run`` interleaves three things: firing the rank's local
simulator events, injecting what they queued into the pipe mesh, and
taking messages in.  Its promises are about *order*, so the first half
of this file drives the engine against a scripted world that records
when ``flush`` / ``poll`` / ``wait_for_message`` happen relative to the
events fired, and asserts the invariants in code:

* whatever one event queued has left before the next event fires;
* nothing is queued when the rank blocks, or when the engine returns;
* the rank never blocks with no live coroutine left to wake;
* the mesh is polled at least every ``POLL_INTERVAL`` events.

The second half runs a real :class:`MPWorld` over real ``Pipe()`` pairs
inside this one process: the watchdog and all-peers-gone errors keep
their text, worlds release their selector, and a Hypothesis test
interleaves frames from 1-3 peers (one of which may hang up
mid-stream) against polls.
"""

import os
from multiprocessing import Pipe

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import Simulator
from repro.simmpi.simulator import Timeout
from repro.sip.config import SIPError
from repro.sip.mptransport import EngineStats, MPEngine, MPWorld, encode_batch


class ScriptedWorld:
    """The slice of :class:`MPWorld` the engine drives, with a log.

    ``arrivals`` is consumed one entry per ``wait_for_message`` call:
    each entry is a list of events to trigger, standing in for the
    messages a real mesh would deliver.
    """

    def __init__(self, sim, arrivals=()):
        self.sim = sim
        self.engine_stats = EngineStats()
        self.queued = []
        self.sent = []
        self.log = []  # (what, queued-at-entry)
        self._arrivals = list(arrivals)

    def send(self, item):
        self.queued.append(item)

    def flush(self):
        self.log.append(("flush", len(self.queued)))
        self.sent += self.queued
        self.queued.clear()

    def poll(self):
        self.log.append(("poll", len(self.queued)))
        return 0

    def wait_for_message(self):
        self.log.append(("wait", len(self.queued)))
        assert self.sim.active > 0, "blocked with no coroutine left to wake"
        assert not self.queued, "blocked with sends still queued"
        assert self._arrivals, "blocked, and the script has nothing to deliver"
        for event in self._arrivals.pop(0):
            event.succeed(None)
        return 1


def _chatter(world, name, steps):
    """Queue one message per event; insist the previous ones have left."""
    for i in range(steps):
        assert not world.queued, "an event fired with an earlier event's sends queued"
        world.send((name, i))
        yield Timeout(0.0)


def test_what_an_event_queued_leaves_before_the_next_event_fires():
    sim = Simulator()
    world = ScriptedWorld(sim)
    for name in "abc":
        sim.spawn(_chatter(world, name, 40), name=name)
    MPEngine(sim, world).run()
    assert len(world.sent) == 120
    for name in "abc":  # per-sender order survives the interleaving
        assert [i for who, i in world.sent if who == name] == list(range(40))


def test_a_burst_queued_by_one_event_is_one_flush():
    sim = Simulator()
    world = ScriptedWorld(sim)

    def burst():
        for i in range(5):
            world.send(i)
        yield Timeout(0.0)

    sim.spawn(burst(), name="burst")
    MPEngine(sim, world).run()
    assert [n for what, n in world.log if what == "flush" and n] == [5]
    assert world.sent == list(range(5))


def test_nothing_is_queued_when_the_rank_blocks_or_returns():
    sim = Simulator()
    reply = sim.event("reply")
    world = ScriptedWorld(sim, arrivals=[[reply]])

    def requester():
        world.send("request")
        yield reply  # only the mesh can trigger it: the engine must block
        world.send("ack")  # queued by the coroutine's last event

    sim.spawn(requester(), name="requester")
    MPEngine(sim, world).run()
    # ScriptedWorld.wait_for_message asserted the block-time half
    assert ("wait", 0) in world.log
    assert world.sent == ["request", "ack"] and not world.queued


def test_the_rank_never_blocks_once_only_daemons_remain():
    sim = Simulator()
    world = ScriptedWorld(sim)  # no arrivals: any wait fails the test

    def pump():
        yield sim.event("never")

    def work():
        yield Timeout(0.0)

    sim.spawn(pump(), name="pump", daemon=True)
    sim.spawn(work(), name="work")
    MPEngine(sim, world).run()
    assert not [entry for entry in world.log if entry[0] == "wait"]


def test_the_mesh_is_polled_every_few_events_and_events_are_counted():
    sim = Simulator()
    world = ScriptedWorld(sim)
    sim.spawn(_chatter(world, "a", 100), name="a")
    MPEngine(sim, world).run()
    fired = world.engine_stats.events_fired
    assert fired >= 100
    polls = [entry for entry in world.log if entry[0] == "poll"]
    assert len(polls) == fired // MPEngine.POLL_INTERVAL
    # and the gap between two polls is never longer than that
    gap = longest = 0
    for what, _ in world.log:
        gap = 0 if what == "poll" else gap + (what == "flush")
        longest = max(longest, gap)
    assert longest <= MPEngine.POLL_INTERVAL


def test_a_coroutine_error_surfaces():
    sim = Simulator()
    world = ScriptedWorld(sim)

    def boom():
        yield Timeout(0.0)
        raise RuntimeError("boom")

    sim.spawn(boom(), name="boom")
    with pytest.raises(RuntimeError, match="boom"):
        MPEngine(sim, world).run()


# -- a real world over real pipes, in this process ----------------------------


def _world(n_peers, timeout=5.0):
    """Rank 0 wired to ``n_peers`` peers; returns (world, {peer: far end})."""
    mine, theirs = {}, {}
    for peer in range(1, n_peers + 1):
        mine[peer], theirs[peer] = Pipe(duplex=True)
    world = MPWorld(
        Simulator(), n_peers + 1, 0, mine, "feedc0de", timeout=timeout, arena=False
    )
    return world, theirs


def _hang_up(world, far_ends):
    world.close()
    for conn in list(world._conns.values()) + list(far_ends.values()):
        conn.close()


def _blocked_receiver(world):
    def receiver():
        yield from world.comm(0).recv(source=1)

    world.sim.spawn(receiver(), name="receiver")


def test_watchdog_error_text():
    world, far = _world(1, timeout=0.05)
    try:
        _blocked_receiver(world)
        with pytest.raises(SIPError) as err:
            MPEngine(world.sim, world).run()
        assert str(err.value) == (
            "rank 0: no message in 0.05s while work is still pending "
            "(a peer stalled or died)"
        )
        stats = world.engine_stats
        assert stats.blocked_waits >= 1 and stats.blocked_s >= 0.04
    finally:
        _hang_up(world, far)


def test_all_peers_gone_error_text_and_single_unregister():
    world, far = _world(2)
    try:
        _blocked_receiver(world)
        for conn in far.values():
            conn.close()
        with pytest.raises(SIPError) as err:
            MPEngine(world.sim, world).run()
        assert str(err.value) == (
            "rank 0: all peers disconnected while work is still pending"
        )
        assert not world._live and not world._selector.get_map()
        assert world.poll() == 0  # nothing left to ask, and no error asking
    finally:
        _hang_up(world, far)


def test_a_blocked_rank_wakes_on_a_frame_and_flushes_first():
    world, far = _world(1)
    try:
        got = []

        def client():
            comm = world.comm(0)
            comm.isend("request", dest=1, tag=7)
            got.append((yield from comm.recv(source=1)).payload)

        world.sim.spawn(client(), name="client")
        # the peer's answer is already in the pipe, so the blocking
        # select returns at once; the request must be out by then
        far[1].send_bytes(encode_batch([(1, 7, 8, "reply")]))
        MPEngine(world.sim, world).run()
        assert got == ["reply"]
        assert far[1].poll(1.0), "the request never left the outbox"
        assert world.engine_stats.blocked_waits == 1
    finally:
        _hang_up(world, far)


def test_isend_hands_back_one_completed_request():
    world, far = _world(1)
    try:
        comm = world.comm(0)
        first = comm.isend("a", dest=1, tag=1)
        second = comm.isend("b", dest=0, tag=1)  # self-send takes the same exit
        assert first is second and first.completed and first.kind == "send"
    finally:
        _hang_up(world, far)


def test_200_worlds_leak_no_descriptor():
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    for _ in range(200):
        world, far = _world(3)
        far[2].send_bytes(encode_batch([(2, 1, 8, "x")]))
        assert world.poll() == 1
        _hang_up(world, far)
        world.close()  # a second close is a no-op
    assert open_fds() == before


@st.composite
def _mesh_script(draw):
    """(n_peers, actions): sends, polls and at most one mid-stream hang-up."""
    n_peers = draw(st.integers(1, 3))
    peers = st.integers(1, n_peers)
    action = st.one_of(
        st.tuples(st.just("send"), peers, st.integers(1, 4)),
        st.tuples(st.just("poll"), st.just(0), st.just(0)),
    )
    actions = draw(st.lists(action, min_size=1, max_size=40))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(actions)))
        actions.insert(at, ("close", draw(peers), 0))
    return n_peers, actions


@settings(max_examples=60, deadline=None)
@given(_mesh_script())
def test_interleaved_frames_arrive_exactly_once_in_peer_order(script):
    n_peers, actions = script
    world, far = _world(n_peers)
    try:
        sent = {peer: [] for peer in far}
        closed = None
        for what, peer, count in actions:
            if what == "send" and peer != closed:
                batch = [
                    (peer, 3, 8, (peer, len(sent[peer]) + i)) for i in range(count)
                ]
                sent[peer] += [raw[3] for raw in batch]
                far[peer].send_bytes(encode_batch(batch))
            elif what == "close" and closed is None:
                far[peer].close()
                closed = peer
            elif what == "poll":
                world.poll()
        while world.poll():  # until the mesh is quiet
            pass
        arrived = [msg.payload for msg in world._mailbox.arrived]
        for peer in far:
            assert [p for p in arrived if p[0] == peer] == sent[peer]
        assert len(arrived) == sum(map(len, sent.values()))
        assert set(world._live) == set(far) - {closed}
        assert world.engine_stats.poll_deliveries == len(arrived)
    finally:
        _hang_up(world, far)
