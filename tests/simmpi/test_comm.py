"""Unit tests for the simulated MPI communication layer."""

import numpy as np
import pytest

from repro.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    Barrier,
    Network,
    Simulator,
    Timeout,
    World,
    payload_nbytes,
)


def make_world(size, **net_kwargs):
    sim = Simulator()
    world = World(sim, size, Network(**net_kwargs))
    return sim, world


def test_send_recv_roundtrip():
    sim, world = make_world(2)
    got = []

    def sender():
        yield from world.comm(0).send({"x": 1}, dest=1, tag=7)

    def receiver():
        msg = yield from world.comm(1).recv(source=0, tag=7)
        got.append(msg.payload)

    sim.spawn(sender())
    sim.spawn(receiver())
    sim.run()
    assert got == [{"x": 1}]


def test_numpy_payload_charged_real_size():
    sim, world = make_world(2, latency=1.0, bandwidth=100.0)
    arrival = []
    data = np.zeros(50, dtype=np.float64)  # 400 bytes

    def sender():
        yield from world.comm(0).send(data, dest=1, tag=0)

    def receiver():
        msg = yield from world.comm(1).recv()
        arrival.append((sim.now, msg.nbytes))

    sim.spawn(sender())
    sim.spawn(receiver())
    sim.run()
    # latency 1.0 + 400/100 bandwidth = 5.0
    assert arrival == [(5.0, 400)]


def test_payload_nbytes_defaults_for_control_messages():
    assert payload_nbytes({"cmd": "chunk"}) == 256
    assert payload_nbytes(np.zeros(4)) == 32
    assert payload_nbytes("x", explicit=10) == 10


def test_irecv_before_send_matches():
    sim, world = make_world(2)
    got = []

    def receiver():
        req = world.comm(1).irecv(source=0, tag=3)
        msg = yield req.event
        got.append(msg.payload)

    def sender():
        yield Timeout(5.0)
        world.comm(0).isend("late", dest=1, tag=3)

    sim.spawn(receiver())
    sim.spawn(sender())
    sim.run()
    assert got == ["late"]


def test_fifo_ordering_same_src_dst_tag():
    sim, world = make_world(2)
    got = []

    def sender():
        comm = world.comm(0)
        for i in range(5):
            comm.isend(i, dest=1, tag=0)
        yield Timeout(0)

    def receiver():
        comm = world.comm(1)
        for _ in range(5):
            msg = yield from comm.recv(source=0, tag=0)
            got.append(msg.payload)

    sim.spawn(sender())
    sim.spawn(receiver())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_tag_selectivity():
    sim, world = make_world(2)
    got = []

    def sender():
        comm = world.comm(0)
        comm.isend("a", dest=1, tag=1)
        comm.isend("b", dest=1, tag=2)
        yield Timeout(0)

    def receiver():
        comm = world.comm(1)
        msg2 = yield from comm.recv(source=0, tag=2)
        msg1 = yield from comm.recv(source=0, tag=1)
        got.extend([msg2.payload, msg1.payload])

    sim.spawn(sender())
    sim.spawn(receiver())
    sim.run()
    assert got == ["b", "a"]


def test_wildcard_source_and_tag():
    sim, world = make_world(3)
    got = []

    def sender(rank, delay):
        def gen():
            yield Timeout(delay)
            world.comm(rank).isend(f"from-{rank}", dest=2, tag=rank)

        return gen()

    def receiver():
        comm = world.comm(2)
        for _ in range(2):
            msg = yield from comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
            got.append((msg.source, msg.payload))

    sim.spawn(sender(0, 1.0))
    sim.spawn(sender(1, 2.0))
    sim.spawn(receiver())
    sim.run()
    assert got == [(0, "from-0"), (1, "from-1")]


def test_self_send_is_cheap():
    sim, world = make_world(1, latency=10.0, bandwidth=1.0, memcpy_bandwidth=1e12)
    times = []

    def proc():
        comm = world.comm(0)
        comm.isend("x", dest=0, tag=0)
        msg = yield from comm.recv()
        times.append(sim.now)
        assert msg.payload == "x"

    sim.spawn(proc())
    sim.run()
    assert times[0] < 1e-6  # no network latency for self-sends


def test_isend_request_completes_after_injection_only():
    sim, world = make_world(2, latency=100.0, bandwidth=1.0, send_overhead=0.5)
    completion = []

    def sender():
        req = world.comm(0).isend(np.zeros(1000), dest=1, tag=0)
        yield req.event
        completion.append(sim.now)

    def receiver():
        yield from world.comm(1).recv()

    sim.spawn(sender())
    sim.spawn(receiver())
    sim.run()
    assert completion == [0.5]  # injection overhead only, not transfer time


def test_invalid_dest_rank_raises():
    sim, world = make_world(2)
    with pytest.raises(ValueError):
        world.comm(0).isend("x", dest=5, tag=0)
    with pytest.raises(ValueError):
        world.comm(9)


def test_world_stats_counts_remote_bytes():
    sim, world = make_world(2)

    def proc():
        comm = world.comm(0)
        comm.isend(np.zeros(10), dest=1, tag=0)  # 80 remote bytes
        comm.isend(np.zeros(10), dest=0, tag=1)  # self-send
        yield Timeout(0)

    def receiver():
        yield from world.comm(1).recv(tag=0)

    def selfrecv():
        yield from world.comm(0).recv(tag=1)

    sim.spawn(proc())
    sim.spawn(receiver())
    sim.spawn(selfrecv())
    sim.run()
    assert world.stats.messages_sent == 2
    assert world.stats.bytes_sent == 160
    assert world.stats.remote_bytes == 80


def test_barrier_releases_all_at_same_time():
    sim, world = make_world(4, latency=1.0)
    barrier = Barrier(world, range(4))
    release_times = []

    def proc(rank):
        yield Timeout(float(rank))  # ranks arrive staggered
        yield from barrier.wait(world.comm(rank))
        release_times.append((rank, sim.now))

    for r in range(4):
        sim.spawn(proc(r))
    sim.run()
    times = {t for _, t in release_times}
    assert len(times) == 1
    # last arrival at t=3 plus one latency for release
    assert times.pop() == 4.0


def test_barrier_reusable_across_generations():
    sim, world = make_world(2, latency=0.0)
    barrier = Barrier(world, [0, 1])
    passes = []

    def proc(rank):
        for gen in range(3):
            yield Timeout(1.0 if rank == 0 else 2.0)
            yield from barrier.wait(world.comm(rank))
            passes.append((gen, rank, sim.now))

    sim.spawn(proc(0))
    sim.spawn(proc(1))
    sim.run()
    # generation i completes at 2*(i+1)
    by_gen = {}
    for gen, _rank, t in passes:
        by_gen.setdefault(gen, set()).add(t)
    assert by_gen == {0: {2.0}, 1: {4.0}, 2: {6.0}}


def test_barrier_rejects_non_member():
    sim, world = make_world(3)
    barrier = Barrier(world, [0, 1])
    with pytest.raises(ValueError):
        next(barrier.wait(world.comm(2)))


def test_barrier_subgroup_does_not_involve_others():
    sim, world = make_world(3, latency=0.0)
    barrier = Barrier(world, [0, 2])
    done = []

    def member(rank):
        yield from barrier.wait(world.comm(rank))
        done.append(rank)

    def bystander():
        yield Timeout(0.5)

    sim.spawn(member(0))
    sim.spawn(bystander())
    sim.spawn(member(2))
    sim.run()
    assert sorted(done) == [0, 2]


def test_request_events_name_source_destination_and_tag():
    """Names are stored as parts and formatted only when read."""
    sim, world = make_world(4)
    send = world.comm(2).isend("x", dest=3, tag=1007)
    recv = world.comm(3).irecv(source=2, tag=1007)
    assert repr(send.event) == "<Event 'isend 2->3 tag=1007' pending>"
    assert repr(recv.event) == "<Event 'irecv rank=3 src=2 tag=1007' pending>"
    sim.run()
    assert recv.event.value.payload == "x"
    with pytest.raises(Exception, match="event 'isend 2->3 tag=1007' triggered twice"):
        send.event.succeed(None)
    with pytest.raises(Exception, match="'irecv rank=3 src=2 tag=1007' triggered twice"):
        recv.event.succeed(None)
    barrier = world.barrier([0, 1], name="sip_barrier")
    gen = barrier.wait(world.comm(0))
    assert repr(next(gen)) == "<Event 'sip_barrier gen=0' pending>"
