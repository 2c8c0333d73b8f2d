"""Isolated micro-drivers: one layer's unit cost through its public API.

Each driver times a closed loop over public functions only and returns
one number.  They complement the spans: a span says how much of a
workload a layer took, a micro-driver says what one operation of that
layer costs when nothing else runs.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import statistics
import time

import numpy as np

#: block sizes of the two programs: CCSD at segment 2, contraction at 14
SMALL_BLOCK_BYTES = 2**4 * 8
LARGE_BLOCK_BYTES = 14**4 * 8

NOOP_SIAL = """
sial noop
scalar x
x = 1.0
endsial noop
"""


def eventloop_events_per_s(events: int = 40_000) -> float:
    """Two processes yielding timeouts through spawn/timeout_event/run."""
    from repro.simmpi.simulator import Simulator

    def ticker(sim, n):
        for _ in range(n):
            yield sim.timeout_event(1e-6)

    sim = Simulator()
    for name in ("a", "b"):
        sim.spawn(ticker(sim, events // 2), name=name)
    started = time.perf_counter()
    sim.run()
    return events / (time.perf_counter() - started)


def comm_msgs_per_s(round_trips: int = 8_000) -> float:
    """Ping-pong of control messages between two ranks of a World."""
    from repro.simmpi.comm import World
    from repro.simmpi.simulator import Simulator

    def ping(comm, n):
        for i in range(n):
            yield from comm.send(i, 1, tag=7)
            yield from comm.recv(1, 7)

    def pong(comm, n):
        for _ in range(n):
            msg = yield from comm.recv(0, 7)
            yield from comm.send(msg.payload, 0, tag=7)

    sim = Simulator()
    world = World(sim, 2)
    sim.spawn(ping(world.comm(0), round_trips), name="ping")
    sim.spawn(pong(world.comm(1), round_trips), name="pong")
    started = time.perf_counter()
    sim.run()
    return 2 * round_trips / (time.perf_counter() - started)


def mprunner_startup_s(config_kwargs: dict, runs: int = 5) -> float:
    """Fork, handshake, supervise and merge with nothing to execute."""
    from repro import api

    program = api.compile_sial(NOOP_SIAL)
    times = []
    for _ in range(runs):
        config = api.SIPConfig(**config_kwargs)
        started = time.perf_counter()
        api.run(program, config, {})
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _block_reply(nbytes: int):
    from repro.sip.blocks import Block, BlockId
    from repro.sip.messages import BlockReply

    n = nbytes // 8
    return BlockReply(
        block_id=BlockId(0, (0, 0)), block=Block((n,), np.arange(n, dtype=np.float64))
    )


def frame_us_per_msg(batch: int = 64, rounds: int = 400) -> float:
    """encode_batch + decode_batch of ``batch`` control messages."""
    from repro.sip.blocks import BlockId
    from repro.sip.messages import GetBlock
    from repro.sip.mptransport import decode_batch, encode_batch

    raws = [
        (1, 1, 256, GetBlock(BlockId(3, (i, i + 1, 2, 0)), 1000 + i, 1, 0))
        for i in range(batch)
    ]
    started = time.perf_counter()
    for _ in range(rounds):
        out = decode_batch(encode_batch(raws))
    elapsed = time.perf_counter() - started
    if len(out) != batch:
        raise RuntimeError("frame round trip lost messages")
    return 1e6 * elapsed / (rounds * batch)


def inline_block_us(rounds: int = 10_000) -> float:
    """A below-threshold block: pack -> frame -> unpack, no shm."""
    from repro.sip.mptransport import (
        ShmStats,
        decode_batch,
        encode_batch,
        pack_payload,
        unpack_payload,
    )

    msg = _block_reply(SMALL_BLOCK_BYTES)
    stats = ShmStats()
    shm_min = 1 << 14  # SIPConfig.mp_payload_shm_min's default
    started = time.perf_counter()
    for _ in range(rounds):
        packed = pack_payload(msg, shm_min, None, stats)
        (raw,) = decode_batch(encode_batch([(0, 7, SMALL_BLOCK_BYTES, packed)]))
        out = unpack_payload(raw[3], stats)
    elapsed = time.perf_counter() - started
    if stats.segments_created or out.block.data.nbytes != SMALL_BLOCK_BYTES:
        raise RuntimeError("inline block took the shm detour")
    return 1e6 * elapsed / rounds


def arena_transfer_us(rounds: int = 3_000, working_set: int = 8) -> float:
    """A contraction-sized block: SlabArena.place -> frame -> mapped view.

    Cycles a small working set of distinct buffers, so after the first
    pass sends are residency handoffs -- the mix a real run shows, where
    repeated gets of hot blocks dominate the traffic.
    """
    from repro.sip.arena import ArenaReceiver, ArenaStats, SlabArena
    from repro.sip.blocks import Block
    from repro.sip.mptransport import decode_batch, encode_batch

    stats = ArenaStats()
    arena = SlabArena(f"sipbench{os.getpid():x}", 0, 2, stats=stats)
    receiver = ArenaReceiver(stats=stats)
    msg = _block_reply(LARGE_BLOCK_BYTES)
    payloads = [
        dataclasses.replace(msg, block=Block(msg.block.shape, msg.block.data.copy()))
        for _ in range(working_set)
    ]

    def transfer(payload) -> None:
        ref = arena.place(payload.block, dest=1)
        if ref is None:
            raise RuntimeError("arena refused an in-class payload")
        packed = dataclasses.replace(payload, block=ref)
        (raw,) = decode_batch(encode_batch([(0, 7, LARGE_BLOCK_BYTES, packed)]))
        receiver.unpack(raw[3].block)

    try:
        for payload in payloads:
            transfer(payload)
        gc.collect()
        started = time.perf_counter()
        for i in range(rounds):
            transfer(payloads[i % working_set])
        elapsed = time.perf_counter() - started
        gc.collect()
        if receiver.live_leases():
            raise RuntimeError("arena micro-driver leaked receiver leases")
    finally:
        receiver.close()
        arena.destroy()
    return 1e6 * elapsed / rounds


def run_all(mp_config_kwargs: dict) -> tuple[dict, list[str]]:
    """Every micro-driver's metric, plus the ones whose API is gone."""
    drivers = {
        "simmpi.eventloop.events_per_s": eventloop_events_per_s,
        "simmpi.comm.msgs_per_s": comm_msgs_per_s,
        "sip.mprunner.startup_s": lambda: mprunner_startup_s(mp_config_kwargs),
        "sip.mptransport.frame_us_per_msg": frame_us_per_msg,
        "sip.mptransport.inline_block_us": inline_block_us,
        "sip.arena.transfer_us": arena_transfer_us,
    }
    values: dict = {}
    missing: list[str] = []
    for name, driver in drivers.items():
        try:
            values[name] = driver()
        except (ImportError, AttributeError, TypeError) as gone:
            # the public function this driver calls was removed or
            # reshaped: report the metric as absent, do not crash
            values[name] = None
            missing.append(f"micro:{name} ({type(gone).__name__}: {gone})")
    return values, missing
