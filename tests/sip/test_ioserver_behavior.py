"""Focused tests of I/O-server semantics (write-back, ordering,
back-pressure) through small SIAL programs with tight server caches.

A server's cache is bounded by the rank budget it shares with the
workers, so a tight cache is :func:`squeezed`: the least budget the dry
run admits without spill, under a served array larger than that."""

import numpy as np
import pytest

from repro.api import dry_run
from repro.sial.compiler import compile_source
from repro.simmpi import Simulator, World
from repro.sip import SIPConfig, run_source
from repro.sip.blocks import Block, BlockId
from repro.sip.ioserver import IOServerProcess
from repro.sip.runtime import SharedRuntime


def wrap(decls, body):
    return f"sial t\n{decls}\n{body}\nendsial t\n"


def squeezed(src, config, symbolics):
    """``config`` at the dry run's no-spill requirement: the workers
    fit, and a served array larger than it does not fit a server."""
    config.memory_per_worker = float(
        dry_run(src, config, symbolics).per_worker_bytes
    )
    return config


DECLS = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
served SV(M, N)
distributed OUT(M, N)
temp T(M, N)
"""


def test_write_back_is_lazy_but_complete():
    """Prepares are acked before the disk writes finish; by the end of
    the run every block is nevertheless on disk."""
    body = """
pardo M, N
  T(M, N) = 5.0
  prepare SV(M, N) = T(M, N)
endpardo M, N
"""
    res = run_source(
        wrap(DECLS, body),
        SIPConfig(workers=2, io_servers=1, segment_size=2),
        {"nb": 8},
    )
    assert res.stats["disk_writes"] >= 16  # every block written back
    assert np.all(res.array("SV") == 5.0)


def test_overwrite_before_writeback_completes_keeps_latest():
    """Two prepares to the same block in quick succession: the final
    state (cache and disk) must be the second value."""
    body = """
pardo M, N
  T(M, N) = 1.0
  prepare SV(M, N) = T(M, N)
  T(M, N) = 2.0
  prepare SV(M, N) = T(M, N)
endpardo M, N
"""
    res = run_source(
        wrap(DECLS, body),
        SIPConfig(workers=2, io_servers=1, segment_size=2),
        {"nb": 6},
    )
    assert np.all(res.array("SV") == 2.0)


def test_accumulate_ordering_through_disk():
    """'=' then '+=' to the same served block from one worker applies
    in order even when the base block must be pulled from disk."""
    body = """
pardo M, N
  T(M, N) = 10.0
  prepare SV(M, N) = T(M, N)
endpardo M, N
server_barrier
pardo M, N
  T(M, N) = 1.0
  prepare SV(M, N) += T(M, N)
endpardo M, N
server_barrier
pardo M, N
  T(M, N) = 1.0
  prepare SV(M, N) += T(M, N)
endpardo M, N
server_barrier
pardo M, N
  request SV(M, N)
  T(M, N) = SV(M, N)
  put OUT(M, N) = T(M, N)
endpardo M, N
"""
    src, symbolics = wrap(DECLS, body), {"nb": 16}
    # 256 served blocks through a squeezed server: the requests fold the
    # buffered '+=' onto base blocks pulled back from disk
    cfg = squeezed(src, SIPConfig(workers=2, io_servers=1, segment_size=1), symbolics)
    res = run_source(src, cfg, symbolics)
    assert np.all(res.array("SV") == 12.0)
    assert np.all(res.array("OUT") == 12.0)
    assert res.stats["disk_reads"] > 0


def test_tight_cache_backpressure_still_completes():
    """A server cache far smaller than the block set exercises the
    dirty-block back-pressure path without deadlock or data loss."""
    body = """
pardo M, N
  T(M, N) = 3.0
  prepare SV(M, N) = T(M, N)
endpardo M, N
server_barrier
pardo M, N
  request SV(M, N)
  T(M, N) = SV(M, N)
  put OUT(M, N) = T(M, N)
endpardo M, N
"""
    src, symbolics = wrap(DECLS, body), {"nb": 16}
    # 256 blocks through a server budget of about half of them
    cfg = squeezed(src, SIPConfig(workers=4, io_servers=1, segment_size=1), symbolics)
    res = run_source(src, cfg, symbolics)
    assert np.all(res.array("OUT") == 3.0)
    assert res.stats["disk_reads"] > 0
    assert res.stats["blockio_backpressure_stalls"] > 0
    # a write-back wakes one parked load, not every one: at most about
    # one stall per prepare and one per request (a broadcast wake-up
    # made every parked load re-park, thousands of stalls here)
    assert res.stats["blockio_backpressure_stalls"] <= 2 * 256


def test_multiple_servers_partition_blocks():
    body = """
pardo M, N
  T(M, N) = 1.0
  prepare SV(M, N) = T(M, N)
endpardo M, N
"""
    res = run_source(
        wrap(DECLS, body),
        SIPConfig(workers=2, io_servers=3, segment_size=2),
        {"nb": 6},
    )
    # all three servers received writes (9 blocks round-robin over 3)
    assert res.stats["disk_writes"] >= 9
    assert np.all(res.array("SV") == 1.0)


def test_request_served_from_cache_avoids_disk():
    """A freshly prepared block requested before eviction is a cache
    hit: no disk read."""
    body = """
pardo M, N
  T(M, N) = 4.0
  prepare SV(M, N) = T(M, N)
endpardo M, N
server_barrier
pardo M, N
  request SV(M, N)
  T(M, N) = SV(M, N)
  put OUT(M, N) = T(M, N)
endpardo M, N
"""
    res = run_source(
        wrap(DECLS, body),
        SIPConfig(workers=2, io_servers=1, segment_size=2),
        {"nb": 6},
    )
    assert res.stats["disk_reads"] == 0
    assert res.stats["server_cache_hits"] > 0
    assert np.all(res.array("OUT") == 4.0)


class _PresetDelayDisk:
    """Stub disk whose writes complete after preset delays.

    Unlike the real (serial) Disk, completions can come out of issue
    order -- exactly the hazard the write-back version check guards.
    """

    def __init__(self, sim, delays):
        self.sim = sim
        self._delays = iter(delays)

    def write(self, nbytes):
        ev = self.sim.event(name="stub disk write")
        self.sim._schedule_call(next(self._delays), ev.succeed, None)
        return ev


def test_out_of_order_writeback_keeps_latest_snapshot():
    """Regression test: a write-back completing after a newer one used
    to store its stale snapshot into disk_data unconditionally, leaving
    the disk image older than the acknowledged state."""
    prog = compile_source(
        "sial t\naoindex M = 1, 4\nserved SV(M)\nscalar e\ne = 0.0\nendsial t\n"
    )
    cfg = SIPConfig(workers=1, io_servers=1, segment_size=2)
    sim = Simulator()
    world = World(sim, cfg.world_size, cfg.machine.network())
    rt = SharedRuntime(prog, cfg, {}, sim, world)
    server = IOServerProcess(rt, 0, world.comm(cfg.server_rank(0)))
    # first write-back lands at t=10, the second (newer) at t=1
    server.disk = _PresetDelayDisk(sim, [10.0, 1.0])

    bid = BlockId(prog.array_id("SV"), (1,))
    entry = server.cache.insert_ready(
        bid, Block((2,), np.array([1.0, 1.0])), dirty=True
    )
    server._start_writeback(bid)  # snapshots 1.0, completes last
    entry.block.data[...] = 2.0
    entry.dirty = True
    server._start_writeback(bid)  # snapshots 2.0, completes first
    sim.run()
    assert np.all(server.disk_data[bid] == 2.0)
    assert not entry.dirty
