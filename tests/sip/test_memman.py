"""Unit tests for the unified per-rank MemoryManager.

Covers the victim cascade (least recently used first, replica or
resident block alike), the pinned-only OutOfBlockMemory floor,
spill/fault-in round trips, adopted input accounting, scratch capacity
limits, simulated scratch time, and injected scratch disk faults.  The
cascade's order under arbitrary operation sequences is held by the
state machine in ``test_memory_hierarchy_machine.py``.
"""

import numpy as np
import pytest

from repro.machines import LAPTOP
from repro.simmpi.faults import FaultPlan, ResilienceStats
from repro.sip.blocks import Block, BlockId, block_nbytes
from repro.sip.config import SIPError
from repro.sip.memman import MemoryManager
from repro.sip.memory import OutOfBlockMemory

SHAPE = (4,)  # 32 B per float64 block
NBYTES = block_nbytes(SHAPE)


def bid(i):
    return BlockId(0, (i,))


def manager(budget_blocks=4, **kwargs):
    kwargs.setdefault("spill", True)
    return MemoryManager(
        budget_blocks * NBYTES,
        real=True,
        name="test",
        cache_blocks=8,
        nbytes_of=lambda block_id: NBYTES,
        **kwargs,
    )


def fill(mm, i, kind="temp"):
    """Allocate one registered pool block whose data encodes `i`."""
    block = mm.allocate(SHAPE)
    block.data[:] = float(i)
    mm.register(bid(i), block, kind)
    return block


def test_legacy_mode_pool_enforces_budget():
    mm = manager(budget_blocks=2, spill=False)
    fill(mm, 1)
    fill(mm, 2)
    with pytest.raises(OutOfBlockMemory):
        mm.allocate(SHAPE)
    assert mm.stats.cascades == 0  # legacy mode never cascades


def test_spill_makes_room_and_fault_in_restores_data():
    mm = manager(budget_blocks=2)
    b1 = fill(mm, 1)
    fill(mm, 2)
    fill(mm, 3)  # budget is 2 blocks: one victim must spill
    assert mm.stats.spills == 1
    assert mm.spilled_blocks == 1
    assert b1.data is None  # LRU-registered victim parked on scratch
    assert mm.bytes_in_use <= mm.budget_bytes
    mm.free(bid(3), mm._spillable[bid(3)][0])
    mm.touch(bid(1))
    assert mm.stats.faults_in == 1
    assert b1.data is not None
    np.testing.assert_array_equal(b1.data, np.full(SHAPE, 1.0))


def test_cascade_drops_the_replica_when_it_is_older_and_spills_when_the_block_is():
    mm = manager(budget_blocks=2)
    mm.cache.insert_ready(bid(10), Block(SHAPE, np.zeros(SHAPE)))
    b1 = fill(mm, 1)
    fill(mm, 2)  # over budget: the replica is the least recently used
    assert (mm.stats.pressure_evictions, mm.stats.spills) == (1, 0)
    assert bid(10) not in mm.cache

    mm.cache.insert_ready(bid(11), Block(SHAPE, np.zeros(SHAPE)))
    assert (mm.stats.pressure_evictions, mm.stats.spills) == (1, 1)
    assert b1.data is None  # block 1 was older than anything cached
    mm.touch(bid(2))
    mm.cache.lookup(bid(11))  # now block 2 is older than the replica
    fill(mm, 3)
    assert (mm.stats.pressure_evictions, mm.stats.spills) == (1, 2)
    assert bid(11) in mm.cache


def test_a_use_moves_a_block_to_the_young_end_whatever_its_kind():
    mm = manager(budget_blocks=3)
    temp = fill(mm, 1, kind="temp")
    owned = fill(mm, 2, kind="distributed")
    static = fill(mm, 3, kind="static")
    mm.touch(bid(1))
    fill(mm, 4)  # one block over: the owned block is the oldest use
    assert owned.data is None
    assert temp.data is not None and static.data is not None


def test_speculative_insert_drops_replicas_but_never_spills():
    mm = manager(budget_blocks=2)
    fill(mm, 1)
    mm.cache.insert_ready(bid(10), Block(SHAPE, np.zeros(SHAPE)))
    mm.cache.insert_pending(bid(11), object(), demand=False)
    assert (mm.stats.pressure_evictions, mm.stats.spills) == (1, 0)
    with pytest.raises(OutOfBlockMemory):  # only block 1 and a pending entry left
        mm.cache.insert_pending(bid(12), object(), demand=False)
    assert mm.stats.spills == 0
    mm.cache.insert_pending(bid(12), object())  # a demand fetch may spill
    assert mm.stats.spills == 1


def test_pinned_blocks_survive_the_cascade():
    mm = manager(budget_blocks=2)
    pinned = fill(mm, 1)
    mm.pin_instr(bid(1))
    fill(mm, 2)
    fill(mm, 3)
    assert pinned.data is not None  # block 2 spilled instead
    mm.clear_instr_pins()
    assert not mm.pinned


def test_oom_only_when_pinned_floor_exceeds_budget():
    mm = manager(budget_blocks=2)
    fill(mm, 1)
    fill(mm, 2)
    mm.pin_instr(bid(1))
    mm.pin_instr(bid(2))
    with pytest.raises(OutOfBlockMemory, match="pinned and in-flight"):
        mm.allocate(SHAPE)
    assert mm.stats.oom_refusals == 1
    mm.clear_instr_pins()
    mm.allocate(SHAPE)  # same request succeeds once the pins are gone
    assert mm.stats.spills >= 1


def test_adopt_and_free_accounting():
    mm = manager(budget_blocks=4)
    block = Block(SHAPE, np.ones(SHAPE))
    mm.adopt(bid(1), block, "static")
    assert mm.adopted_bytes == NBYTES
    assert mm.bytes_in_use == NBYTES
    mm.free(bid(1), block)
    assert mm.adopted_bytes == 0
    assert mm.bytes_in_use == 0
    assert mm.pool.stats.frees == 0  # adopted blocks never hit the pool


def test_scratch_capacity_limits_spilling():
    mm = manager(budget_blocks=2, spill_capacity=float(NBYTES))
    fill(mm, 1)
    fill(mm, 2)
    fill(mm, 3)  # first spill fits on scratch
    assert mm.stats.spills == 1
    # scratch is now full; the next pressure event finds no victim and,
    # with everything else resident, the budget is genuinely exceeded
    with pytest.raises(OutOfBlockMemory):
        fill(mm, 4)


def test_scratch_io_charges_time_debt():
    mm = manager(budget_blocks=2, machine=LAPTOP)
    fill(mm, 1)
    fill(mm, 2)
    fill(mm, 3)
    assert mm.time_debt > 0.0
    debt = mm.take_time_debt()
    assert debt > 0.0
    assert mm.time_debt == 0.0


def test_no_machine_means_no_time_debt():
    mm = manager(budget_blocks=2)
    fill(mm, 1)
    fill(mm, 2)
    fill(mm, 3)
    assert mm.stats.spills == 1
    assert mm.time_debt == 0.0


def test_scratch_faults_are_retried_and_counted():
    plan = FaultPlan(seed=3, disk_write_error_rate=1.0, max_disk_errors=2)
    res = ResilienceStats()
    mm = manager(
        budget_blocks=2,
        machine=LAPTOP,
        faults=plan,
        fault_device="scratch0",
        resilience=res,
    )
    fill(mm, 1)
    fill(mm, 2)
    fill(mm, 3)  # spill hits two injected write errors, then succeeds
    assert mm.stats.spills == 1
    assert mm.stats.spill_write_retries == 2
    assert res.writeback_retries == 2
    assert plan.stats.disk_write_errors == 2


def test_scratch_fault_gives_up_after_retry_limit():
    plan = FaultPlan(seed=3, disk_write_error_rate=1.0)
    mm = manager(budget_blocks=2, machine=LAPTOP, faults=plan, retry_limit=3)
    fill(mm, 1)
    fill(mm, 2)
    with pytest.raises(SIPError, match="scratch write failed"):
        fill(mm, 3)


def test_restore_all_brings_every_block_back():
    mm = manager(budget_blocks=1)
    blocks = [fill(mm, i) for i in (1, 2, 3)]
    assert mm.spilled_blocks == 2
    mm.restore_all()
    assert mm.spilled_blocks == 0
    assert mm.spilled_out_bytes == 0
    for i, block in zip((1, 2, 3), blocks):
        np.testing.assert_array_equal(block.data, np.full(SHAPE, float(i)))


def test_peak_tracks_unified_residency():
    mm = manager(budget_blocks=8)
    fill(mm, 1)
    fill(mm, 2)
    assert mm.stats.peak_bytes == 2 * NBYTES
    mm.cache.insert_ready(bid(10), Block(SHAPE, np.zeros(SHAPE)))
    assert mm.stats.peak_bytes == 3 * NBYTES
