"""Unit tests for the block memory pool, and the rank budget over it.

The pool only accounts; its budget is enforced by the rank's
:class:`MemoryManager`, here with no scratch (``spill_capacity=0``).
"""

import pytest

from repro.sip.blocks import DTYPE, DTYPE_BYTES
from repro.sip.memman import MemoryManager
from repro.sip.memory import BlockPool, OutOfBlockMemory


def test_allocate_and_free_accounting():
    pool = BlockPool(real=True)
    b = pool.allocate((10, 10))  # 800 bytes
    assert pool.stats.bytes_in_use == 800
    assert pool.stats.blocks_in_use == 1
    pool.free(b)
    assert pool.stats.bytes_in_use == 0
    assert pool.stats.peak_bytes == 800


def test_buffer_reuse_in_real_mode():
    pool = BlockPool(real=True)
    b1 = pool.allocate((5, 5))
    data1 = b1.data
    pool.free(b1)
    b2 = pool.allocate((5, 5))
    assert b2.data is data1  # stack reuse
    assert pool.stats.reuses == 1
    assert pool.stats.allocations == 1


def test_different_shapes_do_not_share_buffers():
    pool = BlockPool(real=True)
    b1 = pool.allocate((5, 5))
    pool.free(b1)
    b2 = pool.allocate((25,))
    assert pool.stats.reuses == 0


def test_budget_enforced():
    mm = MemoryManager(1000, real=True)
    mm.allocate((10, 10))  # 800
    with pytest.raises(OutOfBlockMemory, match="budget"):
        mm.allocate((10, 10))
    assert mm.pool.stats.bytes_in_use == 800


def test_model_mode_accounts_without_data():
    mm = MemoryManager(1000, real=False)
    b = mm.allocate((10, 10))
    assert b.data is None
    assert mm.pool.stats.bytes_in_use == 800
    with pytest.raises(OutOfBlockMemory):
        mm.allocate((10, 10))
    mm.free(None, b)
    assert mm.pool.stats.bytes_in_use == 0


def test_peak_tracks_high_water_mark():
    pool = BlockPool(real=False)
    blocks = [pool.allocate((10,)) for _ in range(5)]  # 5 * 80
    for b in blocks[:3]:
        pool.free(b)
    pool.allocate((10,))
    assert pool.stats.peak_bytes == 400
    assert pool.stats.peak_blocks == 5


def test_peak_blocks_is_global_not_per_shape():
    """peak_blocks counts total live blocks across all shapes at once;
    per-shape high-water marks live in peak_by_shape."""
    pool = BlockPool(real=False)
    a = pool.allocate((10,))
    b = pool.allocate((10,))
    c = pool.allocate((5, 5))
    assert pool.stats.peak_blocks == 3  # 2 of one shape + 1 of another
    assert pool.stats.peak_by_shape == {(10,): 2, (5, 5): 1}
    for blk in (a, b, c):
        pool.free(blk)
    # churning one shape raises neither peak
    d = pool.allocate((10,))
    pool.free(d)
    assert pool.stats.peak_blocks == 3
    assert pool.stats.peak_by_shape[(10,)] == 2


def test_budget_counts_blocks_of_the_one_element_type():
    mm = MemoryManager(2 * 100 * DTYPE_BYTES, real=True)
    b = mm.allocate((10, 10))
    assert b.data.dtype == DTYPE
    assert mm.pool.stats.bytes_in_use == 100 * DTYPE_BYTES
    mm.allocate((10, 10))  # fits: the budget is exactly two blocks
    with pytest.raises(OutOfBlockMemory):
        mm.allocate((10, 10))


def test_freed_block_loses_data_reference():
    pool = BlockPool(real=True)
    b = pool.allocate((4,))
    pool.free(b)
    assert b.data is None
