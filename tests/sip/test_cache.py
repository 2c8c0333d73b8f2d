"""Unit tests for the LRU block cache.

A cache has no block limit of its own: a tight one is :func:`bounded`
by a rank budget that holds a few of its (16-byte) entries.
"""

import pytest

from repro.simmpi import Simulator
from repro.sip.blocks import Block, BlockId
from repro.sip.cache import BlockCache
from repro.sip.config import SIPError
from repro.sip.memman import MemoryManager
from repro.sip.memory import OutOfBlockMemory

NBYTES = 16


def bid(i):
    return BlockId(0, (i,))


def ready(cache, i, dirty=False):
    return cache.insert_ready(bid(i), Block((2,), None), dirty=dirty)


def bounded(n_blocks):
    """A cache under a rank budget with room for ``n_blocks`` entries."""
    return MemoryManager(
        n_blocks * NBYTES, real=False, nbytes_of=lambda block_id: NBYTES
    ).cache


def test_insert_and_lookup():
    cache = BlockCache()
    ready(cache, 1)
    assert cache.lookup(bid(1)) is not None
    assert cache.lookup(bid(2)) is None


def test_lru_eviction_order():
    cache = bounded(3)
    for i in (1, 2, 3):
        ready(cache, i)
    cache.lookup(bid(1))  # touch 1 -> 2 is now LRU
    ready(cache, 4)
    assert bid(2) not in cache
    assert bid(1) in cache
    assert cache.stats.evictions == 1


def test_capacity_never_exceeded():
    cache = bounded(3)
    for i in range(10):
        ready(cache, i)
    assert len(cache) <= 3


def test_pending_entries_not_evicted():
    sim = Simulator()
    cache = bounded(2)
    cache.insert_pending(bid(1), sim.event())
    cache.insert_pending(bid(2), sim.event())
    with pytest.raises(OutOfBlockMemory):
        cache.insert_pending(bid(3), sim.event())


def test_dirty_entries_not_evicted():
    cache = bounded(2)
    ready(cache, 1, dirty=True)
    ready(cache, 2, dirty=True)
    with pytest.raises(OutOfBlockMemory):
        ready(cache, 3)


def test_pinned_entries_not_evicted():
    cache = bounded(2)
    ready(cache, 1)
    cache.pin(bid(1))
    ready(cache, 2)
    ready(cache, 3)  # must evict 2, not pinned 1
    assert bid(1) in cache
    assert bid(2) not in cache
    cache.unpin(bid(1))


def test_fulfil_completes_pending():
    sim = Simulator()
    cache = BlockCache()
    ev = sim.event()
    entry = cache.insert_pending(bid(1), ev)
    assert entry.pending
    block = Block((2,), None)
    cache.fulfil(bid(1), block)
    assert not entry.pending
    assert entry.block is block


def test_fulfil_after_eviction_is_noop():
    sim = Simulator()
    cache = BlockCache()
    cache.insert_pending(bid(1), sim.event())
    cache.remove(bid(1))
    cache.fulfil(bid(1), Block((2,), None))  # must not raise
    assert bid(1) not in cache


def test_evicted_before_use_counted():
    cache = bounded(2)
    ready(cache, 1)
    cache.record_use(bid(1), hit=True)  # used
    ready(cache, 2)  # never used
    ready(cache, 3)  # evicts 1 (LRU)... 1 was used
    ready(cache, 4)  # evicts 2, unused
    assert cache.stats.evictions == 2
    assert cache.stats.evicted_before_use == 1


def test_clear_clean_spares_dirty_and_pending():
    sim = Simulator()
    cache = BlockCache()
    ready(cache, 1)
    ready(cache, 2, dirty=True)
    cache.insert_pending(bid(3), sim.event())
    cache.clear_clean()
    assert bid(1) not in cache
    assert bid(2) in cache
    assert bid(3) in cache


def test_duplicate_pending_insert_rejected():
    sim = Simulator()
    cache = BlockCache()
    cache.insert_pending(bid(1), sim.event())
    with pytest.raises(SIPError, match="duplicate"):
        cache.insert_pending(bid(1), sim.event())


def test_hit_miss_stats():
    cache = BlockCache()
    ready(cache, 1)
    cache.record_use(bid(1), hit=True)
    cache.record_use(bid(2), hit=False)
    cache.mark_refetch(bid(2))
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.refetches == 1


def test_insert_ready_updates_existing():
    cache = BlockCache()
    ready(cache, 1)
    b2 = Block((3,), None)
    cache.insert_ready(bid(1), b2)
    assert cache.lookup(bid(1)).block is b2
    assert len(cache) == 1


def test_insert_ready_fires_pending_arrival():
    """A ready insert over a pending entry must wake fetch waiters.

    Regression test: insert_ready used to null out the pending entry's
    arrival event without triggering it, so a coroutine parked on the
    fetch slept forever.
    """
    sim = Simulator()
    cache = BlockCache()
    arrival = sim.event()
    cache.insert_pending(bid(1), arrival)
    woke = []

    def waiter():
        value = yield arrival
        woke.append(value)

    sim.spawn(waiter())
    block = Block((2,), None)
    entry = cache.insert_ready(bid(1), block)
    assert not entry.pending
    assert entry.arrival is None
    sim.run()
    assert woke == [block]


def test_insert_ready_over_fulfilled_entry_does_not_retrigger():
    """fulfil() fires the arrival elsewhere; a later insert_ready on the
    same entry must not try to trigger the already-fired event."""
    sim = Simulator()
    cache = BlockCache()
    arrival = sim.event()
    cache.insert_pending(bid(1), arrival)
    arrival.succeed(Block((2,), None))
    cache.fulfil(bid(1), Block((2,), None))
    cache.insert_ready(bid(1), Block((3,), None))  # must not raise
    sim.run()


def test_all_pinned_cache_cannot_make_room():
    cache = bounded(2)
    for i in (1, 2):
        ready(cache, i)
        cache.pin(bid(i))
    with pytest.raises(OutOfBlockMemory):
        ready(cache, 3)
    # the failed insert must not have disturbed the pinned entries
    assert len(cache) == 2
    for i in (1, 2):
        cache.unpin(bid(i))


def test_remove_pending_entry_with_outstanding_arrival():
    """Evicting an in-flight entry must leave its arrival event usable.

    The fetch coroutine is still parked on the event; when the reply
    lands, fulfil() must be a no-op and the event must still fire.
    """
    sim = Simulator()
    cache = BlockCache()
    arrival = sim.event()
    cache.insert_pending(bid(1), arrival)
    woke = []

    def waiter():
        woke.append((yield arrival))

    sim.spawn(waiter())
    cache.remove(bid(1))
    assert cache.pending_count == 0
    block = Block((2,), None)
    cache.fulfil(bid(1), block)  # entry gone: must not resurrect it
    assert bid(1) not in cache
    arrival.succeed(block)  # the reply path still completes the fetch
    sim.run()
    assert woke == [block]


def test_unpin_after_remove_is_an_error():
    cache = BlockCache()
    ready(cache, 1)
    cache.pin(bid(1))
    # removing a pinned entry is a protocol violation the cache cannot
    # see (remove doesn't check pins); the later unpin must report it
    cache.remove(bid(1))
    with pytest.raises(SIPError, match="not cached"):
        cache.unpin(bid(1))


def test_unpin_of_never_pinned_entry_is_an_error():
    cache = BlockCache()
    ready(cache, 1)
    with pytest.raises(SIPError, match="unpinned"):
        cache.unpin(bid(1))


def test_evict_for_pressure_skips_dirty_pending_pinned():
    sim = Simulator()
    cache = BlockCache(nbytes_of=lambda block_id: NBYTES)
    ready(cache, 1)  # clean: evictable
    ready(cache, 2, dirty=True)
    cache.insert_pending(bid(3), sim.event())
    ready(cache, 4)
    cache.pin(bid(4))
    ready(cache, 5)  # clean: evictable
    freed, count = cache.evict_for_pressure(1000)
    assert count == 2
    assert freed == 32
    assert bid(2) in cache and bid(3) in cache and bid(4) in cache
    assert cache.bytes_in_use == 48


def test_clear_clean_accounts_evictions():
    """Regression test: clear_clean used to delete entries directly,
    bypassing the eviction stats and the on_evict callback that
    pressure evictions go through."""
    evicted = []
    cache = BlockCache(on_evict=lambda key, entry: evicted.append(key))
    ready(cache, 1)
    cache.record_use(bid(1), hit=True)
    ready(cache, 2)  # never used
    ready(cache, 3, dirty=True)  # spared
    cache.clear_clean()
    assert evicted == [bid(1), bid(2)]
    assert cache.stats.evictions == 2
    assert cache.stats.evicted_before_use == 1
    assert bid(3) in cache
