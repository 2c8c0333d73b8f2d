"""The memory hierarchy's invariants as a state machine.

One :class:`MemoryManager` and its :class:`BlockCache`, driven through
every operation a rank performs on them, in any order hypothesis can
find.  The machine keeps its own model -- what is resident, what is
spilled, what is cached, and *when each was last used* -- and before
every operation that can start the victim cascade it computes, from a
sort of all evictables by stamp, the exact sequence of victims the
cascade must take.  The manager reports each victim as it goes (replica
drops through the cache's ``on_evict`` hook, spills through the tracer's
``record_mem``), and the two sequences must be equal.

The scratch capacity is sampled too: with none (``0``, the runtime's
default) the cascade may only drop replicas, and no resident block is
tracked at all.

An ``OutOfBlockMemory`` inside a *fault-in* is fatal to a real run (the
dry run's pinned-only floor exists to rule it out), so the machine does
not touch a spilled block when the reference finds no room for it.
"""

import itertools

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.simmpi.simulator import Simulator
from repro.sip.blocks import Block, BlockId, block_nbytes
from repro.sip.memman import MemoryManager
from repro.sip.memory import OutOfBlockMemory

SHAPE = (4,)
NBYTES = block_nbytes(SHAPE)  # 32 B: real float64 blocks
KINDS = ("temp", "local", "static", "distributed")

_blocks = st.integers(0, 9)
_replicas = st.integers(0, 9)


def block_id(i):
    return BlockId(0, (i,))


def replica_id(j):
    return BlockId(1, (j,))


class MemoryHierarchy(RuleBasedStateMachine):
    @initialize(
        budget_bytes=st.integers(2 * NBYTES, 8 * NBYTES),
        scratch_blocks=st.sampled_from([None, 0, 1, 3]),
    )
    def build(self, budget_bytes, scratch_blocks):
        self.capacity = None if scratch_blocks is None else scratch_blocks * NBYTES
        self.mm = MemoryManager(
            budget_bytes,
            real=True,
            name="machine",
            nbytes_of=lambda bid: NBYTES,
            spill_capacity=self.capacity,
            tracer=self,
            on_evict=lambda bid, entry: self.log.append(("drop", str(bid))),
        )
        self.cache = self.mm.cache
        self.sim = Simulator()
        self.log = []  # victims, in the order the manager took them
        self.blocks = {}  # bid -> Block, resident or spilled
        self.bits = {}  # bid -> the data the block must hold
        self.spilled = set()
        self.replicas = set()  # ids in the cache, pending or ready
        self.last_use = {}  # id -> the model's own recency counter
        self.clock = itertools.count()

    def record_mem(self, now, rank, kind, bid, nbytes):
        """The manager's tracer hook (it passes the id as a string)."""
        if kind == "spill":
            self.log.append(("spill", bid))

    def used(self, key):
        self.last_use[key] = next(self.clock)

    # -- the reference ---------------------------------------------------
    def evictables(self, allow_spill):
        """(stamp, action, id) of everything the cascade may take now."""
        out = [
            (entry.stamp, "drop", key)
            for key, entry in self.cache.items()
            if entry.pinned == 0 and not entry.pending and not entry.dirty
        ]
        if allow_spill:
            out += [
                (stamp, "spill", bid)
                for bid, (_block, stamp) in self.mm._spillable.items()
                if bid not in self.mm.pinned
            ]
        return out

    def reference(self, allow_spill=True, returning=0):
        """Victims a request for one more block must take, oldest stamp
        first, and whether they make enough room.  `returning` bytes
        leave scratch as the request is served (a fault-in)."""
        need = self.mm.bytes_in_use + NBYTES - self.mm.budget_bytes
        on_scratch = self.mm.spilled_out_bytes - returning
        victims = []
        for _stamp, action, key in sorted(self.evictables(allow_spill)):
            if need <= 0:
                break
            if action == "spill":
                if self.capacity is not None and on_scratch + NBYTES > self.capacity:
                    continue  # scratch-refused: stays resident
                on_scratch += NBYTES
            victims.append((action, key))
            need -= NBYTES
        return victims, need <= 0

    def expect(self, victims, fits, operation):
        """Run `operation`; it must take exactly `victims`, and raise
        OutOfBlockMemory exactly when the reference found no room."""
        self.log.clear()
        if fits:
            operation()
        else:
            with pytest.raises(OutOfBlockMemory):
                operation()
        assert self.log == [(action, str(key)) for action, key in victims]
        for action, key in victims:
            if action == "drop":
                self.replicas.discard(key)
            else:
                self.spilled.add(key)
        return fits

    # -- resident blocks -------------------------------------------------
    @rule(i=_blocks, kind=st.sampled_from(KINDS), adopted=st.booleans())
    def allocate_or_adopt(self, i, kind, adopted):
        bid = block_id(i)
        if bid in self.blocks:
            return

        def operation():
            if adopted:
                block = Block(SHAPE, np.full(SHAPE, float(i)))
                self.mm.adopt(bid, block, kind)
            else:
                block = self.mm.allocate(SHAPE)
                block.data[:] = float(i)
                self.mm.register(bid, block, kind)
            self.blocks[bid] = block  # not reached when the cascade raises

        if self.expect(*self.reference(), operation):
            self.bits[bid] = np.full(SHAPE, float(i))
            self.used(bid)

    @rule(i=_blocks)
    def touch(self, i):
        bid = block_id(i)
        if bid not in self.blocks:
            self.mm.touch(bid)  # unknown ids are ignored
            return
        if bid in self.spilled:
            victims, fits = self.reference(returning=NBYTES)
            if not fits:
                return
            faults = self.mm.stats.faults_in
            self.expect(victims, True, lambda: self.mm.touch(bid))
            assert self.mm.stats.faults_in == faults + 1
            self.spilled.discard(bid)
        else:
            self.expect([], True, lambda: self.mm.touch(bid))
        self.used(bid)

    @rule(i=_blocks)
    def pin(self, i):
        if block_id(i) in self.blocks and block_id(i) not in self.spilled:
            self.mm.pin_instr(block_id(i))

    @rule()
    def clear_pins(self):
        self.mm.clear_instr_pins()

    @rule(i=_blocks)
    def free(self, i):
        bid = block_id(i)
        if bid not in self.blocks:
            return
        self.mm.free(bid, self.blocks.pop(bid))
        self.spilled.discard(bid)
        del self.bits[bid], self.last_use[bid]

    # -- replicas --------------------------------------------------------
    def insert(self, key, demand, operation):
        """A new cache entry: the cascade for its bytes (a worker's cache
        has no block limit)."""
        victims, fits = self.reference(allow_spill=demand)
        spills = self.mm.stats.spills
        if self.expect(victims, fits, operation):
            self.replicas.add(key)
            self.used(key)
        if not demand:
            assert self.mm.stats.spills == spills  # speculation never spills

    @rule(j=_replicas, demand=st.booleans())
    def fetch(self, j, demand):
        key = replica_id(j)
        if key in self.replicas:
            return
        arrival = self.sim.event(name="arrival")
        self.insert(
            key, demand, lambda: self.cache.insert_pending(key, arrival, demand)
        )

    @rule(j=_replicas, dirty=st.booleans())
    def insert_ready(self, j, dirty):
        key = replica_id(j)
        block = Block(SHAPE, np.zeros(SHAPE))
        if key in self.replicas:  # completes or refreshes the entry in place
            self.expect([], True, lambda: self.cache.insert_ready(key, block, dirty))
            self.used(key)
        else:
            self.insert(
                key, True, lambda: self.cache.insert_ready(key, block, dirty)
            )

    @rule(j=_replicas)
    def fulfil(self, j):
        self.cache.fulfil(replica_id(j), Block(SHAPE, np.zeros(SHAPE)))

    @rule(j=_replicas, touch=st.booleans())
    def lookup(self, j, touch):
        key = replica_id(j)
        entry = self.cache.lookup(key, touch=touch)
        assert (entry is not None) == (key in self.replicas)
        if entry is not None and touch:
            self.used(key)

    @rule(j=_replicas)
    def written_back(self, j):
        entry = self.cache.lookup(replica_id(j), touch=False)
        if entry is not None:
            entry.dirty = False

    @rule(j=_replicas, pin=st.booleans())
    def pin_or_unpin_replica(self, j, pin):
        key = replica_id(j)
        entry = self.cache.lookup(key, touch=False)
        if entry is None:
            return
        if pin:
            self.cache.pin(key)
        elif entry.pinned:
            self.cache.unpin(key)

    @rule(j=_replicas)
    def remove(self, j):
        key = replica_id(j)
        entry = self.cache.lookup(key, touch=False)
        if entry is not None and not entry.pinned:
            self.cache.remove(key)
            self.replicas.discard(key)
            del self.last_use[key]

    # -- what must hold after every operation ----------------------------
    @invariant()
    def budget_is_never_exceeded(self):
        mm = self.mm
        assert mm.bytes_in_use <= mm.budget_bytes
        assert mm.stats.peak_bytes <= mm.budget_bytes
        if self.capacity is not None:
            assert mm.spilled_out_bytes <= self.capacity

    @invariant()
    def every_byte_is_accounted_for(self):
        resident = [b for bid, b in self.blocks.items() if bid not in self.spilled]
        charged = sum(entry.charged for _key, entry in self.cache.items())
        assert self.mm.bytes_in_use == sum(b.nbytes for b in resident) + charged
        assert self.mm.spilled_out_bytes == NBYTES * len(self.spilled)
        assert set(self.mm._spill) == self.spilled
        assert {key for key, _entry in self.cache.items()} == self.replicas

    @invariant()
    def blocks_keep_their_bits(self):
        for bid, block in self.blocks.items():
            if bid in self.spilled:
                assert block.data is None
            else:
                assert np.array_equal(block.data, self.bits[bid])

    @invariant()
    def stamps_follow_use(self):
        """The stamps order everything exactly as the model's record of
        last use does, and both queues are kept in stamp order."""
        stamps = {key: entry.stamp for key, entry in self.cache.items()}
        stamps.update(
            (bid, stamp) for bid, (_block, stamp) in self.mm._spillable.items()
        )
        assert sorted(stamps, key=stamps.get) == sorted(
            stamps, key=self.last_use.get
        )
        for queue in (
            [entry.stamp for _key, entry in self.cache.items()],
            [stamp for _block, stamp in self.mm._spillable.values()],
        ):
            assert queue == sorted(queue)


MemoryHierarchy.TestCase.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None
)
TestMemoryHierarchy = MemoryHierarchy.TestCase
