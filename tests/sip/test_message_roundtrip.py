"""Property tests: every wire message survives the mp transport intact.

The multiprocess backend frames control messages with protocol-5
pickles (out-of-band buffers, batched per peer) and detours large
Block payloads either into the pooled slab arena
(:class:`~repro.sip.arena.SlabArena` / zero-copy mapped receive) or
through one-shot shared memory
(:func:`~repro.sip.mptransport.pack_payload` /
:func:`~repro.sip.mptransport.unpack_payload`).  These properties
drive randomly generated instances of **every** message type through
the full wire paths -- pack, frame, decode, unpack -- and require
field-exact identity on the other side, including bitwise-equal block
data, NaNs, zero-size blocks, non-contiguous (strided) views, and the
data-``None`` blocks of model mode.
"""

import dataclasses
import gc
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sip import arena as arena_module
from repro.sip.arena import ArenaReceiver, ArenaRef, ArenaStats, SlabArena
from repro.sip.blocks import Block, BlockId
from repro.sip.messages import (
    Ack,
    BarrierArrive,
    BarrierRelease,
    BlockReply,
    ChunkReply,
    ChunkRequest,
    CollectiveContribution,
    CollectiveResult,
    GetBlock,
    PutBlock,
    Shutdown,
    WorkerDone,
    message_nbytes,
)
from repro.sip.mptransport import (
    ShmStats,
    decode_batch,
    encode_batch,
    pack_payload,
    unpack_payload,
)

# -- strategies --------------------------------------------------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
any_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)

coords = st.tuples(*[st.integers(0, 7)] * 2) | st.tuples(*[st.integers(0, 7)] * 4)
block_ids = st.builds(BlockId, st.integers(0, 9), coords)
shapes = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)
accum_keys = st.tuples(
    st.integers(0, 1), st.integers(0, 9), st.integers(0, 9), st.integers(0, 99)
)
#: (op, accum_key): an overwrite carries no key, every '+=' carries one
ops_and_keys = st.tuples(st.just("="), st.none()) | st.tuples(
    st.just("+="), accum_keys
)


@st.composite
def blocks(draw):
    shape = draw(shapes)
    kind = draw(st.sampled_from(["dense", "strided", "model"]))
    if kind == "model":
        return Block(shape, None)
    values = draw(
        st.lists(
            any_floats,
            min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape)),
        )
    )
    data = np.array(values, dtype=np.float64).reshape(shape)
    if kind == "strided":
        # embed in a twice-as-large buffer and keep every other element
        # along the first axis: a non-contiguous view with same values
        big = np.zeros((shape[0] * 2,) + shape[1:], dtype=np.float64)
        big[::2] = data
        data = big[::2]
        assert not data.flags["C_CONTIGUOUS"] or shape[0] == 1
    return Block(shape, data)


#: a race-check iteration key: a pardo iteration, or a worker outside one
race_iterations = st.one_of(
    st.tuples(
        st.just(0), st.integers(0, 9), st.integers(0, 9),
        st.tuples(st.integers(1, 8), st.integers(1, 8)),
    ),
    st.tuples(st.just(1), st.integers(0, 7)),
)


@st.composite
def write_messages(draw, cls):
    """A PutBlock (a put or a prepare) as a sender builds it."""
    op, accum_key = draw(ops_and_keys)
    return cls(
        block_id=draw(block_ids),
        op=op,
        block=draw(blocks()),
        epoch=draw(st.integers(0, 99)),
        ack_tag=draw(st.integers(-1, 5000)),
        seq=draw(st.integers(-1, 1000)),
        accum_key=accum_key,
        iteration=None if accum_key is not None else draw(race_iterations),
        pc=draw(st.integers(-1, 500)),
    )


block_messages = st.one_of(
    write_messages(PutBlock),
    st.builds(BlockReply, block_id=block_ids, block=blocks()),
)

control_messages = st.one_of(
    st.builds(
        GetBlock,
        block_id=block_ids,
        reply_tag=st.integers(1000, 9000),
        epoch=st.integers(0, 99),
        iteration=race_iterations,
        pc=st.integers(-1, 500),
    ),
    st.builds(Ack, tag=st.integers(0, 9000)),
    st.builds(
        ChunkRequest,
        pardo_pc=st.integers(0, 500),
        activation=st.integers(0, 20),
        worker_index=st.integers(0, 7),
        reply_tag=st.integers(1000, 9000),
        seq=st.integers(-1, 1000),
        scalars=st.none() | st.lists(finite_floats, max_size=4).map(tuple),
    ),
    st.builds(
        ChunkReply,
        iterations=st.lists(
            st.tuples(st.integers(1, 8), st.integers(1, 8)), max_size=6
        ).map(tuple),
    ),
    st.builds(
        CollectiveContribution,
        seq=st.integers(0, 100),
        worker_index=st.integers(0, 7),
        value=finite_floats,
        reply_tag=st.integers(1000, 9000),
        base=finite_floats,
        deltas=st.lists(
            st.tuples(
                st.tuples(st.integers(0, 9), st.integers(0, 9)), finite_floats
            ),
            max_size=4,
        ).map(tuple),
        poisoned=st.booleans(),
    ),
    st.builds(CollectiveResult, value=finite_floats),
    st.builds(
        WorkerDone, worker_index=st.integers(0, 7), ack_tag=st.integers(-1, 9000)
    ),
    st.builds(Shutdown, ack_tag=st.integers(-1, 9000)),
    st.builds(
        BarrierArrive,
        name=st.sampled_from(["sip_barrier", "server_barrier"]),
        generation=st.integers(0, 100),
        rank=st.integers(0, 9),
    ),
    st.builds(
        BarrierRelease,
        name=st.sampled_from(["sip_barrier", "server_barrier"]),
        generation=st.integers(0, 100),
    ),
)


# -- helpers -----------------------------------------------------------------

_counter = [0]


def _namer() -> str:
    _counter[0] += 1
    return f"rmproundtrip{os.getpid():x}n{_counter[0]}"


def wire_roundtrip(payload, shm_min: int):
    """The exact sender->receiver path of the mp transport."""
    send_stats, recv_stats = ShmStats(), ShmStats()
    packed = pack_payload(payload, shm_min, _namer, send_stats)
    received = pickle.loads(pickle.dumps(packed))
    out = unpack_payload(received, recv_stats)
    # whatever the sender parked in shared memory, the receiver freed
    assert recv_stats.segments_unlinked == send_stats.segments_created
    return out


def assert_blocks_equal(a: Block, b: Block) -> None:
    assert isinstance(b, Block)
    assert tuple(a.shape) == tuple(b.shape)
    if a.data is None:
        assert b.data is None
        return
    assert b.data is not None
    assert a.data.dtype == b.data.dtype
    assert np.array_equal(a.data, b.data, equal_nan=True)


def assert_messages_equal(sent, received) -> None:
    assert type(received) is type(sent)
    block = getattr(sent, "block", None)
    if block is None:
        assert received == sent
        return
    assert_blocks_equal(block, received.block)
    for field in sent.__dataclass_fields__:
        if field == "block":
            continue
        assert getattr(received, field) == getattr(sent, field), field


# -- properties --------------------------------------------------------------


@pytest.mark.mp
@settings(max_examples=200, deadline=None)
@given(msg=control_messages)
def test_control_messages_roundtrip_identically(msg):
    assert_messages_equal(msg, wire_roundtrip(msg, shm_min=1 << 14))


@pytest.mark.mp
@settings(max_examples=100, deadline=None)
@given(msg=block_messages)
def test_block_messages_roundtrip_inline(msg):
    """Below the threshold, blocks ride the pipe inside the pickle."""
    assert_messages_equal(msg, wire_roundtrip(msg, shm_min=1 << 30))


@pytest.mark.mp
@settings(max_examples=100, deadline=None)
@given(msg=block_messages)
def test_block_messages_roundtrip_via_shared_memory(msg):
    """At threshold zero, every data-carrying block takes the shm path."""
    assert_messages_equal(msg, wire_roundtrip(msg, shm_min=0))


@pytest.mark.mp
@settings(max_examples=50, deadline=None)
@given(block=blocks())
def test_block_pickle_drops_shared_state(block):
    """COW share bookkeeping must never leak across a process boundary."""
    twin = block.share() if block.data is not None else block
    clone = pickle.loads(pickle.dumps(twin))
    assert clone._shared is None
    assert_blocks_equal(twin, clone)


@settings(max_examples=50, deadline=None)
@given(bid=block_ids)
def test_block_id_roundtrips(bid):
    assert pickle.loads(pickle.dumps(bid)) == bid


# -- protocol-5 batch frames -------------------------------------------------


@pytest.mark.mp
@settings(max_examples=100, deadline=None)
@given(msgs=st.lists(st.one_of(control_messages, block_messages), max_size=6))
def test_batch_frames_roundtrip_identically(msgs):
    """A coalesced frame reproduces every message, in order, intact."""
    raws = [(0, 100 + i, 64 + i, m) for i, m in enumerate(msgs)]
    out = decode_batch(encode_batch(raws))
    assert len(out) == len(raws)
    for (src, tag, size, sent), (src2, tag2, size2, received) in zip(raws, out):
        assert (src2, tag2, size2) == (src, tag, size)
        assert_messages_equal(sent, received)
        block = getattr(received, "block", None)
        if isinstance(block, Block) and block.data is not None:
            # out-of-band buffers decode over a writable bytearray, so
            # a later in-place accumulate cannot trip on a read-only
            # view of the frame
            assert block.data.flags.writeable


# -- arena-backed refs -------------------------------------------------------


def _arena_pair() -> tuple[SlabArena, ArenaReceiver]:
    stats = ArenaStats()
    # the cap is read when the arena is built; a context, not the
    # monkeypatch fixture, because hypothesis tests build arenas too
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arena_module, "MAX_BYTES", 1 << 20)
        arena = SlabArena(
            f"roundtrip{os.getpid():x}", 0, 2, slab_bytes=1 << 16, stats=stats
        )
    return arena, ArenaReceiver(stats=stats)


def arena_roundtrip(msg, arena: SlabArena, receiver: ArenaReceiver, dest=1):
    """The exact sender->receiver path of the arena transport."""
    packed = msg
    block = getattr(msg, "block", None)
    if isinstance(block, Block) and block.data is not None:
        ref = arena.place(block, dest)
        assert ref is not None, "fresh arena refused an in-class payload"
        packed = dataclasses.replace(msg, block=ref)
    (raw,) = decode_batch(encode_batch([(0, 7, 64, packed)]))
    payload = raw[3]
    ref = getattr(payload, "block", None)
    if isinstance(ref, ArenaRef):
        payload = dataclasses.replace(payload, block=receiver.unpack(ref))
    return payload


@pytest.mark.mp
@settings(max_examples=100, deadline=None)
@given(msg=block_messages)
def test_block_messages_roundtrip_via_arena(msg):
    """Every data-carrying block maps back bitwise equal, zero-copy,
    and the slot lease dies with the mapped block."""
    arena, receiver = _arena_pair()
    try:
        received = arena_roundtrip(msg, arena, receiver)
        assert_messages_equal(msg, received)
        had_data = (
            isinstance(getattr(msg, "block", None), Block)
            and msg.block.data is not None
        )
        if had_data:
            assert arena.stats.recv_mapped == 1
            assert arena.stats.bytes_zero_copy == received.block.data.nbytes
            # the mapped block can never leak borrowed memory into the
            # pool or hand it to a writer
            assert not received.block.data.flags.writeable
            assert received.block.surrender() is False
        del received
        gc.collect()
        assert receiver.live_leases() == 0
        assert arena.outstanding() == 0
        if had_data:
            assert arena.stats.recv_released == 1
    finally:
        receiver.close()
        arena.destroy()


@pytest.mark.mp
def test_arena_steady_state_reuses_its_slabs():
    """A working set cycled through the arena: half the payloads are
    re-sends of resident buffers (zero-copy handoffs), half are fresh
    buffers that need a slot.  After one warm-up round every slot comes
    back through reclamation -- no new slab, no overflow to a one-shot
    segment, and no lease left live on the receiving side."""
    arena, receiver = _arena_pair()
    resident = [Block((512,), np.full(512, float(i))) for i in range(4)]

    def round_trip(round_no: int) -> None:
        fresh = [Block((512,), np.full(512, -float(round_no))) for _ in range(4)]
        for block in resident + fresh:
            ref = arena.place(block, dest=1)
            assert ref is not None
            view = receiver.unpack(ref)
            assert np.array_equal(view.data, block.data)
            del view  # the consumer is done: its finalizer frees the slot

    try:
        round_trip(0)
        gc.collect()
        slabs = arena.stats.slabs_created
        for round_no in range(1, 50):
            round_trip(round_no)
        gc.collect()
        assert arena.stats.slabs_created == slabs
        assert arena.stats.misses == 0
        # every fresh payload took a slot, every resident one a handoff
        assert arena.stats.hits == 4 + 4 * 50
        assert arena.stats.handoffs == 4 * 49
        assert receiver.live_leases() == 0
        assert arena.outstanding() == 0
    finally:
        receiver.close()
        arena.destroy()


@pytest.mark.mp
def test_arena_resend_is_zero_copy_handoff():
    """Re-sending an unmodified block to another rank copies nothing."""
    arena, receiver = _arena_pair()
    try:
        data = np.arange(64, dtype=np.float64).reshape(8, 8)
        block = Block((8, 8), data)
        ref1 = arena.place(block, dest=1)
        ref2 = arena.place(block, dest=2)
        assert ref1 is not None and ref2 is not None
        assert (ref1.name, ref1.data_off) == (ref2.name, ref2.data_off)
        assert arena.stats.hits == 1
        assert arena.stats.handoffs == 1
        assert arena.stats.handoff_bytes == data.nbytes
    finally:
        receiver.close()
        arena.destroy()


@pytest.mark.mp
def test_arena_pins_content_against_sender_writes():
    """A send snapshots the block: the sender's next in-place write must
    copy out (COW), leaving the receiver's mapped view untouched."""
    arena, receiver = _arena_pair()
    try:
        block = Block((4, 4), np.full((4, 4), 7.0))
        ref = arena.place(block, dest=1)
        block.ensure_writable()
        block.data[...] = -1.0
        out = receiver.unpack(ref)
        assert np.array_equal(out.data, np.full((4, 4), 7.0))
        # the write detached the sender from the pinned buffer, so the
        # residency can no longer serve handoffs for the new contents
        ref2 = arena.place(block, dest=2)
        out2 = receiver.unpack(ref2)
        assert np.array_equal(out2.data, np.full((4, 4), -1.0))
        del out, out2
        gc.collect()
    finally:
        receiver.close()
        arena.destroy()


@pytest.mark.mp
def test_arena_oversize_payload_misses():
    """Payloads larger than one slab overflow to the one-shot path."""
    arena, receiver = _arena_pair()
    try:
        big = Block((1 << 14,), np.zeros(1 << 14))  # 128 KiB > 64 KiB slab
        assert arena.place(big, dest=1) is None
        assert arena.stats.misses == 1
    finally:
        receiver.close()
        arena.destroy()


# -- traffic accounting ------------------------------------------------------


@pytest.mark.mp
def test_message_nbytes_counts_detoured_block_bytes():
    """A detoured message is accounted at its block bytes, never at the
    size of the stub riding the pipe (regression: _ShmRef had no
    ``nbytes`` and broke / undercounted traffic stats)."""
    block = Block((4, 4), np.ones((4, 4)))
    msg = BlockReply(block_id=BlockId(0, (0, 0)), block=block)
    full = message_nbytes(msg)
    assert full is not None and full > block.data.nbytes

    packed = pack_payload(msg, 0, _namer, ShmStats())
    assert not isinstance(packed.block, Block)
    assert message_nbytes(packed) == full
    unpack_payload(packed, ShmStats())  # unlink the one-shot segment

    arena, receiver = _arena_pair()
    try:
        ref = arena.place(block, dest=1)
        assert message_nbytes(dataclasses.replace(msg, block=ref)) == full
    finally:
        receiver.close()
        arena.destroy()


# -- world re-creation (checkpoint-restart chaining) -------------------------


@pytest.mark.mp
def test_recreated_world_shm_names_disjoint():
    """Two MPWorlds for the same (run, rank) -- e.g. checkpoint-restart
    chaining inside one process -- must never collide on segment names,
    one-shot or slab alike."""
    from repro.simmpi import Simulator
    from repro.sip.mptransport import MPWorld

    w1 = MPWorld(Simulator(), 2, 1, {}, "deadbeef")
    w2 = MPWorld(Simulator(), 2, 1, {}, "deadbeef")
    try:
        assert w1.epoch != w2.epoch
        names1 = {w1._shm_name() for _ in range(8)}
        names2 = {w2._shm_name() for _ in range(8)}
        assert not names1 & names2
        slabs1 = {w1.arena._slab_name(256) for _ in range(4)}
        slabs2 = {w2.arena._slab_name(256) for _ in range(4)}
        assert not slabs1 & slabs2
    finally:
        for world in (w1, w2):
            world.arena.destroy()
            world.close()
