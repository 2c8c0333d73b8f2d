"""Property tests for the two primitives the hot path was rebuilt on.

* :class:`BlockId` is a tuple underneath: its equality, hash and
  pickling must agree with ``(array_id, coords)`` everywhere a block id
  is used as a key or crosses a pipe.
* :meth:`DecodedOperand.resolve` builds its memo key with a C-level
  getter; it must return exactly what the reference path
  ``_resolve(tuple(index_values.get(uid) ...))`` returns -- or raise the
  same :class:`SIPError` -- for every binding, with and without memo.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sial.bytecode import ArrayDesc, BlockOperand, CompiledProgram, IndexDesc
from repro.sip.blocks import Block, BlockId, ResolvedIndexTable
from repro.sip.cache import BlockCache
from repro.sip.config import SIPError
from repro.sip.decode import DecodedOperand
from repro.sip.distributed import ReplicaMap
from repro.sip.messages import GetBlock
from repro.sip.mptransport import decode_batch, encode_batch

coords_st = st.lists(st.integers(min_value=0, max_value=40), max_size=6).map(tuple)
block_ids = st.builds(BlockId, st.integers(min_value=0, max_value=30), coords_st)


# ---------------------------------------------------------------------------
# BlockId
# ---------------------------------------------------------------------------
@given(block_ids, block_ids)
def test_blockid_equality_and_hash_agree_with_its_fields(a, b):
    same = (a.array_id, a.coords) == (b.array_id, b.coords)
    assert (a == b) is same
    assert (a != b) is (not same)
    assert hash(a) == hash((a.array_id, a.coords))
    if same:
        assert hash(a) == hash(b)
    twin = BlockId(a.array_id, tuple(a.coords))
    assert twin == a and twin is not a and len({a, twin}) == 1


@given(block_ids)
def test_blockid_survives_pickle_and_mp_frames(bid):
    for protocol in range(2, 6):
        back = pickle.loads(pickle.dumps(bid, protocol=protocol))
        assert type(back) is BlockId
        assert back == bid and hash(back) == hash(bid)
        assert (back.array_id, back.coords) == (bid.array_id, bid.coords)
    raws = [(1, 7, 256, GetBlock(bid, 1001, 0, 3))]
    ((source, tag, nbytes, payload),) = decode_batch(encode_batch(raws))
    assert (source, tag, nbytes) == (1, 7, 256)
    assert type(payload.block_id) is BlockId and payload == raws[0][3]


@given(st.lists(block_ids, min_size=1, max_size=12, unique=True))
def test_blockid_keys_cache_and_replica_map(bids):
    cache = BlockCache()
    replicas = ReplicaMap(history=2)
    for n, bid in enumerate(bids):
        cache.insert_ready(bid, Block((n + 1,)))
        replicas.note(bid, n % 3)
    for n, bid in enumerate(bids):
        twin = BlockId(bid.array_id, tuple(bid.coords))  # equal, not identical
        assert twin in cache
        assert cache.lookup(twin).block.shape == (n + 1,)
        assert replicas.holders(twin) == (n % 3,)
    assert BlockId(99, (0,)) not in cache
    cache.remove(BlockId(bids[0].array_id, bids[0].coords))
    assert bids[0] not in cache and len(cache) == len(bids) - 1


# ---------------------------------------------------------------------------
# DecodedOperand.resolve vs the reference path
# ---------------------------------------------------------------------------
def _num(x):
    return (("num", float(x)),)


#: 0 M(ao 1..10)  1 N(ao 1..7)  2 MM(sub of M)  3 I(mo 1..5)  4 it(simple 1..4)
INDEX_TABLE = [
    IndexDesc("M", "ao", _num(1), _num(10)),
    IndexDesc("N", "ao", _num(1), _num(7)),
    IndexDesc("MM", "ao", _num(1), _num(10), super_id=0),
    IndexDesc("I", "mo", _num(1), _num(5)),
    IndexDesc("it", "simple", _num(1), _num(4)),
]
DIM_INDICES = (0, 1, 3)  # what an array dimension may be declared over


@st.composite
def operand_case(draw):
    rank = draw(st.integers(0, 4))
    dims = tuple(draw(st.sampled_from(DIM_INDICES)) for _ in range(rank))
    # the index *used* on each dimension: often the declared one, else
    # anything (a subindex on a full dimension, a mismatched partition)
    uids = tuple(
        draw(
            st.one_of(
                st.just(d),
                st.just(2 if d == 0 else d),  # MM slicing an M dimension
                st.sampled_from(range(len(INDEX_TABLE))),
            )
        )
        for d in dims
    )
    kind = draw(st.sampled_from(("temp", "distributed", "served")))
    # mostly small (valid) segment numbers so whole-block and sliced
    # resolutions are common; 0 and 9 are out of range for every index
    # and None leaves the index unbound
    value = st.one_of(st.integers(1, 2), st.integers(1, 2), st.integers(0, 9), st.none())
    drawn = {i: draw(value) for i in range(len(INDEX_TABLE))}
    bound = {i: v for i, v in drawn.items() if v is not None}
    return dims, uids, kind, bound


def _outcome(fn):
    """The resolution, or (error type, text).  A mismatched partition
    the analyzer would have rejected surfaces as IndexError from the
    segment lookup on both paths alike."""
    try:
        return fn()
    except (SIPError, IndexError) as err:
        return (type(err).__name__, str(err))


@given(operand_case())
@settings(max_examples=300, deadline=None)
def test_resolve_matches_reference_path(case):
    dims, uids, kind, bound = case
    program = CompiledProgram(
        name="t",
        instructions=[],
        index_table=INDEX_TABLE,
        array_table=[ArrayDesc("A", kind, dims)],
        scalar_table=[],
        symbolic_table=[],
    )
    table = ResolvedIndexTable(program, {}, segment_size=4, subsegments_per_segment=2)
    operand = DecodedOperand(
        BlockOperand(0, uids), program.array_table[0], table, owner_of=lambda bid: 1
    )
    reference = _outcome(lambda: operand._resolve(tuple(bound.get(u) for u in uids)))

    first = _outcome(lambda: operand.resolve(bound))
    again = _outcome(lambda: operand.resolve(bound))
    assert first == reference and again == reference
    if not isinstance(reference, tuple):
        assert again is first  # the second call is the memo hit
        assert first.is_local is (kind == "temp")
        assert first.owner_rank == (None if kind == "temp" else 1)


def test_subindex_on_a_full_dimension_resolves_to_a_slice():
    program = CompiledProgram(
        "t", [], INDEX_TABLE, [ArrayDesc("A", "temp", (0, 1))], [], []
    )
    table = ResolvedIndexTable(program, {}, segment_size=4, subsegments_per_segment=2)
    operand = DecodedOperand(BlockOperand(0, (2, 1)), program.array_table[0], table)
    r = operand.resolve({2: 4, 1: 2})  # subsegment 4 of M = second half of segment 2
    assert r == operand._resolve((4, 2))
    assert r.block_id == BlockId(0, (2, 2))
    assert r.slices == (slice(2, 4), slice(0, 3)) and r.shape == (2, 3)
    assert r.element_ranges == ((6, 8), (4, 7))


def test_unbound_and_out_of_range_messages_are_the_documented_ones():
    program = CompiledProgram(
        "t", [], INDEX_TABLE, [ArrayDesc("A", "temp", (0, 1))], [], []
    )
    table = ResolvedIndexTable(program, {}, segment_size=4)
    operand = DecodedOperand(BlockOperand(0, (0, 1)), program.array_table[0], table)
    for _ in range(2):  # errors are never memoised: both rounds recompute
        with pytest.raises(SIPError, match=r"index 'N' has no value here \(array 'A'\)"):
            operand.resolve({0: 1})
        with pytest.raises(SIPError, match=r"segment 9 of index 'M' is outside"):
            operand.resolve({0: 9, 1: 1})
