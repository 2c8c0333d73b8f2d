"""The shared-memory gather codec: pack -> pickled manifest -> map.

No fork here: a test plays both the child (``pack``) and the parent
(``unpack``) and the manifest crosses a ``pickle`` round trip exactly as
it crosses the result pipe.  The properties are the ones the mp backend
relies on: every array comes back bitwise equal with its dtype and both
shapes, gathered arrays are ordinary writable ndarrays whose writes stay
private, the segment's name is gone as soon as it is mapped, and the
mapping itself goes when the last array over it does.
"""

import gc
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sip import gather
from repro.sip.blocks import Block, BlockId

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shared memory is not a directory here"
)


def segment_name() -> str:
    # under the runtime's prefix, so the mp leak sweep would see a stray
    return f"rmp{os.getpid():x}{os.urandom(3).hex()}r0g"


def round_trip(tree, name=None):
    name = name or segment_name()
    manifest = pickle.loads(pickle.dumps(gather.pack(tree, name), protocol=5))
    return gather.unpack(*manifest), manifest


def mapped_lines() -> int:
    with open("/proc/self/maps") as f:
        return sum("rmp" in line for line in f)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def footprint() -> tuple[int, int]:
    gc.collect()  # earlier tests' garbage may still hold a mapping
    return mapped_lines(), open_fds()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


_special = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.25e30])
_dtypes = st.sampled_from([np.float64, np.float32])


@st.composite
def arrays(draw):
    """C-contiguous, strided, sliced and zero-size payloads."""
    dtype = draw(_dtypes)
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=5))
    base = draw(
        hnp.arrays(dtype, shape, elements=st.one_of(_special, st.floats(-1e6, 1e6, width=32)))
    )
    view = draw(st.sampled_from(["whole", "transposed", "strided", "sliced"]))
    if view == "transposed":
        return base.T
    if view == "strided":
        return base[::2]
    if view == "sliced":
        return base[..., 1:]
    return base


@st.composite
def blocks(draw):
    if draw(st.integers(0, 4)) == 0:  # model mode: shape + dtype, no data
        shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
        return Block(shape, None, dtype=np.dtype(draw(_dtypes)))
    data = draw(arrays())
    return Block(tuple(data.shape), data)


_coords = st.tuples(st.integers(1, 9), st.integers(1, 9))
_block_dicts = st.dictionaries(
    st.builds(BlockId, st.integers(0, 5), _coords), blocks(), max_size=6
)
#: shaped like mprunner's store_delta: {name: {coords: ndarray | shape}}
#: plus the checkpoint scalars and sequence number
_store_deltas = st.fixed_dictionaries(
    {},
    optional={
        "t2": st.dictionaries(
            _coords,
            st.one_of(arrays(), st.tuples(st.integers(1, 4), st.integers(1, 4))),
            max_size=4,
        ),
        "__scalars__": st.lists(st.floats(allow_nan=False), max_size=3),
        "__checkpoint_seq__": st.integers(0, 9),
    },
)
_trees = st.fixed_dictionaries(
    {
        "owned": _block_dicts,
        "local_blocks": _block_dicts,
        "served": st.dictionaries(
            st.integers(0, 3), st.dictionaries(_coords, blocks(), max_size=3), max_size=2
        ),
        "store_delta": _store_deltas,
    }
)


def assert_same_tree(sent, got):
    assert type(sent) is type(got) or isinstance(sent, np.ndarray)
    if isinstance(sent, dict):
        assert list(sent) == list(got)  # keys and their order
        for key in sent:
            assert_same_tree(sent[key], got[key])
    elif isinstance(sent, Block):
        assert got.shape == sent.shape and got.dtype == sent.dtype
        assert got._shared is None
        if sent.data is None:
            assert got.data is None
        else:
            assert same_bits(sent.data, got.data)
    elif isinstance(sent, np.ndarray):
        assert isinstance(got, np.ndarray) and same_bits(sent, got)
    else:
        assert sent == got


@settings(max_examples=150, deadline=None)
@given(tree=_trees)
def test_round_trip_is_bitwise_and_keeps_dtype_and_both_shapes(tree):
    got, (_stripped, name, _size) = round_trip(tree)
    assert_same_tree(tree, got)
    assert not os.path.exists(f"/dev/shm/{name}")  # unlinked as it was mapped


def test_empty_and_dataless_trees_create_no_segment():
    name = segment_name()
    model = Block((2, 3), None, dtype=np.dtype(np.float32))
    empty = Block((0, 3), np.empty((0, 3)))
    for tree in ({}, {"owned": {}}, {"owned": {BlockId(0, (1,)): model, BlockId(0, (2,)): empty}}):
        manifest, _, size = gather.pack(tree, name)
        assert size == 0
        assert not os.path.exists(f"/dev/shm/{name}")
        assert_same_tree(tree, gather.unpack(manifest, name, size))


def test_only_the_manifest_is_pickled():
    big = np.arange(1 << 16, dtype=np.float64)  # 512 KiB
    tree = {"owned": {BlockId(0, (i,)): Block(big.shape, big + i) for i in range(4)}}
    name = segment_name()
    packed = gather.pack(tree, name)
    assert packed[2] >= 4 * big.nbytes
    assert len(pickle.dumps(packed, protocol=5)) < 1024
    got = gather.unpack(*packed)
    assert_same_tree(tree, got)


def test_gathered_arrays_are_writable_and_writes_stay_private():
    """ACCESS_COPY: a write lands on the writer's own page and never in
    the segment, so a second mapping of the same bytes does not see it."""
    data = np.arange(4096, dtype=np.float64).reshape(64, 64)
    name = segment_name()
    manifest = gather.pack({"owned": {BlockId(1, (1, 1)): Block((64, 64), data)}}, name)
    fd = os.open(f"/dev/shm/{name}", os.O_RDONLY)  # keeps the bytes reachable
    try:
        first = gather.unpack(*manifest)["owned"][BlockId(1, (1, 1))].data
        assert first.flags.writeable and first.flags.c_contiguous
        first += 1.0
        first[0, 0] = np.nan
        with open(fd, "rb", closefd=False) as f:
            second = np.frombuffer(f.read(data.nbytes), dtype=np.float64).reshape(64, 64)
        assert same_bits(second, data)
        assert same_bits(first[1:], data[1:] + 1.0)
    finally:
        os.close(fd)


def test_views_own_the_mapping():
    """No handle to close: the mapping lives exactly as long as any
    array over it, however the arrays are passed around."""
    base = footprint()
    data = np.ones((256, 256))
    got, _ = round_trip({"owned": {BlockId(0, (1,)): Block(data.shape, data)}, "x": data})
    assert mapped_lines() > base[0]
    keep = got["owned"][BlockId(0, (1,))].data[3:5]  # a view of a view
    del got
    assert footprint()[0] > base[0] and np.all(keep == 1.0)
    del keep
    assert footprint() == base


def test_two_hundred_round_trips_leave_maps_and_fds_flat():
    rng = np.random.default_rng(0)
    base = footprint()
    for i in range(200):
        tree = {
            "owned": {
                BlockId(0, (i, j)): Block((8, 8), rng.standard_normal((8, 8)))
                for j in range(4)
            },
            "store_delta": {"t": {(i,): rng.standard_normal(16)}},
        }
        got, _ = round_trip(tree)
        assert_same_tree(tree, got)
    del got, tree
    assert footprint() == base
    assert not [n for n in os.listdir("/dev/shm") if n.startswith(f"rmp{os.getpid():x}")]


def test_unpack_unlinks_the_name_even_when_mapping_fails():
    name = segment_name()
    manifest, _, size = gather.pack({"x": np.ones(64)}, name)
    with pytest.raises(ValueError):
        gather.unpack(manifest, name, size + (1 << 20))  # longer than the file
    assert not os.path.exists(f"/dev/shm/{name}")
    with pytest.raises(FileNotFoundError):
        gather.unpack(manifest, name, size)
