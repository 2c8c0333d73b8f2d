"""Property-based tests (hypothesis) for SIP core data structures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import CostModel
from repro.machines import LAPTOP
from repro.sip.backend import KernelOperand, RealBackend
from repro.sip.blocks import Block, BlockId
from repro.sip.memman import MemoryManager
from repro.sip.memory import OutOfBlockMemory
from repro.sip.scheduler import GuidedScheduler, StaticScheduler

backend = RealBackend(CostModel(LAPTOP))


# ---------------------------------------------------------------------------
# kernels vs numpy
# ---------------------------------------------------------------------------
@st.composite
def contraction_case(draw):
    """Random contraction: operand index sets with controlled overlap."""
    n_total = draw(st.integers(min_value=2, max_value=6))
    ids = list(range(n_total))
    a_len = draw(st.integers(min_value=1, max_value=n_total - 1))
    a_ids = ids[:a_len]
    n_shared = draw(st.integers(min_value=0, max_value=a_len))
    b_rest = ids[a_len:]
    b_ids = a_ids[:n_shared] + b_rest
    if not b_ids:
        b_ids = [ids[0]]
    b_perm = draw(st.permutations(b_ids))
    out_ids = sorted(set(a_ids).symmetric_difference(set(b_perm)))
    if not out_ids:
        out_ids = []  # full contraction handled separately
    out_perm = draw(st.permutations(out_ids)) if out_ids else []
    dims = {i: draw(st.integers(min_value=1, max_value=3)) for i in ids}
    return a_ids, list(b_perm), list(out_perm), dims


@given(contraction_case(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_contraction_matches_einsum(case, seed):
    a_ids, b_ids, out_ids, dims = case
    if not out_ids:
        return  # scalar case covered below
    rng = np.random.default_rng(seed)
    a_data = rng.standard_normal([dims[i] for i in a_ids])
    b_data = rng.standard_normal([dims[i] for i in b_ids])
    out_shape = tuple(dims[i] for i in out_ids)
    a = KernelOperand(shape=a_data.shape, index_ids=tuple(a_ids), data=a_data)
    b = KernelOperand(shape=b_data.shape, index_ids=tuple(b_ids), data=b_data)
    out = KernelOperand(
        shape=out_shape, index_ids=tuple(out_ids), data=np.zeros(out_shape)
    )
    backend.contract(out, "=", a, b)

    letters = {i: chr(ord("a") + i) for i in dims}
    spec = (
        "".join(letters[i] for i in a_ids)
        + ","
        + "".join(letters[i] for i in b_ids)
        + "->"
        + "".join(letters[i] for i in out_ids)
    )
    ref = np.einsum(spec, a_data, b_data)
    assert np.allclose(out.data, ref, atol=1e-10)


@given(
    st.permutations(list(range(4))),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_copy_is_transpose(perm, seed):
    rng = np.random.default_rng(seed)
    shape = (2, 3, 4, 5)
    src_data = rng.standard_normal(shape)
    src = KernelOperand(shape=shape, index_ids=(0, 1, 2, 3), data=src_data)
    dst_shape = tuple(shape[p] for p in perm)
    dst = KernelOperand(
        shape=dst_shape,
        index_ids=tuple(perm),
        data=np.zeros(dst_shape),
    )
    backend.copy(dst, src)
    assert np.array_equal(dst.data, src_data.transpose(perm))


@given(
    st.permutations(list(range(3))),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_copy_roundtrip_identity(perm, seed):
    """permute there and back == identity."""
    rng = np.random.default_rng(seed)
    shape = (3, 4, 5)
    original = rng.standard_normal(shape)
    src = KernelOperand(shape=shape, index_ids=(0, 1, 2), data=original.copy())
    mid_shape = tuple(shape[p] for p in perm)
    mid = KernelOperand(
        shape=mid_shape, index_ids=tuple(perm), data=np.zeros(mid_shape)
    )
    backend.copy(mid, src)
    back = KernelOperand(shape=shape, index_ids=(0, 1, 2), data=np.zeros(shape))
    backend.copy(back, mid)
    assert np.array_equal(back.data, original)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_scalar_contract_commutative(seed):
    rng = np.random.default_rng(seed)
    a_data = rng.standard_normal((3, 4))
    b_data = rng.standard_normal((4, 3))
    a = KernelOperand(shape=(3, 4), index_ids=(0, 1), data=a_data)
    b = KernelOperand(shape=(4, 3), index_ids=(1, 0), data=b_data)
    v1, _ = backend.scalar_contract(a, b)
    v2, _ = backend.scalar_contract(b, a)
    assert v1 == pytest.approx(v2, rel=1e-12)


# ---------------------------------------------------------------------------
# block pool
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["alloc", "free"]),
            st.integers(min_value=1, max_value=8),
        ),
        max_size=60,
    )
)
@settings(max_examples=50, deadline=None)
def test_pool_accounting_invariants(ops):
    mm = MemoryManager(10_000, real=True)  # no scratch: the budget is exact
    pool = mm.pool
    live: list = []
    expected = 0
    for op, size in ops:
        if op == "alloc":
            nbytes = size * size * 8
            try:
                block = mm.allocate((size, size))
            except OutOfBlockMemory:
                assert expected + nbytes > 10_000
                continue
            live.append(block)
            expected += nbytes
        elif live:
            block = live.pop()
            expected -= block.nbytes
            mm.free(None, block)
        assert pool.stats.bytes_in_use == expected
        assert pool.stats.bytes_in_use <= 10_000
        assert pool.stats.peak_bytes >= pool.stats.bytes_in_use
    assert pool.stats.blocks_in_use == len(live)


# ---------------------------------------------------------------------------
# LRU cache
# ---------------------------------------------------------------------------
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=0, max_value=20), max_size=80),
)
@settings(max_examples=50, deadline=None)
def test_cache_never_exceeds_capacity_and_serves_recent(capacity, keys):
    # a cache's capacity is the bytes its rank budget holds (8 B entries)
    cache = MemoryManager(capacity * 8, real=False, nbytes_of=lambda bid: 8).cache
    for k in keys:
        cache.insert_ready(BlockId(0, (k,)), Block((1,), None))
        assert len(cache) <= capacity
    # the most recently inserted key is always resident
    if keys:
        assert BlockId(0, (keys[-1],)) in cache


# ---------------------------------------------------------------------------
# schedulers
# ---------------------------------------------------------------------------
@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_guided_covers_every_iteration_once(n_iter, workers, factor):
    iters = [(i,) for i in range(n_iter)]
    sched = GuidedScheduler(iters, workers, chunk_factor=factor)
    seen = []
    sizes = []
    while not sched.done:
        chunk = sched.next_chunk()
        assert chunk
        sizes.append(len(chunk))
        seen.extend(chunk)
    assert seen == iters
    assert sizes == sorted(sizes, reverse=True)


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=64),
)
@settings(max_examples=60, deadline=None)
def test_static_covers_every_iteration_once(n_iter, workers):
    iters = [(i,) for i in range(n_iter)]
    sched = StaticScheduler(iters, workers)
    seen = []
    for w in range(workers):
        seen.extend(sched.next_chunk_for(w))
    assert seen == iters
