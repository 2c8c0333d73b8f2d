"""Property tests for the compiled contraction plans.

Every plan -- GEMM-lowered or einsum-path -- must produce results
**bitwise identical** to the legacy ``np.einsum(..., optimize=True)``
call it replaces, across permuted layouts, repeated (diagonal)
indices, reductions, and operand slices.
"""

import numpy as np
import pytest

from repro.sip.plans import (
    KernelPlanCache,
    einsum_subscripts,
    perm,
)
from repro.sip.plans import _EinsumPlan, _GemmPlan  # type: ignore


def legacy(a_ids, a, b_ids, b, out_ids, out_shape, op="=", seed_dst=None):
    """What the pre-plan backend computed."""
    sub = einsum_subscripts(a_ids, b_ids, out_ids)
    res = np.einsum(sub, a, b, optimize=True)
    dst = np.zeros(out_shape) if seed_dst is None else seed_dst.copy()
    if op == "=":
        dst[...] = res
    elif op == "+=":
        dst[...] += res
    else:
        dst[...] -= res
    return dst


def run_plan(cache, a_ids, a, b_ids, b, out_ids, out_shape, op="=", seed_dst=None):
    plan = cache.contraction(a_ids, a.shape, b_ids, b.shape, out_ids)
    assert plan.out_shape == tuple(out_shape)  # derived from the operands
    dst = np.zeros(out_shape) if seed_dst is None else seed_dst.copy()
    plan.execute(a, b, dst, op)
    return plan, dst


# (a_ids, a_shape, b_ids, b_shape, out_ids, out_shape) covering the
# paper's contraction shapes: matmul, 4-index ladders, permuted
# layouts, full reductions, diagonals, and outer products
CASES = [
    # plain matmul
    ((0, 1), (4, 5), (1, 2), (5, 3), (0, 2), (4, 3)),
    # permuted output layout
    ((0, 1), (4, 5), (1, 2), (5, 3), (2, 0), (3, 4)),
    # 4-index ladder contraction (paper Section IV-D)
    ((0, 1, 2, 3), (3, 4, 2, 5), (2, 3, 4, 5), (2, 5, 3, 2), (0, 1, 4, 5), (3, 4, 3, 2)),
    # contraction with permuted operand axes
    ((2, 0, 1), (3, 4, 5), (2, 1), (3, 5), (0, 1), (4, 5)),
    # full contraction to a scalar-like 0-d output
    ((0, 1), (4, 5), (0, 1), (4, 5), (), ()),
    # repeated index within an operand (diagonal) -> einsum plan
    ((0, 0), (4, 4), (0, 1), (4, 3), (1,), (3,)),
    # batch index present everywhere -> einsum plan
    ((0, 1), (4, 5), (0, 1), (4, 5), (0,), (4,)),
    # pure reduction of an operand-only index -> einsum plan
    ((0, 1, 2), (4, 5, 3), (1,), (5,), (0,), (4,)),
    # outer product (no contracted index) -> einsum plan
    ((0,), (4,), (1,), (5,), (0, 1), (4, 5)),
]


@pytest.mark.parametrize("case", CASES, ids=[str(i) for i in range(len(CASES))])
@pytest.mark.parametrize("op", ["=", "+=", "-="])
def test_plans_match_legacy_einsum_bitwise(case, op):
    a_ids, a_shape, b_ids, b_shape, out_ids, out_shape = case
    rng = np.random.default_rng(hash(case) % 2**32)
    a = rng.standard_normal(a_shape)
    b = rng.standard_normal(b_shape)
    seed = rng.standard_normal(out_shape)
    cache = KernelPlanCache()
    _, got = run_plan(cache, a_ids, a, b_ids, b, out_ids, out_shape, op, seed)
    want = legacy(a_ids, a, b_ids, b, out_ids, out_shape, op, seed)
    assert np.array_equal(got, want)


def test_plans_match_on_sliced_noncontiguous_operands():
    """Blocks arrive as views (subindex slices); plans must not assume
    contiguity."""
    rng = np.random.default_rng(7)
    base_a = rng.standard_normal((8, 10))
    base_b = rng.standard_normal((10, 6))
    a = base_a[1:5, 2:9]  # (4, 7) non-contiguous view
    b = base_b[2:9, ::2]  # (7, 3) strided view
    cache = KernelPlanCache()
    _, got = run_plan(cache, (0, 1), a, (1, 2), b, (0, 2), (4, 3))
    want = legacy((0, 1), a, (1, 2), b, (0, 2), (4, 3))
    assert np.array_equal(got, want)


def test_gemm_applies_to_clean_contractions_only():
    cache = KernelPlanCache()
    clean = cache.contraction((0, 1), (4, 5), (1, 2), (5, 3), (0, 2))
    assert isinstance(clean, _GemmPlan)
    diagonal = cache.contraction((0, 0), (4, 4), (0, 1), (4, 3), (1,))
    assert isinstance(diagonal, _EinsumPlan)
    outer = cache.contraction((0,), (4,), (1,), (5,), (0, 1))
    assert isinstance(outer, _EinsumPlan)


def test_plan_reuse_is_bit_identical_and_counted():
    rng = np.random.default_rng(3)
    cache = KernelPlanCache()
    sig = ((0, 1, 2, 3), (3, 4, 2, 5), (2, 3, 4, 5), (2, 5, 3, 2),
           (0, 1, 4, 5), (3, 4, 3, 2))
    a_ids, a_shape, b_ids, b_shape, out_ids, out_shape = sig
    results = []
    for _ in range(3):
        a = rng.standard_normal(a_shape)
        b = rng.standard_normal(b_shape)
        plan, got = run_plan(cache, a_ids, a, b_ids, b, out_ids, out_shape)
        want = legacy(a_ids, a, b_ids, b, out_ids, out_shape)
        assert np.array_equal(got, want)
        results.append(plan)
    assert results[0] is results[1] is results[2]  # one compiled plan
    assert cache.stats.misses == 1
    assert cache.stats.hits == 2
    assert cache.stats.hit_rate == pytest.approx(2 / 3)


def test_distinct_shapes_compile_distinct_plans():
    cache = KernelPlanCache()
    cache.contraction((0, 1), (4, 5), (1, 2), (5, 3), (0, 2))
    cache.contraction((0, 1), (2, 5), (1, 2), (5, 3), (0, 2))
    assert cache.stats.misses == 2
    assert cache.stats.gemm_plans == 2


def test_perm_memoized_and_consistent():
    cache = KernelPlanCache()
    p1 = cache.perm((2, 1, 0), (0, 1, 2))
    p2 = cache.perm((2, 1, 0), (0, 1, 2))
    assert p1 == p2 == perm((2, 1, 0), (0, 1, 2)) == (2, 1, 0)
    assert cache.stats.perm_misses == 1
    assert cache.stats.perm_hits == 1


def test_perm_handles_repeated_ids():
    # diagonal block D(M, M): both dst axes carry the same index id
    assert perm((7, 7), (7, 7)) == (0, 1)


def test_perm_mismatch_raises():
    from repro.sip.config import SIPError

    with pytest.raises(SIPError, match="operand index mismatch"):
        perm((0, 1), (0, 2))
