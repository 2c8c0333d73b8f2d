"""End-to-end tests for the execution fast path.

The fast path (compiled kernel plans, pre-decoded instruction stream,
copy-on-write block transport) is the only execution path.  It must
produce bit-identical simulated times, scalars, and array results to
the pre-fast-path execution, which these tests rebuild as a reference
(:func:`_legacy_path`).  They also pin what the fast path surfaces on
the bundled drivers -- plan-cache and copy-on-write statistics, a clean
sanitizer -- and the copy-on-write ``Block`` semantics the transport
layer relies on.
"""

import numpy as np

from repro.costmodel import CostModel
from repro.machines import LAPTOP
from repro.programs import library
from repro.programs.drivers import _default_config, run_ccsd, run_fock_build
from repro.sip import blockio
from repro.sip.backend import KernelOperand, ModelBackend, RealBackend
from repro.sip.blocks import Block
from repro.sip.plans import KernelPlanCache, einsum_subscripts, perm
from repro.sip.runner import run_source


class _PerCallEinsum:
    """The pre-fast-path contraction kernel: ``np.einsum(...,
    optimize=True)``, path search included, on every call."""

    cost = None  # the backend memoises modeled time here, per call

    def __init__(self, a_ids, a_shape, b_ids, b_shape, out_ids):
        self.subscripts = einsum_subscripts(a_ids, b_ids, out_ids)
        dims = dict(zip(a_ids, a_shape))
        dims.update(zip(b_ids, b_shape))
        self.out_shape = tuple(dims[ix] for ix in out_ids)
        self.contracted_shape = tuple(
            dim for dim, ix in zip(a_shape, a_ids) if ix not in out_ids
        )

    def execute(self, a, b, dst, op):
        res = np.einsum(self.subscripts, a, b, optimize=True)
        if op == "=":
            dst[...] = res
        elif op == "+=":
            dst[...] += res
        else:
            dst[...] -= res


def _legacy_path(monkeypatch):
    """Run the pre-fast-path execution as a reference: no compiled or
    cached contraction plan, no memoized permutation, and every block
    put on the wire is an eager deep copy instead of a copy-on-write
    share."""
    monkeypatch.setattr(
        KernelPlanCache, "contraction", lambda self, *sig: _PerCallEinsum(*sig)
    )
    monkeypatch.setattr(KernelPlanCache, "perm", lambda self, dst, src: perm(dst, src))
    monkeypatch.setattr(
        blockio, "snapshot_for_transport", lambda block, stats=None: block.copy()
    )


def _assert_outcomes_identical(slow, fast):
    assert slow.result.elapsed == fast.result.elapsed
    assert slow.result.scalars == fast.result.scalars
    assert np.array_equal(np.asarray(slow.value), np.asarray(fast.value))


def test_fock_build_fastpath_bit_identical(monkeypatch):
    fast = run_fock_build(config=_default_config())
    with monkeypatch.context() as m:
        _legacy_path(m)
        slow = run_fock_build(config=_default_config())
    _assert_outcomes_identical(slow, fast)


def test_ccsd_fastpath_bit_identical(monkeypatch):
    kw = dict(n_basis=4, n_occ=2, iterations=2)
    fast = run_ccsd(config=_default_config(segment_size=3), **kw)
    with monkeypatch.context() as m:
        _legacy_path(m)
        slow = run_ccsd(config=_default_config(segment_size=3), **kw)
    _assert_outcomes_identical(slow, fast)


def test_legacy_path_reports_no_plan_cache_activity(monkeypatch):
    """The reference really bypasses the fast path, so the comparisons
    above are not a run checked against itself."""
    _legacy_path(monkeypatch)
    out = run_fock_build(config=_default_config())
    stats = out.result.stats
    assert stats["plan_cache_hits"] == 0
    assert stats["plan_cache_misses"] == 0
    assert stats["cow_shared_payloads"] == 0


def test_a_bare_real_backend_compiles_into_its_own_plan_cache():
    first, second = RealBackend(CostModel(LAPTOP)), RealBackend(CostModel(LAPTOP))
    assert isinstance(first.plans, KernelPlanCache)
    assert first.plans is not second.plans
    assert ModelBackend(CostModel(LAPTOP)).plans is None  # executes no kernel

    rng = np.random.default_rng(5)
    a = KernelOperand((4, 5), (0, 1), rng.standard_normal((4, 5)))
    b = KernelOperand((5, 3), (1, 2), rng.standard_normal((5, 3)))
    want = np.einsum("ab,bc->ac", a.data, b.data, optimize=True)
    for _ in range(2):
        dst = KernelOperand((4, 3), (0, 2), np.zeros((4, 3)))
        first.contract(dst, "=", a, b)
        assert np.array_equal(dst.data, want)
    assert (first.plans.stats.misses, first.plans.stats.hits) == (1, 1)
    assert second.plans.stats.misses == 0


def test_a_model_run_compiles_no_plan_and_shares_no_payload():
    """Model blocks carry shapes only: nothing to contract, nothing to
    share -- the fast path's counters stay at zero."""
    config = _default_config(backend="model", inputs={"H": None, "DENS": None})
    result = run_source(library.FOCK_BUILD, config, symbolics={"nb": 8})
    stats = result.stats
    assert stats.get("plan_cache_hits", 0) == stats.get("plan_cache_misses", 0) == 0
    assert stats["cow_shared_payloads"] == 0


def test_fastpath_stats_surface_plan_cache_and_cow():
    out = run_fock_build(config=_default_config())
    stats = out.result.stats
    for key in (
        "plan_cache_hits",
        "plan_cache_misses",
        "plan_cache_hit_rate",
        "plan_cache_gemm",
        "plan_cache_einsum",
        "cow_shared_payloads",
        "cow_bytes_not_copied",
        "cow_copies",
        "cow_bytes_copied",
    ):
        assert key in stats
    attempts = stats["plan_cache_hits"] + stats["plan_cache_misses"]
    assert attempts > 0
    assert stats["plan_cache_misses"] <= attempts


def test_ccsd_plan_cache_hit_rate_is_high():
    def stats(iterations):
        return run_ccsd(
            config=_default_config(segment_size=3),
            n_basis=4,
            n_occ=2,
            iterations=iterations,
        ).result.stats

    one, three = stats(1), stats(3)
    # every signature compiles once in the first sweep, then hits: the
    # later sweeps compile no plan of their own
    assert three["plan_cache_misses"] == one["plan_cache_misses"]
    assert three["plan_cache_hits"] > one["plan_cache_hits"]
    assert three["plan_cache_hit_rate"] > 0.5


def test_sanitized_run_stays_clean_with_cow():
    """COW sharing must not trip the block-access sanitizer."""
    sanitized = run_fock_build(config=_default_config(race_check="report"))
    assert sanitized.result.sanitizer_report.ok
    assert sanitized.result.stats["cow_shared_payloads"] > 0
    plain = run_fock_build(config=_default_config(race_check="raise"))
    _assert_outcomes_identical(plain, sanitized)


# ---------------------------------------------------------------------------
# Block copy-on-write unit semantics
# ---------------------------------------------------------------------------


def test_share_aliases_buffer_until_write():
    orig = Block((2, 3), np.arange(6.0).reshape(2, 3))
    twin = orig.share()
    assert twin.data is orig.data  # zero-copy snapshot
    copied = twin.ensure_writable()
    assert copied == twin.data.nbytes
    assert twin.data is not orig.data
    twin.data[...] = -1.0
    assert orig.data[0, 0] == 0.0  # no aliasing after detach


def test_ensure_writable_is_free_when_exclusive():
    orig = Block((4,), np.ones(4))
    twin = orig.share()
    # original detaches first: twin is then the sole holder
    assert orig.ensure_writable() == orig.data.nbytes
    assert twin.ensure_writable() == 0
    assert orig.ensure_writable() == 0  # already exclusive


def test_share_chain_counts_holders():
    orig = Block((2,), np.zeros(2))
    t1 = orig.share()
    t2 = t1.share()
    assert t1.data is orig.data and t2.data is orig.data
    # three holders: first two detaches copy, the last is exclusive
    assert t1.ensure_writable() > 0
    assert t2.ensure_writable() > 0
    assert orig.ensure_writable() == 0


def test_surrender_guards_buffer_recycling():
    orig = Block((2,), np.zeros(2))
    twin = orig.share()
    assert not orig.surrender()  # twin still references the buffer
    assert twin.surrender()  # last holder out: safe to recycle


def test_model_mode_blocks_share_trivially():
    orig = Block((8, 8), None)
    twin = orig.share()
    assert twin.data is None
    assert twin.ensure_writable() == 0
    assert orig.surrender()
