"""Integration tests for the unified memory hierarchy under pressure.

A spill-enabled run constrained to half of its unconstrained resident
peak must still complete, produce bitwise-identical results, and report
nonzero victim-cascade activity -- the paper's "very large arrays"
story: the computation degrades to scratch-disk traffic, never to a
wrong answer.  Static pardo scheduling keeps chunk assignment (and so
block placement) identical between the two runs; only timing differs.

Degrading gracefully also means degrading *little*: the victim cascade
takes the least recently used bytes on the rank, so the replicas the
running iteration just fetched survive an allocation and the cache keeps
hiding latency (the thrash guard at the end of this file).
"""

import numpy as np
import pytest

from repro.programs import run_ao2mo, run_ccsd, run_fock_build, run_lccd, run_mp2
from repro.simmpi.faults import FaultPlan
from repro.sip import SIPConfig
from repro.sip.dryrun import InfeasibleComputation

DRIVERS = {
    "mp2_energy": lambda cfg: run_mp2(n_basis=10, n_occ=4, config=cfg),
    "ao2mo_transform": lambda cfg: run_ao2mo(n_basis=6, config=cfg),
    "fock_build": lambda cfg: run_fock_build(n_basis=8, n_occ=3, config=cfg),
}


def config(budget=None, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("io_servers", 1)
    kw.setdefault("segment_size", 2)
    kw.setdefault("scheduling", "static")
    kw.setdefault("spill", True)
    if budget is not None:
        kw["memory_per_worker"] = float(budget)
    return SIPConfig(**kw)


def constrained_budget(base):
    """Half the observed resident peak, but never below the dry-run floor."""
    peak = base.result.stats["mem_peak_bytes"]
    floor = base.result.dry_run.pinned_floor_bytes
    return max(floor, peak // 2)


def assert_within_budget(stats):
    """Nothing -- not even the scattered inputs -- may exceed the budget."""
    assert 0 < stats["mem_peak_bytes"] <= stats["mem_budget_bytes"], stats


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_constrained_run_is_bitwise_identical(name):
    driver = DRIVERS[name]
    base = driver(config())
    assert base.error < 1e-10
    assert base.result.stats["mem_spills"] == 0  # unconstrained: no pressure

    out = driver(config(budget=constrained_budget(base)))
    assert out.error < 1e-10
    assert np.array_equal(np.asarray(out.value), np.asarray(base.value))
    stats = out.result.stats
    assert stats["mem_cascades"] > 0, stats
    assert stats["mem_spills"] > 0, stats
    assert stats["mem_faults_in"] > 0, stats
    assert_within_budget(stats)
    # pressure costs simulated time: the constrained run cannot be faster
    assert out.result.elapsed >= base.result.elapsed


def test_prefetch_restores_loop_index_when_cache_fills():
    """Regression test for a prefetch/pressure interaction.

    ``_prefetch_future`` pokes future loop-index values into the live
    binding table while issuing speculative gets.  When the cache filled
    mid-prefetch it bailed out early *without restoring the saved
    value*, so the running iteration silently contracted with a future
    L -- wrong answers that only appeared once memory pressure made the
    cache-full path common.  The constrained run below spills owned
    blocks and exercises that path on every rank.
    """
    from repro.sip.runner import run_source

    src = """
sial t
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
aoindex L = 1, nb
distributed A(M, L)
distributed B(L, N)
distributed C(M, N)
temp TC(M, N)

pardo M, N
  TC(M, N) = 0.0
  do L
    get A(M, L)
    get B(L, N)
    TC(M, N) += A(M, L) * B(L, N)
  enddo L
  put C(M, N) = TC(M, N)
endpardo M, N
endsial t
"""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))

    def run(budget=None):
        return run_source(
            src, config(budget=budget, inputs={"A": a, "B": b}), symbolics={"nb": 8}
        )

    base = run()
    floor = base.dry_run.pinned_floor_bytes
    out = run(budget=max(floor, base.stats["mem_peak_bytes"] // 2))
    assert out.stats["mem_spills"] > 0
    assert_within_budget(out.stats)
    np.testing.assert_allclose(out.array("C"), a @ b)
    assert np.array_equal(out.array("C"), base.array("C"))


def test_budget_below_pinned_floor_is_rejected_up_front():
    base = run_mp2(n_basis=10, n_occ=4, config=config())
    floor = base.result.dry_run.pinned_floor_bytes
    with pytest.raises(InfeasibleComputation, match="pinned-only floor"):
        run_mp2(n_basis=10, n_occ=4, config=config(budget=floor // 2))


def test_spill_survives_injected_scratch_faults():
    base = run_mp2(n_basis=10, n_occ=4, config=config())
    budget = constrained_budget(base)
    plan = FaultPlan(seed=11, disk_write_error_rate=0.05, disk_read_error_rate=0.05)
    out = run_mp2(
        n_basis=10, n_occ=4, config=config(budget=budget, faults=plan)
    )
    assert out.error < 1e-10
    assert np.array_equal(np.asarray(out.value), np.asarray(base.value))
    stats = out.result.stats
    assert stats["mem_spills"] > 0
    assert_within_budget(stats)
    # with 5% error rates over hundreds of scratch ops, retries happen
    assert stats["mem_spill_retries"] > 0, stats


def test_profile_and_trace_report_pressure():
    from repro.sip.tracing import TraceRecorder

    base = run_mp2(n_basis=10, n_occ=4, config=config())
    tracer = TraceRecorder()
    out = run_mp2(
        n_basis=10,
        n_occ=4,
        config=config(budget=constrained_budget(base), tracer=tracer),
    )
    assert_within_budget(out.result.stats)
    assert "memory pressure" in out.result.profile.report()
    assert tracer.mem_events
    assert "memory pressure actions" in tracer.report()
    assert "memory_pressure" in tracer.summary


def test_float32_run_is_dtype_aware_end_to_end():
    cfg64 = config()
    base = run_mp2(n_basis=8, n_occ=3, config=cfg64)
    cfg32 = config(dtype="float32")
    out = run_mp2(n_basis=8, n_occ=3, config=cfg32)
    # single precision tracks the double-precision answer loosely
    assert abs(float(out.value) - float(base.value)) < 1e-4
    # and every byte-denominated stat shrinks accordingly
    assert out.result.dry_run.per_worker_bytes * 2 == base.result.dry_run.per_worker_bytes
    assert out.result.stats["mem_peak_bytes"] < base.result.stats["mem_peak_bytes"]


def hit_rate(stats):
    return stats["cache_hits"] / (stats["cache_hits"] + stats["cache_misses"])


@pytest.mark.parametrize(
    "driver,max_messages",
    [
        (lambda cfg: run_ccsd(n_basis=4, n_occ=2, iterations=1, config=cfg), 3500),
        (lambda cfg: run_lccd(n_basis=6, n_occ=2, iterations=2, config=cfg), None),
    ],
    ids=["ccsd", "lccd"],
)
def test_pressure_does_not_thrash_the_block_cache(driver, max_messages):
    """Thrash guard.  Under pressure memory is always full, so a cascade
    that prefers replicas evicts, on every temp allocation, the block
    the running iteration fetched microseconds ago: the two-stage
    cascade this replaces kept 0.20x (CCSD) and 0.10x (LCCD) of the
    unconstrained hit rate and sent CCSD's 1 095 messages 4 313 times
    over.  Recency keeps them near 0.8x / 0.9x and 2 800 messages."""
    base = driver(config())
    out = driver(config(budget=constrained_budget(base)))
    assert np.array_equal(np.asarray(out.value), np.asarray(base.value))
    stats = out.result.stats
    assert stats["mem_spills"] > 0, stats
    assert_within_budget(stats)
    assert hit_rate(stats) >= 0.6 * hit_rate(base.result.stats), (
        hit_rate(stats),
        hit_rate(base.result.stats),
    )
    if max_messages is not None:
        assert stats["messages_sent"] < max_messages, stats
