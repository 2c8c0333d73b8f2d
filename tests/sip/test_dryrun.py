"""Unit tests for the dry-run memory analysis."""

import pytest

from repro.sial.compiler import compile_source
from repro.sip.blocks import ResolvedIndexTable
from repro.sip.config import SIPConfig
from repro.sip.dryrun import dry_run
from repro.sip.memory import BlockPool
from repro.sip.runner import run_source

DECLS = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
static S(M, N)
temp T(M, N)
local LO(M, N)
distributed D(M, N)
served SV(M, N)
"""


def report_for(nb=16, seg=4, workers=4, **cfg_kw):
    prog = compile_source(f"sial t\n{DECLS}\nendsial t\n", optimize=0)
    config = SIPConfig(workers=workers, segment_size=seg, **cfg_kw)
    table = ResolvedIndexTable(prog, {"nb": nb}, segment_size=seg)
    return dry_run(prog, config, table)


def test_static_counted_in_full():
    r = report_for(nb=16)
    assert r.static_bytes == 16 * 16 * 8


def test_temp_and_local_one_block_each():
    r = report_for(nb=16, seg=4)
    assert r.temp_bytes == 4 * 4 * 8
    assert r.local_bytes == 4 * 4 * 8


def test_distributed_share_shrinks_with_workers():
    r1 = report_for(workers=1)
    r4 = report_for(workers=4)
    assert r4.distributed_max_bytes < r1.distributed_max_bytes


def test_served_not_counted_in_worker_ram():
    r = report_for()
    # served array total appears in array_bytes but not in RAM components
    assert r.array_bytes["SV"] == 16 * 16 * 8
    ram = (
        r.static_bytes
        + r.distributed_max_bytes
        + r.temp_bytes
        + r.local_bytes
        + r.cache_reserve_bytes
    )
    assert ram == r.per_worker_bytes


def test_infeasible_reports_required_workers():
    r = report_for(nb=64, seg=8, workers=1, memory_per_worker=80_000.0)
    assert not r.feasible
    assert r.required_workers > 1
    assert "INFEASIBLE" in r.report()
    # the suggestion should actually be sufficient for the distributed share
    r2 = report_for(
        nb=64, seg=8, workers=r.required_workers, memory_per_worker=80_000.0
    )
    assert r2.distributed_max_bytes <= 80_000.0


def test_feasible_report_text():
    r = report_for()
    assert "FEASIBLE" in r.report()
    assert "static" in r.report()


def test_hopeless_case_flagged():
    # static alone exceeds memory: no worker count helps
    r = report_for(nb=64, workers=4, memory_per_worker=1000.0)
    assert not r.feasible
    assert r.required_workers == -1


def test_pinned_floor_reported():
    r = report_for(nb=16, seg=4)
    assert r.pinned_floor_bytes == 6 * 4 * 4 * 8  # 6 x largest block
    assert "pinned-only floor" in r.report()
    assert "spill headroom" in r.report()


def test_spill_flips_infeasible_to_feasible():
    # too small for the no-spill requirement, plenty above the floor
    r = report_for(nb=64, seg=8, workers=1, memory_per_worker=80_000.0)
    assert not r.feasible
    r_spill = report_for(
        nb=64, seg=8, workers=1, memory_per_worker=80_000.0, spill=True
    )
    assert r_spill.feasible
    assert r_spill.spill_headroom_bytes > 0


def test_spill_cannot_rescue_budget_below_the_floor():
    r = report_for(nb=64, seg=8, workers=1, memory_per_worker=1000.0, spill=True)
    assert not r.feasible
    assert "pinned-only floor exceeds the budget" in r.report()


def test_dtype_scales_dry_run_estimate():
    r64 = report_for(nb=16)
    r32 = report_for(nb=16, dtype="float32")
    assert r32.static_bytes * 2 == r64.static_bytes
    assert r32.per_worker_bytes * 2 == r64.per_worker_bytes


def test_dry_run_estimate_covers_observed_peak():
    """The paper's guarantee: the dry run bounds actual memory use."""
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
aoindex L = 1, nb
distributed A(M, L)
distributed B(L, N)
distributed C(M, N)
temp TC(M, N)
"""
    body = """
pardo M, N
  TC(M, N) = 0.0
  do L
    get A(M, L)
    get B(L, N)
    TC(M, N) += A(M, L) * B(L, N)
  enddo L
  put C(M, N) = TC(M, N)
endpardo M, N
"""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 12))
    b = rng.standard_normal((12, 12))
    res = run_source(
        f"sial t\n{decls}\n{body}\nendsial t\n",
        SIPConfig(workers=3, segment_size=4, inputs={"A": a, "B": b}),
        symbolics={"nb": 12},
    )
    assert res.stats["pool_peak_bytes"] <= res.dry_run.per_worker_bytes
