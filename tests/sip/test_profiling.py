"""Unit tests for profile aggregation and reporting."""

import pytest

from repro.sial.compiler import compile_source
from repro.sip.profiling import InstrStats, PardoStats, RunProfile, WorkerProfile


def make_worker(instrs, pardos=None, elapsed=1.0):
    w = WorkerProfile()
    for pc, busy, wait in instrs:
        w.record_instr(pc, busy, wait)
    for pid, (iters, pelapsed, pwait) in (pardos or {}).items():
        stats = w.pardo_stats(pid)
        stats.iterations = iters
        stats.elapsed = pelapsed
        stats.wait_time = pwait
        stats.entries = 1
    w.elapsed = elapsed
    return w


def test_record_instr_accumulates():
    w = make_worker([(5, 1.0, 0.5), (5, 2.0, 0.0), (7, 0.5, 0.5)])
    assert w.instr[5].count == 2
    assert w.instr[5].busy_time == 3.0
    assert w.instr[5].wait_time == 0.5
    assert w.total_busy == 3.5
    assert w.total_wait == 1.0


def test_wait_fraction_average_over_workers():
    w1 = make_worker([(0, 0.8, 0.2)], elapsed=1.0)
    w2 = make_worker([(0, 0.4, 0.6)], elapsed=1.0)
    profile = RunProfile(workers=[w1, w2], elapsed=1.0)
    assert profile.wait_fraction == pytest.approx((0.2 + 0.6) / 2)


def test_wait_fraction_empty_profile():
    assert RunProfile(workers=[], elapsed=0.0).wait_fraction == 0.0


def test_hotspots_ranked_by_total_time():
    w = make_worker([(1, 5.0, 0.0), (2, 1.0, 0.0), (3, 2.0, 6.0)])
    profile = RunProfile(workers=[w], elapsed=10.0)
    ranked = profile.hotspots(limit=2)
    assert [pc for pc, _ in ranked] == [3, 1]


def test_hotspots_merged_across_workers():
    w1 = make_worker([(1, 1.0, 0.0)])
    w2 = make_worker([(1, 2.0, 0.5)])
    profile = RunProfile(workers=[w1, w2], elapsed=3.0)
    (pc, stats), = profile.hotspots(limit=1)
    assert pc == 1
    assert stats.count == 2
    assert stats.busy_time == 3.0
    assert stats.wait_time == 0.5


def test_pardo_totals_max_elapsed_sum_waits():
    w1 = make_worker([], pardos={0: (10, 2.0, 0.1)})
    w2 = make_worker([], pardos={0: (12, 3.0, 0.2)})
    profile = RunProfile(workers=[w1, w2], elapsed=3.0)
    totals = profile.pardo_totals()
    assert totals[0].iterations == 22
    assert totals[0].elapsed == 3.0  # max across workers
    assert totals[0].wait_time == pytest.approx(0.3)


def test_report_maps_pcs_to_source_lines():
    prog = compile_source(
        "sial t\nsymbolic nb\naoindex M = 1, nb\ntemp T(M, M)\n"
        "pardo M\nT(M, M) = 1.0\nendpardo\nendsial t\n",
        optimize=0,  # -O2 deletes the dead temp fills
    )
    fill_pc = [i for i, ins in enumerate(prog.instructions) if ins.op == "FILL"][0]
    w = make_worker([(fill_pc, 1.0, 0.0)])
    profile = RunProfile(workers=[w], elapsed=1.0, program=prog)
    text = profile.report()
    assert "FILL" in text
    assert "line 6" in text


def test_report_without_program_still_renders():
    w = make_worker([(0, 1.0, 0.0)])
    text = RunProfile(workers=[w], elapsed=1.0).report()
    assert "pc=0" in text


def test_by_line_merges_instructions_on_same_source_line():
    prog = compile_source(
        "sial t\nsymbolic nb\naoindex M = 1, nb\ntemp T(M, M)\n"
        "pardo M\nT(M, M) = 1.0\nT(M, M) += 2.0\nendpardo\nendsial t\n",
        optimize=0,  # -O2 deletes the dead temp fills
    )
    fills = [i for i, ins in enumerate(prog.instructions) if ins.op == "FILL"]
    assert len(fills) == 2
    w = make_worker([(fills[0], 1.0, 0.25), (fills[1], 2.0, 0.25)])
    profile = RunProfile(workers=[w], elapsed=3.0, program=prog)
    lines = profile.by_line()
    # the two assignments live on source lines 6 and 7
    assert lines[6].count == 1 and lines[6].busy_time == 1.0
    assert lines[7].count == 1 and lines[7].busy_time == 2.0


def test_by_line_without_program_groups_under_none():
    w = make_worker([(0, 1.0, 0.0), (5, 2.0, 0.5)])
    profile = RunProfile(workers=[w], elapsed=3.0)
    lines = profile.by_line()
    assert set(lines) == {None}
    assert lines[None].count == 2
    assert lines[None].busy_time == 3.0
    assert lines[None].wait_time == 0.5
