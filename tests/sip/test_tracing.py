"""Tests for the execution-trace recorder."""

import numpy as np
import pytest

from repro.programs import run_paper_contraction
from repro.sial.bytecode import Op
from repro.sip import SIPConfig, run_source
from repro.sip.tracing import TraceRecorder

SRC = """
sial trace_probe
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
sip_barrier
endsial trace_probe
"""


def run_traced(workers=3, race_check="raise"):
    tracer = TraceRecorder()
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
    cfg = SIPConfig(
        workers=workers,
        io_servers=1,
        segment_size=4,
        tracer=tracer,
        inputs={"A": a, "B": b},
        race_check=race_check,
        opt_level=0,  # the op counts below are the verbatim program's
    )
    res = run_source(SRC, cfg, symbolics={"nb": 8})
    return tracer, res


def test_events_recorded_with_kinds():
    tracer, _ = run_traced()
    counts = tracer.op_counts()
    assert counts[Op.CONTRACT] == 8  # 4 blocks x 2 L-blocks
    assert counts[Op.FILL] == 4
    assert counts[Op.PUT] == 4
    assert counts[Op.SIP_BARRIER] == 3  # one per worker


def test_event_times_ordered_and_within_run():
    tracer, res = run_traced()
    for e in tracer.events:
        assert 0.0 <= e.start <= e.end
        assert e.end <= res.elapsed + 1e-9
        assert e.wait >= 0.0
        assert e.busy >= -1e-12


def test_busy_wait_totals_match_profile():
    tracer, res = run_traced()
    # traced totals agree with the profile (both built from the same data)
    assert abs(tracer.total_wait() - res.profile.total_wait) < 1e-9


def test_timeline_renders_all_workers():
    tracer, _ = run_traced(workers=3)
    text = tracer.timeline(width=40)
    assert "w0" in text and "w1" in text and "w2" in text
    assert "#" in text  # contraction glyph somewhere


def test_report_lists_counts():
    tracer, _ = run_traced()
    report = tracer.report()
    assert "CONTRACT" in report
    assert "total busy" in report


def test_empty_recorder_renders_placeholder():
    tracer = TraceRecorder()
    assert "no events" in tracer.timeline()
    assert tracer.span() == (0.0, 0.0)


def test_per_worker_query():
    tracer, _ = run_traced(workers=2)
    all_events = len(tracer.events)
    assert len(tracer.for_worker(0)) + len(tracer.for_worker(1)) == all_events


def test_events_carry_source_lines():
    tracer, _ = run_traced()
    assert tracer.events
    for e in tracer.events:
        assert e.line is not None
    # the contraction `TC(M, N) += A(M, L) * B(L, N)` is on line 17
    contract_lines = {e.line for e in tracer.events if e.op == Op.CONTRACT}
    assert contract_lines == {17}


def test_record_without_line_defaults_to_none():
    tracer = TraceRecorder()
    tracer.record(0, 3, Op.FILL, 0.0, 1.0, 0.0)
    assert tracer.events[0].line is None


def test_sanitizer_off_and_on_trace_identically():
    """The sanitizer is pure bookkeeping: identical events either way."""
    plain, res_plain = run_traced(race_check="raise")
    sanitized, res_san = run_traced(race_check="report")
    assert plain.events == sanitized.events
    assert res_plain.elapsed == res_san.elapsed
    assert res_san.sanitizer_report is not None
    assert res_san.sanitizer_report.ok


@pytest.mark.parametrize("opt_level", [0, 2])
def test_contractions_draw_as_contractions_at_every_level(opt_level):
    """At -O2 every ``tmp = a*b; c op tmp`` pair of the paper's
    contraction runs as CONTRACT_FUSED; it is drawn as ``#`` as the
    unfused CONTRACT is, not as another kernel."""
    tracer = TraceRecorder()
    cfg = SIPConfig(workers=2, tracer=tracer, opt_level=opt_level)
    run_paper_contraction(n_basis=8, n_occ=4, config=cfg)
    contraction = Op.CONTRACT_FUSED if opt_level else Op.CONTRACT
    assert tracer.op_counts()[contraction] > 0
    _legend, rows = tracer.timeline(width=72).split("\n", 1)
    assert "#" in rows
