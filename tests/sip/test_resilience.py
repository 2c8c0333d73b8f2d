"""End-to-end resilience: SIAL programs completing correctly on a
faulty substrate (message drops/delays, disk errors, rank crashes)."""

import numpy as np
import pytest

from repro.sial.compiler import compile_source
from repro.sip import (
    FaultPlan,
    ResilienceStats,
    SIPConfig,
    SIPError,
    run_program,
    run_source,
)

from .test_ioserver_behavior import squeezed


def wrap(decls, body):
    return f"sial t\n{decls}\n{body}\nendsial t\n"


PUT_GET_DECLS = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
distributed OUT(M, N)
temp T(M, N)
scalar e
"""

PUT_GET_BODY = """
pardo M, N
  T(M, N) = 3.0
  put D(M, N) = T(M, N)
endpardo M, N
sip_barrier
e = 0.0
pardo M, N
  get D(M, N)
  T(M, N) = 2.0 * D(M, N)
  put OUT(M, N) = T(M, N)
  e += D(M, N) * D(M, N)
endpardo M, N
collective e
"""

SERVED_DECLS = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
served SV(M, N)
distributed OUT(M, N)
temp T(M, N)
"""

SERVED_BODY = """
pardo M, N
  T(M, N) = 4.0
  prepare SV(M, N) = T(M, N)
endpardo M, N
server_barrier
pardo M, N
  request SV(M, N)
  T(M, N) = SV(M, N)
  put OUT(M, N) = T(M, N)
endpardo M, N
"""


def run_pair(src, symbolics, plan, **cfg_kw):
    """Run fault-free and faulty with identical configs; return both."""
    defaults = dict(workers=2, io_servers=1, segment_size=3)
    defaults.update(cfg_kw)
    base = run_source(src, SIPConfig(**defaults), symbolics)
    faulty = run_source(src, SIPConfig(**defaults, faults=plan), symbolics)
    return base, faulty


def test_put_get_survives_message_drops():
    plan = FaultPlan(seed=3, message_drop_rate=1.0, max_message_drops=4)
    base, faulty = run_pair(
        wrap(PUT_GET_DECLS, PUT_GET_BODY), {"nb": 6}, plan, workers=3
    )
    report = faulty.fault_report
    assert report is not None
    assert report.injected.messages_dropped == 4
    assert report.retries.message_retries >= 4
    assert report.all_recovered, report.recovery_gaps()
    assert faulty.scalar("e") == pytest.approx(base.scalar("e"))
    assert np.array_equal(faulty.array("OUT"), base.array("OUT"))
    assert np.array_equal(faulty.array("D"), base.array("D"))


def test_heavy_drops_and_delays_still_converge():
    plan = FaultPlan(seed=5, message_drop_rate=0.1, message_delay_rate=0.1)
    base, faulty = run_pair(
        wrap(PUT_GET_DECLS, PUT_GET_BODY), {"nb": 7}, plan, workers=3
    )
    report = faulty.fault_report
    assert report.all_recovered, report.recovery_gaps()
    assert faulty.scalar("e") == pytest.approx(base.scalar("e"))
    assert np.array_equal(faulty.array("OUT"), base.array("OUT"))
    # delay spikes cost simulated time, never correctness
    if report.injected.messages_delayed:
        assert report.injected.added_latency > 0


def test_writeback_retries_on_disk_write_error():
    plan = FaultPlan(seed=0, disk_write_error_rate=1.0, max_disk_errors=2)
    base, faulty = run_pair(wrap(SERVED_DECLS, SERVED_BODY), {"nb": 6}, plan)
    report = faulty.fault_report
    assert report.injected.disk_write_errors == 2
    assert report.retries.writeback_retries >= 2
    assert report.all_recovered, report.recovery_gaps()
    assert np.array_equal(faulty.array("OUT"), base.array("OUT"))
    assert np.array_equal(faulty.array("SV"), base.array("SV"))


def test_read_retries_on_disk_read_error():
    plan = FaultPlan(seed=0, disk_read_error_rate=1.0, max_disk_errors=2)
    # 256 served blocks over a server budget at the dry run's no-spill
    # requirement force requests to round-trip through disk
    src, symbolics = wrap(SERVED_DECLS, SERVED_BODY), {"nb": 16}
    cfg = squeezed(src, SIPConfig(workers=2, segment_size=1), symbolics)
    base, faulty = run_pair(
        src, symbolics, plan, segment_size=1,
        memory_per_worker=cfg.memory_per_worker,
    )
    report = faulty.fault_report
    assert report.injected.disk_read_errors == 2
    assert report.retries.disk_read_retries >= 2
    assert report.all_recovered, report.recovery_gaps()
    assert np.array_equal(faulty.array("OUT"), base.array("OUT"))


def test_prepare_accumulate_applied_exactly_once_under_drops():
    """A retried `prepare +=` must not double-accumulate."""
    body = """
pardo M, N
  T(M, N) = 1.0
  prepare SV(M, N) = T(M, N)
endpardo M, N
server_barrier
pardo M, N
  T(M, N) = 1.0
  prepare SV(M, N) += T(M, N)
endpardo M, N
"""
    plan = FaultPlan(seed=9, message_drop_rate=0.15)
    base, faulty = run_pair(wrap(SERVED_DECLS, body), {"nb": 6}, plan, workers=3)
    assert np.all(faulty.array("SV") == 2.0)
    assert np.array_equal(faulty.array("SV"), base.array("SV"))
    assert faulty.fault_report.all_recovered


def test_resilient_mode_without_faults_matches_default():
    """An empty FaultPlan turns the ack/seq protocol on with no fault;
    the numerics match the default path and nothing is ever retried."""
    src = wrap(PUT_GET_DECLS, PUT_GET_BODY)
    base = run_source(src, SIPConfig(workers=2, io_servers=1, segment_size=3), {"nb": 6})
    res = run_source(
        src,
        SIPConfig(workers=2, io_servers=1, segment_size=3, faults=FaultPlan()),
        {"nb": 6},
    )
    assert res.scalar("e") == pytest.approx(base.scalar("e"))
    assert np.array_equal(res.array("OUT"), base.array("OUT"))
    assert res.fault_report.retries == ResilienceStats()


def test_no_plan_has_no_fault_report():
    res = run_source(
        wrap(PUT_GET_DECLS, PUT_GET_BODY),
        SIPConfig(workers=2, io_servers=1, segment_size=3),
        {"nb": 6},
    )
    assert res.fault_report is None


def test_resilient_runs_are_deterministic():
    """Two runs with freshly built but identical plans are bit-identical
    in results AND simulated time."""
    src = wrap(PUT_GET_DECLS, PUT_GET_BODY)

    def go():
        plan = FaultPlan(seed=21, message_drop_rate=0.1, message_delay_rate=0.1)
        cfg = SIPConfig(workers=3, io_servers=1, segment_size=3, faults=plan)
        return run_source(src, cfg, {"nb": 7})

    r1, r2 = go(), go()
    assert r1.elapsed == r2.elapsed
    assert r1.scalar("e") == r2.scalar("e")
    assert np.array_equal(r1.array("OUT"), r2.array("OUT"))
    i1, i2 = r1.fault_report.injected, r2.fault_report.injected
    assert (i1.messages_dropped, i1.messages_delayed) == (
        i2.messages_dropped,
        i2.messages_delayed,
    )


def test_crash_restarts_from_checkpoint():
    from repro.programs.library import CHECKPOINT_DEMO

    prog = compile_source(CHECKPOINT_DEMO)
    sym = {"nb": 6.0, "restart": 0.0}
    cfg_kw = dict(workers=2, io_servers=1, segment_size=3)

    base = run_program(prog, SIPConfig(**cfg_kw), dict(sym))
    out0 = base.array("OUT")

    # crash worker 1 after the checkpoint but before the run completes
    crash_t = base.elapsed * 0.85
    plan = FaultPlan(seed=7, crash_times={SIPConfig(**cfg_kw).worker_rank(1): crash_t})
    res = run_program(prog, SIPConfig(**cfg_kw, faults=plan), dict(sym))

    report = res.fault_report
    assert report.injected.crashes == 1
    assert report.restarts == 1
    assert report.all_recovered, report.recovery_gaps()
    assert np.array_equal(res.array("OUT"), out0)
    assert res.scalar("phase2") == 1.0


def test_crash_without_checkpoint_raises():
    src = wrap(PUT_GET_DECLS, PUT_GET_BODY)
    cfg_kw = dict(workers=2, io_servers=1, segment_size=3)
    probe = run_source(src, SIPConfig(**cfg_kw), {"nb": 6})
    plan = FaultPlan(
        seed=0,
        crash_times={SIPConfig(**cfg_kw).worker_rank(0): probe.elapsed * 0.5},
    )
    with pytest.raises(SIPError, match="no checkpoint"):
        run_source(src, SIPConfig(**cfg_kw, faults=plan), {"nb": 6})


CCSD_STYLE = """sial smoke
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
aoindex L = 1, nb
distributed A(M, L)
distributed B(L, N)
distributed C(M, N)
served SV(M, N)
temp TC(M, N)
temp TS(M, N)
scalar e
pardo M, N
  TC(M, N) = 0.0
  do L
    get A(M, L)
    get B(L, N)
    TC(M, N) += A(M, L) * B(L, N)
  enddo L
  put C(M, N) = TC(M, N)
  prepare SV(M, N) = TC(M, N)
endpardo M, N
sip_barrier
server_barrier
e = 0.0
pardo M, N
  request SV(M, N)
  e += SV(M, N) * SV(M, N)
endpardo M, N
collective e
endsial smoke
"""


def test_ccsd_style_integration_under_mixed_faults():
    """The acceptance scenario: a contraction + served-array + collective
    program under message drops, delay spikes and one disk write error
    matches the fault-free numerics exactly, with every injected fault
    retried or recovered."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((9, 9))
    b = rng.standard_normal((9, 9))

    def run(faults=None):
        cfg = SIPConfig(
            workers=3,
            io_servers=2,
            segment_size=3,
            inputs={"A": a.copy(), "B": b.copy()},
            faults=faults,
        )
        return run_source(CCSD_STYLE, cfg, symbolics={"nb": 9})

    base = run()
    plan = FaultPlan(
        seed=42,
        message_drop_rate=0.05,
        message_delay_rate=0.05,
        disk_write_error_rate=1.0,
        max_disk_errors=1,
    )
    res = run(plan)
    report = res.fault_report

    assert report.injected.messages_dropped > 0
    assert report.injected.disk_write_errors == 1
    assert report.retries.message_retries >= report.injected.messages_dropped
    assert report.retries.writeback_retries >= 1
    assert report.all_recovered, report.recovery_gaps()
    assert res.scalar("e") == pytest.approx(base.scalar("e"), abs=1e-12)
    assert np.array_equal(res.array("C"), base.array("C"))
    assert np.array_equal(res.array("SV"), base.array("SV"))
