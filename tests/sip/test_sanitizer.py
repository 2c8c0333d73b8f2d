"""Tests for the runtime race checker (``SIPConfig.race_check``)."""

import pytest

from repro.sip import BarrierViolation, SIPConfig, run_source

RACY = """
sial racy
symbolic nb
aoindex i = 1, nb
aoindex j = 1, nb
distributed D(i, i)
temp T(i, i)
pardo i, j
  T(i, i) = 1.0
  put D(i, i) = T(i, i)
endpardo i, j
sip_barrier
endsial racy
"""

CLEAN = """
sial clean
symbolic nb
aoindex i = 1, nb
aoindex j = 1, nb
distributed D(i, j)
temp T(i, j)
pardo i, j
  T(i, j) = 1.0
  put D(i, j) += T(i, j)
endpardo i, j
sip_barrier
endsial clean
"""

SERVED_RACY = """
sial served_racy
symbolic nb
aoindex i = 1, nb
aoindex j = 1, nb
served S(i, i)
temp T(i, i)
pardo i, j
  T(i, i) = 1.0
  prepare S(i, i) = T(i, i)
endpardo i, j
server_barrier
endsial served_racy
"""


def cfg(race_check="report", **overrides):
    defaults = dict(workers=3, io_servers=1, segment_size=2, race_check=race_check)
    defaults.update(overrides)
    return SIPConfig(**defaults)


def test_racy_overwrite_put_reported():
    res = run_source(RACY, cfg(), {"nb": 4.0})
    rep = res.sanitizer_report
    assert rep is not None and not rep.ok
    assert rep.total_conflicts > 0
    conflict = rep.conflicts[0]
    assert conflict.kind == "write-write"
    assert conflict.array == "D"
    # both endpoints carry source line, pc, worker and pardo iteration
    for point in (conflict.first, conflict.second):
        assert point.line is not None
        assert point.pc >= 0
        assert point.iteration[0] == "iter"
    assert conflict.first.iteration != conflict.second.iteration


def test_owner_violations_recorded_not_raised():
    # by default the run completes, then raises the rendered report ...
    with pytest.raises(BarrierViolation, match="write-write on D"):
        run_source(RACY, cfg(race_check="raise"), {"nb": 4.0})
    # ... in report mode the same conflicts land in the result
    res = run_source(RACY, cfg(), {"nb": 4.0})
    assert [c.kind for c in res.sanitizer_report.conflicts] == ["write-write"]


def test_clean_program_reports_no_conflicts():
    res = run_source(CLEAN, cfg(), {"nb": 4.0})
    rep = res.sanitizer_report
    assert rep is not None and rep.ok
    assert rep.accesses_recorded > 0
    assert rep.blocks_tracked > 0
    assert "no conflicts" in rep.render()


def test_served_prepare_overwrite_reported():
    res = run_source(SERVED_RACY, cfg(), {"nb": 4.0})
    rep = res.sanitizer_report
    assert rep is not None and not rep.ok
    assert any(c.array == "S" for c in rep.conflicts)


def test_sanitize_off_yields_no_report():
    for mode in ("raise", "off"):
        res = run_source(CLEAN, cfg(race_check=mode), {"nb": 4.0})
        assert res.sanitizer_report is None


def test_sanitizer_consumes_no_simulated_time():
    on = run_source(CLEAN, cfg(), {"nb": 4.0})
    off = run_source(CLEAN, cfg(race_check="off"), {"nb": 4.0})
    assert on.elapsed == off.elapsed
    assert on.scalars == off.scalars
    assert on.stats["messages_sent"] == off.stats["messages_sent"]


def test_conflict_render_names_both_endpoints():
    res = run_source(RACY, cfg(), {"nb": 4.0})
    text = res.sanitizer_report.render()
    assert "write-write" in text
    assert "conflicts with" in text
    assert "line" in text
    assert text.count("pardo 0 iteration") == 2


def test_env_var_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert SIPConfig().race_check == "report"
    monkeypatch.delenv("REPRO_SANITIZE")
    assert SIPConfig().race_check == "raise"


def test_explicit_flag_wins_over_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert SIPConfig(race_check="report").race_check == "report"
    assert SIPConfig(race_check="off").race_check == "off"


def test_unknown_race_check_mode_rejected():
    with pytest.raises(ValueError, match="race_check"):
        SIPConfig(race_check="warn")


def test_conflicts_deduplicated_by_statement_pair():
    # 2x2 block grid -> several racing pairs, but all from one statement
    res = run_source(RACY, cfg(), {"nb": 4.0})
    rep = res.sanitizer_report
    assert len(rep.conflicts) == 1
    assert rep.total_conflicts >= len(rep.conflicts)


# -- one verdict at every worker count, -O level and backend -----------------

#: each row of iterations reads a diagonal block, and the row's first
#: iteration overwrites it.  Iterations of one row that share a worker
#: read the replica the first one fetched, which the owner never hears
#: of (a checker keyed by worker took a row run by one worker for clean).
HIDDEN_REPLICA = """
sial hidden_replica
symbolic nb
aoindex i = 1, nb
aoindex j = 1, nb
distributed D(i, i)
temp T(i, i)
pardo i
  T(i, i) = 1.0
  put D(i, i) = T(i, i)
endpardo i
sip_barrier
pardo i, j
  get D(i, i)
  T(i, i) = D(i, i)
  if j == 1
    put D(i, i) = T(i, i)
  endif
endpardo i, j
sip_barrier
endsial hidden_replica
"""

#: every iteration reads its own block and then overwrites it: legal
READ_THEN_OVERWRITE = """
sial read_then_overwrite
symbolic nb
aoindex i = 1, nb
aoindex j = 1, nb
distributed D(i, j)
temp T(i, j)
pardo i, j
  T(i, j) = 1.0
  put D(i, j) = T(i, j)
endpardo i, j
sip_barrier
pardo i, j
  get D(i, j)
  T(i, j) = D(i, j)
  put D(i, j) = T(i, j)
endpardo i, j
sip_barrier
endsial read_then_overwrite
"""


def distinct(report):
    """A report's distinct conflicts, independent of arrival order."""
    return {
        (c.kind, c.array, frozenset((c.first.pc, c.second.pc)))
        for c in report.conflicts
    }


@pytest.mark.parametrize("opt_level", [0, 1, 2])
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("src", [RACY, SERVED_RACY, HIDDEN_REPLICA])
def test_racy_programs_raise_at_every_worker_count(src, workers, opt_level):
    config = cfg(race_check="raise", workers=workers, opt_level=opt_level)
    with pytest.raises(BarrierViolation, match="conflicting access pair"):
        run_source(src, config, {"nb": 4.0})


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_every_hidden_replica_read_is_found(workers):
    # static scheduling keeps each row on one worker: at 2 workers rows
    # 1 and 2 run on worker 0 and rows 3 and 4 on worker 1, while the
    # diagonal blocks alternate owners, so rows 2 and 3 are read only
    # through replicas; each row's 3 later reads conflict with its write
    config = cfg(workers=workers, scheduling="static")
    report = run_source(HIDDEN_REPLICA, config, {"nb": 8.0}).sanitizer_report
    assert report.total_conflicts == 4 * 3
    assert {c.kind for c in report.conflicts} == {"read-write"}
    config.race_check = "raise"
    with pytest.raises(BarrierViolation):
        run_source(HIDDEN_REPLICA, config, {"nb": 8.0})


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_distinct_conflicts_do_not_depend_on_the_worker_count(workers):
    for src in (RACY, SERVED_RACY):
        one = run_source(src, cfg(workers=1), {"nb": 4.0}).sanitizer_report
        many = run_source(src, cfg(workers=workers), {"nb": 4.0}).sanitizer_report
        assert distinct(many) == distinct(one) and len(distinct(one)) == 1


@pytest.mark.parametrize("workers", [2, 4])
def test_prefetch_running_ahead_keeps_a_legal_overwrite_clean(workers):
    # static scheduling deals each worker one chunk of all its
    # iterations, so the pardo prefetcher hints gets of later
    # iterations while an earlier one runs (one worker owns every
    # block and fetches none)
    config = cfg(
        race_check="raise", workers=workers, prefetch_depth=2, scheduling="static"
    )
    res = run_source(READ_THEN_OVERWRITE, config, {"nb": 8.0})
    assert res.stats["blockio_issued_gets"] > 0
    assert res.stats["blockio_coalesced"] > 0  # demand gets met a prefetch


def test_two_epoch_tables_at_most_per_class_and_rank(monkeypatch):
    from repro.sip.sanitizer import RaceRecorder

    src = """
sial many_epochs
symbolic nb
aoindex i = 1, nb
index k = 1, 6
distributed D(i, i)
served S(i, i)
temp T(i, i)
do k
  pardo i
    T(i, i) = 1.0
    put D(i, i) = T(i, i)
    prepare S(i, i) = T(i, i)
  endpardo i
  sip_barrier
  server_barrier
  pardo i
    get D(i, i)
    request S(i, i)
    T(i, i) = D(i, i)
    T(i, i) += S(i, i)
  endpardo i
  sip_barrier
  server_barrier
enddo k
endsial many_epochs
"""
    live: list[int] = []
    opened: list[int] = []
    original = RaceRecorder._open

    def counting(self, cls, epoch):
        table = original(self, cls, epoch)
        opened.append(epoch)
        live.append(len(self.tables[cls]))
        return table

    monkeypatch.setattr(RaceRecorder, "_open", counting)
    res = run_source(src, cfg(race_check="raise", workers=2), {"nb": 4.0})
    assert res.elapsed > 0
    assert max(opened) >= 10  # 12 barriers of each class
    assert max(live) <= 2


@pytest.mark.mp
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_mp_raises_the_simulators_violation(workers):
    for src in (RACY, SERVED_RACY):
        config = cfg(race_check="raise", workers=workers, execution="mp")
        with pytest.raises(BarrierViolation, match="write-write"):
            run_source(src, config, {"nb": 4.0})


@pytest.mark.mp
def test_report_mode_finds_the_same_conflicts_on_both_backends():
    for src in (RACY, SERVED_RACY, HIDDEN_REPLICA):
        sim = run_source(src, cfg(workers=2), {"nb": 4.0}).sanitizer_report
        mp = run_source(src, cfg(workers=2, execution="mp"), {"nb": 4.0})
        assert not sim.ok
        assert distinct(mp.sanitizer_report) == distinct(sim)
