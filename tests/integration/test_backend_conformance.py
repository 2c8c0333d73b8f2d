"""Simulator-vs-real differential conformance suite.

The discrete-event simulator is the reference oracle; the multiprocess
backend (``execution="mp"``) runs the same programs on real OS
processes connected by pipes and shared memory, where message arrival
order is genuinely racy.  Every bundled SIAL program runs on both
backends at 1, 2 and 4 workers and must produce **bitwise identical**
scalars and arrays -- the canonical reduction orders (collective
ledger, '+=' accumulation keys) are what make that possible, and this
suite is what holds them to it.

Beyond results, each pairing checks the invariant slice of the stats
(total pardo iterations; traffic counters are legitimately different
because the mp barrier is message-based and arrival races change cache
behavior), that the sanitizer stays clean across process boundaries,
and that every shared-memory segment the run created was unlinked.
"""

import multiprocessing

import numpy as np
import pytest

from repro.programs import (
    run_ao2mo,
    run_ccsd,
    run_ccsd_t,
    run_checkpoint_demo,
    run_fock_build,
    run_lccd,
    run_lccd_anderson,
    run_mp2,
    run_paper_contraction,
    run_uhf_mp2,
)
from repro.sip import SIPConfig, SIPError, arena, mptransport
from repro.sip.runner import run_source

from .test_stress import MATMUL

WORKER_COUNTS = (1, 2, 4)

DRIVERS = {
    "paper_contraction": lambda cfg: run_paper_contraction(
        n_basis=4, n_occ=2, config=cfg
    ),
    "mp2_energy": lambda cfg: run_mp2(n_basis=6, n_occ=2, config=cfg),
    "uhf_mp2_energy": lambda cfg: run_uhf_mp2(
        n_basis=5, n_alpha=2, n_beta=1, config=cfg
    ),
    "ao2mo_transform": lambda cfg: run_ao2mo(n_basis=4, config=cfg),
    "lccd_iteration": lambda cfg: run_lccd(
        n_basis=4, n_occ=1, iterations=2, config=cfg
    ),
    "lccd_anderson": lambda cfg: run_lccd_anderson(
        n_basis=4, n_occ=1, iterations=2, config=cfg
    ),
    "ccsd": lambda cfg: run_ccsd(n_basis=4, n_occ=1, iterations=2, config=cfg),
    "ccsd_t": lambda cfg: run_ccsd_t(n_basis=3, n_occ=1, sweeps=1, config=cfg),
    "fock_build": lambda cfg: run_fock_build(n_basis=5, n_occ=2, config=cfg),
}

#: the longest-running programs; their off-center worker counts are
#: deselected from tier-1 (w=2 still runs everywhere)
HEAVY = {"ccsd", "ccsd_t", "lccd_iteration", "lccd_anderson"}


@pytest.fixture(autouse=True)
def _small_shm_threshold(monkeypatch):
    """Low threshold so small test blocks still exercise the mp
    backend's shared-memory path, not just inline pickling (the
    simulator never reads it; forked ranks see the patch)."""
    monkeypatch.setattr(mptransport, "PAYLOAD_SHM_MIN", 256)


def make_config(workers: int, execution: str, **kw) -> SIPConfig:
    defaults = dict(
        workers=workers,
        io_servers=1,
        segment_size=2,
        race_check="report",
        execution=execution,
    )
    defaults.update(kw)
    return SIPConfig(**defaults)


def persistent_arrays(result) -> list[str]:
    """Names of arrays whose final contents a run can be asked for."""
    program = result._rt.program
    return [
        desc.name
        for desc in program.array_table
        if desc.kind in ("static", "distributed", "served")
    ]


def assert_bitwise_equal_results(sim, mp) -> None:
    """Scalars and every gatherable array must match bit for bit."""
    assert mp.result.scalars.keys() == sim.result.scalars.keys()
    for name, sim_value in sim.result.scalars.items():
        mp_value = mp.result.scalars[name]
        assert mp_value == sim_value, (
            f"scalar {name}: sim {sim_value!r} != mp {mp_value!r}"
        )
    for array in persistent_arrays(sim.result):
        try:
            expected = sim.result.array(array)
        except SIPError:
            continue  # declared but never materialized on this run
        actual = mp.result.array(array)
        assert np.array_equal(expected, actual), (
            f"array {array!r} differs between backends"
        )


def _params():
    for name in sorted(DRIVERS):
        for workers in WORKER_COUNTS:
            marks = [pytest.mark.mp]
            if name in HEAVY and workers != 2:
                marks.append(pytest.mark.slow)
            yield pytest.param(name, workers, marks=marks)


@pytest.mark.parametrize("name,workers", _params())
def test_mp_backend_is_bitwise_identical_to_simulator(name, workers):
    driver = DRIVERS[name]
    sim = driver(make_config(workers, "sim"))
    mp = driver(make_config(workers, "mp"))

    # both must also agree with the independent numpy reference
    assert sim.error < 1e-10
    assert mp.error < 1e-10
    assert_bitwise_equal_results(sim, mp)

    # invariants that hold regardless of message races
    assert sim.result.stats["execution"] == "sim"
    assert mp.result.stats["execution"] == "mp"
    assert (
        mp.result.stats["sched_iterations"]
        == sim.result.stats["sched_iterations"]
    )
    assert mp.result.stats["mp_processes"] == make_config(workers, "mp").world_size
    assert mp.result.stats["wallclock_seconds"] > 0.0

    # the workers' rank loops report home; the simulator has none
    engines = [r.stats["engine"] for r in mp.result.reports if r.role == "worker"]
    assert len(engines) == workers
    assert all(e.events_fired > 0 and e.blocked_s >= 0.0 for e in engines)
    assert mp.result.stats["mp_engine_events_fired"] == sum(
        e.events_fired for e in engines
    )
    assert mp.result.stats["mp_engine_blocked_max_s"] == max(
        e.blocked_s for e in engines
    )
    events = mp.result.stats["mp_engine_events_fired"]
    assert f"mp_engine_events_fired={events}" in mp.result.profile.report()
    assert not any(
        value for key, value in sim.result.stats.items() if key.startswith("mp_engine_")
    )
    assert {k for k in sim.result.stats if k.startswith("mp_engine_")} == {
        k for k in mp.result.stats if k.startswith("mp_engine_")
    }

    # runtime sanitizer must stay clean across process boundaries
    assert sim.result.sanitizer_report.ok
    assert mp.result.sanitizer_report.ok

    # shared-memory hygiene: every one-shot segment created was
    # unlinked in-run, the parent swept exactly the slabs the ranks
    # created (they live for the whole run by design), and every
    # arena slot lease was accounted for before results shipped
    assert (
        mp.result.stats["mp_shm_segments"] == mp.result.stats["mp_shm_unlinked"]
    )
    assert mp.result.stats["mp_shm_leaked"] == 0
    assert (
        mp.result.stats["mp_arena_slabs_swept"] == mp.result.stats["arena_slabs"]
    )
    assert mp.result.stats["arena_refs_leaked"] == 0


@pytest.mark.mp
def test_arena_overflow_path_stays_bitwise_identical(monkeypatch):
    """Starving the arena into its one-shot overflow path is a pure
    transport detour: it must not move a single bit of the results
    (the ranks are forked, so they see the patched slab size and cap)."""
    driver = DRIVERS["lccd_iteration"]  # its 4-block payloads cross ranks
    sim = driver(make_config(2, "sim", segment_size=4))
    monkeypatch.setattr(arena, "SLAB_BYTES", 4096)
    monkeypatch.setattr(arena, "MAX_BYTES", 8192)
    mp = driver(make_config(2, "mp", segment_size=4))
    assert mp.result.stats["arena_misses"] > 0  # payloads did overflow
    assert mp.error < 1e-10
    assert_bitwise_equal_results(sim, mp)
    assert mp.result.stats["mp_shm_leaked"] == 0
    assert mp.result.stats["arena_refs_leaked"] == 0


@pytest.mark.mp
def test_single_message_frames_stay_bitwise_identical(monkeypatch):
    """Frame batching is a pure transport optimization: with every
    message in a frame of its own (the ranks are forked, so they see
    the patched bound) not a single bit of the results moves."""
    driver = DRIVERS["ao2mo_transform"]  # its prefetch bursts share frames
    sim = driver(make_config(2, "sim"))
    batched = driver(make_config(2, "mp"))
    assert batched.result.stats["batch_msgs_per_write"] > 1.0
    monkeypatch.setattr(mptransport, "BATCH_MAX_MSGS", 1)
    single = driver(make_config(2, "mp"))
    assert single.result.stats["batch_msgs_per_write"] == 1.0
    for mp in (batched, single):
        assert mp.error < 1e-10
        assert_bitwise_equal_results(sim, mp)
        assert mp.result.stats["mp_shm_leaked"] == 0
        assert mp.result.stats["arena_refs_leaked"] == 0


SPILL_DRIVERS = {
    "ccsd": lambda cfg: run_ccsd(n_basis=4, n_occ=2, iterations=1, config=cfg),
    "mp2_energy": lambda cfg: run_mp2(n_basis=10, n_occ=4, config=cfg),
}


@pytest.mark.mp
@pytest.mark.parametrize("name", sorted(SPILL_DRIVERS))
def test_mp_backend_spills_like_the_simulator(name):
    """Real processes at half the unconstrained peak, spill on.

    Guards a regression: when the victim cascade drained the block
    cache before it spilled anything, racy arrival order on this
    backend let an allocation evict a replica between its arrival and
    its waiter's resume twice in a row, and the CCSD case died with
    ``SIPError: block ... thrashed out of the cache`` in about one run
    in four.  Five consecutive runs must complete, bitwise equal to the
    simulator under the same budget and to the unconstrained run.
    """
    driver = SPILL_DRIVERS[name]

    def cfg(execution, **kw):
        return make_config(
            2, execution, scheduling="static", spill=True, opt_level=2, **kw
        )

    free = driver(cfg("sim"))
    assert free.result.stats["mem_spills"] == 0
    budget = float(
        max(
            free.result.dry_run.pinned_floor_bytes,
            free.result.stats["mem_peak_bytes"] // 2,
        )
    )
    sim = driver(cfg("sim", memory_per_worker=budget))
    assert sim.result.stats["mem_spills"] > 0
    assert_bitwise_equal_results(free, sim)
    for _ in range(5):
        mp = driver(cfg("mp", memory_per_worker=budget))
        assert mp.error < 1e-10
        assert_bitwise_equal_results(sim, mp)
        stats = mp.result.stats
        assert stats["mem_spills"] > 0
        assert stats["mem_peak_bytes"] <= stats["mem_budget_bytes"]
        assert stats["mp_shm_leaked"] == 0
        assert stats["arena_refs_leaked"] == 0
        assert mp.result.sanitizer_report.ok
        assert not multiprocessing.active_children()


@pytest.mark.mp
def test_mp_backend_without_scratch_drops_replicas_like_the_simulator():
    """Real processes under memory pressure with spill off: the budget
    is the least the dry run admits without spill, below the
    unconstrained peak, so the one budget drops clean replicas (and
    never spills) on both backends, and the product does not move."""
    nb = 48
    rng = np.random.default_rng(1)
    inputs = {"A": rng.standard_normal((nb, nb)), "B": rng.standard_normal((nb, nb))}

    def run(execution, **kw):
        cfg = make_config(2, execution, segment_size=4, inputs=inputs, **kw)
        return run_source(MATMUL, cfg, {"nb": nb})

    free = run("sim")
    budget = float(free.dry_run.per_worker_bytes)
    assert free.stats["mem_peak_bytes"] > budget
    sim = run("sim", memory_per_worker=budget)
    mp = run("mp", memory_per_worker=budget)
    assert np.array_equal(sim.array("C"), free.array("C"))
    assert np.array_equal(mp.array("C"), sim.array("C"))
    assert sim.stats["cache_evictions"] > 0
    for stats in (sim.stats, mp.stats):
        assert stats["mem_spills"] == 0
        assert stats["mem_peak_bytes"] <= stats["mem_budget_bytes"]
    assert mp.stats["mp_shm_leaked"] == 0
    assert not multiprocessing.active_children()


SERVED_TWICE = """
sial served_twice
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
served SV(M, N)
distributed OUT(M, N)
temp T(M, N)

pardo M, N
  request SV(M, N)
  T(M, N) = SV(M, N)
  put OUT(M, N) = T(M, N)
endpardo M, N
sip_barrier
pardo M, N
  request SV(M, N)
  T(M, N) = SV(M, N)
  put OUT(M, N) += T(M, N)
endpardo M, N
endsial served_twice
"""


@pytest.mark.mp
def test_a_server_budget_below_its_served_share_rereads_alike_on_both_backends():
    """Every rank at the dry run's no-spill requirement: the workers
    fit, but one server's 256 served blocks do not, so the second pass
    reads evicted blocks from disk again -- on real processes as on the
    simulator, with the same bits."""
    nb = 16
    inputs = {"SV": np.random.default_rng(2).standard_normal((nb, nb))}

    def run(execution, budget=None):
        cfg = make_config(
            2, execution, segment_size=1, inputs=inputs, memory_per_worker=budget
        )
        return run_source(SERVED_TWICE, cfg, {"nb": nb})

    report = run("sim").dry_run
    assert report.served_share_bytes > report.per_worker_bytes
    sim = run("sim", float(report.per_worker_bytes))
    mp = run("mp", float(report.per_worker_bytes))
    assert np.array_equal(sim.array("OUT"), 2 * inputs["SV"])
    assert np.array_equal(mp.array("OUT"), sim.array("OUT"))
    for stats in (sim.stats, mp.stats):
        assert stats["disk_rereads"] > 0
        assert stats["mem_spills"] == 0
    assert mp.stats["mp_shm_leaked"] == 0
    assert not multiprocessing.active_children()


@pytest.mark.mp
def test_array_bytes_never_ride_the_result_pipe():
    """The paper contraction with 256 KiB of T and R blocks: everything
    a worker owns comes home through its gather segment, and what is
    pickled through the result pipes (stats, profile, sanitizer records,
    the segment manifests) stays far below one array's size."""
    cfg = make_config(2, "mp", segment_size=8)
    mp = run_paper_contraction(n_basis=16, n_occ=8, config=cfg)
    sim = run_paper_contraction(
        n_basis=16, n_occ=8, config=make_config(2, "sim", segment_size=8)
    )
    assert_bitwise_equal_results(sim, mp)
    stats = mp.result.stats
    result_nbytes = mp.result.array("R").nbytes
    assert result_nbytes == 128 * 1024
    assert stats["mp_gather_bytes"] >= result_nbytes + cfg.inputs["T"].nbytes
    assert stats["mp_result_pickle_bytes"] < 256 * 1024
    assert stats["mp_result_pickle_bytes"] < result_nbytes // 4
    assert 0.0 < stats["mp_gather_s"] < mp.result.stats["wallclock_seconds"]
    assert 0.0 < stats["mp_scatter_s"] < mp.result.stats["wallclock_seconds"]
    assert f"mp_gather_bytes={stats['mp_gather_bytes']}" in mp.result.profile.report()
    # one stats surface: the simulator reports the same keys, at zero
    ends = ("mp_gather_s", "mp_scatter_s", "mp_gather_bytes", "mp_result_pickle_bytes")
    assert all(sim.result.stats[k] == 0 for k in ends)


@pytest.mark.mp
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_checkpoint_chaining_matches_simulator(workers):
    """External-store writes merge back so run chaining works on mp."""

    def factory(execution):
        def make():
            return make_config(workers, execution, race_check="raise")

        return make

    sim_first, sim_second = run_checkpoint_demo(
        n_basis=4, config_factory=factory("sim")
    )
    mp_first, mp_second = run_checkpoint_demo(
        n_basis=4, config_factory=factory("mp")
    )
    for sim_out, mp_out in ((sim_first, mp_first), (sim_second, mp_second)):
        assert np.array_equal(
            np.asarray(sim_out.value), np.asarray(mp_out.value)
        )


@pytest.mark.mp
def test_worker_failure_is_surfaced_with_rank_and_traceback():
    """A rank raising mid-run must become one SIPError in the parent."""

    def explode(call):
        raise RuntimeError("superinstruction deliberately exploding")

    source = """sial t
symbolic nb
aoindex M = 1, nb
static S(M, M)
temp T(M, M)
pardo M
  T(M, M) = 1.0
  execute explode T(M, M)
endpardo
endsial t
"""
    cfg = make_config(
        2, "mp", race_check="raise", superinstructions={"explode": explode}
    )
    with pytest.raises(SIPError) as err:
        run_source(source, cfg, {"nb": 4})
    message = str(err.value)
    assert "mp backend" in message
    assert "deliberately exploding" in message


@pytest.mark.mp
def test_worker_hard_crash_is_detected():
    """A rank dying without reporting must not hang the parent."""
    import os

    def die(call):
        os._exit(3)

    source = """sial t
symbolic nb
aoindex M = 1, nb
temp T(M, M)
pardo M
  T(M, M) = 1.0
  execute die T(M, M)
endpardo
endsial t
"""
    cfg = make_config(2, "mp", race_check="raise", superinstructions={"die": die})
    with pytest.raises(SIPError, match="died|failed|gone|disconnected"):
        run_source(source, cfg, {"nb": 4})


@pytest.mark.mp
def test_a_stopped_rank_ends_the_run_in_one_error_within_the_timeout():
    """A rank that stops (SIGSTOP) neither exits nor reports: the ranks
    waiting on it time out, and the parent kills the stopped one at once
    instead of waiting for it to act on a SIGTERM it cannot receive."""
    import os
    import signal
    import time

    def freeze(call):
        if call.scalars[0] == 1:  # only the worker that runs M = 1
            os.kill(os.getpid(), signal.SIGSTOP)

    source = """sial t
symbolic nb
aoindex M = 1, nb
temp T(M, M)
pardo M
  T(M, M) = 1.0
  execute freeze T(M, M) M
endpardo
endsial t
"""
    cfg = make_config(
        2, "mp", mp_timeout=2.0, superinstructions={"freeze": freeze}
    )
    started = time.perf_counter()
    with pytest.raises(SIPError, match=r"(master|worker|server) \d+ \(rank \d+\)"):
        run_source(source, cfg, {"nb": 4})
    assert time.perf_counter() - started < cfg.mp_timeout + 5.0


@pytest.mark.mp
def test_mp_rejects_fault_injection_and_resilience():
    from repro.sip import FaultPlan

    with pytest.raises(ValueError, match="virtual time"):
        SIPConfig(execution="mp", faults=FaultPlan(seed=1))


@pytest.mark.mp
def test_unknown_execution_backend_rejected():
    with pytest.raises(ValueError, match="unknown execution backend"):
        SIPConfig(execution="threads")


COALESCE_SRC = """sial coalesce
symbolic nb
symbolic nl
aoindex M = 1, nb
aoindex N = 1, nb
aoindex L = 1, nl
distributed D(M, N)
temp T(M, N)
temp S(M, N)
pardo M, N
  T(M, N) = 1.0
  put D(M, N) = T(M, N)
endpardo M, N
sip_barrier
pardo L
  do M
    do N
      get D(M, N)
      S(M, N) = D(M, N) * 2.0
    enddo N
  enddo M
endpardo L
sip_barrier
endsial coalesce
"""


PERMUTED_WRITE_SRC = """
sial permuted_write
symbolic ni
symbolic nj
aoindex I = 1, ni
aoindex J = 1, nj
distributed A(I, J)
{kind} D(I, J)
temp T(J, I)
pardo I, J
  get A(I, J)
  T(J, I) = A(I, J)
  {verb} D(I, J) {op} T(J, I)
endpardo I, J
{barrier}
endsial permuted_write
"""


@pytest.mark.mp
@pytest.mark.parametrize("nj", [6, 4], ids=["square", "nonsquare"])
@pytest.mark.parametrize("op", ["=", "+="])
@pytest.mark.parametrize("verb", ["put", "prepare"])
@pytest.mark.parametrize("execution", ["sim", "mp"])
def test_a_permuted_write_lands_in_the_destination_index_order(
    execution, verb, op, nj
):
    """``put D(I, J) = T(J, I)`` permutes the source into D's index order,
    as a copy does; so do ``prepare`` and ``+=``.  D must equal A bit for
    bit.  With 3-element segments and J = 1..4 the last blocks are 3 x 1,
    so a source sent unpermuted does not even fit its destination."""
    kind, barrier = (
        ("distributed", "sip_barrier") if verb == "put" else ("served", "server_barrier")
    )
    src = PERMUTED_WRITE_SRC.format(kind=kind, verb=verb, op=op, barrier=barrier)
    a = np.arange(6 * nj, dtype=float).reshape(6, nj) / 7.0
    cfg = make_config(2, execution, segment_size=3, inputs={"A": a})
    res = run_source(src, cfg, symbolics={"ni": 6, "nj": nj})
    assert np.array_equal(res.array("D"), a)
    assert res.sanitizer_report.ok


@pytest.mark.mp
@pytest.mark.parametrize("execution", ["sim", "mp"])
def test_duplicate_block_requests_coalesce_on_both_backends(execution):
    """Two pardo iterations getting the same block issue one wire message.

    D is a single block (the segment spans the whole index range) and
    every ``pardo L`` iteration demands it, so the transfer engine's
    request table must fold all the duplicate fetches onto the one
    in-flight GetBlock -- on the simulator and on real processes alike.
    Static scheduling gives the worker that does not own D half the
    iterations (under guided chunks on mp the owner could take them all).
    """
    cfg = make_config(2, execution, segment_size=4, scheduling="static")
    res = run_source(COALESCE_SRC, cfg, symbolics={"nb": 4, "nl": 12})
    assert res.stats["blockio_issued_gets"] == 1
    assert res.stats["blockio_replies"] == 1
    assert res.stats["blockio_coalesced"] > 0
    assert res.sanitizer_report.ok


@pytest.mark.mp
@pytest.mark.parametrize("execution", ["sim", "mp"])
def test_ccsd_coalesces_on_both_backends(execution, monkeypatch):
    """CCSD re-gets amplitude blocks across pardo iterations; the
    engine must report coalesced duplicates on both backends.

    At a 64-byte threshold hundreds of its blocks detour through shared
    memory on the mp backend (none do at the suite's usual 256), so the
    arena's two claims bite: at least 90 % of the detoured bytes arrive
    zero-copy, and a handful of long-lived slabs serve them, not one
    segment per transfer."""
    monkeypatch.setattr(mptransport, "PAYLOAD_SHM_MIN", 64)
    out = DRIVERS["ccsd"](make_config(2, execution))
    stats = out.result.stats
    assert stats["blockio_coalesced"] > 0
    assert stats["blockio_issued_gets"] > 0
    assert stats["blockio_issued_requests"] > 0
    if execution == "mp":
        detoured = (
            stats["arena_hits"] + stats["arena_handoffs"] + stats["arena_misses"]
        )
        assert detoured >= 100
        shared = stats["bytes_zero_copy"] + stats["mp_shm_bytes"]
        assert stats["bytes_zero_copy"] >= 0.9 * shared
        creates = stats["mp_shm_segments"] + stats["arena_slabs"]
        assert creates < 0.05 * detoured
