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
from repro.sip import SIPConfig, SIPError, mptransport
from repro.sip.runner import run_source

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


def make_config(workers: int, execution: str, **kw) -> SIPConfig:
    defaults = dict(
        workers=workers,
        io_servers=1,
        segment_size=2,
        sanitize=True,
        execution=execution,
    )
    if execution == "mp":
        # low threshold so small test blocks still exercise the
        # shared-memory path, not just inline pickling
        defaults["mp_payload_shm_min"] = 256
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
    engines = mp.result.profile.transport["engines"]
    assert len(engines) == workers
    assert all(e.events_fired > 0 and e.blocked_s >= 0.0 for e in engines)
    assert mp.result.stats["mp_engine_events_fired"] == sum(
        e.events_fired for e in engines
    )
    assert mp.result.stats["mp_engine_blocked_max_s"] == max(
        e.blocked_s for e in engines
    )
    assert "mp worker engines: blocked" in mp.result.profile.report()
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
def test_arena_overflow_path_stays_bitwise_identical():
    """Starving the arena into its one-shot overflow path is a pure
    transport detour: it must not move a single bit of the results."""
    driver = DRIVERS["mp2_energy"]
    sim = driver(make_config(2, "sim"))
    mp = driver(
        make_config(2, "mp", mp_arena_slab_bytes=4096, mp_arena_max_bytes=8192)
    )
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
    assert "mp gather: " in mp.result.profile.report()
    # one stats surface: the simulator reports the same keys, at zero
    ends = ("mp_gather_s", "mp_scatter_s", "mp_gather_bytes", "mp_result_pickle_bytes")
    assert all(sim.result.stats[k] == 0 for k in ends)


@pytest.mark.mp
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_checkpoint_chaining_matches_simulator(workers):
    """External-store writes merge back so run chaining works on mp."""

    def factory(execution):
        def make():
            return make_config(workers, execution, sanitize=False)

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
        2, "mp", sanitize=False, superinstructions={"explode": explode}
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
    cfg = make_config(2, "mp", sanitize=False, superinstructions={"die": die})
    with pytest.raises(SIPError, match="died|failed|gone|disconnected"):
        run_source(source, cfg, {"nb": 4})


@pytest.mark.mp
def test_mp_rejects_fault_injection_and_resilience():
    from repro.sip import FaultPlan

    with pytest.raises(ValueError, match="virtual time"):
        SIPConfig(execution="mp", faults=FaultPlan(seed=1))
    with pytest.raises(ValueError, match="virtual time"):
        SIPConfig(execution="mp", resilient=True)


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


@pytest.mark.mp
@pytest.mark.parametrize("execution", ["sim", "mp"])
def test_duplicate_block_requests_coalesce_on_both_backends(execution):
    """Two pardo iterations getting the same block issue one wire message.

    D is a single block (the segment spans the whole index range) and
    every ``pardo L`` iteration demands it, so the transfer engine's
    request table must fold all the duplicate fetches onto the one
    in-flight GetBlock -- on the simulator and on real processes alike.
    """
    cfg = make_config(2, execution, segment_size=4)
    res = run_source(COALESCE_SRC, cfg, symbolics={"nb": 4, "nl": 12})
    assert res.stats["blockio_issued_gets"] == 1
    assert res.stats["blockio_replies"] == 1
    assert res.stats["blockio_coalesced"] > 0
    assert res.sanitizer_report.ok


@pytest.mark.mp
@pytest.mark.parametrize("execution", ["sim", "mp"])
def test_ccsd_coalesces_on_both_backends(execution):
    """CCSD re-gets amplitude blocks across pardo iterations; the
    engine must report coalesced duplicates on both backends.

    At a 64-byte threshold hundreds of its blocks detour through shared
    memory on the mp backend (none do at the suite's usual 256), so the
    arena's two claims bite: at least 90 % of the detoured bytes arrive
    zero-copy, and a handful of long-lived slabs serve them, not one
    segment per transfer."""
    out = DRIVERS["ccsd"](make_config(2, execution, mp_payload_shm_min=64))
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
