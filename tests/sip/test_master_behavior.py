"""Master-protocol behaviors: pardo activations, collectives, scheduling."""

import dataclasses

import numpy as np
import pytest

from repro.programs import (
    run_ao2mo,
    run_ccsd,
    run_fock_build,
    run_lccd,
    run_mp2,
    run_paper_contraction,
)
from repro.sial.bytecode import CompiledCondition
from repro.sial.compiler import compile_source
from repro.sip import FaultPlan, SIPConfig, run_program, run_source
from repro.sip.master import MasterProcess
from repro.sip.messages import CollectiveContribution


def wrap(decls, body):
    return f"sial t\n{decls}\n{body}\nendsial t\n"


def test_pardo_inside_do_loop_activates_per_trip():
    """The same pardo pc executes once per enclosing do-loop trip; the
    master must treat each activation as a fresh iteration space."""
    decls = """
symbolic nb
symbolic niter
aoindex M = 1, nb
index it = 1, niter
distributed D(M, M)
temp T(M, M)
"""
    body = """
do it
  pardo M
    T(M, M) = 1.0
    put D(M, M) += T(M, M)
  endpardo M
  sip_barrier
enddo it
"""
    res = run_source(
        wrap(decls, body),
        SIPConfig(workers=3, io_servers=1, segment_size=2),
        {"nb": 6, "niter": 5},
    )
    assert np.all(np.diag(res.array("D")) == 5.0)
    totals = res.profile.pardo_totals()
    assert totals[0].iterations == 5 * 3  # 5 activations x 3 diagonal blocks


def test_consecutive_pardos_get_independent_spaces():
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)
"""
    body = """
pardo M, N where M < N
  T(M, N) = 1.0
  put D(M, N) += T(M, N)
endpardo M, N
pardo M, N where M > N
  T(M, N) = 2.0
  put D(M, N) += T(M, N)
endpardo M, N
"""
    res = run_source(
        wrap(decls, body),
        SIPConfig(workers=2, io_servers=1, segment_size=3),
        {"nb": 9},
    )
    d = res.array("D")
    assert np.all(d[0:3, 3:9] == 1.0)  # upper blocks from pardo 0
    assert np.all(d[3:9, 0:3] == 2.0)  # lower blocks from pardo 1
    assert np.all(d[0:3, 0:3] == 0.0)  # diagonal untouched


def test_multiple_collectives_in_sequence():
    decls = "symbolic nb\naoindex M = 1, nb\ntemp T(M, M)\nscalar a\nscalar b\n"
    body = """
pardo M
  T(M, M) = 1.0
  a += T(M, M) * T(M, M)
endpardo M
collective a
pardo M
  T(M, M) = 2.0
  b += T(M, M) * T(M, M)
endpardo M
collective b
"""
    res = run_source(
        wrap(decls, body),
        SIPConfig(workers=3, io_servers=1, segment_size=2),
        {"nb": 8},
    )
    # 4 diagonal blocks of 2x2: a = 4*4*1, b = 4*4*4
    assert res.scalar("a") == pytest.approx(16.0)
    assert res.scalar("b") == pytest.approx(64.0)


def test_collective_deterministic_across_runs():
    decls = "symbolic nb\naoindex M = 1, nb\ntemp T(M, M)\nscalar s\n"
    body = """
pardo M
  T(M, M) = 0.1
  s += T(M, M) * T(M, M)
endpardo M
collective s
"""
    values = {
        run_source(
            wrap(decls, body),
            SIPConfig(workers=w, io_servers=1, segment_size=1),
            {"nb": 13},
        ).scalar("s")
        for w in (1, 2, 3, 7)
    }
    # bitwise identical regardless of worker count (master sums in
    # worker order, contributions partitioned deterministically)...
    # at minimum, all equal to within strict fp reproducibility of the
    # deterministic schedule:
    assert max(values) - min(values) < 1e-12


def test_static_scheduling_end_to_end():
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)
"""
    body = """
pardo M, N
  T(M, N) = 7.0
  put D(M, N) = T(M, N)
endpardo M, N
"""
    res = run_source(
        wrap(decls, body),
        SIPConfig(workers=3, io_servers=1, segment_size=2, scheduling="static"),
        {"nb": 8},
    )
    assert np.all(res.array("D") == 7.0)
    # static: one work chunk + one empty reply per worker
    assert res.stats["chunks_served"] <= 6


_LOCALITY_SRC = wrap(
    """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
distributed E(M, N)
temp T(M, N)
temp S(M, N)
scalar acc
""",
    """
pardo M, N
  T(M, N) = 1.5
  put D(M, N) = T(M, N)
endpardo M, N
sip_barrier
pardo M, N where M < N
  get D(M, N)
  S(M, N) = D(M, N) * 2.0
  put E(M, N) = S(M, N)
  acc += S(M, N) * D(M, N)
endpardo M, N
collective acc
""",
)


_POLICIES = ("guided", "static", "locality")


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_locality_bitwise_identical_to_guided(workers):
    """The acceptance bar: same bits out of every policy."""
    results = {}
    for policy in _POLICIES:
        res = run_source(
            _LOCALITY_SRC,
            SIPConfig(
                workers=workers, io_servers=1, segment_size=2, scheduling=policy
            ),
            {"nb": 8},
        )
        results[policy] = (res.scalar("acc"), res.array("E").tobytes())
    assert results["locality"] == results["guided"] == results["static"]


#: program -> one run under a config; MP2 stays at ten basis functions
#: (at six, locality and guided both move 5 184 B)
_LOCALITY_DRIVERS = {
    "mp2": lambda cfg: run_mp2(n_basis=10, n_occ=4, config=cfg),
    "ccsd": lambda cfg: run_ccsd(n_basis=4, n_occ=2, iterations=1, config=cfg),
}


def _locality_run(program, cfg):
    """(stats, value bytes) of one run; a bundled program must also
    reproduce its numpy reference."""
    if program == "micro":
        res = run_source(_LOCALITY_SRC, cfg, {"nb": 12})
        return res.stats, res.array("E").tobytes()
    out = _LOCALITY_DRIVERS[program](cfg)
    assert out.error < 1e-10, (program, cfg.scheduling, out.error)
    return out.result.stats, np.asarray(out.value).tobytes()


@pytest.mark.parametrize(
    "program,workers",
    [("micro", 4), ("mp2", 2), ("mp2", 4), ("ccsd", 2), ("ccsd", 4)],
)
def test_locality_end_to_end_stats_and_fewer_remote_bytes(program, workers):
    runs = {
        policy: _locality_run(
            program,
            SIPConfig(
                workers=workers, io_servers=1, segment_size=2, scheduling=policy
            ),
        )
        for policy in _POLICIES
    }
    assert runs["locality"][1] == runs["guided"][1] == runs["static"][1]
    loc, g = runs["locality"][0], runs["guided"][0]
    assert loc["sched_policy"] == "locality"
    assert loc["sched_locality_hits"] > 0
    assert loc["sched_locality_hits"] + loc["sched_locality_misses"] == loc[
        "sched_iterations"
    ]
    # aligning iterations with the owners of the blocks they get must
    # move strictly fewer remote bytes than placement-blind guided
    assert loc["remote_bytes"] < g["remote_bytes"]
    assert g["sched_policy"] == "guided"
    assert g["sched_locality_hits"] == 0 and g["sched_steals"] == 0


#: every bundled driver that takes a config, at the sizes the scheduling
#: sweep has always used; all but MP2 take seconds, so they are `slow`
_SWEEP_DRIVERS = {
    "mp2_energy": lambda cfg: run_mp2(n_basis=10, n_occ=4, config=cfg),
    "ccsd": lambda cfg: run_ccsd(n_basis=6, n_occ=2, iterations=2, config=cfg),
    "paper_contraction": lambda cfg: run_paper_contraction(
        n_basis=8, n_occ=3, config=cfg
    ),
    "ao2mo_transform": lambda cfg: run_ao2mo(n_basis=6, config=cfg),
    "lccd_iteration": lambda cfg: run_lccd(
        n_basis=6, n_occ=2, iterations=2, config=cfg
    ),
    "fock_build": lambda cfg: run_fock_build(n_basis=8, n_occ=3, config=cfg),
}


@pytest.mark.parametrize(
    "program",
    [
        pytest.param(
            name, marks=[] if name == "mp2_energy" else [pytest.mark.slow]
        )
        for name in _SWEEP_DRIVERS
    ],
)
def test_bundled_program_bitwise_identical_across_policies(program):
    """Every policy gives the same bits, and the right answer, for every
    bundled program at 1, 2 and 4 workers."""
    for workers in (1, 2, 4):
        values = {}
        for policy in _POLICIES:
            out = _SWEEP_DRIVERS[program](
                SIPConfig(
                    workers=workers,
                    io_servers=1,
                    segment_size=2,
                    scheduling=policy,
                )
            )
            assert out.error < 1e-10, (program, policy, workers, out.error)
            values[policy] = np.asarray(out.value).tobytes()
        assert values["locality"] == values["guided"] == values["static"], (
            program,
            workers,
        )


def test_locality_profile_and_trace_surface_counters():
    from repro.sip import TraceRecorder

    tracer = TraceRecorder()
    res = run_source(
        _LOCALITY_SRC,
        SIPConfig(
            workers=3,
            io_servers=1,
            segment_size=2,
            scheduling="locality",
            tracer=tracer,
        ),
        {"nb": 8},
    )
    stats = res.stats
    assert stats["sched_policy"] == "locality"
    assert "sched_policy=locality" in res.profile.report()
    assert tracer.sched_events
    assert len(tracer.sched_events) == stats["sched_chunks"]
    assert sum(e.size for e in tracer.sched_events) == stats["sched_iterations"]
    assert "chunk scheduling:" in tracer.report()


def test_collective_bitwise_across_worker_counts():
    """The canonical per-iteration reduction makes collectives exactly
    reproducible across worker counts, not just to 1e-12.  (The scalar
    must start at zero: a nonzero base assigned in serial code runs
    redundantly on every worker and is summed once per worker, by the
    collective's long-standing semantics.)"""
    decls = "symbolic nb\naoindex M = 1, nb\ntemp T(M, M)\nscalar s\n"
    body = """
pardo M
  T(M, M) = 0.1
  s += T(M, M) * T(M, M)
endpardo M
collective s
"""
    values = {
        run_source(
            wrap(decls, body),
            SIPConfig(workers=w, io_servers=1, segment_size=1),
            {"nb": 13},
        ).scalar("s")
        for w in (1, 2, 3, 7)
    }
    assert len(values) == 1


def test_collective_reduce_ignores_which_worker_ran_an_iteration():
    """The same per-iteration deltas, dealt to the workers two ways,
    reduce to the same bits -- chosen so that any other summation order
    gives another number.  A poisoned contribution falls back to the
    worker-order sum of full values."""
    deltas = [((0, 0, i), d) for i, d in enumerate([1e16, 1.0, -1e16, 1.0])]

    def contributions(split):
        return [
            CollectiveContribution(
                seq=0,
                worker_index=w,
                value=sum(d for _, d in mine),
                reply_tag=1,
                deltas=tuple(mine),
            )
            for w, mine in enumerate(split)
        ]

    dealt = contributions([deltas[0::2], deltas[1::2]])
    swapped = contributions([deltas[1::2], deltas[0::2]])
    assert MasterProcess._reduce(dealt) == MasterProcess._reduce(swapped) == 1.0
    dealt[1] = dataclasses.replace(dealt[1], poisoned=True)
    assert MasterProcess._reduce(dealt) == 0.0 + 2.0


def test_pardo_where_clause_reading_scalar_uses_worker_snapshot():
    """Regression: the master used to enumerate where clauses against
    its own (stale, in fact never-populated) scalar state.  The
    analyzer rejects scalars in where clauses, so build the condition
    by patching the compiled bytecode, the way hand-built programs
    can."""
    src = wrap(
        """
symbolic nb
aoindex M = 1, nb
distributed D(M, M)
temp T(M, M)
scalar thresh
""",
        """
thresh = 2.0
pardo M where M < nb
  T(M, M) = 1.0
  put D(M, M) = T(M, M)
endpardo M
""",
    )
    prog = compile_source(src)
    thresh_id = prog.scalar_table.index("thresh")
    pc, start = next(
        (pc, i)
        for pc, i in enumerate(prog.instructions)
        if i.op == "PARDO_START"
    )
    cond = start.args[2][0]
    # rewrite `M < nb` into `M < thresh`
    patched = (
        CompiledCondition(cond.op, cond.left_rpn, (("scalar", thresh_id),)),
    )
    args = start.args[:2] + (patched,) + start.args[3:]
    prog.instructions[pc] = dataclasses.replace(start, args=args)
    res = run_program(
        prog,
        SIPConfig(workers=2, io_servers=1, segment_size=2),
        {"nb": 8},
    )
    d = res.array("D")
    # thresh = 2.0 at pardo entry: only segment M=1 qualifies
    assert np.all(np.diag(d)[:2] == 1.0)
    assert np.all(np.diag(d)[2:] == 0.0)


def test_chunk_replay_keyed_per_activation_under_faults():
    """Regression for the replay-cache collision: with injected delays
    and drops, retried chunk requests from several activations of the
    same pardo pc must never be answered with another activation's
    cached chunk."""
    decls = """
symbolic nb
symbolic niter
aoindex M = 1, nb
index it = 1, niter
distributed D(M, M)
temp T(M, M)
"""
    body = """
do it
  pardo M
    T(M, M) = 1.0
    put D(M, M) += T(M, M)
  endpardo M
  sip_barrier
enddo it
"""
    plan = FaultPlan(
        seed=11,
        message_drop_rate=0.04,
        message_delay_rate=0.3,
        message_delay=0.02,
        max_message_drops=40,
    )
    res = run_source(
        wrap(decls, body),
        SIPConfig(
            workers=3,
            io_servers=1,
            segment_size=2,
            faults=plan,
        ),
        {"nb": 6, "niter": 5},
    )
    assert np.all(np.diag(res.array("D")) == 5.0)
    totals = res.profile.pardo_totals()
    assert totals[0].iterations == 5 * 3


def test_empty_pardo_iteration_space():
    decls = """
symbolic nb
aoindex M = 1, nb
distributed D(M, M)
temp T(M, M)
scalar x
"""
    body = """
pardo M where M > 99
  T(M, M) = 1.0
  put D(M, M) = T(M, M)
endpardo M
x = 1.0
"""
    res = run_source(
        wrap(decls, body),
        SIPConfig(workers=2, io_servers=1, segment_size=2),
        {"nb": 6},
    )
    assert res.scalar("x") == 1.0
    assert np.all(res.array("D") == 0.0)
