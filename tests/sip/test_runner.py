"""End-to-end tests: SIAL programs executed on the simulated SIP."""

import numpy as np
import pytest

from repro.sip import (
    BarrierViolation,
    InfeasibleComputation,
    SIPConfig,
    SIPError,
    run_source,
)

from .test_ioserver_behavior import squeezed


def cfg(**kw):
    defaults = dict(workers=2, io_servers=1, segment_size=3)
    defaults.update(kw)
    return SIPConfig(**defaults)


def wrap(decls, body, name="t"):
    return f"sial {name}\n{decls}\n{body}\nendsial {name}\n"


BASIC_DECLS = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
aoindex L = 1, nb
distributed D(M, N)
temp T(M, N)
scalar e
"""


def test_put_then_get_roundtrip():
    src = wrap(
        BASIC_DECLS,
        """
pardo M, N
  T(M, N) = 1.0
  put D(M, N) = T(M, N)
endpardo M, N
""",
    )
    res = run_source(src, cfg(), symbolics={"nb": 7})
    assert np.all(res.array("D") == 1.0)
    assert res.elapsed > 0


def test_fill_with_scalar_expression():
    src = wrap(
        BASIC_DECLS,
        """
e = 2.0 + 1.5
pardo M, N
  T(M, N) = e
  put D(M, N) = T(M, N)
endpardo M, N
""",
    )
    res = run_source(src, cfg(), symbolics={"nb": 6})
    assert np.all(res.array("D") == 3.5)
    assert res.scalar("e") == 3.5


def test_permuted_copy_through_distributed():
    src = wrap(
        BASIC_DECLS + "distributed DT(M, N)\ntemp P(M, N)\n",
        """
pardo M, N
  T(M, N) = 0.0
  if M == N
    T(M, N) = 1.0
  endif
  put D(M, N) = T(M, N)
endpardo M, N
sip_barrier
pardo M, N
  get D(N, M)
  P(M, N) = D(N, M)
  put DT(M, N) = P(M, N)
endpardo M, N
""",
    )
    res = run_source(src, cfg(workers=3), symbolics={"nb": 7})
    D = res.array("D")
    DT = res.array("DT")
    assert np.allclose(DT, D.T)


def test_distributed_contraction_matches_numpy():
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
aoindex L = 1, nb
distributed A(M, L)
distributed B(L, N)
distributed C(M, N)
temp TA(M, L)
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
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))
    res = run_source(
        wrap(decls, body),
        cfg(workers=3, inputs={"A": a, "B": b}),
        symbolics={"nb": 8},
    )
    assert np.allclose(res.array("C"), a @ b)


def test_contract_accumulate_direct():
    # R += A*B without a temp for the product
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
  TC(M, N) *= 2.0
  put C(M, N) = TC(M, N)
endpardo M, N
"""
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))
    res = run_source(
        wrap(decls, body), cfg(inputs={"A": a, "B": b}), symbolics={"nb": 6}
    )
    assert np.allclose(res.array("C"), 2.0 * (a @ b))


def test_accumulate_put_sums_worker_contributions():
    # every (M, N) pardo iteration accumulates 1.0 into D(1..)-style
    # block owned elsewhere; total must equal number of contributions
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)
"""
    body = """
pardo M, N
  T(M, N) = 1.0
  put D(M, N) += T(M, N)
endpardo M, N
sip_barrier
pardo M, N
  T(M, N) = 1.0
  put D(M, N) += T(M, N)
endpardo M, N
"""
    res = run_source(wrap(decls, body), cfg(workers=4), symbolics={"nb": 6})
    assert np.all(res.array("D") == 2.0)


def test_scalar_contract_and_collective():
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)
scalar etot
"""
    body = """
pardo M, N
  get D(M, N)
  T(M, N) = D(M, N)
  etot += T(M, N) * T(M, N)
endpardo M, N
collective etot
"""
    rng = np.random.default_rng(9)
    d = rng.standard_normal((7, 7))
    res = run_source(
        wrap(decls, body), cfg(workers=3, inputs={"D": d}), symbolics={"nb": 7}
    )
    assert res.scalar("etot") == pytest.approx(float(np.sum(d * d)))


def test_served_array_roundtrip():
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
served SV(M, N)
distributed D(M, N)
temp T(M, N)
"""
    body = """
pardo M, N
  T(M, N) = 4.0
  prepare SV(M, N) = T(M, N)
endpardo M, N
server_barrier
pardo M, N
  request SV(M, N)
  T(M, N) = SV(M, N)
  put D(M, N) = T(M, N)
endpardo M, N
"""
    res = run_source(wrap(decls, body), cfg(workers=3, io_servers=2), symbolics={"nb": 8})
    assert np.all(res.array("D") == 4.0)
    assert np.all(res.array("SV") == 4.0)
    assert res.stats["disk_writes"] > 0


def test_served_accumulate():
    decls = """
symbolic nb
aoindex M = 1, nb
served SV(M, M)
temp T(M, M)
"""
    body = """
pardo M
  T(M, M) = 1.5
  prepare SV(M, M) += T(M, M)
endpardo M
server_barrier
pardo M
  T(M, M) = 1.5
  prepare SV(M, M) += T(M, M)
endpardo M
"""
    res = run_source(wrap(decls, body), cfg(), symbolics={"nb": 6})
    sv = res.array("SV")
    # only diagonal blocks were prepared
    for blk in range(2):
        sl = slice(3 * blk, 3 * blk + 3)
        assert np.all(sv[sl, sl] == 3.0)


def test_served_eviction_to_disk_and_reload():
    # a server budget below its 256 served blocks forces eviction to
    # disk between phases; the workers still fit without spill
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
served SV(M, N)
distributed D(M, N)
temp T(M, N)
"""
    body = """
pardo M, N
  T(M, N) = 7.0
  prepare SV(M, N) = T(M, N)
endpardo M, N
server_barrier
pardo M, N
  request SV(M, N)
  T(M, N) = SV(M, N)
  put D(M, N) = T(M, N)
endpardo M, N
"""
    src, symbolics = wrap(decls, body), {"nb": 16}
    config = squeezed(src, cfg(workers=2, io_servers=1, segment_size=1), symbolics)
    res = run_source(src, config, symbolics=symbolics)
    assert np.all(res.array("D") == 7.0)
    assert res.stats["disk_reads"] > 0  # some blocks had to come from disk


def test_barrier_violation_detected():
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)
"""
    # write then read the same array without a barrier
    body = """
pardo M, N
  T(M, N) = 1.0
  put D(M, N) = T(M, N)
endpardo M, N
pardo M, N
  get D(N, M)
  T(M, N) = D(N, M)
endpardo M, N
"""
    with pytest.raises(BarrierViolation):
        run_source(wrap(decls, body), cfg(workers=4), symbolics={"nb": 6})


def test_barrier_violation_suppressed_when_disabled():
    decls = """
symbolic nb
aoindex M = 1, nb
distributed D(M, M)
temp T(M, M)
"""
    body = """
pardo M
  T(M, M) = 1.0
  put D(M, M) = T(M, M)
endpardo M
pardo M
  get D(M, M)
  T(M, M) = D(M, M)
endpardo M
"""
    # with validation off the (racy) program runs to completion
    res = run_source(
        wrap(decls, body),
        cfg(workers=2, race_check="off"),
        symbolics={"nb": 6},
    )
    assert res.elapsed > 0


def test_where_clause_limits_iterations():
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
  put D(M, N) = T(M, N)
endpardo M, N
"""
    res = run_source(wrap(decls, body), cfg(workers=2), symbolics={"nb": 6})
    d = res.array("D")
    assert np.all(d[0:3, 3:6] == 1.0)  # block (1,2) written
    assert np.all(d[0:3, 0:3] == 0.0)  # diagonal blocks untouched
    totals = res.profile.pardo_totals()
    assert totals[0].iterations == 1


def test_procedures_and_do_loops():
    decls = """
symbolic nb
aoindex M = 1, nb
index rep = 1, 3
distributed D(M, M)
temp T(M, M)
scalar counter
"""
    body = """
proc bump
  counter += 1.0
endproc bump
do rep
  call bump
enddo rep
pardo M
  T(M, M) = counter
  put D(M, M) = T(M, M)
endpardo M
"""
    res = run_source(wrap(decls, body), cfg(), symbolics={"nb": 6})
    assert res.scalar("counter") == 3.0
    d = res.array("D")
    assert d[0, 0] == 3.0


def test_subindex_slice_and_insert():
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
subindex MM of M
distributed D(M, N)
temp TI(M, N)
temp TS(MM, N)
"""
    # slice each block into subblocks, scale them, insert back
    body = """
pardo M, N
  TI(M, N) = 2.0
  do MM in M
    TS(MM, N) = TI(MM, N)
    TS(MM, N) *= 3.0
    TI(MM, N) = TS(MM, N)
  enddo MM
  put D(M, N) = TI(M, N)
endpardo M, N
"""
    res = run_source(
        wrap(decls, body),
        cfg(workers=2, segment_size=4, subsegments_per_segment=2),
        symbolics={"nb": 8},
    )
    assert np.all(res.array("D") == 6.0)


def test_blocks_to_list_and_list_to_blocks_between_programs():
    decls = """
symbolic nb
aoindex M = 1, nb
distributed D(M, M)
temp T(M, M)
"""
    writer = wrap(decls, """
pardo M
  T(M, M) = 9.0
  put D(M, M) = T(M, M)
endpardo M
sip_barrier
blocks_to_list D
""", name="writer")
    reader = wrap(decls + "distributed OUT(M, M)\n", """
list_to_blocks D
pardo M
  get D(M, M)
  T(M, M) = D(M, M)
  put OUT(M, M) = T(M, M)
endpardo M
""", name="reader")
    store = {}
    run_source(writer, cfg(external_store=store), symbolics={"nb": 6})
    assert "d" in store
    res = run_source(reader, cfg(external_store=store), symbolics={"nb": 6})
    out = res.array("OUT")
    assert out[0, 0] == 9.0


def test_checkpoint_saves_all_distributed_arrays_and_scalars():
    decls = """
symbolic nb
aoindex M = 1, nb
distributed D(M, M)
distributed E(M, M)
temp T(M, M)
scalar iterdone
"""
    body = """
pardo M
  T(M, M) = 1.0
  put D(M, M) = T(M, M)
  put E(M, M) = T(M, M)
endpardo M
iterdone = 5.0
sip_barrier
checkpoint
"""
    store = {}
    run_source(wrap(decls, body), cfg(external_store=store), symbolics={"nb": 6})
    assert "d" in store and "e" in store
    assert store["__scalars__"][0] == 5.0


def test_custom_super_instruction_execute():
    calls = []

    def my_super(call):
        calls.append(call.name)
        if call.real:
            call.blocks[0].data[...] = call.scalars[0]
        return 100.0

    decls = """
symbolic nb
aoindex M = 1, nb
distributed D(M, M)
temp T(M, M)
"""
    body = """
pardo M
  T(M, M) = 0.0
  execute setval T(M, M), 4.5
  put D(M, M) = T(M, M)
endpardo M
"""
    res = run_source(
        wrap(decls, body),
        cfg(superinstructions={"setval": my_super}),
        symbolics={"nb": 6},
    )
    assert calls == ["setval", "setval"]
    assert res.array("D")[0, 0] == 4.5


def test_unknown_super_instruction_reported():
    decls = "symbolic nb\naoindex M = 1, nb\ntemp T(M, M)\n"
    body = "pardo M\nT(M, M) = 0.0\nexecute nosuch T(M, M)\nendpardo\n"
    with pytest.raises(SIPError, match="unknown super instruction"):
        run_source(wrap(decls, body), cfg(), symbolics={"nb": 6})


def test_model_mode_runs_without_data():
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
    res = run_source(
        wrap(decls, body),
        cfg(workers=4, backend="model", inputs={"A": None, "B": None}),
        symbolics={"nb": 12},
    )
    assert res.elapsed > 0
    assert res.profile.total_busy > 0
    with pytest.raises(SIPError, match="model mode"):
        res.array("C")


def test_model_and_real_mode_same_simulated_time():
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)
"""
    body = """
pardo M, N
  T(M, N) = 1.0
  put D(M, N) = T(M, N)
endpardo M, N
"""
    r_real = run_source(wrap(decls, body), cfg(workers=2), symbolics={"nb": 6})
    r_model = run_source(
        wrap(decls, body), cfg(workers=2, backend="model"), symbolics={"nb": 6}
    )
    assert r_real.elapsed == pytest.approx(r_model.elapsed, rel=1e-9)


def test_deterministic_elapsed_time():
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)
"""
    body = """
pardo M, N
  T(M, N) = 1.0
  put D(M, N) += T(M, N)
endpardo M, N
"""
    times = {
        run_source(wrap(decls, body), cfg(workers=3), symbolics={"nb": 9}).elapsed
        for _ in range(3)
    }
    assert len(times) == 1


def test_get_of_unwritten_block_is_error():
    decls = "symbolic nb\naoindex M = 1, nb\ndistributed D(M, M)\ntemp T(M, M)\n"
    body = "pardo M\nget D(M, M)\nT(M, M) = D(M, M)\nendpardo\n"
    # one worker owns every block, so only the owner-local paths run;
    # with two, a remote get reaches the owner's service pump as well:
    # the text names the array either way
    for workers in (1, 2):
        with pytest.raises(SIPError, match=r"unwritten distributed block .* \(array 'D'\)"):
            run_source(wrap(decls, body), cfg(workers=workers), symbolics={"nb": 6})


def test_memory_budget_enforced_via_dry_run():
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)
"""
    body = "pardo M, N\nT(M, N) = 1.0\nput D(M, N) = T(M, N)\nendpardo\n"
    with pytest.raises(InfeasibleComputation, match="INFEASIBLE"):
        run_source(
            wrap(decls, body),
            cfg(workers=1, memory_per_worker=10_000.0, segment_size=8),
            symbolics={"nb": 64},
        )


def test_more_workers_do_not_change_results():
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
    rng = np.random.default_rng(11)
    a = rng.standard_normal((9, 9))
    b = rng.standard_normal((9, 9))
    results = [
        run_source(
            wrap(decls, body),
            cfg(workers=w, inputs={"A": a, "B": b}),
            symbolics={"nb": 9},
        ).array("C")
        for w in (1, 2, 5)
    ]
    for r in results[1:]:
        assert np.allclose(r, results[0])


def test_more_workers_reduce_elapsed_time():
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
    times = [
        run_source(
            wrap(decls, body),
            cfg(workers=w, backend="model", inputs={"A": None, "B": None},
                segment_size=8),
            symbolics={"nb": 64},
        ).elapsed
        for w in (1, 4)
    ]
    assert times[1] < times[0] / 2  # at least 2x speedup from 4x workers


def test_prefetch_reduces_wait_time():
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
aoindex L = 1, nb
distributed A(M, L)
distributed C(M, N)
temp TC(M, N)
temp TB(L, N)
"""
    body = """
pardo M, N
  TC(M, N) = 0.0
  do L
    get A(M, L)
    TB(L, N) = 1.0
    TC(M, N) += A(M, L) * TB(L, N)
  enddo L
  put C(M, N) = TC(M, N)
endpardo M, N
"""
    from repro.machines import Machine

    slow_net = Machine(
        name="slownet",
        flop_rate=50e9,
        kernel_overhead=1e-6,
        latency=50e-6,
        bandwidth=0.05e9,
        memory_per_rank=4e9,
    )

    def run(depth):
        return run_source(
            wrap(decls, body),
            cfg(workers=2, backend="model", prefetch_depth=depth,
                inputs={"A": None}, segment_size=8, machine=slow_net),
            symbolics={"nb": 64},
        )

    no_prefetch = run(0)
    prefetch = run(3)
    assert prefetch.profile.total_wait < no_prefetch.profile.total_wait
    assert prefetch.elapsed < no_prefetch.elapsed


def test_profile_report_renders():
    decls = "symbolic nb\naoindex M = 1, nb\ndistributed D(M, M)\ntemp T(M, M)\n"
    body = "pardo M\nT(M, M) = 1.0\nput D(M, M) = T(M, M)\nendpardo\n"
    res = run_source(wrap(decls, body), cfg(), symbolics={"nb": 6})
    text = res.profile.report()
    assert "wait fraction" in text
    assert "pardo 0" in text


def test_allocate_deallocate_local_blocks():
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
local LO(M, N)
distributed D(M, N)
"""
    body = """
pardo M, N
  allocate LO(M, N)
  LO(M, N) = 3.0
  put D(M, N) = LO(M, N)
  deallocate LO(M, N)
endpardo M, N
"""
    res = run_source(wrap(decls, body), cfg(), symbolics={"nb": 6})
    assert np.all(res.array("D") == 3.0)
    # at most one LO block live at a time on top of the owned D blocks
    # (6x6 array, 3x3 blocks, 2 workers -> <= 2 owned blocks per worker)
    assert res.stats["pool_peak_bytes"] <= 3 * 3 * 3 * 8


def test_create_delete_distributed():
    decls = """
symbolic nb
aoindex M = 1, nb
distributed D(M, M)
temp T(M, M)
"""
    body = """
create D
pardo M
  T(M, M) = 1.0
  put D(M, M) = T(M, M)
endpardo M
sip_barrier
delete D
"""
    res = run_source(wrap(decls, body), cfg(), symbolics={"nb": 6})
    assert np.all(res.array("D") == 0.0)  # deleted: gathers as zeros


def test_static_array_input_readable_everywhere():
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
static S(M, N)
distributed D(M, N)
temp T(M, N)
"""
    body = """
pardo M, N
  T(M, N) = S(M, N)
  put D(M, N) = T(M, N)
endpardo M, N
"""
    s = np.arange(36.0).reshape(6, 6)
    res = run_source(wrap(decls, body), cfg(workers=3, inputs={"S": s}), symbolics={"nb": 6})
    assert np.array_equal(res.array("D"), s)


def test_two_pardos_without_barrier_can_overlap():
    # not separated by a barrier and touching different arrays: legal
    decls = """
symbolic nb
aoindex M = 1, nb
distributed D1(M, M)
distributed D2(M, M)
temp T(M, M)
"""
    body = """
pardo M
  T(M, M) = 1.0
  put D1(M, M) = T(M, M)
endpardo M
pardo M
  T(M, M) = 2.0
  put D2(M, M) = T(M, M)
endpardo M
"""
    res = run_source(wrap(decls, body), cfg(workers=2), symbolics={"nb": 8})
    assert res.array("D1")[0, 0] == 1.0
    assert res.array("D2")[0, 0] == 2.0
