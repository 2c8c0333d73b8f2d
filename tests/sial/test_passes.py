"""Unit tests for the optimizing middle-end (repro.sial.passes).

Each pass is exercised on a small synthetic program whose bytecode
shape triggers it, and the rewritten program must (a) pass
verify_program, (b) show the expected structural change, and (c)
produce bitwise-identical results when run.  The differential suite
(test_passes_differential.py) covers the bundled applications; here we
pin down the per-pass mechanics.
"""

import pytest

from repro.sial import compile_source
from repro.sial.bytecode import Op
from repro.sial.passes import (
    build_pipeline,
    coalesce_barriers,
    eliminate_dead,
    eliminate_redundant_fetches,
    fold_constants,
    fuse_contractions,
    hoist_invariants,
    insert_prefetches,
    optimize_program,
    verify_program,
)
from repro.sip import SIPConfig
from repro.sip.runner import run_program, run_source

NB = {"nb": 4.0}


def ops(prog) -> list[str]:
    return [i.op for i in prog.instructions]


def run_both(source: str, symbolics=NB, **cfg_kw):
    """Run at -O0 and -O2 on the simulator; return both results."""
    results = []
    for level in (0, 2):
        cfg = SIPConfig(
            workers=2, segment_size=2, race_check="report",
            opt_level=level, **cfg_kw,
        )
        results.append(run_source(source, cfg, dict(symbolics)))
    return results


def assert_bitwise(r0, r2) -> None:
    assert r0.scalars == r2.scalars
    assert r0.sanitizer_report.ok == r2.sanitizer_report.ok


# ---------------------------------------------------------------------------
# constant folding + RPN dedup
# ---------------------------------------------------------------------------
CONSTFOLD_SRC = """sial t
scalar x
scalar y
x = 2.0 * 3.0 + 1.0
y = 2.0 * 3.0 + 1.0
x = x * (4.0 - 2.0)
endsial t
"""


def test_constfold_reduces_rpn_to_literal():
    prog = compile_source(CONSTFOLD_SRC, optimize=0)
    folded, report = fold_constants(prog)
    assert bool(verify_program(folded))
    assigns = [i for i in folded.instructions if i.op == Op.SCALAR_ASSIGN]
    # 2.0 * 3.0 + 1.0 folds to the single literal 7.0
    assert assigns[0].args[2] == (("num", 7.0),)
    # x * (4.0 - 2.0) folds the subexpression but keeps the scalar read
    assert (
        ("num", 2.0) in assigns[2].args[2]
        and not any(t[0] == "num" and t[1] == 4.0 for t in assigns[2].args[2])
    )


def test_constfold_interns_identical_rpn_programs():
    prog = compile_source(CONSTFOLD_SRC, optimize=0)
    folded, _ = fold_constants(prog)
    assigns = [i for i in folded.instructions if i.op == Op.SCALAR_ASSIGN]
    # x and y are assigned the same folded expression: one shared tuple
    assert assigns[0].args[2] is assigns[1].args[2]


# ---------------------------------------------------------------------------
# dead code elimination
# ---------------------------------------------------------------------------
DCE_SRC = """sial t
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)
temp DEAD(M, N)
pardo M, N
  T(M, N) = 1.0
  DEAD(M, N) = 2.0
  put D(M, N) = T(M, N)
endpardo M, N
endsial t
"""


def test_dce_removes_unread_temp_writes_and_prunes_the_array():
    prog = compile_source(DCE_SRC, optimize=0)
    before_arrays = [d.name for d in prog.array_table]
    assert "DEAD" in before_arrays
    after, report = eliminate_dead(prog)
    assert bool(verify_program(after))
    assert report.removed >= 1
    # the FILL of DEAD is gone and so is its descriptor
    assert all(
        i.args[0].array_id != before_arrays.index("DEAD")
        for i in after.instructions
        if i.op == Op.FILL
    )
    assert "DEAD" not in [d.name for d in after.array_table]
    r0, r2 = run_both(DCE_SRC)
    assert_bitwise(r0, r2)


# ---------------------------------------------------------------------------
# contraction fusion
# ---------------------------------------------------------------------------
FUSE_SRC = """sial t
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
aoindex K = 1, nb
distributed A(M, K)
distributed B(K, N)
distributed C(M, N)
temp TA(M, K)
temp TB(K, N)
temp ACC(M, N)
temp TMP(M, N)
pardo M, K
  TA(M, K) = 1.5
  put A(M, K) = TA(M, K)
endpardo M, K
pardo K, N
  TB(K, N) = 2.0
  put B(K, N) = TB(K, N)
endpardo K, N
sip_barrier
pardo M, N
  ACC(M, N) = 0.0
  do K
    get A(M, K)
    get B(K, N)
    TMP(M, N) = A(M, K) * B(K, N)
    ACC(M, N) += TMP(M, N)
  enddo K
  put C(M, N) = ACC(M, N)
endpardo M, N
endsial t
"""


def test_fuse_rewrites_contract_accum_pair_into_one_superinstruction():
    prog = compile_source(FUSE_SRC, optimize=0)
    fused, report = fuse_contractions(prog)
    assert bool(verify_program(fused))
    assert report.removed == 1
    assert Op.CONTRACT_FUSED in ops(fused)
    assert ops(fused).count(Op.CONTRACT) == 0
    instr = next(i for i in fused.instructions if i.op == Op.CONTRACT_FUSED)
    dst, op2, a, b, tmp_ids, factor = instr.args
    assert op2 == "+="
    assert factor is None
    assert set(dst.index_ids) == set(tmp_ids)


def test_fused_pipeline_sweeps_the_dead_temp():
    prog = optimize_program(compile_source(FUSE_SRC, optimize=0), 2)
    # TMP only existed to carry the contraction into the +=; after
    # fusion + DCE its descriptor is gone
    assert "TMP" not in [d.name for d in prog.array_table]


def test_fuse_results_bitwise_identical():
    r0, r2 = run_both(FUSE_SRC)
    assert_bitwise(r0, r2)


def test_fuse_refuses_when_temp_escapes():
    source = FUSE_SRC.replace(
        "  put C(M, N) = ACC(M, N)\n",
        "  TMP(M, N) *= 2.0\n  put C(M, N) = ACC(M, N)\n",
    )
    prog = compile_source(source, optimize=0)
    fused, report = fuse_contractions(prog)
    assert report.removed == 0
    assert Op.CONTRACT_FUSED not in ops(fused)


# ---------------------------------------------------------------------------
# loop-invariant hoisting / fetch dedup / prefetch
# ---------------------------------------------------------------------------
HOIST_SRC = """sial t
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
aoindex K = 1, nb
distributed D(M, N)
distributed W(M, N)
temp T(M, N)
temp U(M, N)
pardo M, N
  T(M, N) = 3.0
  put D(M, N) = T(M, N)
endpardo M, N
sip_barrier
pardo M, N
  U(M, N) = 0.0
  do K
    get D(M, N)
    T(M, N) = D(M, N)
    T(M, N) *= 0.5
    U(M, N) += T(M, N)
  enddo K
  put W(M, N) = U(M, N)
endpardo M, N
endsial t
"""


def test_hoist_moves_invariant_get_before_the_loop():
    prog = compile_source(HOIST_SRC, optimize=0)
    hoisted, report = hoist_invariants(prog)
    assert bool(verify_program(hoisted))
    assert report.removed == 1
    seq = ops(hoisted)
    # the get now sits before the DO_START instead of inside the body
    do_pc = seq.index(Op.DO_START, seq.index(Op.SIP_BARRIER))
    assert hoisted.instructions[do_pc - 1].op == Op.GET


def test_hoist_results_bitwise_identical():
    r0, r2 = run_both(HOIST_SRC)
    assert_bitwise(r0, r2)


DEDUP_SRC = """sial t
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
aoindex K = 1, nb
distributed D(M, N)
distributed W(M, N)
temp T(M, N)
temp U(M, N)
pardo M, N
  T(M, N) = 2.0
  put D(M, N) = T(M, N)
endpardo M, N
sip_barrier
pardo M, N
  get D(M, N)
  T(M, N) = D(M, N)
  get D(M, N)
  U(M, N) = D(M, N)
  U(M, N) += T(M, N)
  put W(M, N) = U(M, N)
endpardo M, N
endsial t
"""


def test_dedup_deletes_refetch_of_identical_operand():
    prog = compile_source(DEDUP_SRC, optimize=0)
    deduped, report = eliminate_redundant_fetches(prog)
    assert bool(verify_program(deduped))
    assert report.removed == 1
    r0, r2 = run_both(DEDUP_SRC)
    assert_bitwise(r0, r2)


def test_dedup_dominator_covers_sibling_loops_over_the_same_index():
    source = """sial t
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
aoindex K = 1, nb
distributed D(M, K)
distributed E(K, N)
distributed W(M, N)
temp TD(M, K)
temp TE(K, N)
temp U(M, N)
pardo M, K
  TD(M, K) = 1.0
  put D(M, K) = TD(M, K)
endpardo M, K
pardo K, N
  TE(K, N) = 0.5
  put E(K, N) = TE(K, N)
endpardo K, N
sip_barrier
pardo M, N
  U(M, N) = 0.0
  do K
    get D(M, K)
    get E(K, N)
    U(M, N) += D(M, K) * E(K, N)
  enddo K
  do K
    get D(M, K)
    get E(K, N)
    U(M, N) += D(M, K) * E(K, N)
  enddo K
  put W(M, N) = U(M, N)
endpardo M, N
endsial t
"""
    prog = compile_source(source, optimize=0)
    deduped, report = eliminate_redundant_fetches(prog)
    # the second sibling `do K` re-fetches exactly the blocks the first
    # already enumerated: its gets are dominated and deleted
    assert report.removed == 2
    r0, r2 = run_both(source)
    assert_bitwise(r0, r2)


PREFETCH_SRC = """sial t
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
distributed E(M, N)
distributed W(M, N)
temp T(M, N)
temp U(M, N)
pardo M, N
  T(M, N) = 1.0
  put D(M, N) = T(M, N)
  U(M, N) = 2.0
  put E(M, N) = U(M, N)
endpardo M, N
sip_barrier
pardo M, N
  get D(M, N)
  T(M, N) = D(M, N)
  get E(M, N)
  U(M, N) = E(M, N)
  U(M, N) += T(M, N)
  put W(M, N) = U(M, N)
endpardo M, N
endsial t
"""


def test_prefetch_hints_land_at_body_start():
    prog = compile_source(PREFETCH_SRC, optimize=0)
    hinted, report = insert_prefetches(prog)
    assert bool(verify_program(hinted))
    assert report.inserted >= 1
    seq = ops(hinted)
    # every hint sits directly after a PARDO_START
    for pc, op in enumerate(seq):
        if op == Op.PREFETCH:
            assert seq[pc - 1] in (Op.PARDO_START, Op.PREFETCH)
    # hinted pcs joined the pardo's get_pcs (locality affinity feed)
    for instr in hinted.instructions:
        if instr.op == Op.PARDO_START:
            get_pcs = instr.args[4]
            assert all(
                hinted.instructions[g].op
                in (Op.GET, Op.REQUEST, Op.PREFETCH)
                for g in get_pcs
            )


# ---------------------------------------------------------------------------
# barrier coalescing
# ---------------------------------------------------------------------------
REDUNDANT_BARRIER_SRC = """sial t
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
distributed W(M, N)
temp T(M, N)
pardo M, N
  T(M, N) = 1.0
  put D(M, N) = T(M, N)
endpardo M, N
sip_barrier
sip_barrier
pardo M, N
  get D(M, N)
  T(M, N) = D(M, N)
  put W(M, N) = T(M, N)
endpardo M, N
endsial t
"""


def test_barrier_coalescing_removes_provably_redundant_barrier():
    prog = compile_source(REDUNDANT_BARRIER_SRC, optimize=0)
    assert ops(prog).count(Op.SIP_BARRIER) == 2
    merged, report = coalesce_barriers(prog)
    assert bool(verify_program(merged))
    assert report.removed == 1
    assert ops(merged).count(Op.SIP_BARRIER) == 1
    r0, r2 = run_both(REDUNDANT_BARRIER_SRC)
    assert_bitwise(r0, r2)


def test_barrier_coalescing_keeps_load_bearing_barriers():
    prog = compile_source(HOIST_SRC, optimize=0)
    merged, report = coalesce_barriers(prog)
    # the single barrier separates the producing and consuming pardos:
    # removing it would introduce a race diagnostic, so it stays
    assert report.removed == 0
    assert ops(merged).count(Op.SIP_BARRIER) == 1


# ---------------------------------------------------------------------------
# pass manager plumbing
# ---------------------------------------------------------------------------
def test_optimize_program_is_idempotent_and_tags_the_program():
    prog = compile_source(FUSE_SRC, optimize=0)
    opt = optimize_program(prog, 2)
    assert opt.opt_level == 2
    assert opt.opt_report is not None
    assert optimize_program(opt, 2) is opt
    assert optimize_program(opt, 1) is opt
    assert optimize_program(prog, 0) is prog


def test_optimize_program_runs_the_passes_once_per_program_and_level(monkeypatch):
    import repro.sial.passes as passes

    built = []
    real = passes.build_pipeline
    monkeypatch.setattr(
        passes, "build_pipeline", lambda level: built.append(level) or real(level)
    )
    prog = compile_source(FUSE_SRC, optimize=0)
    o2 = optimize_program(prog, 2)
    assert optimize_program(prog, 2) is o2
    o1 = optimize_program(prog, 1)
    assert o1 is not o2 and o1.opt_level == 1
    assert optimize_program(prog, 1) is o1
    assert built == [2, 1]
    # a driver that compiles once and runs many times hits the memo
    cfg = SIPConfig(workers=2, segment_size=2, opt_level=2)
    for _ in range(2):
        run_program(prog, cfg, dict(NB))
    assert built == [2, 1]
    # and a recompile starts clean
    assert optimize_program(compile_source(FUSE_SRC, optimize=0), 2) is not o2


def test_optimize_program_rejects_bad_levels():
    prog = compile_source(CONSTFOLD_SRC, optimize=0)
    with pytest.raises(ValueError):
        optimize_program(prog, 3)
    with pytest.raises(ValueError):
        optimize_program(prog, -1)


def test_pipeline_report_counters_flow_into_run_stats():
    cfg = SIPConfig(workers=2, segment_size=2, opt_level=2)
    result = run_source(FUSE_SRC, cfg, dict(NB))
    stats = result.stats
    assert stats["opt_level"] == 2
    assert stats["opt_instructions_before"] > stats["opt_instructions_after"]
    assert stats["opt_fuse_removed"] == 1
    # unoptimized runs report level 0 and no pass counters
    cfg0 = SIPConfig(workers=2, segment_size=2, opt_level=0)
    stats0 = run_source(FUSE_SRC, cfg0, dict(NB)).stats
    assert stats0["opt_level"] == 0
    assert "opt_fuse_removed" not in stats0


def test_every_pass_preserves_source_locations():
    prog = compile_source(FUSE_SRC, optimize=2)
    located = [i for i in prog.instructions if i.location is not None]
    # the rewritten stream still carries source locations (including
    # the fused instruction, which inherits the producer's)
    assert located
    fused = [i for i in prog.instructions if i.op == Op.CONTRACT_FUSED]
    assert all(i.location is not None for i in fused)


def test_verify_program_catches_corruption():
    from dataclasses import replace as dc_replace

    prog = compile_source(FUSE_SRC, optimize=0)
    bad_instrs = list(prog.instructions)
    jump_pcs = [
        pc for pc, i in enumerate(bad_instrs) if i.op == Op.BRANCH_FALSE
    ]
    # corrupt a loop back-link instead if there are no branches
    target = next(
        pc for pc, i in enumerate(bad_instrs) if i.op == Op.DO_END
    )
    bad_instrs[target] = dc_replace(
        bad_instrs[target], args=(bad_instrs[target].args[0], 10_000)
    )
    bad = dc_replace(prog, instructions=tuple(bad_instrs))
    assert not verify_program(bad)


def test_build_pipeline_levels():
    assert [name for name, _ in build_pipeline(1).passes] == ["constfold", "dce"]
    names2 = [name for name, _ in build_pipeline(2).passes]
    assert names2[:2] == ["constfold", "dce"]
    assert set(names2) >= {"fuse", "hoist", "dedup_fetch", "prefetch", "barriers"}
