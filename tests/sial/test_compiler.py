"""Unit tests for the SIAL-to-bytecode compiler."""

import pytest

from repro.sial.bytecode import (
    CompiledCondition,
    Op,
    disassemble,
    evaluate_condition,
    evaluate_rpn,
)
from repro.sial.compiler import compile_source
from repro.sial.errors import SemanticError

DECLS = """
symbolic norb
aoindex M = 1, norb
aoindex N = 1, norb
aoindex L = 1, norb
scalar e
distributed D(M, N)
temp T(M, N)
local LO(M, N)
"""


def compile_body(body, decls=DECLS):
    return compile_source(f"sial t\n{decls}\n{body}\nendsial t\n", optimize=0)


def ops(prog):
    return [i.op for i in prog.instructions]


def test_tables_built():
    prog = compile_body("")
    assert [d.name for d in prog.index_table] == ["M", "N", "L"]
    assert [a.name for a in prog.array_table] == ["D", "T", "LO"]
    assert prog.scalar_table == ["e"]
    assert prog.symbolic_table == ["norb"]


def test_stop_terminates_main():
    prog = compile_body("e = 1.0")
    assert ops(prog) == [Op.SCALAR_ASSIGN, Op.STOP]


def test_do_loop_layout():
    prog = compile_body("do M\ne = 1.0\nenddo M\n")
    assert ops(prog) == [Op.DO_START, Op.SCALAR_ASSIGN, Op.DO_END, Op.STOP]
    start = prog.instructions[0]
    index_id, exit_pc, get_pcs = start.args
    assert index_id == prog.index_id("M")
    assert exit_pc == 3
    assert get_pcs == ()
    end = prog.instructions[2]
    assert end.args == (index_id, 1)  # body start


def test_pardo_layout_with_where():
    prog = compile_body("pardo M, N where M < N\ne = 1.0\nendpardo\n")
    assert ops(prog) == [Op.PARDO_START, Op.SCALAR_ASSIGN, Op.PARDO_END, Op.STOP]
    pardo_id, index_ids, conds, exit_pc, get_pcs = prog.instructions[0].args
    assert pardo_id == 0
    assert index_ids == (prog.index_id("M"), prog.index_id("N"))
    assert len(conds) == 1
    assert isinstance(conds[0], CompiledCondition)
    assert exit_pc == 3


def test_pardo_ids_sequential():
    prog = compile_body("pardo M\nendpardo\npardo N\nendpardo\n")
    starts = [i for i in prog.instructions if i.op == Op.PARDO_START]
    assert [s.args[0] for s in starts] == [0, 1]


def test_get_pcs_recorded_for_prefetch():
    # a loop lists a get only if no loop nested inside it binds one of
    # the operand's indices: D(M, N) needs N, so only "do N" can
    # prefetch it, while the inner-loop-invariant V(M) is on both lists
    body = """
pardo M
  do N
    get D(M, N)
    get V(M)
    T(M, N) = D(M, N)
  enddo N
endpardo
"""
    prog = compile_body(body, decls=DECLS + "distributed V(M)\n")
    do_start = [i for i in prog.instructions if i.op == Op.DO_START][0]
    get_mn, get_m = [pc for pc, i in enumerate(prog.instructions) if i.op == Op.GET]
    assert do_start.args[2] == (get_mn, get_m)
    pardo_start = [i for i in prog.instructions if i.op == Op.PARDO_START][0]
    assert pardo_start.args[4] == (get_m,)


def test_if_else_branches():
    prog = compile_body("if e < 1.0\ne = 1.0\nelse\ne = 2.0\nendif\n")
    assert ops(prog) == [
        Op.BRANCH_FALSE,
        Op.SCALAR_ASSIGN,
        Op.JUMP,
        Op.SCALAR_ASSIGN,
        Op.STOP,
    ]
    branch = prog.instructions[0]
    assert branch.args[1] == 3  # else target
    jump = prog.instructions[2]
    assert jump.args[0] == 4  # end target


def test_if_without_else():
    prog = compile_body("if e < 1.0\ne = 1.0\nendif\n")
    assert ops(prog) == [Op.BRANCH_FALSE, Op.SCALAR_ASSIGN, Op.STOP]
    assert prog.instructions[0].args[1] == 2


def test_proc_compiled_after_stop_and_call_patched():
    src = """
sial t
scalar x
proc setx
  x = 1.0
endproc setx
call setx
endsial t
"""
    prog = compile_source(src, optimize=0)
    assert ops(prog) == [Op.CALL, Op.STOP, Op.SCALAR_ASSIGN, Op.RETURN]
    assert prog.instructions[0].args[0] == 2
    assert prog.proc_entries == {"setx": 2}


def test_block_assign_forms():
    body = """
pardo M, N
  T(M, N) = 0.0
  T(M, N) = LO(N, M)
  T(M, N) += LO(M, N)
  T(M, N) = e * LO(M, N)
  T(M, N) = LO(M, N) + LO(M, N)
  T(M, N) = -LO(M, N)
  T(M, N) *= 2.0
  do L
    T(M, N) = LO(M, L) * LO(L, N)
  enddo L
endpardo
"""
    prog = compile_body(body)
    body_ops = ops(prog)
    for expected in (
        Op.FILL,
        Op.COPY,
        Op.ACCUM,
        Op.SCALE,
        Op.ADDSUB,
        Op.NEGATE,
        Op.SCALE_INPLACE,
        Op.CONTRACT,
    ):
        assert expected in body_ops


def test_scalar_contract_op():
    prog = compile_body("pardo M, N\ne = T(M, N) * LO(M, N)\nendpardo\n")
    assert Op.SCALAR_CONTRACT in ops(prog)


def test_addsub_with_accumulate_rejected():
    with pytest.raises(SemanticError, match="not supported"):
        compile_body("pardo M, N\nT(M, N) += LO(M, N) + LO(M, N)\nendpardo\n")


def test_rpn_evaluation():
    prog = compile_body("e = 2.0 + 3.0 * 4.0\n")
    instr = prog.instructions[0]
    scalar_id, op, rpn = instr.args
    assert scalar_id == 0
    assert op == "="
    assert evaluate_rpn(rpn) == 14.0


def test_rpn_with_symbolic_and_scalar():
    prog = compile_body("e = norb / 2.0 - e\n")
    _, _, rpn = prog.instructions[0].args
    value = evaluate_rpn(rpn, scalars=[10.0], symbolics=[8.0])
    assert value == -6.0


def test_rpn_unary_neg():
    prog = compile_body("e = -(1.0 + 2.0)\n")
    _, _, rpn = prog.instructions[0].args
    assert evaluate_rpn(rpn) == -3.0


def test_condition_evaluation_with_indices():
    prog = compile_body("pardo M, N where M < N\nendpardo\n")
    cond = prog.instructions[0].args[2][0]
    m, n = prog.index_id("M"), prog.index_id("N")
    assert evaluate_condition(cond, index_values={m: 1, n: 2})
    assert not evaluate_condition(cond, index_values={m: 2, n: 2})


def test_index_table_rpn_bounds():
    prog = compile_body("")
    m_desc = prog.index_table[prog.index_id("M")]
    assert evaluate_rpn(m_desc.lo_rpn, symbolics=[12.0]) == 1.0
    assert evaluate_rpn(m_desc.hi_rpn, symbolics=[12.0]) == 12.0


def test_subindex_descriptor():
    decls = DECLS + "\nsubindex MM of M\n"
    prog = compile_body("", decls=decls)
    mm = prog.index_table[prog.index_id("MM")]
    assert mm.is_subindex
    assert mm.super_id == prog.index_id("M")


def test_disassembler_output():
    prog = compile_body("pardo M, N\nget D(M, N)\nput D(M, N) = T(M, N)\nendpardo\n")
    text = disassemble(prog)
    assert "PARDO_START" in text
    assert "D(M,N)" in text
    assert "GET" in text


def test_compute_integrals_and_execute():
    decls = DECLS + "\ntemp V4(M, N)\n"
    body = "pardo M, N\ncompute_integrals V4(M, N)\nexecute foo V4(M, N), e, 1.5\nendpardo\n"
    prog = compile_body(body, decls=decls)
    assert Op.COMPUTE_INTEGRALS in ops(prog)
    exec_instr = [i for i in prog.instructions if i.op == Op.EXECUTE][0]
    name, args = exec_instr.args
    assert name == "foo"
    assert args[0][0] == "block"
    assert args[1] == ("scalar", 0)
    assert args[2] == ("num", 1.5)


def test_barriers_and_utility_ops():
    body = "sip_barrier\nserver_barrier\nblocks_to_list D\nlist_to_blocks D\ncheckpoint\ncollective e\n"
    prog = compile_body(body)
    assert ops(prog)[:-1] == [
        Op.SIP_BARRIER,
        Op.SERVER_BARRIER,
        Op.BLOCKS_TO_LIST,
        Op.LIST_TO_BLOCKS,
        Op.CHECKPOINT,
        Op.COLLECTIVE,
    ]


def test_nested_do_loops_jump_targets_consistent():
    body = """
do M
  do N
    e = 1.0
  enddo N
enddo M
"""
    prog = compile_body(body)
    # DO_START M, DO_START N, SCALAR_ASSIGN, DO_END N, DO_END M, STOP
    assert ops(prog) == [
        Op.DO_START,
        Op.DO_START,
        Op.SCALAR_ASSIGN,
        Op.DO_END,
        Op.DO_END,
        Op.STOP,
    ]
    outer, inner = prog.instructions[0], prog.instructions[1]
    assert outer.args[1] == 5  # exit past DO_END M
    assert inner.args[1] == 4  # exit past DO_END N
