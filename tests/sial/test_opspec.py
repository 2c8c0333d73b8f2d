"""The opcode table: one spec per opcode, and the verifier that reads it.

``repro.sial.bytecode.OPS`` is the one place an opcode's argument slots,
cost rule, timeline glyph and handler kind are declared.  These tests
check the table against the code that emits and runs the opcodes, and
that :func:`verify_program` rejects an instruction that breaks its spec.
"""

import inspect
from dataclasses import replace as dc_replace

import pytest

from repro.programs.library import ALL_PROGRAMS
from repro.sial import compile_source
from repro.sial.bytecode import OPS, BlockOperand, Op
from repro.sial.passes import verify_program
from repro.sip.vm.interpreter import WorkerProcess

MNEMONICS = {v for k, v in vars(Op).items() if not k.startswith("_")}


def test_every_opcode_has_one_spec():
    assert set(OPS) == MNEMONICS


def test_every_handler_yields_exactly_when_its_spec_says():
    """A slow (time-taking) handler is a generator; a fast one returns
    the next pc.  STOP alone has no handler: it ends the run loop."""
    for op, spec in OPS.items():
        handler = getattr(WorkerProcess, f"op_{op.lower()}", None)
        if op == Op.STOP:
            assert handler is None
            continue
        assert handler is not None, f"no handler for {op}"
        assert inspect.isgeneratorfunction(handler) == spec.yields, op


def test_exactly_the_traced_opcodes_have_a_glyph():
    """Only a handler that yields is traced, so only it is drawn."""
    for op, spec in OPS.items():
        assert bool(spec.glyph) == spec.yields, op


def test_loop_specs_pair_up():
    for op, spec in OPS.items():
        if spec.loop is None:
            continue
        partner = OPS[spec.partner]
        assert partner.partner == op
        assert {spec.loop, partner.loop} == {"start", "end"}
        if spec.loop == "start":
            assert None not in (spec.bind, spec.exit, spec.get_pcs)
        else:
            assert spec.back is not None


@pytest.mark.parametrize("level", [0, 1, 2])
def test_every_bundled_instruction_matches_its_spec(level):
    for name, source in ALL_PROGRAMS.items():
        prog = compile_source(source, optimize=level)
        verdict = verify_program(prog)
        assert verdict, f"{name} -O{level}:\n{verdict.render()}"


# -- verify_program against mutations ----------------------------------------

MUTANT_SRC = """sial mutant
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)
scalar x
pardo M, N
  T(M, N) = 1.0
  T(M, N) += 2.0
  put D(M, N) = T(M, N)
endpardo M, N
sip_barrier
do M
  if x < 1.0
    x += 1.0
  endif
enddo M
endsial mutant
"""


def mutate(op: str, change):
    """The mutant program with ``change`` applied to its first ``op``."""
    prog = compile_source(MUTANT_SRC, optimize=0)
    assert verify_program(prog)
    instrs = list(prog.instructions)
    pc = next(pc for pc, i in enumerate(instrs) if i.op == op)
    instrs[pc] = change(instrs[pc])
    return pc, verify_program(dc_replace(prog, instructions=instrs))


def with_arg(slot: int, value):
    def change(instr):
        args = list(instr.args)
        args[slot] = value
        return dc_replace(instr, args=tuple(args))

    return change


def test_verify_rejects_a_dropped_argument():
    pc, verdict = mutate(Op.PUT, lambda i: dc_replace(i, args=i.args[:-1]))
    assert not verdict
    assert f"pc {pc}: PUT takes 3 arguments, got 2" in verdict.render()


def test_verify_rejects_an_int_in_an_operand_slot():
    pc, verdict = mutate(Op.PUT, with_arg(2, 0))
    assert not verdict
    assert f"pc {pc}: expected BlockOperand, got 0" in verdict.render()


def test_verify_rejects_an_out_of_range_operand():
    pc, verdict = mutate(Op.FILL, with_arg(0, BlockOperand(99, (0, 1))))
    assert f"pc {pc}: array id 99 out of range" in verdict.render()


@pytest.mark.parametrize("target", [-1, 10_000, "L1"])
def test_verify_rejects_an_out_of_range_pc(target):
    pc, verdict = mutate(Op.BRANCH_FALSE, with_arg(1, target))
    assert not verdict
    assert f"pc {pc}: BRANCH_FALSE target {target!r} out of range" in verdict.render()


@pytest.mark.parametrize("op", [Op.FILL, Op.PUT])
def test_verify_rejects_a_bad_assign_operator(op):
    pc, verdict = mutate(op, with_arg(1, "*="))
    assert not verdict
    assert f"pc {pc}: bad {op} assign operator '*='" in verdict.render()


def test_verify_reports_an_opcode_with_no_spec():
    pc, verdict = mutate(Op.SIP_BARRIER, lambda i: dc_replace(i, op="FROB"))
    assert not verdict
    assert f"pc {pc}: opcode 'FROB' has no spec" in verdict.render()


def test_verify_rejects_a_broken_back_link():
    pc, verdict = mutate(Op.PARDO_END, with_arg(0, 1))
    assert not verdict
    assert f"pc {pc}: PARDO_END back link 1 != 0" in verdict.render()
