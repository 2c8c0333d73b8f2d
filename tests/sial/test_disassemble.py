"""Golden coverage test for the disassembler.

Every opcode the bytecode defines -- including the optimizer-introduced
``PREFETCH`` and ``CONTRACT_FUSED`` -- must render through
``disassemble`` without falling back to ``repr`` noise, and compiled
RPN scalar programs must render symbolically (infix, with names), not
as raw tagged tuples.
"""

import re

from repro.programs.library import ALL_PROGRAMS
from repro.sial import compile_source, disassemble, format_rpn
from repro.sial.bytecode import OPS, Op


# exercises the opcodes no bundled application needs (procedure calls,
# explicit array lifetime, list conversion, allocate/negate)
KITCHEN_SINK = """sial sink
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)
local LO(M, N)
scalar x
proc setx
  x = 1.0
endproc setx
call setx
create D
pardo M, N
  allocate LO(M, N)
  LO(M, N) = 2.0
  T(M, N) = -LO(M, N)
  put D(M, N) = T(M, N)
  deallocate LO(M, N)
endpardo M, N
sip_barrier
blocks_to_list D
list_to_blocks D
delete D
endsial sink
"""


def collect_rendered_ops() -> dict[str, str]:
    """Opcode -> one rendered listing line, across all bundled programs
    compiled at every level (so optimizer-only opcodes appear)."""
    rendered: dict[str, str] = {}
    sources = dict(ALL_PROGRAMS, kitchen_sink=KITCHEN_SINK)
    for name, source in sources.items():
        for level in (0, 2):
            prog = compile_source(source, optimize=level)
            listing = disassemble(prog).splitlines()
            for pc, instr in enumerate(prog.instructions):
                line = next(
                    ln for ln in listing if re.match(rf"\s+{pc}\s+{instr.op}\b", ln)
                )
                rendered.setdefault(instr.op, line)
    return rendered


def test_disassemble_covers_every_opcode():
    rendered = collect_rendered_ops()
    missing = set(OPS) - set(rendered)
    # every opcode must be exercised by at least one bundled program --
    # an opcode nothing can emit is dead weight, and one the
    # disassembler cannot render is a tooling bug
    assert not missing, f"opcodes never rendered: {sorted(missing)}"


def test_optimizer_opcodes_render_with_operands():
    rendered = collect_rendered_ops()
    assert Op.CONTRACT_FUSED in rendered
    assert Op.PREFETCH in rendered
    # the fused op shows its destination operand symbolically
    assert "(" in rendered[Op.CONTRACT_FUSED]


def test_rpn_renders_symbolically_in_listings():
    source = ALL_PROGRAMS["lccd_iteration"]
    prog = compile_source(source)
    listing = disassemble(prog)
    # the scalar expressions render infix with scalar names, wrapped in
    # braces -- never as raw (('num', ...), ...) tuples
    assert "{0.25}" in listing or "0.25" in listing
    assert "'num'" not in listing and "'scalar'" not in listing


def test_format_rpn_round_trips_shapes():
    prog = compile_source(
        "sial t\nscalar x\nscalar y\nx = 1.0\ny = -x * (x + 2.0) / 4.0\nendsial t\n"
    )
    assigns = [i for i in prog.instructions if i.op == Op.SCALAR_ASSIGN]
    text = format_rpn(assigns[1].args[2], prog)
    assert "x" in text and "+" in text and "/" in text
    # parenthesization respects precedence
    assert "(x + 2.0)" in text


def test_disassemble_marks_optimized_programs():
    source = ALL_PROGRAMS["ccsd"]
    plain = disassemble(compile_source(source, optimize=0))
    opt = disassemble(compile_source(source, optimize=2))
    assert "; optimized at -O2" in opt
    assert "; optimized" not in plain
