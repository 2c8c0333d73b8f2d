"""The lookahead prefetcher only probes operands it can resolve.

A loop lists a get for prefetch only if no loop nested inside it binds
one of the operand's indices (``repro.sial.passes.rewrite.loop_get_pcs``).
Every operand the worker's prefetcher or the master's affinity map
resolves is therefore fully bound, so no bundled program ever takes the
unbound-index error path of ``DecodedOperand.resolve``, and
``verify_program`` rejects a list that breaks the rule.
"""

from dataclasses import replace as dc_replace

import pytest

from repro.sial.bytecode import Op
from repro.sial.compiler import compile_source
from repro.sial.passes import verify_program
from repro.sip import SIPConfig
from repro.sip.decode import DecodedOperand

from .test_passes_differential import DRIVERS


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_no_run_resolves_an_unbound_operand(monkeypatch, name, opt_level, workers):
    entered = []
    unbound = DecodedOperand._resolve_unbound

    def counting(self, index_values):
        entered.append(self.desc.name)
        return unbound(self, index_values)

    monkeypatch.setattr(DecodedOperand, "_resolve_unbound", counting)
    config = SIPConfig(
        workers=workers, io_servers=1, segment_size=2, opt_level=opt_level
    )
    assert DRIVERS[name](config).error < 1e-10
    assert not entered, f"{len(entered)} unbound resolves, arrays {set(entered)}"


SRC = """
sial t
symbolic norb
aoindex M = 1, norb
aoindex N = 1, norb
distributed D(M, N)
distributed V(M)
temp T(M, N)
pardo M
  do N
    get D(M, N)
    get V(M)
    T(M, N) = D(M, N)
  enddo N
endpardo
endsial t
"""


def test_verify_program_rejects_a_get_its_loop_cannot_resolve():
    prog = compile_source(SRC, optimize=0)
    assert verify_program(prog)
    instrs = list(prog.instructions)
    pardo_pc = next(pc for pc, i in enumerate(instrs) if i.op == Op.PARDO_START)
    get_dmn = next(pc for pc, i in enumerate(instrs) if i.op == Op.GET)
    args = list(instrs[pardo_pc].args)
    args[4] = tuple(sorted(args[4] + (get_dmn,)))  # D(M, N) needs the inner N
    instrs[pardo_pc] = dc_replace(instrs[pardo_pc], args=tuple(args))
    verdict = verify_program(dc_replace(prog, instructions=instrs))
    assert f"get_pcs lists pc {get_dmn}, whose operand uses an index" in verdict.render()
