"""Property-based differential fuzzing of the optimizer pipeline.

Hypothesis assembles random *well-formed* SIAL programs from a pool of
composable building blocks -- producer pardos, contraction loops with
deliberately redundant fetches, fusable contract+accumulate pairs,
constant-heavy scalar arithmetic, gratuitous extra barriers -- and each
generated program must satisfy the optimizer's contract:

* ``-O2`` (and ``-O1``) scalars and persistent arrays are **bitwise
  identical** to ``-O0``;
* the runtime sanitizer verdict is identical;
* the pass pipeline's rewritten program still verifies structurally.

The generator grows programs block by block, tracking which distributed
arrays have been initialized so every ``get`` is preceded by a producer
pardo and a barrier -- programs are correct by construction, and any
crash or mismatch is an optimizer bug, not a bad input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sial import compile_source
from repro.sial.passes import optimize_program, verify_program
from repro.sip import SIPConfig, SIPError
from repro.sip.runner import run_program

DECLS = """symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
aoindex K = 1, nb
distributed D0(M, N)
distributed D1(M, N)
distributed D2(M, K)
distributed D3(K, N)
served SV(M, N)
temp T(M, N)
temp U(M, N)
temp TK(M, K)
temp TKN(K, N)
temp TMP(M, N)
scalar x
scalar y
scalar z
"""

#: producer blocks: (array it initializes, SIAL text)
PRODUCERS = {
    "D0": "pardo M, N\n  T(M, N) = 1.5\n  put D0(M, N) = T(M, N)\nendpardo M, N\n",
    "D1": "pardo M, N\n  T(M, N) = x\n  T(M, N) *= 2.0\n"
    "  put D1(M, N) = T(M, N)\nendpardo M, N\n",
    "D2": "pardo M, K\n  TK(M, K) = 2.0\n  put D2(M, K) = TK(M, K)\nendpardo M, K\n",
    "D3": "pardo K, N\n  TKN(K, N) = 0.25\n  put D3(K, N) = TKN(K, N)\nendpardo K, N\n",
    "SV": "pardo M, N\n  T(M, N) = 3.0\n  prepare SV(M, N) = T(M, N)\nendpardo M, N\n",
}

#: consumer blocks: (arrays they read, array they initialize or None,
#: SIAL text).  Shapes chosen to trigger specific optimizer passes.
CONSUMERS = [
    # redundant refetch of an identical operand (dedup_fetch)
    (
        ("D0",),
        "D1",
        "pardo M, N\n  get D0(M, N)\n  T(M, N) = D0(M, N)\n"
        "  get D0(M, N)\n  U(M, N) = D0(M, N)\n  U(M, N) += T(M, N)\n"
        "  put D1(M, N) = U(M, N)\nendpardo M, N\n",
    ),
    # fusable contraction pair + loop-invariant get (fuse, hoist)
    (
        ("D2", "D3", "D0"),
        "D1",
        "pardo M, N\n  get D0(M, N)\n  U(M, N) = D0(M, N)\n  do K\n"
        "    get D2(M, K)\n    get D3(K, N)\n"
        "    TMP(M, N) = D2(M, K) * D3(K, N)\n    U(M, N) += TMP(M, N)\n"
        "  enddo K\n  put D1(M, N) = U(M, N)\nendpardo M, N\n",
    ),
    # sibling do-loops refetching the same blocks (dedup dominators)
    (
        ("D2", "D3"),
        "D0",
        "pardo M, N\n  U(M, N) = 0.0\n  do K\n    get D2(M, K)\n"
        "    get D3(K, N)\n    U(M, N) += D2(M, K) * D3(K, N)\n  enddo K\n"
        "  do K\n    get D2(M, K)\n    get D3(K, N)\n"
        "    U(M, N) += D2(M, K) * D3(K, N)\n  enddo K\n"
        "  put D0(M, N) = U(M, N)\nendpardo M, N\n",
    ),
    # served-array traffic + straggler gets (prefetch hints)
    (
        ("SV", "D0"),
        "D1",
        "pardo M, N\n  request SV(M, N)\n  T(M, N) = SV(M, N)\n"
        "  get D0(M, N)\n  U(M, N) = D0(M, N)\n  U(M, N) += T(M, N)\n"
        "  put D1(M, N) = U(M, N)\nendpardo M, N\n",
    ),
    # dead temp write (dce) next to a live reduction
    (
        ("D0", "D1"),
        None,
        "pardo M, N\n  get D0(M, N)\n  get D1(M, N)\n"
        "  TMP(M, N) = 9.0\n  x += D0(M, N) * D1(M, N)\nendpardo M, N\n"
        "collective x\n",
    ),
]

#: serial scalar statements (constfold + RPN dedup fodder)
SCALAR_STMTS = [
    "x = 2.0 * 3.0 + 1.0\n",
    "y = 2.0 * 3.0 + 1.0\n",
    "z = x * 0.5 - y\n",
    "y += 4.0 / 2.0\n",
    "z *= 1.5\n",
]


@st.composite
def programs(draw):
    """A random well-formed program: producers before consumers, a
    barrier between every pardo, occasional doubled barriers."""
    parts = [f"sial fuzz\n{DECLS}"]
    initialized: set[str] = set()
    n_blocks = draw(st.integers(min_value=1, max_value=4))
    for _ in range(n_blocks):
        for stmt in draw(
            st.lists(st.sampled_from(SCALAR_STMTS), max_size=2)
        ):
            parts.append(stmt)
        reads, writes, text = draw(st.sampled_from(CONSUMERS))
        for needed in reads:
            if needed not in initialized:
                parts.append(PRODUCERS[needed])
                parts.append("sip_barrier\n")
                initialized.add(needed)
        parts.append(text)
        parts.append("sip_barrier\n")
        if draw(st.booleans()):
            parts.append("sip_barrier\n")  # redundant: coalescing fodder
        if writes:
            initialized.add(writes)
    parts.append("endsial fuzz\n")
    return "".join(parts)


def execute(prog, level: int):
    cfg = SIPConfig(
        workers=2, io_servers=1, segment_size=2, sanitize=True,
        opt_level=level,
    )
    return run_program(prog, cfg, {"nb": 4.0})


@given(programs())
@settings(max_examples=25, deadline=None)
def test_random_programs_are_bitwise_identical_across_opt_levels(source):
    prog = compile_source(source, optimize=0)
    r0 = execute(prog, 0)
    for level in (1, 2):
        opt = optimize_program(prog, level)
        assert bool(verify_program(opt))
        r = execute(prog, level)
        assert r.scalars == r0.scalars, (
            f"-O{level} changed scalars:\n{source}"
        )
        assert r.sanitizer_report.ok == r0.sanitizer_report.ok
        for desc in opt.array_table:
            if desc.kind not in ("static", "distributed", "served"):
                continue
            try:
                expected = r0.array(desc.name)
            except SIPError:
                continue
            assert np.array_equal(expected, r.array(desc.name)), (
                f"-O{level} changed array {desc.name}:\n{source}"
            )


@given(programs(), st.integers(min_value=1, max_value=2))
@settings(max_examples=25, deadline=None)
def test_random_programs_optimize_without_structural_breakage(source, level):
    prog = compile_source(source, optimize=level)
    assert bool(verify_program(prog))
    assert prog.opt_level == level
    assert prog.opt_report is not None
    assert all(p.verified for p in prog.opt_report.passes)
