"""The barrier pass proves every candidate from one race-check walk.

``coalesce_barriers`` used to re-parse the source, then run the whole
race check once for the baseline and once more per candidate barrier,
with the candidate skipped during the walk.  That 1+N-walk procedure is
kept here, and only here, as the oracle: the one-walk pass must accept
the same barriers and emit the same bytecode on every bundled program,
on hand-written corner cases and under the pass fuzzer's generator.
"""

import pickle
from collections import Counter
from dataclasses import replace as dc_replace

import pytest
from hypothesis import given, settings

from repro.programs.library import ALL_PROGRAMS
from repro.sial import analyzer, ast_nodes as ast, compile_source, parser, racecheck
from repro.sial.bytecode import Op
from repro.sial.passes import build_pipeline, coalesce_barriers, optimize_program
from repro.sial.passes.rewrite import Rewriter

from .test_passes_fuzz import programs

BARRIERS = (Op.SIP_BARRIER, Op.SERVER_BARRIER)


# -- the oracle: skip the candidate while walking, check every pair ----------
class _SkippingWalker(racecheck._Walker):
    def __init__(self, program, symbols, skip):
        super().__init__(program, symbols)
        self.skip = skip

    def walk_stmt(self, stmt, st, proc_stack):
        loc = getattr(stmt, "location", None)
        if isinstance(stmt, ast.Barrier) and loc is not None:
            if (loc.line, loc.column) in self.skip:
                return  # pretend the barrier is not there
        super().walk_stmt(stmt, st, proc_stack)


def oracle_check_races(analyzed, skip=frozenset()):
    walker = _SkippingWalker(analyzed.program, analyzed.symbols, skip)
    walker.walk_program()
    finder = racecheck._ConflictFinder(analyzed.program.name)
    groups = {}
    for acc in walker.accesses:
        finder.check_single(acc)
        groups.setdefault((acc.cls, acc.array), []).append(acc)
    for group in groups.values():
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                if a.phases & b.phases:
                    finder.check_pair(a, b)
    return finder.report


def diag_keys(report):
    return {
        (d.kind, d.array, str(d.location), str(d.related))
        for d in report.diagnostics
    }


def oracle_coalesce(prog):
    """(rewritten program, accepted (line, column) set)."""
    candidates = [
        instr.location
        for instr in prog.instructions
        if instr.op in BARRIERS and instr.location is not None
    ]
    if not candidates:
        return prog, set()
    analyzed = analyzer.analyze(parser.parse(prog.source, prog.name), prog.source)
    baseline = diag_keys(oracle_check_races(analyzed))
    accepted = set()
    for loc in candidates:
        trial = accepted | {(loc.line, loc.column)}
        if diag_keys(oracle_check_races(analyzed, frozenset(trial))) <= baseline:
            accepted = trial
    rw = Rewriter(prog)
    for pc, instr in enumerate(prog.instructions):
        loc = instr.location
        if instr.op not in BARRIERS or loc is None:
            continue
        if (loc.line, loc.column) in accepted:
            rw.delete(pc)
    return (rw.apply() if rw.dirty else prog), accepted


# -- inputs -------------------------------------------------------------------
DECLS = """symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
index k = 1, 3
distributed D(M, N)
distributed E(M, N)
distributed R(M, M)
served S(M, N)
temp T(M, N)
temp TR(M, M)
scalar x
"""

PRODUCE_D = "pardo M, N\n  T(M, N) = 1.0\n  put D(M, N) = T(M, N)\nendpardo M, N\n"
CONSUME_D = (
    "pardo M, N\n  get D(M, N)\n  T(M, N) = D(M, N)\n"
    "  put E(M, N) = T(M, N)\nendpardo M, N\n"
)
PRODUCE_E = "pardo M, N\n  T(M, N) = 2.0\n  put E(M, N) += T(M, N)\nendpardo M, N\n"

CORNER_CASES = {
    "doubled": PRODUCE_D + "sip_barrier\nsip_barrier\n" + CONSUME_D
    + "sip_barrier\nsip_barrier\n",
    "if_arms": "x = 1.0\nif x == 1.0\n" + PRODUCE_D + "sip_barrier\nelse\n"
    + PRODUCE_E + "sip_barrier\nendif\nsip_barrier\n" + CONSUME_D + "sip_barrier\n",
    "do_body": "do k\n" + PRODUCE_D + "sip_barrier\n" + CONSUME_D
    + "sip_barrier\n" + PRODUCE_E + "sip_barrier\nenddo k\n",
    "do_body_accumulates": "do k\n" + PRODUCE_E + "sip_barrier\n" + PRODUCE_E
    + "sip_barrier\nenddo k\n",
    "proc_called_twice": "call produce\ncall produce\n" + CONSUME_D,
    "server_phases": "pardo M, N\n  T(M, N) = 3.0\n  prepare S(M, N) = T(M, N)\n"
    "endpardo M, N\nserver_barrier\nserver_barrier\n"
    "pardo M, N\n  request S(M, N)\n  T(M, N) = S(M, N)\n  put E(M, N) = T(M, N)\n"
    "endpardo M, N\nsip_barrier\n",
    # a non-injective put: the baseline already has a diagnostic
    "racy_baseline": "pardo M, N\n  TR(M, M) = 1.0\n  put R(M, M) = TR(M, M)\n"
    "endpardo M, N\nsip_barrier\nsip_barrier\n" + PRODUCE_D + "sip_barrier\n"
    + CONSUME_D + "sip_barrier\n",
}
PROCS = {
    "proc_called_twice": "proc produce\n" + PRODUCE_D + "sip_barrier\nendproc produce\n"
}


def corner_source(name):
    body = PROCS.get(name, "") + CORNER_CASES[name]
    return f"sial {name}\n{DECLS}{body}endsial {name}\n"


def before_barriers(source):
    """The program as the -O2 pipeline hands it to the barrier pass."""
    prog = compile_source(source, optimize=0)
    for name, fn in build_pipeline(2).passes:
        if name != "barriers":
            prog, _ = fn(prog)
    return prog


def removed_locations(before, after):
    def located(prog):
        return {
            (i.location.line, i.location.column)
            for i in prog.instructions
            if i.op in BARRIERS and i.location is not None
        }

    return located(before) - located(after)


def assert_same_as_oracle(prog):
    got, report = coalesce_barriers(prog)
    want, accepted = oracle_coalesce(prog)
    assert removed_locations(prog, got) == accepted
    assert got.instructions == want.instructions
    assert got.proc_entries == want.proc_entries
    assert report.removed == len(prog.instructions) - len(got.instructions)
    return accepted


ALL_SOURCES = {
    **{f"library:{name}": src for name, src in ALL_PROGRAMS.items()},
    **{f"corner:{name}": corner_source(name) for name in CORNER_CASES},
}


@pytest.mark.parametrize("name", sorted(ALL_SOURCES))
def test_one_walk_pass_equals_the_per_candidate_oracle(name):
    source = ALL_SOURCES[name]
    assert_same_as_oracle(compile_source(source, optimize=0))
    assert_same_as_oracle(before_barriers(source))


def test_corner_cases_both_remove_and_keep_barriers():
    """The corner cases are not vacuous: the pass decides both ways."""
    removed = kept = 0
    for name in CORNER_CASES:
        prog = compile_source(corner_source(name), optimize=0)
        accepted = assert_same_as_oracle(prog)
        total = sum(1 for i in prog.instructions if i.op in BARRIERS)
        removed += len(accepted)
        kept += total - len(accepted)
    assert removed >= 5 and kept >= 5


@pytest.mark.parametrize("name", sorted(ALL_SOURCES))
def test_race_report_equals_the_all_pairs_check(name):
    """Bucketing accesses by phase finds the same diagnostics, in the
    same order, as comparing every pair of an array's accesses."""
    source = ALL_SOURCES[name]
    analyzed = analyzer.analyze(parser.parse(source, name), source)
    got = racecheck.check_races(analyzed).diagnostics
    assert got == oracle_check_races(analyzed).diagnostics


@given(programs())
@settings(max_examples=30, deadline=None)
def test_fuzzed_programs_match_the_oracle(source):
    assert_same_as_oracle(compile_source(source, optimize=0))
    assert_same_as_oracle(before_barriers(source))


# -- the regression guard -------------------------------------------------------
def test_barrier_pass_parses_nothing_and_walks_once(monkeypatch):
    calls = Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for source in (ALL_PROGRAMS["ccsd"], corner_source("doubled")):
        prog = before_barriers(source)
        counted(parser, "parse")
        counted(analyzer, "analyze")
        counted(racecheck, "check_races")
        counted(racecheck._Walker, "walk_program")
        _, report = coalesce_barriers(prog)
        assert "barriers" in report.notes[0]
        assert calls == {"walk_program": 1}, calls
        calls.clear()
        monkeypatch.undo()


def test_pickled_program_leaves_the_analysis_behind():
    source = corner_source("doubled")
    prog = compile_source(source, optimize=0)
    assert prog.analysis is not None
    bare = dc_replace(prog, analysis=None)
    assert len(pickle.dumps(prog)) == len(pickle.dumps(bare))
    thawed = pickle.loads(pickle.dumps(prog))
    assert thawed.analysis is None
    # without it the pass re-analyses the source and decides the same
    assert optimize_program(thawed, 2).instructions == (
        optimize_program(prog, 2).instructions
    )
