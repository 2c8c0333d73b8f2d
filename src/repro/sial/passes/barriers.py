"""Barrier coalescing, proven safe by the static race detector.

A ``sip_barrier`` (or ``server_barrier``) is redundant when the two
phases it separates already commute: no access before it conflicts with
an access after it.  That is exactly the question the race detector's
phase segmentation answers, so instead of a bespoke (and inevitably
weaker) dependence analysis, the pass *reuses the checker as an
oracle*.  It walks the program once, with every barrier present
(:class:`~..racecheck.RaceWalk`), and takes that walk's diagnostics as
the baseline.  A candidate barrier is removed only when merging the
phases it separates (:meth:`~..racecheck.RaceWalk.merged_report`)
reports **no diagnostic beyond the baseline**.  A barrier whose removal
could reorder a write against a conflicting access would produce a new
read-write/write-write diagnostic in the merged phases and is kept.

The pass reads the analyzed AST the compiler left on the program
(``CompiledProgram.analysis``); only a program that lost it (one that
crossed a pickle) is parsed again.

Conservatisms: programs without source text (hand-built
``CompiledProgram`` objects) are skipped, as are barriers the compiler
emitted without a source location; barriers are tested one at a time
against the original baseline (greedy, but each accepted removal
re-enters the accepted set so compound removals are re-proven
together); a program whose *baseline* already has diagnostics only
drops barriers that add nothing to the existing diagnostic set.
"""

from __future__ import annotations

from ..bytecode import CompiledProgram, Op
from .manager import PassReport
from .rewrite import Rewriter

__all__ = ["coalesce_barriers"]

_BARRIER_OPS = (Op.SIP_BARRIER, Op.SERVER_BARRIER)


def _diag_keys(report) -> set[tuple]:
    return {
        (d.kind, d.array, str(d.location), str(d.related))
        for d in report.diagnostics
    }


def coalesce_barriers(prog: CompiledProgram) -> tuple[CompiledProgram, PassReport]:
    report = PassReport(name="barriers")

    candidates = [
        (pc, instr.location)
        for pc, instr in enumerate(prog.instructions)
        if instr.op in _BARRIER_OPS and instr.location is not None
    ]
    if not candidates or not prog.source:
        report.notes.append("no provable barriers (no source or none present)")
        return prog, report

    from ..errors import SialError
    from ..racecheck import RaceWalk

    analyzed = prog.analysis
    if analyzed is None:
        from ..analyzer import analyze
        from ..parser import parse

        try:
            analyzed = analyze(parse(prog.source, prog.name), prog.source)
        except SialError:
            report.notes.append("source no longer analyzable; pass skipped")
            return prog, report

    walk = RaceWalk(analyzed)
    baseline = _diag_keys(walk.report())
    accepted: set[tuple[int, int]] = set()
    removed_pcs: list[int] = []
    for pc, loc in candidates:
        trial = accepted | {(loc.line, loc.column)}
        if _diag_keys(walk.merged_report(trial)) <= baseline:
            accepted = trial
            removed_pcs.append(pc)

    if removed_pcs:
        rw = Rewriter(prog)
        for pc, instr in enumerate(prog.instructions):
            # every instruction compiled from an accepted source barrier
            # goes (one source line can only hold one barrier statement)
            if instr.op in _BARRIER_OPS and instr.location is not None and (
                instr.location.line, instr.location.column
            ) in accepted:
                rw.delete(pc)
                if pc not in removed_pcs:
                    removed_pcs.append(pc)
        prog = rw.apply()

    report.removed = len(removed_pcs)
    report.notes.append(
        f"removed {len(removed_pcs)} of {len(candidates)} barriers "
        "(race-check proven redundant)"
    )
    return prog, report
