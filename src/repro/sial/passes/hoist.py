"""Loop-invariant block-operand hoisting and pardo prefetch insertion.

**Hoisting** moves a ``GET``/``REQUEST`` whose operand does not depend
on the enclosing ``do``/``do..in`` loop's index (nor on any index bound
inside that loop) from the loop body to just before the loop, so one
fetch replaces N re-executions.  Legality: gets are idempotent reads --
the cache absorbs repeats, an evicted block is transparently refetched
by the consuming instruction, and the runtime race checker's
per-iteration set semantics keep verdicts unchanged as long as one
access per iteration identity survives (the hoisted copy runs in the same pardo
iteration and the same barrier phase, since the pass refuses to cross
barriers, calls, branches, or any write that could touch the same
array).  The pass assumes loops run at least one iteration -- true for
every ``1..N`` SIAL range with a positive bound; a zero-trip loop would
merely fetch a block early that the original program fetched never,
which can only matter for traffic, not results, when the block exists.

**Prefetch insertion** plants :data:`~..bytecode.Op.PREFETCH` hints at
the top of a pardo body for gets the body is guaranteed to issue later
in the same iteration (straight-line, after the leading get run), so
their communication overlaps the preceding compute.  The inserted pcs
join the loop's ``get_pcs`` and therefore the locality scheduler's
affinity lists automatically.  A hint never waits, and its fetch
names the pc of the get it runs ahead of in the same iteration, so the
race checker sees the access the program makes: it is legality-free by
construction;
the pass still refuses bodies with branches or calls (a hint must not
fetch a block the original program might never touch) and arrays the
body also writes (a hint must not cache a value a put then supersedes).
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as dc_replace

from ..bytecode import FETCHES, OPS, BlockOperand, CompiledProgram, Instr, Op
from .manager import PassReport
from .rewrite import Rewriter

__all__ = [
    "eliminate_redundant_fetches",
    "hoist_invariants",
    "insert_prefetches",
]


@dataclass
class _Region:
    """One loop region of the instruction stream."""

    op: str
    start: int
    end: int
    index_ids: tuple[int, ...]  # indices this loop binds
    body_pcs: list[int]  # direct body, excluding nested loop interiors
    inner_bound: set[int]  # indices bound by loops nested inside


def _regions(prog: CompiledProgram) -> list[_Region]:
    out: list[_Region] = []
    stack: list[_Region] = []
    for pc, instr in enumerate(prog.instructions):
        spec = OPS[instr.op]
        if spec.loop == "start":
            ids = spec.binds(instr.args)
            region = _Region(instr.op, pc, -1, ids, [], set())
            if stack:
                stack[-1].inner_bound.update(ids)
            stack.append(region)
        elif spec.loop == "end":
            region = stack.pop()
            region.end = pc
            out.append(region)
            if stack:
                stack[-1].inner_bound.update(region.inner_bound)
        elif stack:
            stack[-1].body_pcs.append(pc)
    return out


def _body_ops(prog: CompiledProgram, region: _Region):
    return (prog.instructions[pc] for pc in range(region.start + 1, region.end))


def _blocks_motion(prog: CompiledProgram, region: _Region) -> bool:
    """True when the loop body holds an instruction no code moves across."""
    return any(OPS[instr.op].barrier for instr in _body_ops(prog, region))


def _written_arrays(prog: CompiledProgram, region: _Region) -> set[int]:
    """Arrays any instruction inside the region may write."""
    out: set[int] = set()
    for instr in _body_ops(prog, region):
        for slot in OPS[instr.op].writes:
            out.add(instr.args[slot].array_id)
        if instr.op == Op.EXECUTE:  # may write any block it is handed
            for kind, value in instr.args[1]:
                if kind == "block":
                    out.add(value.array_id)
    return out


def hoist_invariants(prog: CompiledProgram) -> tuple[CompiledProgram, PassReport]:
    report = PassReport(name="hoist")
    hoisted = 0
    deduped = 0
    while True:
        moved = _hoist_round(prog)
        if moved is None:
            break
        prog, n, kept = moved
        hoisted += n
        deduped += n - kept
    report.removed = hoisted
    report.inserted = hoisted - deduped
    report.notes.append(
        f"hoisted {hoisted} loop-invariant fetches "
        f"({deduped} duplicates collapsed)"
    )
    return prog, report


def _hoist_round(prog: CompiledProgram):
    rw = Rewriter(prog)
    n = 0
    kept = 0
    for region in _regions(prog):
        if region.op == Op.PARDO_START:
            continue  # pardo indices define the iteration space
        if _blocks_motion(prog, region):
            continue
        written = _written_arrays(prog, region)
        forbidden = set(region.index_ids) | region.inner_bound
        lifted: set[tuple] = set()
        for pc in region.body_pcs:
            instr = prog.instructions[pc]
            if instr.op not in FETCHES:
                continue
            operand = instr.args[0]
            if forbidden & set(operand.index_ids):
                continue
            if operand.array_id in written:
                continue
            key = (instr.op, operand)
            rw.delete(pc)
            if key not in lifted:
                lifted.add(key)
                rw.insert_before(region.start, [instr])
                kept += 1
            n += 1
        # regions are reported innermost-first and body_pcs exclude
        # nested interiors, so edits from different regions never
        # collide within one round
    if n == 0:
        return None
    return rw.apply(), n, kept


def eliminate_redundant_fetches(
    prog: CompiledProgram,
) -> tuple[CompiledProgram, PassReport]:
    """Delete re-fetches of blocks already gotten in the same iteration.

    Within one pardo body -- where barriers cannot appear (analyzer-
    enforced) and, for this pass, branches and calls must not either --
    a later ``get``/``request`` of the *identical* operand is dominated
    by an earlier one when the earlier site's divergent enclosing-loop
    index ids are a subset of the later site's: identical ids iterate
    identical ranges, so the earlier site already enumerated every
    block the later one will touch (a common pattern: sibling ``do m``
    loops each re-fetching ``t1(m,i)``), and a zero-trip range silences
    both sites symmetrically.  The later fetch is then a guaranteed
    cache probe for a block this worker already requested this
    iteration; the array is written nowhere in the body (checked), and
    no other worker can write it during the pardo (a writer would have
    to be in this same body).  Deleting it is result-identical -- if
    memory pressure evicted the block meanwhile, the consuming
    instruction's acquire refetches it transparently -- and drops one
    dispatch per execution.  Race verdicts are unchanged: per-iteration
    access sets already collapse duplicate reads of a block.

    Runs after hoisting, which lifts loop-invariant fetches to shallow
    positions where they dominate more sites.
    """
    report = PassReport(name="dedup_fetch")
    rw = Rewriter(prog)
    removed = 0
    for region in _regions(prog):
        if region.op != Op.PARDO_START:
            continue
        if _blocks_motion(prog, region):
            continue
        written = _written_arrays(prog, region)
        # each fetch site with its chain of enclosing do-loops inside
        # the pardo, as (start pc, frozenset of index ids) pairs
        kept: dict[tuple, list[tuple]] = {}  # key -> [chains of kept sites]
        chain: list[tuple[int, int]] = []  # (start pc, index id)
        for pc in range(region.start + 1, region.end):
            instr = prog.instructions[pc]
            spec = OPS[instr.op]
            if spec.loop == "start":  # a do loop: pardos do not nest
                chain.append((pc, instr.args[spec.bind]))
            elif spec.loop == "end":
                chain.pop()
            elif instr.op in FETCHES:
                operand = instr.args[0]
                if operand.array_id in written:
                    continue
                key = (instr.op, operand)
                here = tuple(chain)
                dominated = False
                for earlier in kept.get(key, ()):
                    shared = 0
                    for a, b in zip(earlier, here):
                        if a != b:
                            break
                        shared += 1
                    rest_a = {ix for _, ix in earlier[shared:]}
                    rest_b = {ix for _, ix in here[shared:]}
                    if rest_a <= rest_b:
                        dominated = True
                        break
                if dominated:
                    rw.delete(pc)
                    removed += 1
                else:
                    kept.setdefault(key, []).append(here)
    report.removed = removed
    report.notes.append(f"deleted {removed} already-fetched gets")
    prog = rw.apply() if rw.dirty else prog
    return prog, report


def insert_prefetches(prog: CompiledProgram) -> tuple[CompiledProgram, PassReport]:
    report = PassReport(name="prefetch")
    rw = Rewriter(prog)
    inserted = 0
    for region in _regions(prog):
        if region.op != Op.PARDO_START:
            continue
        if _blocks_motion(prog, region):
            continue
        written = _written_arrays(prog, region)
        # the leading run of gets right after PARDO_START already
        # overlaps nothing; hint only the stragglers after it
        body_start = region.start + 1
        run_end = body_start
        while (
            run_end < region.end
            and prog.instructions[run_end].op in FETCHES
        ):
            run_end += 1
        leading = {
            prog.instructions[pc].args[0]
            for pc in range(body_start, run_end)
        }
        hints: list[Instr] = []
        seen: set[BlockOperand] = set(leading)
        for pc in region.body_pcs:
            if pc < run_end or len(hints) >= 8:
                continue
            instr = prog.instructions[pc]
            if instr.op not in FETCHES:
                continue
            operand = instr.args[0]
            if operand in seen or operand.array_id in written:
                continue
            seen.add(operand)
            hints.append(
                dc_replace(instr, op=Op.PREFETCH, args=(operand,))
            )
        if hints:
            rw.insert_before(body_start, hints)
            inserted += len(hints)
    report.inserted = inserted
    report.notes.append(f"inserted {inserted} pardo prefetch hints")
    prog = rw.apply() if rw.dirty else prog
    return prog, report
