"""Structural rewriting of SIA bytecode.

The pass pipeline never mutates a :class:`CompiledProgram` in place.
Each pass records deletions, replacements and insertions against the
*old* pc numbering on a :class:`Rewriter`; :meth:`Rewriter.apply` then
produces a fresh program with

* every explicit branch target (``JUMP``, ``BRANCH_FALSE``, ``CALL``,
  ``proc_entries``) remapped through the old->new pc map,
* loop bookkeeping (``DO_START``/``DOIN_START`` exit pcs and prefetch
  lists, ``DO_END``/``DOIN_END`` body starts, ``PARDO_START`` exit pcs,
  ``PARDO_END`` back links) *recomputed structurally* rather than
  remapped, exactly as the compiler would have emitted them, and
* per-loop ``get_pcs`` prefetch lists rebuilt by :func:`loop_get_pcs`,
  the walk the compiler itself emits them with.

Jumping to a deleted pc lands on the next surviving instruction;
instructions inserted *before* a pc execute whenever control reaches
that pc, including via a branch.

:func:`verify_program` is the legality backstop: it re-checks the
structural invariants of the rewritten table (target ranges, loop
nesting, operand-table ids) so every pass run is machine-checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Optional

from ..bytecode import (
    ArrayDesc,
    BlockOperand,
    CompiledProgram,
    Instr,
    Op,
)

__all__ = [
    "Rewriter", "verify_program", "remove_arrays", "jump_targets", "loop_get_pcs",
    "get_pcs_slot",
]

#: loop families: (start opcode, end opcode)
_LOOP_PAIRS = {
    Op.DO_START: Op.DO_END,
    Op.DOIN_START: Op.DOIN_END,
    Op.PARDO_START: Op.PARDO_END,
}
_LOOP_ENDS = {v: k for k, v in _LOOP_PAIRS.items()}

#: opcodes :func:`loop_get_pcs` records into enclosing loops
_GETLIKE = (Op.GET, Op.REQUEST, Op.PREFETCH)


def _loop_binds(instr) -> tuple[int, ...]:
    """The index ids a loop-start instruction binds."""
    return instr.args[1] if instr.op == Op.PARDO_START else (instr.args[0],)


def get_pcs_slot(instr) -> int:
    """Where a loop-start instruction keeps its ``get_pcs`` list."""
    return 4 if instr.op == Op.PARDO_START else 2


def loop_get_pcs(instrs) -> dict[int, tuple[int, ...]]:
    """Each loop's prefetch list: loop start pc -> get-like pcs.

    A get joins every lexically enclosing loop up to the innermost loop
    that binds one of its operand's indices: a loop nested inside a
    loop is never active when that loop prefetches, so an operand
    using its index cannot resolve there.  ``PREFETCH`` counts as a get.
    """
    gets: dict[int, list[int]] = {}
    stack: list[tuple[int, tuple[int, ...]]] = []  # (start pc, bound ids)
    for pc, instr in enumerate(instrs):
        op = instr.op
        if op in _LOOP_PAIRS:
            stack.append((pc, _loop_binds(instr)))
            gets[pc] = []
        elif op in _LOOP_ENDS and stack:  # verify_program reports a stray end
            stack.pop()
        elif op in _GETLIKE:
            uses = instr.args[0].index_ids
            for start_pc, binds in reversed(stack):
                gets[start_pc].append(pc)
                if any(i in uses for i in binds):
                    break
    return {start_pc: tuple(pcs) for start_pc, pcs in gets.items()}


def jump_targets(prog: CompiledProgram) -> set[int]:
    """Every pc that is the target of some explicit or implicit branch."""
    targets: set[int] = set(prog.proc_entries.values())
    for instr in prog.instructions:
        op = instr.op
        if op == Op.JUMP:
            targets.add(instr.args[0])
        elif op == Op.BRANCH_FALSE:
            targets.add(instr.args[1])
        elif op == Op.CALL:
            targets.add(instr.args[0])
        elif op in (Op.DO_START, Op.DOIN_START):
            targets.add(instr.args[1])
        elif op == Op.PARDO_START:
            targets.add(instr.args[3])
        elif op in (Op.DO_END, Op.DOIN_END):
            targets.add(instr.args[1])
        elif op == Op.PARDO_END:
            targets.add(instr.args[0] + 1)
    return targets


class Rewriter:
    """Collects edits against one program and applies them atomically."""

    def __init__(self, prog: CompiledProgram) -> None:
        self.prog = prog
        self._deleted: set[int] = set()
        self._replaced: dict[int, Instr] = {}
        self._before: dict[int, list[Instr]] = {}

    # -- edit recording ------------------------------------------------------
    def delete(self, pc: int) -> None:
        self._deleted.add(pc)

    def replace(self, pc: int, instr: Instr) -> None:
        self._replaced[pc] = instr

    def insert_before(self, pc: int, instrs: list[Instr]) -> None:
        self._before.setdefault(pc, []).extend(instrs)

    @property
    def dirty(self) -> bool:
        return bool(self._deleted or self._replaced or self._before)

    # -- application ---------------------------------------------------------
    def apply(self) -> CompiledProgram:
        old = self.prog.instructions
        new: list[Instr] = []
        land: list[int] = []  # old pc -> new pc control lands on
        for pc, instr in enumerate(old):
            land.append(len(new))
            new.extend(self._before.get(pc, ()))
            if pc in self._deleted:
                continue
            new.append(self._replaced.get(pc, instr))
        land.append(len(new))  # one-past-the-end target (STOP fallthrough)

        # the landing pc of old pc p is where p's insertions begin if p
        # survives or has insertions; a deleted pc with no insertions
        # falls through to the next surviving instruction, which the
        # running construction above already encodes
        def target(old_pc: int) -> int:
            return land[old_pc]

        remapped: list[Instr] = []
        for instr in new:
            op = instr.op
            if op == Op.JUMP:
                remapped.append(dc_replace(instr, args=(target(instr.args[0]),)))
            elif op == Op.BRANCH_FALSE:
                remapped.append(
                    dc_replace(
                        instr, args=(instr.args[0], target(instr.args[1]))
                    )
                )
            elif op == Op.CALL:
                remapped.append(
                    dc_replace(
                        instr, args=(target(instr.args[0]), instr.args[1])
                    )
                )
            else:
                remapped.append(instr)

        _relink_loops(remapped)
        _rebuild_get_pcs(remapped)
        return dc_replace(
            self.prog,
            instructions=remapped,
            proc_entries={
                name: target(pc) for name, pc in self.prog.proc_entries.items()
            },
        )


def _relink_loops(instrs: list[Instr]) -> None:
    """Recompute loop start/end bookkeeping after pcs moved."""
    stack: list[tuple[str, int]] = []
    for pc, instr in enumerate(instrs):
        op = instr.op
        if op in _LOOP_PAIRS:
            stack.append((op, pc))
        elif op in _LOOP_ENDS:
            start_op, start_pc = stack.pop()
            if start_op != _LOOP_ENDS[op]:  # pragma: no cover - verify catches
                raise ValueError(f"mismatched loop nesting at pc {pc}")
            start = instrs[start_pc]
            if op == Op.PARDO_END:
                instrs[pc] = dc_replace(instr, args=(start_pc,))
                args = list(start.args)
                args[3] = pc + 1
                instrs[start_pc] = dc_replace(start, args=tuple(args))
            else:
                instrs[pc] = dc_replace(
                    instr, args=(instr.args[0], start_pc + 1)
                )
                args = list(start.args)
                args[1] = pc + 1
                instrs[start_pc] = dc_replace(start, args=tuple(args))
    if stack:  # pragma: no cover - verify catches
        raise ValueError("unterminated loop after rewrite")


def _rebuild_get_pcs(instrs: list[Instr]) -> None:
    """Recompute each loop's ``get_pcs`` list after pcs moved."""
    for start_pc, pcs in loop_get_pcs(instrs).items():
        instr = instrs[start_pc]
        args = list(instr.args)
        args[get_pcs_slot(instr)] = pcs
        instrs[start_pc] = dc_replace(instr, args=tuple(args))


def remove_arrays(
    prog: CompiledProgram, dead_ids: set[int]
) -> CompiledProgram:
    """Drop array descriptors and renumber every array reference."""
    if not dead_ids:
        return prog
    remap: dict[int, int] = {}
    table: list[ArrayDesc] = []
    for old_id, desc in enumerate(prog.array_table):
        if old_id in dead_ids:
            continue
        remap[old_id] = len(table)
        table.append(desc)

    def fix(arg):
        if isinstance(arg, BlockOperand):
            return BlockOperand(remap[arg.array_id], arg.index_ids)
        if isinstance(arg, tuple):
            return tuple(fix(a) for a in arg)
        if isinstance(arg, list):  # pragma: no cover - args are tuples
            return [fix(a) for a in arg]
        return arg

    instrs: list[Instr] = []
    for instr in prog.instructions:
        if instr.op in (
            Op.CREATE,
            Op.DELETE,
            Op.BLOCKS_TO_LIST,
            Op.LIST_TO_BLOCKS,
        ):
            instrs.append(
                dc_replace(instr, args=(remap[instr.args[0]],))
            )
        else:
            instrs.append(dc_replace(instr, args=fix(instr.args)))
    return dc_replace(
        prog,
        instructions=instrs,
        array_table=table,
        proc_entries=dict(prog.proc_entries),
    )


@dataclass
class VerifyResult:
    """Outcome of the structural validity check; falsy when broken."""

    problems: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return not self.problems

    def render(self) -> str:
        if not self.problems:
            return "program structurally valid"
        return "\n".join(self.problems)


def verify_program(prog: CompiledProgram) -> VerifyResult:
    """Machine-checkable legality report for one rewritten program.

    Checks that every branch target is in range, loop pairs nest and
    back-link correctly, operand ids index into the descriptor tables,
    each loop's ``get_pcs`` matches a fresh :func:`loop_get_pcs`, and no
    ``get_pcs`` entry uses an index bound by a loop nested inside its
    loop: every index it names is bound by that loop, an enclosing one
    or (in a procedure body) the caller.
    """
    out = VerifyResult()
    n = len(prog.instructions)
    n_arrays = len(prog.array_table)
    n_indices = len(prog.index_table)

    def check_operand(pc: int, operand) -> None:
        if not isinstance(operand, BlockOperand):
            out.problems.append(f"pc {pc}: expected BlockOperand, got {operand!r}")
            return
        if not 0 <= operand.array_id < n_arrays:
            out.problems.append(f"pc {pc}: array id {operand.array_id} out of range")
        for ix in operand.index_ids:
            if not 0 <= ix < n_indices:
                out.problems.append(f"pc {pc}: index id {ix} out of range")

    def check_prefetchable(pc: int, uses: tuple[int, ...]) -> None:
        # a loop may list this get only if no loop nested inside it
        # binds one of the operand's indices
        nested: set[int] = set()
        for _, start_pc in reversed(stack):
            start = prog.instructions[start_pc]
            if nested.intersection(uses) and pc in start.args[get_pcs_slot(start)]:
                out.problems.append(
                    f"pc {start_pc}: get_pcs lists pc {pc}, whose operand "
                    "uses an index a nested loop binds"
                )
            nested.update(_loop_binds(start))

    stack: list[tuple[str, int]] = []
    for pc, instr in enumerate(prog.instructions):
        op = instr.op
        if op == Op.JUMP and not 0 <= instr.args[0] <= n:
            out.problems.append(f"pc {pc}: JUMP target {instr.args[0]} out of range")
        elif op == Op.BRANCH_FALSE and not 0 <= instr.args[1] <= n:
            out.problems.append(
                f"pc {pc}: BRANCH_FALSE target {instr.args[1]} out of range"
            )
        elif op == Op.CALL and not 0 <= instr.args[0] < n:
            out.problems.append(f"pc {pc}: CALL entry {instr.args[0]} out of range")
        elif op in _LOOP_PAIRS:
            stack.append((op, pc))
        elif op in _LOOP_ENDS:
            if not stack or stack[-1][0] != _LOOP_ENDS[op]:
                out.problems.append(f"pc {pc}: {op} without matching start")
                continue
            start_op, start_pc = stack.pop()
            start = prog.instructions[start_pc]
            if op == Op.PARDO_END:
                if instr.args[0] != start_pc:
                    out.problems.append(
                        f"pc {pc}: PARDO_END back link {instr.args[0]} != {start_pc}"
                    )
                if start.args[3] != pc + 1:
                    out.problems.append(
                        f"pc {start_pc}: PARDO_START exit {start.args[3]} != {pc + 1}"
                    )
            else:
                if instr.args[1] != start_pc + 1:
                    out.problems.append(
                        f"pc {pc}: {op} body start {instr.args[1]} != {start_pc + 1}"
                    )
                if start.args[1] != pc + 1:
                    out.problems.append(
                        f"pc {start_pc}: {start_op} exit {start.args[1]} != {pc + 1}"
                    )
        elif op in (Op.GET, Op.REQUEST, Op.PREFETCH, Op.ALLOCATE,
                    Op.DEALLOCATE, Op.COMPUTE_INTEGRALS):
            check_operand(pc, instr.args[0])
            if op in _GETLIKE and isinstance(instr.args[0], BlockOperand):
                check_prefetchable(pc, instr.args[0].index_ids)
        elif op in (Op.PUT, Op.PREPARE):
            check_operand(pc, instr.args[0])
            check_operand(pc, instr.args[2])
        elif op in (Op.CREATE, Op.DELETE, Op.BLOCKS_TO_LIST, Op.LIST_TO_BLOCKS):
            if not 0 <= instr.args[0] < n_arrays:
                out.problems.append(
                    f"pc {pc}: array id {instr.args[0]} out of range"
                )
        elif op == Op.CONTRACT_FUSED:
            check_operand(pc, instr.args[0])
            check_operand(pc, instr.args[2])
            check_operand(pc, instr.args[3])
            if instr.args[1] not in ("=", "+=", "-="):
                out.problems.append(
                    f"pc {pc}: bad CONTRACT_FUSED op {instr.args[1]!r}"
                )
    if stack:
        out.problems.append(
            f"unterminated loops at pcs {[pc for _, pc in stack]}"
        )

    # get_pcs must equal a fresh recount
    for start_pc, pcs in loop_get_pcs(prog.instructions).items():
        instr = prog.instructions[start_pc]
        listed = tuple(instr.args[get_pcs_slot(instr)])
        if listed != pcs:
            out.problems.append(f"pc {start_pc}: stale get_pcs {listed} != {pcs}")
    return out
