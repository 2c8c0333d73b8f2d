"""Structural rewriting of SIA bytecode.

The pass pipeline never mutates a :class:`CompiledProgram` in place.
Each pass records deletions, replacements and insertions against the
*old* pc numbering on a :class:`Rewriter`; :meth:`Rewriter.apply` then
produces a fresh program with

* every explicit branch target (each spec's ``pcs`` slots and
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
structural invariants of the rewritten table (every instruction against
its spec, loop nesting) so every pass run is machine-checkable.

What each opcode's slots mean comes from :data:`~..bytecode.OPS`; no
function here names an opcode.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

from ..bytecode import (
    ASSIGN_OPS,
    OPS,
    ArrayDesc,
    BlockOperand,
    CompiledProgram,
    Instr,
)

__all__ = [
    "Rewriter", "verify_program", "remove_arrays", "jump_targets", "loop_get_pcs",
    "array_refs",
]


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
        spec = OPS[instr.op]
        if spec.loop == "start":
            stack.append((pc, spec.binds(instr.args)))
            gets[pc] = []
        elif spec.loop == "end" and stack:  # verify_program reports a stray end
            stack.pop()
        elif spec.fetch:
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
        spec = OPS[instr.op]
        args = instr.args
        targets.update(args[slot] for slot in spec.pcs)
        if spec.exit is not None:
            targets.add(args[spec.exit])
        elif spec.back is not None:  # the loop body's first pc
            targets.add(args[spec.back] - spec.back_offset + 1)
    return targets


def array_refs(instr) -> list[int]:
    """Every array id one instruction names: its raw array-id slots and
    its BlockOperands, nested ones (EXECUTE's arguments) included."""
    refs = [instr.args[slot] for slot in OPS[instr.op].arrays]
    stack = list(instr.args)
    while stack:
        item = stack.pop()
        if isinstance(item, BlockOperand):
            refs.append(item.array_id)
        elif isinstance(item, tuple):
            stack.extend(item)
    return refs


def _with_arg(instr: Instr, slot: int, value) -> Instr:
    args = instr.args
    return dc_replace(instr, args=args[:slot] + (value,) + args[slot + 1 :])


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
            for slot in OPS[instr.op].pcs:
                instr = _with_arg(instr, slot, target(instr.args[slot]))
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
    stack: list[int] = []
    for pc, instr in enumerate(instrs):
        spec = OPS[instr.op]
        if spec.loop == "start":
            stack.append(pc)
        elif spec.loop == "end":
            start_pc = stack.pop()
            start = instrs[start_pc]
            if start.op != spec.partner:  # pragma: no cover - verify catches
                raise ValueError(f"mismatched loop nesting at pc {pc}")
            instrs[pc] = _with_arg(instr, spec.back, start_pc + spec.back_offset)
            instrs[start_pc] = _with_arg(start, OPS[start.op].exit, pc + 1)
    if stack:  # pragma: no cover - verify catches
        raise ValueError("unterminated loop after rewrite")


def _rebuild_get_pcs(instrs: list[Instr]) -> None:
    """Recompute each loop's ``get_pcs`` list after pcs moved."""
    for start_pc, pcs in loop_get_pcs(instrs).items():
        instr = instrs[start_pc]
        instrs[start_pc] = _with_arg(instr, OPS[instr.op].get_pcs, pcs)


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
        return arg

    instrs: list[Instr] = []
    for instr in prog.instructions:
        instr = dc_replace(instr, args=fix(instr.args))
        for slot in OPS[instr.op].arrays:
            instr = _with_arg(instr, slot, remap[instr.args[slot]])
        instrs.append(instr)
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

    Checks every instruction against its :class:`~..bytecode.OpSpec`:
    the arity, a ``BlockOperand`` with in-range ids at each operand
    slot, an in-range int at each pc and array-id slot, and an
    ``=``/``+=``/``-=`` wherever an assign slot is declared; an opcode
    with no spec is a problem too.  Then that loop pairs nest and
    back-link correctly, each loop's ``get_pcs`` matches a fresh
    :func:`loop_get_pcs`, and no ``get_pcs`` entry uses an index bound
    by a loop nested inside its loop: every index it names is bound by
    that loop, an enclosing one or (in a procedure body) the caller.
    """
    out = VerifyResult()
    instrs = prog.instructions
    n = len(instrs)
    n_arrays = len(prog.array_table)
    n_indices = len(prog.index_table)

    def problem(pc: int, text: str) -> None:
        out.problems.append(f"pc {pc}: {text}")

    def in_range(value, bound: int) -> bool:
        return isinstance(value, int) and 0 <= value < bound

    def check_operand(pc: int, operand) -> None:
        if not isinstance(operand, BlockOperand):
            problem(pc, f"expected BlockOperand, got {operand!r}")
            return
        if not 0 <= operand.array_id < n_arrays:
            problem(pc, f"array id {operand.array_id} out of range")
        for ix in operand.index_ids:
            if not 0 <= ix < n_indices:
                problem(pc, f"index id {ix} out of range")

    def check_prefetchable(pc: int, uses: tuple[int, ...]) -> None:
        # a loop may list this get only if no loop nested inside it
        # binds one of the operand's indices
        nested: set[int] = set()
        for start_pc in reversed(stack):
            start = instrs[start_pc]
            spec = OPS[start.op]
            if nested.intersection(uses) and pc in start.args[spec.get_pcs]:
                problem(
                    start_pc,
                    f"get_pcs lists pc {pc}, whose operand uses an index "
                    "a nested loop binds",
                )
            nested.update(spec.binds(start.args))

    stack: list[int] = []  # start pcs of the open loops
    for pc, instr in enumerate(instrs):
        op = instr.op
        args = instr.args
        spec = OPS.get(op)
        if spec is None:
            problem(pc, f"opcode {op!r} has no spec")
            continue
        if len(args) != spec.arity:
            problem(pc, f"{op} takes {spec.arity} arguments, got {len(args)}")
            continue
        for slot in spec.pcs:
            if not in_range(args[slot], n):
                problem(pc, f"{op} target {args[slot]!r} out of range")
        for slot in spec.arrays:
            if not in_range(args[slot], n_arrays):
                problem(pc, f"array id {args[slot]!r} out of range")
        for slot in spec.operands:
            check_operand(pc, args[slot])
        if spec.assign is not None and args[spec.assign] not in ASSIGN_OPS:
            problem(pc, f"bad {op} assign operator {args[spec.assign]!r}")
        if spec.fetch and isinstance(args[0], BlockOperand):
            check_prefetchable(pc, args[0].index_ids)
        if spec.loop == "start":
            stack.append(pc)
        elif spec.loop == "end":
            if not stack or instrs[stack[-1]].op != spec.partner:
                problem(pc, f"{op} without matching start")
                continue
            start_pc = stack.pop()
            start = instrs[start_pc]
            link = start_pc + spec.back_offset
            if args[spec.back] != link:
                problem(pc, f"{op} back link {args[spec.back]} != {link}")
            exit_pc = start.args[OPS[start.op].exit]
            if exit_pc != pc + 1:
                problem(start_pc, f"{start.op} exit {exit_pc} != {pc + 1}")
    if stack:
        out.problems.append(f"unterminated loops at pcs {stack}")
    if out.problems:
        return out  # a malformed table has no meaningful get_pcs recount

    # get_pcs must equal a fresh recount
    for start_pc, pcs in loop_get_pcs(instrs).items():
        instr = instrs[start_pc]
        listed = tuple(instr.args[OPS[instr.op].get_pcs])
        if listed != pcs:
            problem(start_pc, f"stale get_pcs {listed} != {pcs}")
    return out
