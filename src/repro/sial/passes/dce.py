"""Dead-instruction and dead-temp-array elimination.

An instruction is dead when it only writes blocks of a ``temp`` array
that no other instruction ever reads, and its sources are free of
communication side effects (numbers, or blocks of worker-local
``temp``/``local``/``static`` arrays).  Distributed/served reads are
never deleted -- a ``GET`` both communicates and feeds the sanitizer,
so removing one could change traffic accounting or a verdict.

Legality argument: a write to a never-read temp block is observable
only through (a) the block's contents, which nothing reads, (b) memory
accounting and simulated time, which the bitwise contract does not
cover, and (c) errors the instruction itself could raise; restricting
sources to local kinds removes the remote-error cases, and a local
source read cannot raise unless the *kept* program would already have
raised at its own producer.  Scalars are never dead (``RunResult``
reports every scalar), so scalar instructions are untouched.

Runs to a fixpoint -- deleting ``tmp2 = tmp1 * x`` can make ``tmp1``
dead -- then prunes array-table descriptors with zero remaining
references, renumbering ids everywhere (contraction fusion leaves its
virtual temps fully unreferenced, and this is where they disappear).
"""

from __future__ import annotations

from ..bytecode import BlockOperand, CompiledProgram, Op
from .manager import PassReport
from .rewrite import Rewriter, remove_arrays

__all__ = ["eliminate_dead"]

#: kinds whose blocks live on the executing worker; reading them has no
#: communication side effects
_LOCAL_KINDS = ("temp", "local", "static")

#: (write-operand arg positions, read-operand arg positions) for the
#: pure block-compute instructions DCE may delete
_COMPUTE_OPS = {
    Op.FILL: ((0,), ()),
    Op.COPY: ((0,), (1,)),
    Op.NEGATE: ((0,), (1,)),
    Op.SCALE: ((0,), (2,)),
    Op.ADDSUB: ((0,), (2, 3)),
    Op.CONTRACT: ((0,), (2, 3)),
    Op.CONTRACT_FUSED: ((0,), (2, 3)),
    Op.ACCUM: ((0,), (2,)),
    Op.SCALE_INPLACE: ((0,), (0,)),  # read-modify-write
}


def _operands(arg) -> list[BlockOperand]:
    """Every BlockOperand inside one (possibly nested) argument."""
    found: list[BlockOperand] = []
    stack = [arg]
    while stack:
        item = stack.pop()
        if isinstance(item, BlockOperand):
            found.append(item)
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
    return found


def _read_array_ids(prog: CompiledProgram) -> set[int]:
    """Arrays some instruction may read (conservatively)."""
    reads: set[int] = set()
    for instr in prog.instructions:
        op = instr.op
        spec = _COMPUTE_OPS.get(op)
        if spec is not None:
            _, read_slots = spec
            for slot in read_slots:
                reads.add(instr.args[slot].array_id)
            # accumulate forms read their destination too
            write_op = instr.args[1] if op in (
                Op.FILL, Op.SCALE, Op.ACCUM, Op.CONTRACT, Op.CONTRACT_FUSED
            ) else "="
            if write_op != "=" or op == Op.SCALE_INPLACE:
                reads.add(instr.args[0].array_id)
            continue
        # everything else: every referenced array counts as read
        # (EXECUTE may do anything with its blocks; PUT/PREPARE read
        # their source; GET/REQUEST materialize reads; ALLOCATE /
        # DEALLOCATE / COMPUTE_INTEGRALS / ADDSUB dst slices etc. are
        # kept conservative)
        for operand in _operands(instr.args):
            reads.add(operand.array_id)
        if op in (Op.CREATE, Op.DELETE, Op.BLOCKS_TO_LIST, Op.LIST_TO_BLOCKS):
            reads.add(instr.args[0])
    return reads


def _sources_are_local(prog: CompiledProgram, instr) -> bool:
    op = instr.op
    _, read_slots = _COMPUTE_OPS[op]
    for slot in read_slots:
        kind = prog.array_table[instr.args[slot].array_id].kind
        if kind not in _LOCAL_KINDS:
            return False
    return True


def eliminate_dead(prog: CompiledProgram) -> tuple[CompiledProgram, PassReport]:
    report = PassReport(name="dce")
    removed_total = 0
    while True:
        reads = _read_array_ids(prog)
        rw = Rewriter(prog)
        removed = 0
        for pc, instr in enumerate(prog.instructions):
            spec = _COMPUTE_OPS.get(instr.op)
            if spec is None:
                continue
            dst = instr.args[0]
            desc = prog.array_table[dst.array_id]
            if desc.kind != "temp" or dst.array_id in reads:
                continue
            if not _sources_are_local(prog, instr):
                continue
            rw.delete(pc)
            removed += 1
        if not removed:
            break
        prog = rw.apply()
        removed_total += removed

    # prune array descriptors nothing references any more
    referenced: set[int] = set()
    for instr in prog.instructions:
        for operand in _operands(instr.args):
            referenced.add(operand.array_id)
        if instr.op in (
            Op.CREATE, Op.DELETE, Op.BLOCKS_TO_LIST, Op.LIST_TO_BLOCKS
        ):
            referenced.add(instr.args[0])
    dead_arrays = {
        array_id
        for array_id, desc in enumerate(prog.array_table)
        if desc.kind == "temp" and array_id not in referenced
    }
    if dead_arrays:
        prog = remove_arrays(prog, dead_arrays)

    report.removed = removed_total
    report.notes.append(
        f"dropped {removed_total} dead writes, "
        f"{len(dead_arrays)} dead temp arrays"
    )
    return prog, report
