"""Dead-instruction and dead-temp-array elimination.

An instruction is dead when it only writes blocks of a ``temp`` array
that no other instruction ever reads, and its sources are free of
communication side effects (numbers, or blocks of worker-local
``temp``/``local``/``static`` arrays).  Distributed/served reads are
never deleted -- a ``GET`` both communicates and is an access the race
checker records, so removing one could change traffic accounting or a
verdict.

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

from ..bytecode import OPS, PURE_KERNELS, CompiledProgram
from .manager import PassReport
from .rewrite import Rewriter, array_refs, remove_arrays

__all__ = ["eliminate_dead"]

#: kinds whose blocks live on the executing worker; reading them has no
#: communication side effects
_LOCAL_KINDS = ("temp", "local", "static")


def _read_array_ids(prog: CompiledProgram) -> set[int]:
    """Arrays some instruction may read (conservatively)."""
    reads: set[int] = set()
    for instr in prog.instructions:
        args = instr.args
        if instr.op in PURE_KERNELS:
            spec = OPS[instr.op]
            for slot in spec.reads:
                reads.add(args[slot].array_id)
            # accumulate forms read their destination too
            if spec.assign is not None and args[spec.assign] != "=":
                reads.add(args[0].array_id)
            continue
        # everything else: every referenced array counts as read
        # (EXECUTE may do anything with its blocks; PUT/PREPARE read
        # their source; GET/REQUEST materialize reads; ALLOCATE /
        # DEALLOCATE / COMPUTE_INTEGRALS etc. are kept conservative)
        reads.update(array_refs(instr))
    return reads


def _sources_are_local(prog: CompiledProgram, instr) -> bool:
    for slot in OPS[instr.op].reads:
        if prog.array_table[instr.args[slot].array_id].kind not in _LOCAL_KINDS:
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
            if instr.op not in PURE_KERNELS:
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
        referenced.update(array_refs(instr))
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
