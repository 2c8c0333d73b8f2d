"""Contraction fusion: collapse ``tmp = a*b; c (+|-)= [k*] tmp`` pairs.

The SIAL idiom for an accumulated contraction materializes the product
in a ``temp`` block and folds it into the accumulator on the next line::

    tmp(i,j) = a(i,k) * b(k,j)
    c(i,j) += 0.5 * tmp(i,j)

The pass rewrites the producer into one
:data:`~..bytecode.Op.CONTRACT_FUSED` super instruction -- a fused
GEMM-accumulate whose kernel computes the product into scratch, scales
it, and applies it to ``c`` directly -- and deletes the consumer.  The
temp's descriptor disappears in the DCE pass that follows.

Bitwise identity holds because the fused kernel runs *the same two
numpy expressions in the same order* as the unfused pair: the
contraction kernel's plan/einsum with ``=`` into a scratch buffer of
the temp's exact shape, then the consumer's transpose/scale/apply on
the destination (see ``Backend.fused_contract``).  Float non-
associativity is therefore never exercised.

Legality is *global per temp array*: every occurrence of the temp
anywhere in the program must belong to some fused pair, otherwise a
third reader (or a superinstruction) could observe the block the fused
form never writes, and the whole temp is left alone.  A consumer is
only paired when it immediately follows its producer with no branch
landing between them, reads the whole temp block (identical index
tuple, no slicing), and the destination covers the same indices.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

from ..bytecode import BlockOperand, CompiledProgram, Instr, Op
from .manager import PassReport
from .rewrite import Rewriter, array_refs, jump_targets

__all__ = ["fuse_contractions"]


def _pair_at(prog: CompiledProgram, pc: int, targets: set[int]):
    """The fused instruction for the (producer, consumer) pair at pc.

    Returns ``(fused_instr, tmp_operand)`` or None.
    """
    producer = prog.instructions[pc]
    if producer.op != Op.CONTRACT or producer.args[1] != "=":
        return None
    tmp_op = producer.args[0]
    if prog.array_table[tmp_op.array_id].kind != "temp":
        return None
    if len(set(tmp_op.index_ids)) != len(tmp_op.index_ids):
        return None  # diagonal write; the fused kernel has no slice path
    if pc + 1 >= len(prog.instructions) or pc + 1 in targets:
        return None  # a branch may land between producer and consumer
    consumer = prog.instructions[pc + 1]

    # consumer forms: ACCUM c ±= tmp | SCALE c op= k*tmp | COPY c = tmp
    if consumer.op == Op.ACCUM:
        dst, op2, src, factor = consumer.args[0], consumer.args[1], consumer.args[2], None
    elif consumer.op == Op.SCALE:
        dst, op2, src, factor = consumer.args[0], consumer.args[1], consumer.args[2], consumer.args[3]
    elif consumer.op == Op.COPY:
        dst, op2, src, factor = consumer.args[0], "=", consumer.args[1], None
    else:
        return None
    if src != tmp_op:
        return None  # must read the temp exactly as written
    if dst.array_id == tmp_op.array_id:
        return None
    if set(dst.index_ids) != set(tmp_op.index_ids):
        return None
    if len(set(dst.index_ids)) != len(dst.index_ids):
        return None

    fused = Instr(
        op=Op.CONTRACT_FUSED,
        args=(
            dst,
            op2,
            producer.args[2],
            producer.args[3],
            tmp_op.index_ids,
            factor,
        ),
        location=producer.location,
    )
    return fused, tmp_op


def fuse_contractions(prog: CompiledProgram) -> tuple[CompiledProgram, PassReport]:
    report = PassReport(name="fuse")
    targets = jump_targets(prog)

    # candidate pairs, keyed by producer pc
    pairs: dict[int, tuple[Instr, BlockOperand]] = {}
    for pc in range(len(prog.instructions)):
        found = _pair_at(prog, pc, targets)
        if found is not None:
            pairs[pc] = found

    # global legality: every reference to a fused temp must be a
    # sanctioned pair member (its producer dst or its consumer src)
    sanctioned: dict[int, set[int]] = {}  # array id -> {producer pcs}
    for pc, (_, tmp_op) in pairs.items():
        sanctioned.setdefault(tmp_op.array_id, set()).add(pc)
    referenced_at: dict[int, set[int]] = {}  # array id -> pcs naming it
    if sanctioned:
        for pc, instr in enumerate(prog.instructions):
            for array_id in array_refs(instr):
                referenced_at.setdefault(array_id, set()).add(pc)
    for array_id, producer_pcs in list(sanctioned.items()):
        member_pcs = set(producer_pcs) | {pc + 1 for pc in producer_pcs}
        if referenced_at.get(array_id, set()) - member_pcs:
            del sanctioned[array_id]

    rw = Rewriter(prog)
    fused = 0
    for pc, (fused_instr, tmp_op) in pairs.items():
        if tmp_op.array_id not in sanctioned:
            continue
        rw.replace(pc, fused_instr)
        rw.delete(pc + 1)
        fused += 1

    report.removed = fused
    report.notes.append(f"fused {fused} contract+apply pairs")
    prog = rw.apply() if rw.dirty else prog
    return prog, report
