"""Automatic workload extraction from compiled SIAL programs.

The paper lists "providing support for performance modeling" as planned
SIAL tool support (Section VIII).  This module implements it: a static
analysis that walks SIA bytecode and derives the coarse
:class:`~repro.perfmodel.model.WorkloadSpec` of the program -- pardo
iteration counts (with ``where`` clauses honoured exactly), flops per
iteration from the contraction shapes, fetched/put/served bytes from
the ``get``/``put``/``request``/``prepare`` traffic, with sequential
loop multiplicities applied.  The result feeds
:func:`~repro.perfmodel.model.simulate`, so any SIAL program can be
scaling-studied at 100k virtual cores without hand-building its phase
specification.

Approximations (documented, conservative):

* ragged segments enter as the average segment length of each index;
* both branches of an ``if`` are charged at weight 1/2;
* block-cache reuse is not modeled -- every ``get`` inside a loop body
  counts as traffic (an upper bound on communication);
* user ``execute`` super instructions are charged one elementwise pass
  over their block arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Optional

from ..costmodel import INTEGRAL_FLOPS_PER_ELEMENT, contraction_flops
from ..sial.bytecode import OPS, BlockOperand, CompiledProgram, Op
from ..sip.blocks import ResolvedIndexTable
from ..sip.config import SIPConfig
from ..sip.scheduler import enumerate_pardo
from .model import PhaseSpec, WorkloadSpec

__all__ = ["extract_workload"]

_B = 8.0

#: cost rules that move block bytes rather than compute
_TRAFFIC = ("get", "request", "put", "prepare")


@dataclass
class _PhaseAccumulator:
    """Per-iteration aggregates of one pardo body (or a serial region)."""

    flops: float = 0.0
    kernels: float = 0.0
    fetch_bytes: float = 0.0
    fetch_messages: float = 0.0
    put_bytes: float = 0.0
    served_bytes: float = 0.0
    served_arrays: set[int] = field(default_factory=set)

    @property
    def empty(self) -> bool:
        return (
            self.flops == 0
            and self.kernels == 0
            and self.fetch_bytes == 0
            and self.put_bytes == 0
            and self.served_bytes == 0
        )


class _Extractor:
    def __init__(self, program: CompiledProgram, table: ResolvedIndexTable) -> None:
        self.program = program
        self.table = table
        self.instrs = program.instructions
        self.phases: list[PhaseSpec] = []
        self._serial = _PhaseAccumulator()
        self._serial_count = 0

    # -- index / operand geometry --------------------------------------------
    def avg_len(self, index_id: int) -> float:
        ri = self.table[index_id]
        if ri.is_simple or ri.n_segments == 0:
            return 1.0
        return ri.n_elements / ri.n_segments

    def operand_dims(self, op: BlockOperand) -> list[float]:
        return [self.avg_len(i) for i in op.index_ids]

    def operand_elements(self, op: BlockOperand) -> float:
        return prod(self.operand_dims(op), start=1.0)

    def array_total_bytes(self, array_id: int) -> float:
        desc = self.program.array_table[array_id]
        return prod(
            (float(self.table[i].n_elements) for i in desc.index_ids), start=1.0
        ) * _B

    def array_total_blocks(self, array_id: int) -> float:
        desc = self.program.array_table[array_id]
        return prod(
            (float(max(self.table[i].n_segments, 1)) for i in desc.index_ids),
            start=1.0,
        )

    # -- instruction costing ------------------------------------------------
    def contraction(self, out_ids, a: BlockOperand) -> float:
        """Flops of contracting ``a`` (times some b) into ``out_ids``."""
        return contraction_flops(
            [self.avg_len(i) for i in out_ids],
            [self.avg_len(i) for i in a.index_ids if i not in out_ids],
        )

    def charge(self, acc: _PhaseAccumulator, instr, weight: float) -> None:
        """Charge one instruction by its spec's cost rule."""
        spec = OPS[instr.op]
        rule = spec.cost
        args = instr.args
        if rule is None:
            return  # control, barriers, scalar assigns: negligible
        if rule in _TRAFFIC:
            ref = args[0]
            nbytes = weight * self.operand_elements(ref) * _B
            if rule == "get":
                acc.fetch_bytes += nbytes
                acc.fetch_messages += weight
            elif rule == "request":
                acc.served_bytes += nbytes
                acc.fetch_messages += weight
                acc.served_arrays.add(ref.array_id)
            elif rule == "put":
                acc.put_bytes += nbytes
            else:  # prepare
                acc.served_bytes += nbytes
                acc.served_arrays.add(ref.array_id)
            return
        if rule == "contraction":  # into the destination, or a scalar
            out_ids = args[0].index_ids if spec.writes else ()
            acc.flops += weight * self.contraction(out_ids, args[2])
        elif rule == "fused_contraction":
            # a contraction into the (virtual) temp shape plus the
            # elementwise apply onto the destination
            acc.flops += weight * self.contraction(args[4], args[2])
            acc.flops += weight * self.operand_elements(args[0])
        elif rule == "elementwise":
            acc.flops += weight * self.operand_elements(args[0])
        elif rule == "integral":
            acc.flops += (
                weight * INTEGRAL_FLOPS_PER_ELEMENT * self.operand_elements(args[0])
            )
        else:  # "flops": a user super instruction, one pass over its blocks
            elements = sum(
                self.operand_elements(value)
                for kind, value in args[1]
                if kind == "block"
            )
            acc.flops += weight * max(elements, 1.0)
        acc.kernels += weight

    # -- structured walk --------------------------------------------------------
    def run(self) -> None:
        self.walk_region(0, self._find_stop(), acc=None, weight=1.0)
        self._flush_serial()

    def _find_stop(self) -> int:
        for pc, instr in enumerate(self.instrs):
            if instr.op == Op.STOP:
                return pc
        return len(self.instrs)

    def walk_region(
        self,
        pc: int,
        end: int,
        acc: Optional[_PhaseAccumulator],
        weight: float,
    ) -> None:
        """Walk [pc, end); charge into ``acc`` (None = serial context)."""
        while pc < end:
            instr = self.instrs[pc]
            op = instr.op
            if op == Op.PARDO_START:
                pardo_id, index_ids, conditions, exit_pc, _gets = instr.args
                if acc is not None:  # analyzer forbids nesting
                    raise ValueError("nested pardo in bytecode")
                self._flush_serial()
                body_acc = _PhaseAccumulator()
                # body spans up to the PARDO_END (at exit_pc - 1)
                self.walk_region(pc + 1, exit_pc - 1, body_acc, 1.0)
                n_iter = len(
                    enumerate_pardo(self.table, index_ids, conditions)
                )
                # a pardo inside a sequential loop executes once per trip
                repeats = max(1, round(weight))
                for _ in range(repeats):
                    self._emit_pardo_phase(pardo_id, n_iter, body_acc)
                pc = exit_pc
            elif OPS[op].loop == "start":  # a do or do..in loop
                index_id, exit_pc, _gets = instr.args
                ri = self.table[index_id]
                if op == Op.DOIN_START:
                    trips = float(ri.per_segment)
                else:
                    trips = float(len(ri.values()))
                # body spans up to the DO_END (at exit_pc - 1)
                self.walk_region(pc + 1, exit_pc - 1, acc, weight * trips)
                pc = exit_pc
            elif op == Op.BRANCH_FALSE:
                _cond, else_target = instr.args
                then_end = else_target
                join = else_target
                if (
                    then_end - 1 > pc
                    and self.instrs[then_end - 1].op == Op.JUMP
                ):
                    join = self.instrs[then_end - 1].args[0]
                    self.walk_region(pc + 1, then_end - 1, acc, weight * 0.5)
                    self.walk_region(else_target, join, acc, weight * 0.5)
                else:
                    self.walk_region(pc + 1, then_end, acc, weight * 0.5)
                pc = join
            elif op == Op.CALL:
                entry = instr.args[0]
                ret = entry
                while self.instrs[ret].op != Op.RETURN:
                    ret += 1
                self.walk_region(entry, ret, acc, weight)
                pc += 1
            else:  # a loop end or JUMP: the enclosing construct's, and free
                target = acc if acc is not None else self._serial
                self.charge(target, instr, weight)
                pc += 1

    def _emit_pardo_phase(
        self, pardo_id: int, n_iter: int, acc: _PhaseAccumulator
    ) -> None:
        served_unique = 0.0
        served_blocks = 0.0
        if acc.served_arrays:
            total_arrays = sum(
                self.array_total_bytes(a) for a in acc.served_arrays
            )
            served_unique = min(total_arrays, acc.served_bytes * n_iter)
            total_blocks = sum(
                self.array_total_blocks(a) for a in acc.served_arrays
            )
            fraction = served_unique / total_arrays if total_arrays else 0.0
            served_blocks = total_blocks * fraction
        self.phases.append(
            PhaseSpec(
                name=f"pardo{pardo_id}.{len(self.phases)}",
                n_iterations=n_iter,
                flops_per_iter=acc.flops,
                kernels_per_iter=max(acc.kernels, 1.0),
                fetch_bytes_per_iter=acc.fetch_bytes,
                fetch_messages_per_iter=acc.fetch_messages,
                put_bytes_per_iter=acc.put_bytes,
                served_bytes_per_iter=acc.served_bytes,
                served_unique_bytes=served_unique,
                served_unique_blocks=served_blocks,
            )
        )

    def _flush_serial(self) -> None:
        if self._serial.empty:
            self._serial = _PhaseAccumulator()
            return
        acc = self._serial
        self.phases.append(
            PhaseSpec(
                name=f"serial{self._serial_count}",
                n_iterations=1,
                flops_per_iter=acc.flops,
                kernels_per_iter=max(acc.kernels, 1.0),
                fetch_bytes_per_iter=acc.fetch_bytes,
                fetch_messages_per_iter=acc.fetch_messages,
                put_bytes_per_iter=acc.put_bytes,
                served_bytes_per_iter=acc.served_bytes,
                served_unique_bytes=acc.served_bytes,
            )
        )
        self._serial_count += 1
        self._serial = _PhaseAccumulator()


def extract_workload(
    program: CompiledProgram,
    config: Optional[SIPConfig] = None,
    symbolics: Optional[dict[str, float]] = None,
    name: Optional[str] = None,
) -> WorkloadSpec:
    """Derive a coarse workload specification from SIA bytecode."""
    config = config if config is not None else SIPConfig()
    table = ResolvedIndexTable(
        program,
        symbolics or {},
        segment_size=config.segment_size,
        segment_sizes=config.segment_sizes,
        subsegments_per_segment=config.subsegments_per_segment,
    )
    extractor = _Extractor(program, table)
    extractor.run()
    return WorkloadSpec(
        name=name or f"extracted[{program.name}]",
        phases=tuple(extractor.phases),
    )
