"""Pre-decoded instruction stream: the interpreter's fast path.

The compiled program stores operands as :class:`BlockOperand` records
that the worker used to re-parse on every execution -- looking up the
array descriptor, walking the index table, and rebuilding the resolved
coordinates/slices each time an instruction ran.  ``decode_program``
does that structural work **once at program load**:

* every instruction becomes a :class:`DecodedInstr` (``__slots__``,
  positionally identical ``args``) whose block operands are replaced by
  :class:`DecodedOperand` objects with the array descriptor and
  per-dimension index metadata pre-resolved;
* identical operands (same array, same index variables) share one
  decoder, so a memo keyed by the current index values turns repeat
  resolutions into a single dict probe -- across *all* workers, since
  the decoded stream lives on the shared runtime;
* the worker builds flat per-pc handler tables from the decoded ops, so
  the inner loop does no per-step dict/``getattr`` dispatch.

Program counters and argument layout are preserved exactly, so the
master, profiler and tracer keep working off the same pcs.  Resolution
raises the very same :class:`SIPError` messages the interpreter always
raised (the error-path tests match them verbatim).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional

from ..sial.bytecode import ArrayDesc, BlockOperand, CompiledProgram
from .blocks import BlockId, ResolvedIndexTable
from .config import SIPError

__all__ = ["ResolvedOperand", "DecodedOperand", "DecodedInstr", "DecodedProgram", "decode_program"]


#: array kinds whose blocks live on the executing rank: reading one
#: never communicates, so it never waits
LOCAL_KINDS = ("static", "temp", "local")


@dataclass(frozen=True)
class ResolvedOperand:
    """A block operand resolved against the current index values."""

    block_id: BlockId
    kind: str
    index_ids: tuple[int, ...]
    shape: tuple[int, ...]
    slices: Optional[tuple[slice, ...]]
    element_ranges: tuple[tuple[int, int], ...]
    is_local: bool  # kind in LOCAL_KINDS
    owner_rank: Optional[int]  # world rank owning a distributed block, else None


class DecodedOperand:
    """A block operand with its descriptor lookups done at load time."""

    __slots__ = (
        "array_id", "index_ids", "kind", "desc", "table", "dims", "_memo", "_key", "_owner_of",
    )  # fmt: skip

    def __init__(
        self,
        op: BlockOperand,
        desc: ArrayDesc,
        table: ResolvedIndexTable,
        owner_of: Optional[Callable[[BlockId], int]] = None,
    ) -> None:
        self.array_id = op.array_id
        self.index_ids = op.index_ids
        self.kind = desc.kind
        self.desc = desc
        self.table = table
        # per dimension: (uid, resolved index used, dimension's resolved
        # index, True when a subindex slices a full-segment dimension)
        self.dims = tuple(
            (uid, table[uid], table[did], table[uid].is_subindex and not table[did].is_subindex)
            for did, uid in zip(desc.index_ids, op.index_ids)
        )
        # key -> resolution (or, for a key with an unbound index, the
        # text of the error resolving it raises)
        self._memo: dict[object, object] = {}
        # memo key straight from the binding table, in C: the tuple of
        # this operand's index values (the bare value for one index);
        # an unbound index surfaces as KeyError
        uids = op.index_ids
        self._key = itemgetter(*uids) if uids else (lambda index_values: ())
        self._owner_of = owner_of if desc.kind == "distributed" else None

    def resolve(self, index_values: dict[int, int]) -> ResolvedOperand:
        try:
            key = self._key(index_values)
        except KeyError:
            return self._resolve_unbound(index_values)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        r = self._resolve((key,) if len(self.index_ids) == 1 else key)
        self._memo[key] = r
        return r

    def _resolve_unbound(self, index_values: dict[int, int]) -> ResolvedOperand:
        """Some index has no value: raise what the reference path raises.

        The lookahead prefetcher probes operands of inner loops with
        their indices still unbound on every outer iteration, so the
        error text is memoised like a successful resolution is.
        """
        key = tuple(map(index_values.get, self.index_ids))
        message = self._memo.get(key)
        if message is None:
            try:
                return self._resolve(key)
            except SIPError as err:
                message = str(err)
            self._memo[key] = message
        raise SIPError(message) from None  # not "while handling KeyError"

    def _resolve(self, values: tuple) -> ResolvedOperand:
        desc = self.desc
        coords: list[int] = []
        slices: list[slice] = []
        shape: list[int] = []
        eranges: list[tuple[int, int]] = []
        any_slice = False
        for (uid, ri_u, ri_d, sub_on_full), val in zip(self.dims, values):
            if val is None:
                raise SIPError(
                    f"index {ri_u.name!r} has no value here "
                    f"(array {desc.name!r})"
                )
            if sub_on_full:
                # a subindex used on a full-segment dimension slices the
                # block; any subindex of a same-kind, same-partition
                # index works (the analyzer already checked the kind)
                parent = ri_u.super_segment_of(val)
                sub = ri_u.segment(val)
                if not 1 <= parent <= ri_d.n_segments:
                    raise SIPError(
                        f"subindex {ri_u.name!r} segment {val} falls outside "
                        f"dimension {ri_d.name!r} of {desc.name!r}"
                    )
                pseg = ri_d.segment(parent)
                if sub.start < pseg.start or sub.stop > pseg.stop:
                    raise SIPError(
                        f"subindex {ri_u.name!r} and dimension "
                        f"{ri_d.name!r} of {desc.name!r} have "
                        "incompatible segmentations"
                    )
                coords.append(parent)
                slices.append(slice(sub.start - pseg.start, sub.stop - pseg.start))
                shape.append(sub.length)
                eranges.append((sub.start, sub.stop))
                any_slice = True
            else:
                nd = ri_d.n_segments
                if not 1 <= val <= nd:
                    raise SIPError(
                        f"segment {val} of index {ri_u.name!r} is outside the "
                        f"declared range of dimension {ri_d.name!r} of "
                        f"array {desc.name!r} (1..{nd})"
                    )
                seg = ri_d.segment(val)
                used_seg = ri_u.segment(val) if not ri_u.is_simple else seg
                if used_seg.length != seg.length:
                    raise SIPError(
                        f"index {ri_u.name!r} and dimension {ri_d.name!r} "
                        f"of {desc.name!r} have incompatible segmentations"
                    )
                coords.append(val)
                slices.append(slice(0, seg.length))
                shape.append(seg.length)
                eranges.append((seg.start, seg.stop))
        block_id = BlockId(self.array_id, tuple(coords))
        return ResolvedOperand(
            block_id=block_id,
            kind=desc.kind,
            index_ids=self.index_ids,
            shape=tuple(shape),
            slices=tuple(slices) if any_slice else None,
            element_ranges=tuple(eranges),
            is_local=desc.kind in LOCAL_KINDS,
            owner_rank=None if self._owner_of is None else self._owner_of(block_id),
        )


class DecodedInstr:
    """One instruction with block operands replaced by decoders."""

    __slots__ = ("op", "args", "location")

    def __init__(self, op: str, args: tuple, location) -> None:
        self.op = op
        self.args = args
        self.location = location


class DecodedProgram:
    """The decoded instruction stream plus its operand decoders."""

    __slots__ = ("instructions", "operands")

    def __init__(self, instructions: list[DecodedInstr], operands: dict) -> None:
        self.instructions = instructions
        self.operands = operands


def decode_program(
    program: CompiledProgram,
    table: ResolvedIndexTable,
    owner_of: Optional[Callable[[BlockId], int]] = None,
) -> DecodedProgram:
    """Decode every instruction once; pcs and arg layout are preserved.

    ``owner_of`` maps a distributed block to its owning rank, so that a
    resolved operand carries the answer instead of every reader asking.
    """
    operands: dict[BlockOperand, DecodedOperand] = {}

    def decode_operand(op: BlockOperand) -> DecodedOperand:
        d = operands.get(op)
        if d is None:
            d = operands[op] = DecodedOperand(
                op, program.array_table[op.array_id], table, owner_of
            )
        return d

    def walk(arg):
        if isinstance(arg, BlockOperand):
            return decode_operand(arg)
        if isinstance(arg, tuple):
            walked = tuple(walk(a) for a in arg)
            return walked if any(w is not o for w, o in zip(walked, arg)) else arg
        if isinstance(arg, list):
            return [walk(a) for a in arg]
        return arg

    instructions = [
        DecodedInstr(instr.op, walk(instr.args), instr.location)
        for instr in program.instructions
    ]
    return DecodedProgram(instructions, operands)
