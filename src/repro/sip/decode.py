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
* a memo miss reads one segment table per (index used, dimension
  index) pair, shared by every operand of the run, so each dimension's
  coordinate, slice, extent and element range are computed once per
  index value;
* the worker builds flat per-pc handler tables from the decoded ops, so
  the inner loop does no per-step dict/``getattr`` dispatch.

Program counters and argument layout are preserved exactly, so the
master, profiler and tracer keep working off the same pcs.  Resolution
raises the very same :class:`SIPError` messages the interpreter always
raised (the error-path tests match them verbatim).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from ..sial.bytecode import ArrayDesc, BlockOperand, CompiledProgram
from .blocks import BlockId, ResolvedIndexTable
from .config import SIPError

__all__ = ["ResolvedOperand", "DecodedOperand", "DecodedInstr", "DecodedProgram", "decode_program"]


#: array kinds whose blocks live on the executing rank: reading one
#: never communicates, so it never waits
LOCAL_KINDS = ("static", "temp", "local")


class ResolvedOperand(NamedTuple):
    """A block operand resolved against the current index values."""

    block_id: BlockId
    kind: str
    index_ids: tuple[int, ...]
    shape: tuple[int, ...]
    slices: Optional[tuple[slice, ...]]
    element_ranges: tuple[tuple[int, int], ...]
    is_local: bool  # kind in LOCAL_KINDS
    owner_rank: Optional[int]  # world rank owning a distributed/served block, else None


def _segment(ri_u, ri_d, sub_on_full: bool, desc: ArrayDesc, val) -> tuple:
    """Resolve value ``val`` of index ``ri_u`` on dimension ``ri_d``:
    (block coordinate, slice of the block, extent, element range)."""
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
        cut = slice(sub.start - pseg.start, sub.stop - pseg.start)
        return parent, cut, sub.length, (sub.start, sub.stop)
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
    return val, slice(0, seg.length), seg.length, (seg.start, seg.stop)


class DecodedOperand:
    """A block operand with its descriptor lookups done at load time."""

    __slots__ = (
        "array_id", "index_ids", "kind", "desc", "dims", "_tables", "_sliced",
        "_is_local", "_memo", "_key", "_owner_of",
    )  # fmt: skip

    def __init__(
        self,
        op: BlockOperand,
        desc: ArrayDesc,
        table: ResolvedIndexTable,
        owner_of: Optional[Callable[[BlockId], int]] = None,
        segments: Optional[dict[tuple[int, int], dict]] = None,
    ) -> None:
        self.array_id = op.array_id
        self.index_ids = op.index_ids
        self.kind = desc.kind
        self.desc = desc
        # per dimension: (resolved index used, dimension's resolved
        # index, True when a subindex slices a full-segment dimension)
        self.dims = tuple(
            (table[uid], table[did], table[uid].is_subindex and not table[did].is_subindex)
            for did, uid in zip(desc.index_ids, op.index_ids)
        )
        # per dimension: index value -> _segment(...), shared by every operand
        # that pairs the same index with the same dimension index
        if segments is None:
            segments = {}
        self._tables = tuple(
            segments.setdefault((uid, did), {})
            for did, uid in zip(desc.index_ids, op.index_ids)
        )
        self._sliced = any(sub_on_full for _, _, sub_on_full in self.dims)
        self._is_local = desc.kind in LOCAL_KINDS
        # key -> resolution; errors are never memoised
        self._memo: dict[object, ResolvedOperand] = {}
        # memo key straight from the binding table, in C: the tuple of
        # this operand's index values (the bare value for one index);
        # an unbound index surfaces as KeyError
        uids = op.index_ids
        self._key = itemgetter(*uids) if uids else (lambda index_values: ())
        self._owner_of = None if self._is_local else owner_of

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
        """Some index has no value: raise what the reference path raises."""
        try:
            return self._resolve(tuple(map(index_values.get, self.index_ids)))
        except SIPError as err:
            raise err from None  # not "while handling KeyError"

    def _resolve(self, values: tuple) -> ResolvedOperand:
        segs = []
        for seg_table, dim, val in zip(self._tables, self.dims, values):
            seg = seg_table.get(val)
            if seg is None:
                seg = _segment(*dim, self.desc, val)
                seg_table[val] = seg
            segs.append(seg)
        coords, slices, shape, eranges = tuple(zip(*segs)) or ((), (), (), ())
        block_id = BlockId(self.array_id, coords)
        return ResolvedOperand(
            block_id,
            self.kind,
            self.index_ids,
            shape,
            slices if self._sliced else None,
            eranges,
            self._is_local,
            None if self._owner_of is None else self._owner_of(block_id),
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

    ``owner_of`` maps a distributed or served block to its owning rank,
    so that a resolved operand carries the answer instead of every
    reader asking.
    """
    operands: dict[BlockOperand, DecodedOperand] = {}
    segments: dict[tuple[int, int], dict] = {}

    def decode_operand(op: BlockOperand) -> DecodedOperand:
        d = operands.get(op)
        if d is None:
            d = operands[op] = DecodedOperand(
                op, program.array_table[op.array_id], table, owner_of, segments
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
