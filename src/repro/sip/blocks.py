"""Blocks (super numbers) and segment arithmetic.

Each dimension of a SIAL array is partitioned into *segments*; the
cartesian product of segments defines the *blocks* the runtime moves
and computes on (paper, Section III).  This module resolves the
compiled program's index descriptor table against concrete symbolic
constant values and segment-size configuration, producing a
:class:`ResolvedIndexTable` that everything else (placement, memory
pools, the interpreter, the dry run) consults.

Segment sizes are a *runtime* parameter -- they never appear in SIAL
source -- and the last segment of a dimension may be ragged.
Subindices split every segment of their super index into a configured
number of subsegments (paper, Section IV-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, prod
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..sial.bytecode import ArrayDesc, CompiledProgram, IndexDesc, evaluate_rpn

__all__ = [
    "Segment",
    "ResolvedIndex",
    "ResolvedIndexTable",
    "BlockId",
    "Block",
    "CowStats",
    "block_shape",
    "block_nbytes",
]

#: element type of every block: double precision, as in the paper
DTYPE = np.dtype(np.float64)
DTYPE_BYTES = DTYPE.itemsize


@dataclass(frozen=True)
class Segment:
    """One segment of an index range: element offsets [start, stop)."""

    start: int
    stop: int

    @property
    def length(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ResolvedIndex:
    """An index descriptor with concrete range and segmentation.

    For *segment* indices, ``segments[s-1]`` gives the element offsets
    (0-based, relative to the dimension start) covered by segment
    number ``s``; loops iterate ``range(1, nsegments+1)``.  For
    *simple* indices, loops iterate the raw values ``lo..hi`` and
    ``segments`` is empty.  For *subindices*, the table holds the
    subsegments of the whole range; subsegment numbers are global, and
    the subsegments of super-segment ``s`` are
    ``(s-1)*per_segment + 1 .. s*per_segment``.
    """

    name: str
    kind: str
    lo: int
    hi: int
    segments: tuple[Segment, ...]
    super_id: Optional[int] = None
    per_segment: int = 1  # subsegments per super segment (subindices only)

    @property
    def n_elements(self) -> int:
        return self.hi - self.lo + 1

    @property
    def is_simple(self) -> bool:
        return self.kind == "simple"

    @property
    def is_subindex(self) -> bool:
        return self.super_id is not None

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def values(self) -> range:
        """The values a loop over this index visits."""
        if self.is_simple:
            return range(self.lo, self.hi + 1)
        return range(1, len(self.segments) + 1)

    def segment(self, number: int) -> Segment:
        if not 1 <= number <= len(self.segments):
            raise IndexError(
                f"segment {number} out of range 1..{len(self.segments)} "
                f"for index {self.name!r}"
            )
        return self.segments[number - 1]

    def subvalues_of(self, super_segment: int) -> range:
        """Subsegment numbers inside a given super-segment (do ii in i)."""
        if not self.is_subindex:
            raise ValueError(f"{self.name!r} is not a subindex")
        base = (super_segment - 1) * self.per_segment
        return range(base + 1, base + self.per_segment + 1)

    def super_segment_of(self, sub_number: int) -> int:
        """The super-segment containing a given subsegment number."""
        if not self.is_subindex:
            raise ValueError(f"{self.name!r} is not a subindex")
        return (sub_number - 1) // self.per_segment + 1


def _partition(total: int, seg: int) -> tuple[Segment, ...]:
    """Split [0, total) into chunks of `seg` (last one possibly ragged)."""
    if seg <= 0:
        raise ValueError(f"segment size must be positive, got {seg}")
    return tuple(
        Segment(start, min(start + seg, total)) for start in range(0, total, seg)
    )


class ResolvedIndexTable:
    """All index descriptors resolved against runtime parameters."""

    def __init__(
        self,
        program: CompiledProgram,
        symbolics: dict[str, float],
        segment_size: int,
        segment_sizes: Optional[dict[str, int]] = None,
        subsegments_per_segment: int = 2,
    ) -> None:
        self.program = program
        sym_values = _symbolic_vector(program, symbolics)
        self.symbolic_values = sym_values
        segment_sizes = segment_sizes or {}
        resolved: list[ResolvedIndex] = []
        for desc in program.index_table:
            lo = int(evaluate_rpn(desc.lo_rpn, symbolics=sym_values))
            hi = int(evaluate_rpn(desc.hi_rpn, symbolics=sym_values))
            if hi < lo:
                raise ValueError(
                    f"index {desc.name!r} has empty range {lo}..{hi}"
                )
            if desc.kind == "simple":
                resolved.append(
                    ResolvedIndex(desc.name, desc.kind, lo, hi, segments=())
                )
                continue
            total = hi - lo + 1
            seg = segment_sizes.get(desc.kind, segment_size)
            if desc.super_id is not None:
                sup = resolved[desc.super_id]
                per = max(1, min(subsegments_per_segment, seg))
                # subsegment size derives from the *nominal* segment size
                # (the paper's n = seg(i)/seg(ii) is one runtime parameter),
                # so only trailing subsegments of a ragged segment shrink
                nominal = max((s.length for s in sup.segments), default=0)
                sub_len = max(1, ceil(nominal / per))
                subsegments: list[Segment] = []
                for parent in sup.segments:
                    for k in range(per):
                        start = min(parent.start + k * sub_len, parent.stop)
                        stop = min(start + sub_len, parent.stop)
                        subsegments.append(Segment(start, stop))
                resolved.append(
                    ResolvedIndex(
                        desc.name,
                        desc.kind,
                        lo,
                        hi,
                        segments=tuple(subsegments),
                        super_id=desc.super_id,
                        per_segment=per,
                    )
                )
            else:
                resolved.append(
                    ResolvedIndex(
                        desc.name, desc.kind, lo, hi, segments=_partition(total, seg)
                    )
                )
        self.indices: list[ResolvedIndex] = resolved

    def __getitem__(self, index_id: int) -> ResolvedIndex:
        return self.indices[index_id]

    def array_block_space(self, desc: ArrayDesc) -> list[range]:
        """Per-dimension block-number ranges of an array."""
        return [range(1, self[i].n_segments + 1) for i in desc.index_ids]

    def array_shape(self, desc: ArrayDesc) -> tuple[int, ...]:
        """Full element shape of an array."""
        return tuple(self[i].n_elements for i in desc.index_ids)


def _symbolic_vector(
    program: CompiledProgram, symbolics: dict[str, float]
) -> list[float]:
    values: list[float] = []
    lowered = {k.lower(): v for k, v in symbolics.items()}
    missing = []
    for name in program.symbolic_table:
        if name.lower() not in lowered:
            missing.append(name)
        else:
            values.append(float(lowered[name.lower()]))
    if missing:
        raise ValueError(
            f"missing values for symbolic constants: {', '.join(missing)}"
        )
    return values


# --------------------------------------------------------------------------
# Blocks
# --------------------------------------------------------------------------
class BlockId(NamedTuple):
    """Identity of one block: which array, which block coordinates.

    Block ids key every hot dict in the runtime (caches, placements,
    owned/local block maps, the in-flight table), so they are plain
    tuples underneath: hashing, equality and pickling all run in C.
    """

    array_id: int
    coords: tuple[int, ...]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"B[{self.array_id}]{self.coords}"


@dataclass
class CowStats:
    """Observable effect of copy-on-write block transport."""

    sends_shared: int = 0
    bytes_not_copied: int = 0
    cow_copies: int = 0
    cow_bytes_copied: int = 0


class Block:
    """A block of double-precision data (or just its shape in model mode).

    Blocks support zero-copy snapshots: :meth:`share` returns a twin
    referencing the same ndarray, and the twins track each other through
    a shared reference-count cell.  Any holder that is about to write in
    place calls :meth:`ensure_writable`, which detaches it (copying the
    buffer only if another holder remains) -- so eager deep copies on
    every send/cache insert become copies on first write only.
    """

    __slots__ = ("shape", "data", "_shared")

    def __init__(self, shape: tuple[int, ...], data: Optional[np.ndarray] = None):
        self.shape = shape
        self.data = data
        self._shared = None  # refcount cell shared by all twins, or None

    @property
    def nbytes(self) -> int:
        if self.data is not None:
            return self.data.nbytes
        return block_nbytes(self.shape)

    def copy(self) -> "Block":
        data = None if self.data is None else self.data.copy()
        return Block(self.shape, data)

    @classmethod
    def mapped(cls, shape: tuple[int, ...], data: np.ndarray) -> "Block":
        """A block over borrowed, immutable storage.

        Used for views mapped directly over transport arena slots:
        reads are zero-copy, the first in-place write copies out via
        :meth:`ensure_writable` (the cell starts with a permanent
        phantom holder, so the no-copy detach branch can never hand
        the borrowed buffer to a writer), and :meth:`surrender` never
        reports the buffer recyclable, so the block pool cannot adopt
        memory it does not own.
        """
        block = cls(shape, data)
        block._shared = [2]
        return block

    def share(self) -> "Block":
        """A zero-copy snapshot sharing this block's buffer."""
        if self.data is None:
            return Block(self.shape, None)
        cell = self._shared
        if cell is None:
            cell = self._shared = [1]
        cell[0] += 1
        twin = Block(self.shape, self.data)
        twin._shared = cell
        return twin

    def ensure_writable(self) -> int:
        """Detach from copy-on-write sharing before an in-place write.

        Returns the number of bytes copied (0 when the buffer was
        already exclusive).
        """
        cell = self._shared
        if cell is None:
            return 0
        self._shared = None
        cell[0] -= 1
        if cell[0] <= 0 or self.data is None:
            return 0
        self.data = self.data.copy()
        return self.data.nbytes

    def surrender(self) -> bool:
        """Drop this block's claim on its buffer (pool free path).

        True means no twin still references the buffer, so it is safe
        to recycle.
        """
        cell = self._shared
        if cell is None:
            return True
        self._shared = None
        cell[0] -= 1
        return cell[0] <= 0

    def __getstate__(self):
        # The copy-on-write cell is process-local bookkeeping: a twin on
        # the other side of a pipe cannot share our buffer, so it
        # crosses as a plain exclusive block.
        return (self.shape, self.data)

    def __setstate__(self, state):
        self.shape, self.data = state
        self._shared = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "real" if self.data is not None else "model"
        return f"<Block {self.shape} {mode}>"


def block_nbytes(shape: Sequence[int]) -> int:
    return prod(shape, start=1) * DTYPE_BYTES


def block_shape(
    table: ResolvedIndexTable, desc: ArrayDesc, coords: tuple[int, ...]
) -> tuple[int, ...]:
    """Element shape of the block at the given coordinates."""
    return tuple(
        table[i].segment(c).length for i, c in zip(desc.index_ids, coords)
    )

