"""Shared runtime state of one SIP execution.

The :class:`SharedRuntime` is built once per run from the compiled
program, the symbolic-constant values, and the :class:`SIPConfig`.  It
holds everything that is *logically global*: the resolved index table,
block placements, the cost model and backend factory, barrier objects,
and the external store used for serialization/checkpointing.  Rank
processes (master, workers, I/O servers) each hold a reference; all
*data* stays in per-rank structures, and simulated communication is the
only way data moves between ranks during execution.

Input scatter and output gather happen outside simulated time (they
model the application's file I/O, which the paper's measurements also
exclude).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..costmodel import CostModel
from ..sial.bytecode import ArrayDesc, CompiledProgram, evaluate_rpn
from ..simmpi import Simulator, World
from .backend import make_backend
from .blocks import Block, BlockId, CowStats, ResolvedIndexTable, block_shape
from .config import SIPConfig, SIPError
from .decode import decode_program
from .distributed import Placement, ReplicaMap
from .plans import KernelPlanCache
from .registry import GLOBAL_REGISTRY, SuperInstructionRegistry
from .sanitizer import Sanitizer

__all__ = ["SharedRuntime"]

#: RPN item tags whose value is fixed for a whole run
_CONST_TAGS = {"num", "symbolic", "+", "-", "*", "/", "neg"}


def _constant_rpns(decoded, symbolic_values) -> dict[int, float]:
    """id(rpn) -> value for every constant RPN in the decoded stream."""
    out: dict[int, float] = {}

    def walk(arg) -> None:
        if not isinstance(arg, tuple) or not arg:
            return
        if all(
            isinstance(item, tuple) and item and item[0] in _CONST_TAGS
            for item in arg
        ):
            try:
                out[id(arg)] = evaluate_rpn(arg, symbolics=symbolic_values)
            except (ValueError, ZeroDivisionError, IndexError):
                pass  # not actually a well-formed RPN; evaluate at runtime
            return
        for item in arg:
            walk(item)

    for instr in decoded.instructions:
        walk(instr.args)
    return out


class SharedRuntime:
    def __init__(
        self,
        program: CompiledProgram,
        config: SIPConfig,
        symbolics: dict[str, float],
        sim: Simulator,
        world: World,
    ) -> None:
        self.program = program
        self.config = config
        self.sim = sim
        self.world = world
        self.table = ResolvedIndexTable(
            program,
            symbolics,
            segment_size=config.segment_size,
            segment_sizes=config.segment_sizes,
            subsegments_per_segment=config.subsegments_per_segment,
        )
        self.cost = CostModel(config.machine)
        self.dtype = np.dtype(config.dtype)
        self.registry: SuperInstructionRegistry = GLOBAL_REGISTRY.merged_with(
            config.superinstructions
        )
        self.external_store: dict[str, Any] = config.external_store
        # shared block-access recorder; None when sanitize mode is off
        self.sanitizer: Optional[Sanitizer] = (
            Sanitizer(program) if config.sanitize else None
        )

        # execution fast path: the pre-decoded instruction stream is
        # always built (it changes nothing observable); the kernel plan
        # cache and zero-copy transport follow config.fastpath
        self.decoded = decode_program(program, self.table, self.owner_rank)
        # memoize RPN programs that only read numbers and symbolic
        # constants: their value is fixed for the whole run, so workers
        # skip the stack evaluation (keyed by identity -- the compile-time
        # dedup pass makes equal RPNs share one tuple object)
        self.rpn_consts: dict[int, float] = _constant_rpns(
            self.decoded, self.table.symbolic_values
        )
        self.plan_cache: Optional[KernelPlanCache] = (
            KernelPlanCache() if (config.fastpath and self.real) else None
        )
        self.cow = CowStats()
        self.cow_enabled = config.fastpath
        self._owner_rank_cache: dict[BlockId, int] = {}
        self._server_rank_cache: dict[BlockId, int] = {}
        self._block_shape_cache: dict[BlockId, tuple[int, ...]] = {}

        # recent cached replicas of remote blocks; pure scheduling hint
        # read by the locality policy, never consulted for correctness
        self.replicas = ReplicaMap(config.affinity_replica_history)

        # placements for distributed and served arrays
        self.placements: dict[int, Placement] = {}
        self.served_placements: dict[int, Placement] = {}
        for array_id, desc in enumerate(program.array_table):
            if desc.kind == "distributed":
                self.placements[array_id] = Placement(
                    self.table, array_id, config.workers
                )
            elif desc.kind == "served":
                if config.io_servers == 0:
                    raise SIPError(
                        f"program declares served array {desc.name!r} but "
                        "config.io_servers is 0"
                    )
                self.served_placements[array_id] = Placement(
                    self.table, array_id, config.io_servers
                )

        # Barriers come from the world (transport) so the multiprocess
        # backend can substitute a message-based implementation.
        self.worker_barrier = world.barrier(
            config.worker_ranks, name="sip_barrier"
        )
        self.server_barrier_obj = world.barrier(
            config.worker_ranks, name="server_barrier"
        )

    # -- helpers ------------------------------------------------------------
    def array_desc(self, array_id: int) -> ArrayDesc:
        return self.program.array_table[array_id]

    def array_id_by_name(self, name: str) -> int:
        return self.program.array_id(name)

    def owner_rank(self, block_id: BlockId) -> int:
        """World rank of the worker owning a distributed block."""
        rank = self._owner_rank_cache.get(block_id)
        if rank is None:
            idx = self.placements[block_id.array_id].owner_index(block_id.coords)
            rank = self._owner_rank_cache[block_id] = self.config.worker_rank(idx)
        return rank

    def server_rank_for(self, block_id: BlockId) -> int:
        rank = self._server_rank_cache.get(block_id)
        if rank is None:
            idx = self.served_placements[block_id.array_id].owner_index(
                block_id.coords
            )
            rank = self._server_rank_cache[block_id] = self.config.server_rank(idx)
        return rank

    def block_shape(self, block_id: BlockId) -> tuple[int, ...]:
        shape = self._block_shape_cache.get(block_id)
        if shape is None:
            shape = self._block_shape_cache[block_id] = block_shape(
                self.table, self.array_desc(block_id.array_id), block_id.coords
            )
        return shape

    def make_backend(self):
        return make_backend(
            self.config.backend,
            self.cost,
            plans=self.plan_cache,
            timed=self.config.kernel_wallclock,
        )

    @property
    def real(self) -> bool:
        return self.config.backend == "real"

    @property
    def resilient(self) -> bool:
        """Whether the resilient messaging protocol is active."""
        return self.config.resilience_enabled

    # -- block space enumeration ------------------------------------------------
    def all_blocks(self, array_id: int):
        """Iterate all block coordinates of an array."""
        from itertools import product

        desc = self.array_desc(array_id)
        space = self.table.array_block_space(desc)
        yield from product(*space)

    # -- input scatter ------------------------------------------------------------
    def blocks_from_input(
        self, array_id: int, value: Optional[np.ndarray], coords=None
    ) -> dict[tuple[int, ...], Block]:
        """Slice a full input ndarray (or None = zeros) into blocks:
        every block of the array, or only those at ``coords``."""
        desc = self.array_desc(array_id)
        full_shape = self.table.array_shape(desc)
        if value is not None:
            value = np.asarray(value, dtype=self.dtype)
            if value.shape != full_shape:
                raise SIPError(
                    f"input for array {desc.name!r} has shape {value.shape}, "
                    f"declared shape is {full_shape}"
                )
        out: dict[tuple[int, ...], Block] = {}
        for coords in self.all_blocks(array_id) if coords is None else coords:
            shape = block_shape(self.table, desc, coords)
            data = None
            if self.real:
                if value is None:
                    data = np.zeros(shape, dtype=self.dtype)
                else:
                    slices = tuple(
                        slice(
                            self.table[i].segment(c).start,
                            self.table[i].segment(c).stop,
                        )
                        for i, c in zip(desc.index_ids, coords)
                    )
                    data = np.ascontiguousarray(value[slices])
            out[coords] = Block(shape, data, dtype=self.dtype)
        return out

    def assemble_array(
        self, array_id: int, blocks: dict[tuple[int, ...], Block]
    ) -> np.ndarray:
        """Place blocks back into a full ndarray (real mode only)."""
        if not self.real:
            raise SIPError("array contents are not available in model mode")
        desc = self.array_desc(array_id)
        full = np.zeros(self.table.array_shape(desc), dtype=self.dtype)
        for coords, block in blocks.items():
            if block.data is None:
                continue
            slices = tuple(
                slice(
                    self.table[i].segment(c).start, self.table[i].segment(c).stop
                )
                for i, c in zip(desc.index_ids, coords)
            )
            full[slices] = block.data
        return full
