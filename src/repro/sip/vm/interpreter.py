"""The SIP worker: a bytecode interpreter on a simulated MPI rank.

Each worker executes the whole program SPMD-style; pardo iterations are
the only work division (chunks come from the master).  The design
mirrors the paper's Section V:

* all messaging is asynchronous -- ``get``/``put`` only *initiate*
  communication; the super instruction that needs a block waits for it
  if it has not arrived (and that wait is accounted separately, giving
  the paper's per-instruction busy/wait profile);
* a lookahead prefetcher issues ``get``s for upcoming loop iterations;
* remote blocks live in a per-worker LRU cache; a block evicted before
  use must be refetched (the BlueGene/P pathology of Section VI-A);
* each worker also runs a *service pump* answering block requests and
  applying puts/accumulates for the distributed blocks it owns;
* barrier misuse (conflicting accesses within one epoch) is detected at
  the owning rank.

Every block movement -- demand gets/requests, prefetch hints, puts,
prepares, replies -- goes through the rank's
:class:`~repro.sip.blockio.BlockTransferEngine`; the interpreter never
touches the wire protocol for block payloads itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import methodcaller
from typing import Generator, Optional

from ...sial.bytecode import (
    Op,
    evaluate_condition,
    evaluate_rpn,
)
from ...simmpi import Timeout
from ...simmpi.faults import ResilienceStats, WorkerCrashed
from ..backend import KernelOperand
from ..blockio import BlockTransferEngine
from ..blocks import Block, BlockId, block_nbytes
from ..config import SIPError
from ..decode import ResolvedOperand
from ..distributed import ConflictTracker
from ..memman import MemoryManager
from ..messages import (
    MASTER_TAG,
    REPLY_TAG_BASE,
    SERVICE_TAG,
    Ack,
    ChunkRequest,
    CollectiveContribution,
    GetBlock,
    PutBlock,
    Shutdown,
    WorkerDone,
)
from ..profiling import WorkerProfile
from ..runtime import SharedRuntime
from ..scheduler import conditions_read_scalars
from ..transport import CommEndpoint
from .ledger import ScalarLedger
from .prefetch import LookaheadPrefetcher
from .resilience import ResilientMessaging

__all__ = ["WorkerProcess"]

@dataclass
class _PardoState:
    activation: int
    entry_time: float
    chunk: tuple[tuple[int, ...], ...] = ()
    pos: int = 0


@dataclass
class _DoState:
    values: range
    pos: int = 0


class WorkerProcess(ResilientMessaging):
    """One SIP worker rank."""

    def __init__(
        self, rt: SharedRuntime, worker_index: int, comm: CommEndpoint
    ) -> None:
        self.rt = rt
        self.config = rt.config
        self.worker_index = worker_index
        self.rank = rt.config.worker_rank(worker_index)
        self.comm = comm
        self.sim = rt.sim
        self.backend = rt.make_backend()
        self.profile = WorkerProfile()
        self.resilience = ResilienceStats()
        self._nbytes_memo: dict[BlockId, int] = {}
        self.memman = MemoryManager(
            rt.config.memory_budget,
            real=rt.real,
            name=f"worker{worker_index}",
            cache_blocks=rt.config.cache_blocks,
            nbytes_of=self._block_nbytes,
            dtype=rt.dtype,
            spill=rt.config.spill,
            spill_capacity=rt.config.scratch_per_worker,
            machine=rt.config.machine,
            faults=rt.config.faults,
            fault_device=f"scratch{worker_index}",
            retry_limit=rt.config.retry_limit,
            clock=lambda: rt.sim.now,
            tracer=rt.config.tracer,
            rank=self.rank,
            resilience=self.resilience,
        )
        self.pool = self.memman.pool
        self.cache = self.memman.cache

        # interpreter state ---------------------------------------------------
        self.scalars: list[float] = [0.0] * len(rt.program.scalar_table)
        self.index_values: dict[int, int] = {}
        self.local_blocks: dict[BlockId, Block] = {}
        self.temp_current: dict[int, BlockId] = {}
        self.owned: dict[BlockId, Block] = {}
        self.call_stack: list[int] = []
        self.do_states: dict[int, _DoState] = {}
        self.pardo_states: dict[int, _PardoState] = {}
        self.pardo_activations: dict[int, int] = {}
        self.current_pardo: Optional[int] = None  # pardo_id while inside
        # sanitizer identity of the running pardo iteration, or None
        # outside pardo; only maintained when the sanitizer is on
        self.sanitizer = rt.sanitizer
        self.current_iteration: Optional[tuple] = None
        # collective ledger: base + per-iteration deltas per scalar, so
        # the master reduces collectives in canonical iteration order
        self.scalar_ledger = ScalarLedger(len(rt.program.scalar_table))
        self._iter_key: Optional[tuple] = None  # identity of the running iteration
        self._cond_scalar_need: dict[int, bool] = {}  # per pardo pc

        # communication bookkeeping ------------------------------------------
        self._tag_counter = REPLY_TAG_BASE
        self.epoch = 0
        self.served_epoch = 0
        self.collective_seq = 0
        self.checkpoint_seq = 0
        self.trackers: dict[int, ConflictTracker] = {}
        self._wait_acc = 0.0
        self._shutdown = False

        # resilience bookkeeping (all inert unless a FaultPlan /
        # config.resilient is set) -------------------------------------
        self._msg_seq = 0  # sender-unique seq for puts/prepares
        self._chunk_seq = 0  # monotone seq for chunk requests
        self._applied_puts: set[tuple[int, int]] = set()  # (source, seq)
        plan = rt.config.faults
        self._crash_at = (
            plan.pending_crash_time(self.rank) if plan is not None else None
        )

        # every block movement for this rank goes through the engine;
        # the ReplicaMap learns of wire fetches through on_issue, and
        # the memory manager reports fault-in/spill traffic back
        self.engine = BlockTransferEngine(
            self,
            reserve=rt.config.blockio_reserve,
            max_in_flight=rt.config.blockio_max_in_flight,
        )
        self.engine.on_issue = (
            lambda bid: rt.replicas.note(bid, worker_index)
        )
        self.memman.blockio = self.engine
        self.blockio = self.engine  # uniform stats handle across rank kinds
        self.prefetcher = LookaheadPrefetcher(self)

        self._fast = {
            Op.JUMP: self.op_jump,
            Op.BRANCH_FALSE: self.op_branch_false,
            Op.CALL: self.op_call,
            Op.RETURN: self.op_return,
            Op.DO_START: self.op_do_start,
            Op.DO_END: self.op_do_end,
            Op.DOIN_START: self.op_doin_start,
            Op.DOIN_END: self.op_doin_end,
            Op.PARDO_END: self.op_pardo_end,
            Op.GET: self.op_get,
            Op.REQUEST: self.op_request,
            Op.PREFETCH: self.op_prefetch,
            Op.CREATE: self.op_create,
            Op.DELETE: self.op_delete,
            Op.ALLOCATE: self.op_allocate,
            Op.DEALLOCATE: self.op_deallocate,
            Op.SCALAR_ASSIGN: self.op_scalar_assign,
        }
        self._slow = {
            Op.PARDO_START: self.op_pardo_start,
            Op.FILL: self.op_fill,
            Op.COPY: self.op_copy,
            Op.NEGATE: self.op_negate,
            Op.SCALE: self.op_scale,
            Op.SCALE_INPLACE: self.op_scale_inplace,
            Op.ACCUM: self.op_accum,
            Op.ADDSUB: self.op_addsub,
            Op.CONTRACT: self.op_contract,
            Op.CONTRACT_FUSED: self.op_contract_fused,
            Op.SCALAR_CONTRACT: self.op_scalar_contract,
            Op.COMPUTE_INTEGRALS: self.op_compute_integrals,
            Op.EXECUTE: self.op_execute,
            Op.PUT: self.op_put,
            Op.PREPARE: self.op_prepare,
            Op.SIP_BARRIER: self.op_sip_barrier,
            Op.SERVER_BARRIER: self.op_server_barrier,
            Op.COLLECTIVE: self.op_collective,
            Op.BLOCKS_TO_LIST: self.op_blocks_to_list,
            Op.LIST_TO_BLOCKS: self.op_list_to_blocks,
            Op.CHECKPOINT: self.op_checkpoint,
        }

        # execution fast path: the pre-decoded stream plus flat per-pc
        # handler tables, so the inner loop does no per-step dict lookup
        self._instrs = rt.decoded.instructions
        self._fast_tab = [self._fast.get(d.op) for d in self._instrs]
        self._slow_tab = [self._slow.get(d.op) for d in self._instrs]
        # resolve(op): a decoded block operand against the current index
        # values (memoized by index-value tuple when the fast path is on);
        # a C-level caller, so the hot path pays one frame, not two
        self.resolve = methodcaller("resolve", self.index_values, rt.config.fastpath)
        self._rpn_consts = rt.rpn_consts

    # convenience views over the engine's ledgers (used by the runners
    # when gathering results and by the resilient drain at run end)
    @property
    def outstanding_put_acks(self) -> list:
        return self.engine.outstanding_put_acks

    @property
    def outstanding_prepare_acks(self) -> list:
        return self.engine.outstanding_prepare_acks

    @property
    def ever_fetched(self) -> set[BlockId]:
        return self.engine.ever_fetched

    # ======================================================================
    # main loops
    # ======================================================================
    def run(self) -> Generator:
        """The worker's main interpreter loop (a simulated process)."""
        instrs = self._instrs
        fast_tab = self._fast_tab
        slow_tab = self._slow_tab
        tracer = self.config.tracer
        crash_at = self._crash_at
        sim = self.sim
        profile = self.profile
        memman = self.memman
        start_time = sim.now
        pc = 0
        n_instr = 0
        while True:
            if crash_at is not None and sim.now >= crash_at:
                self.rt.config.faults.record_crash(self.rank, sim.now)
                raise WorkerCrashed(self.rank, sim.now)
            instr = instrs[pc]
            n_instr += 1
            fast = fast_tab[pc]
            if fast is not None:
                pc = fast(instr, pc)
                if memman.time_debt:
                    # spill/fault-in traffic caused by this instruction
                    yield Timeout(memman.take_time_debt())
                continue
            handler = slow_tab[pc]
            if handler is None:
                if instr.op == Op.STOP:
                    break
                raise SIPError(f"worker cannot execute opcode {instr.op}")
            memman.clear_instr_pins()
            self._wait_acc = 0.0
            t0 = sim.now
            old_pc = pc
            pc = yield from handler(instr, pc)
            if memman.time_debt:
                t_io = sim.now
                yield Timeout(memman.take_time_debt())
                self._wait_acc += sim.now - t_io
            elapsed = sim.now - t0
            wait = self._wait_acc
            profile.record_instr(old_pc, elapsed - wait, wait)
            if wait and self.current_pardo is not None:
                profile.pardo_stats(self.current_pardo).wait_time += wait
            if tracer is not None and elapsed > 0:
                loc = instr.location
                tracer.record(
                    self.worker_index,
                    old_pc,
                    instr.op,
                    t0,
                    sim.now,
                    wait,
                    line=loc.line if loc is not None else None,
                )
        profile.instructions = n_instr
        # drain outstanding writes so they land before we report done
        yield from self._wait_events(self.engine.outstanding_put_acks)
        yield from self._wait_events(self.engine.outstanding_prepare_acks)
        self.profile.elapsed = self.sim.now - start_time
        if not self.rt.resilient:
            self.comm.isend(
                WorkerDone(self.worker_index),
                dest=self.config.master_rank,
                tag=MASTER_TAG,
            )
            return
        # resilient: the master acks completion so a dropped WorkerDone
        # cannot wedge termination
        ack_tag = self.next_tag()
        req = self.comm.irecv(source=self.config.master_rank, tag=ack_tag)
        payload = WorkerDone(self.worker_index, ack_tag)

        def resend() -> None:
            self.comm.isend(payload, dest=self.config.master_rank, tag=MASTER_TAG)

        resend()
        yield from self._reliable_wait(req.event, resend, "control_retries", "done")

    def service(self) -> Generator:
        """Answer block requests / apply puts for blocks this rank owns.

        Modeled as an always-responsive progress engine (the paper's
        workers poll between instructions; an instantaneous responder
        is the idealization of a well-tuned polling interval).
        """
        while True:
            msg = yield from self.comm.recv(tag=SERVICE_TAG)
            payload = msg.payload
            if isinstance(payload, Shutdown):
                if payload.ack_tag >= 0:
                    self.comm.isend(
                        Ack(payload.ack_tag), dest=msg.source, tag=payload.ack_tag
                    )
                return
            if isinstance(payload, GetBlock):
                block = self.owned.get(payload.block_id)
                if block is None:
                    raise SIPError(
                        f"get of unwritten distributed block {payload.block_id} "
                        f"(array "
                        f"{self.rt.array_desc(payload.block_id.array_id).name!r})"
                    )
                self._fold_accums(payload.block_id)
                self.memman.touch(payload.block_id)
                self.tracker(payload.epoch).record_read(
                    payload.worker_index, payload.block_id
                )
                self.engine.reply_block(
                    msg.source, payload.reply_tag, payload.block_id, block
                )
            elif isinstance(payload, PutBlock):
                # resilient protocol: a retried put is applied exactly
                # once (dedup by sender seq) but always re-acked
                duplicate = (
                    payload.seq >= 0
                    and (msg.source, payload.seq) in self._applied_puts
                )
                if duplicate:
                    self.resilience.duplicates_ignored += 1
                else:
                    if payload.seq >= 0:
                        self._applied_puts.add((msg.source, payload.seq))
                    self.apply_put(
                        payload.block_id,
                        payload.op,
                        payload.block,
                        payload.worker_index,
                        payload.epoch,
                        accum_key=payload.accum_key,
                    )
                self.comm.isend(Ack(payload.ack_tag), dest=msg.source, tag=payload.ack_tag)
            else:
                raise SIPError(f"unexpected service message {payload!r}")
            if self.memman.time_debt:
                yield Timeout(self.memman.take_time_debt())

    # ======================================================================
    # helpers
    # ======================================================================
    def _block_nbytes(self, bid: BlockId) -> int:
        """Size of a block by id (memoized; sizes cache byte accounting)."""
        n = self._nbytes_memo.get(bid)
        if n is None:
            n = self._nbytes_memo[bid] = block_nbytes(
                self.rt.block_shape(bid), self.rt.dtype
            )
        return n

    def tracker(self, epoch: int) -> ConflictTracker:
        t = self.trackers.get(epoch)
        if t is None:
            t = self.trackers[epoch] = ConflictTracker(
                "distributed",
                enabled=self.config.validate_barriers,
                sink=(
                    self.sanitizer.note_owner_violation
                    if self.sanitizer is not None
                    else None
                ),
            )
        return t

    def _sanitize(
        self, cls: str, epoch: int, bid: BlockId, mode: str, instr, pc: int
    ) -> None:
        """Record one block access with the sanitizer (no simulated time)."""
        if self.sanitizer is None:
            return
        loc = instr.location
        self.sanitizer.record(
            cls,
            epoch,
            bid,
            mode,
            worker=self.worker_index,
            pc=pc,
            line=loc.line if loc is not None else None,
            iteration=self.current_iteration or ("seq", self.worker_index),
        )

    def eval_rpn(self, rpn: tuple) -> float:
        # RPN programs with no scalar/index reads were pre-evaluated at
        # decode time (the optimizer interns them, so identity is stable)
        hit = self._rpn_consts.get(id(rpn))
        if hit is not None:
            return hit
        return evaluate_rpn(
            rpn,
            scalars=self.scalars,
            symbolics=self.rt.table.symbolic_values,
            index_values=self.index_values,
        )

    # -- block acquisition (read path) ----------------------------------------
    def local_block(self, r: ResolvedOperand) -> Block:
        """The block behind a static/temp/local operand (never waits)."""
        block = self.local_blocks.get(r.block_id)
        if block is None:
            desc = self.rt.array_desc(r.block_id.array_id)
            raise SIPError(
                f"block {r.block_id.coords} of {desc.kind} array "
                f"{desc.name!r} read before it was written"
            )
        self.memman.touch(r.block_id)
        self.memman.pin_instr(r.block_id)
        return block

    def acquire(self, r: ResolvedOperand) -> Generator:
        """Obtain a distributed/served block, waiting if in flight."""
        if r.kind == "distributed":
            if r.owner_rank == self.rank:
                block = self.owned.get(r.block_id)
                if block is None:
                    raise SIPError(
                        f"get of unwritten distributed block {r.block_id}"
                    )
                self._fold_accums(r.block_id)
                self.memman.touch(r.block_id)
                self.memman.pin_instr(r.block_id)
                self.tracker(self.epoch).record_read(self.worker_index, r.block_id)
                return block
            return (
                yield from self.engine.acquire(r.block_id, "get", self._wait)
            )
        if r.kind == "served":
            return (
                yield from self.engine.acquire(r.block_id, "request", self._wait)
            )
        raise SIPError(f"cannot read array kind {r.kind!r}")

    # -- write targets ----------------------------------------------------------
    def write_target(self, r: ResolvedOperand, needs_existing: bool) -> Block:
        """The local block an instruction writes into, allocating if needed.

        ``needs_existing`` is True for accumulate ops and slice
        insertions, which read-modify-write: a fresh block is zeroed.
        """
        bid = r.block_id
        if r.kind == "temp":
            current = self.temp_current.get(bid.array_id)
            if current == bid:
                self.memman.touch(bid)
                self.memman.pin_instr(bid)
                return self._writable(self.local_blocks[bid])
            if r.slices is not None:
                raise SIPError(
                    f"insertion into temp block {bid} that does not exist yet"
                )
            if current is not None:
                old = self.local_blocks.pop(current)
                self.memman.free(current, old)
            block = self._alloc_block(bid, zero=needs_existing)
            self.temp_current[bid.array_id] = bid
            self.local_blocks[bid] = block
            return block
        if r.kind in ("local", "static"):
            block = self.local_blocks.get(bid)
            if block is None:
                if r.slices is not None:
                    raise SIPError(
                        f"insertion into missing block {bid} of array "
                        f"{self.rt.array_desc(bid.array_id).name!r}; "
                        "allocate it first"
                    )
                block = self._alloc_block(bid, zero=needs_existing)
                self.local_blocks[bid] = block
                return block
            self.memman.touch(bid)
            self.memman.pin_instr(bid)
            return self._writable(block)
        verb = "put" if r.kind == "distributed" else "prepare"
        raise SIPError(
            f"{r.kind} array blocks are written with '{verb}', "
            "not direct assignment"
        )

    def _writable(self, block: Block) -> Block:
        """Copy-on-write barrier before any in-place block write."""
        copied = block.ensure_writable()
        if copied:
            cow = self.rt.cow
            cow.cow_copies += 1
            cow.cow_bytes_copied += copied
        return block

    def _alloc_block(self, bid: BlockId, zero: bool) -> Block:
        shape = self.rt.block_shape(bid)
        block = self.memman.allocate(shape)
        if zero and block.data is not None:
            block.data[...] = 0.0
        if self.memman.unified:
            self.memman.register(
                bid, block, self.rt.array_desc(bid.array_id).kind
            )
            self.memman.pin_instr(bid)
        return block

    def kernel_operand(self, r: ResolvedOperand, block: Block) -> KernelOperand:
        data = None
        if block.data is not None:
            data = block.data[r.slices] if r.slices is not None else block.data
        return KernelOperand(
            shape=r.shape,
            index_ids=r.index_ids,
            data=data,
            element_ranges=r.element_ranges,
        )

    # -- put application (shared with the service pump) --------------------------
    def apply_put(
        self,
        bid: BlockId,
        op: str,
        incoming: Block,
        writer_index: int,
        epoch: int,
        accum_key: Optional[tuple] = None,
    ) -> None:
        self.tracker(epoch).record_write(writer_index, bid, op)
        block = self.owned.get(bid)
        if block is None:
            block = self._alloc_block(bid, zero=True)
            self.owned[bid] = block
        else:
            self.memman.touch(bid)
        if op != "=" and accum_key is not None:
            # canonical accumulation: buffer the contribution and fold
            # at the first read, sorted by sender-side order key
            self.engine.accums.buffer(bid, accum_key, incoming)
            return
        self._writable(block)
        if op == "=":
            # an overwrite supersedes any buffered contributions
            self.engine.accums.discard(bid)
            if block.data is not None and incoming.data is not None:
                block.data[...] = incoming.data
        elif block.data is not None and incoming.data is not None:
            # keyless legacy path (direct callers): apply immediately
            block.data[...] += incoming.data

    def _fold_accums(self, bid: BlockId) -> None:
        """Apply buffered '+=' contributions to ``bid`` in key order."""
        if bid not in self.engine.accums:
            return
        block = self.owned[bid]
        self.memman.touch(bid)
        self._writable(block)
        self.engine.accums.fold_into(bid, block)

    def fold_pending_accums(self) -> None:
        """Fold every buffered contribution (result gathering, run end)."""
        for bid in self.engine.accums.pending_ids():
            self._fold_accums(bid)

    # ======================================================================
    # fast opcode handlers (no simulated time passes)
    # ======================================================================
    def op_jump(self, instr, pc: int) -> int:
        return instr.args[0]

    def op_branch_false(self, instr, pc: int) -> int:
        cond, target = instr.args
        ok = evaluate_condition(
            cond,
            scalars=self.scalars,
            symbolics=self.rt.table.symbolic_values,
            index_values=self.index_values,
        )
        return pc + 1 if ok else target

    def op_call(self, instr, pc: int) -> int:
        self.call_stack.append(pc + 1)
        return instr.args[0]

    def op_return(self, instr, pc: int) -> int:
        if not self.call_stack:
            raise SIPError("RETURN with empty call stack")
        return self.call_stack.pop()

    def op_do_start(self, instr, pc: int) -> int:
        index_id, exit_pc, get_pcs = instr.args
        values = self.rt.table[index_id].values()
        if not values:
            return exit_pc
        self.do_states[pc] = _DoState(values=values)
        self.index_values[index_id] = values[0]
        self.prefetcher.future(
            get_pcs, index_id, values[1 : 1 + self.config.prefetch_depth]
        )
        return pc + 1

    def op_do_end(self, instr, pc: int) -> int:
        index_id, body_start = instr.args
        start_pc = body_start - 1
        state = self.do_states[start_pc]
        state.pos += 1
        if state.pos < len(state.values):
            self.index_values[index_id] = state.values[state.pos]
            nxt = state.values[
                state.pos + 1 : state.pos + 1 + self.config.prefetch_depth
            ]
            get_pcs = self._instrs[start_pc].args[2]
            self.prefetcher.future(get_pcs, index_id, nxt)
            return body_start
        del self.do_states[start_pc]
        self.index_values.pop(index_id, None)
        return pc + 1

    def op_doin_start(self, instr, pc: int) -> int:
        sub_id, exit_pc, get_pcs = instr.args
        sub = self.rt.table[sub_id]
        super_val = self.index_values.get(sub.super_id)
        if super_val is None:
            raise SIPError(
                f"'do {sub.name} in ...' outside a loop over its super index"
            )
        values = sub.subvalues_of(super_val)
        if not values:
            return exit_pc
        self.do_states[pc] = _DoState(values=values)
        self.index_values[sub_id] = values[0]
        self.prefetcher.future(
            get_pcs, sub_id, values[1 : 1 + self.config.prefetch_depth]
        )
        return pc + 1

    op_doin_end = op_do_end  # identical mechanics

    def op_pardo_end(self, instr, pc: int) -> int:
        return instr.args[0]

    def op_get(self, instr, pc: int) -> int:
        r = self.resolve(instr.args[0])
        bid = r.block_id
        self._sanitize("distributed", self.epoch, bid, "read", instr, pc)
        if r.owner_rank == self.rank:
            if bid not in self.owned:
                raise SIPError(f"get of unwritten distributed block {bid}")
            self.tracker(self.epoch).record_read(self.worker_index, bid)
            return pc + 1
        # a dropped hint is fine: the instruction that *uses* the block
        # fetches with backpressure
        self.engine.hint(bid, "get")
        return pc + 1

    def op_request(self, instr, pc: int) -> int:
        r = self.resolve(instr.args[0])
        bid = r.block_id
        self._sanitize("served", self.served_epoch, bid, "read", instr, pc)
        self.engine.hint(bid, "request")
        return pc + 1

    def op_prefetch(self, instr, pc: int) -> int:
        """Optimizer-inserted fetch hint: issue early, never wait or fault.

        Deliberately does NOT sanitize or record tracker state -- the
        demand access the optimizer proved is guaranteed to follow in
        the same iteration is what the sanitizer and conflict tracker
        must observe, exactly as at ``-O0``.
        """
        r = self.resolve(instr.args[0])
        bid = r.block_id
        if r.owner_rank == self.rank:
            return pc + 1
        kind = "get" if r.kind == "distributed" else "request"
        self.engine.hint(bid, kind)
        return pc + 1

    def op_create(self, instr, pc: int) -> int:
        return pc + 1  # storage is lazy; creation is a declaration of intent

    def op_delete(self, instr, pc: int) -> int:
        array_id = instr.args[0]
        for bid in [b for b in self.owned if b.array_id == array_id]:
            self.engine.accums.discard(bid)
            self.memman.free(bid, self.owned.pop(bid))
        for bid in [b for b, e in list(self.cache.items()) if b.array_id == array_id]:
            self.cache.remove(bid)
            self.rt.replicas.discard(bid, self.worker_index)
        return pc + 1

    def op_allocate(self, instr, pc: int) -> int:
        r = self.resolve(instr.args[0])
        if r.block_id not in self.local_blocks:
            self.local_blocks[r.block_id] = self._alloc_block(r.block_id, zero=True)
        return pc + 1

    def op_deallocate(self, instr, pc: int) -> int:
        r = self.resolve(instr.args[0])
        block = self.local_blocks.pop(r.block_id, None)
        if block is None:
            raise SIPError(f"deallocate of missing block {r.block_id}")
        self.memman.free(r.block_id, block)
        return pc + 1

    def op_scalar_assign(self, instr, pc: int) -> int:
        scalar_id, op, rpn = instr.args
        value = self.eval_rpn(rpn)
        self._apply_scalar(scalar_id, op, value, rpn)
        return pc + 1

    def _apply_scalar(self, scalar_id: int, op: str, value: float, rpn=()) -> None:
        """Apply a scalar update and maintain the collective ledger."""
        if op == "=":
            self.scalars[scalar_id] = value
        elif op == "+=":
            self.scalars[scalar_id] += value
        elif op == "-=":
            self.scalars[scalar_id] -= value
        else:  # '*='
            self.scalars[scalar_id] *= value
        self.scalar_ledger.note(scalar_id, op, value, self._iter_key, rpn)

    # ======================================================================
    # slow opcode handlers (generators)
    # ======================================================================
    def op_pardo_start(self, instr, pc: int) -> Generator:
        pardo_id, index_ids, conditions, exit_pc, get_pcs = instr.args
        stats = self.profile.pardo_stats(pardo_id)
        state = self.pardo_states.get(pc)
        if state is None:
            activation = self.pardo_activations.get(pc, 0)
            state = _PardoState(activation=activation, entry_time=self.sim.now)
            self.pardo_states[pc] = state
            self.current_pardo = pardo_id
            stats.entries += 1
        while True:
            if state.pos < len(state.chunk):
                combo = state.chunk[state.pos]
                state.pos += 1
                for i, v in zip(index_ids, combo):
                    self.index_values[i] = v
                self._iter_key = (pardo_id, state.activation, combo)
                if self.sanitizer is not None:
                    self.current_iteration = (
                        "iter", pardo_id, state.activation, combo
                    )
                stats.iterations += 1
                depth = self.config.prefetch_depth
                self.prefetcher.pardo(
                    get_pcs, index_ids, state.chunk[state.pos : state.pos + depth]
                )
                return pc + 1
            # chunk exhausted: ask the master for more
            reply_tag = self.next_tag()
            req = self.comm.irecv(source=self.config.master_rank, tag=reply_tag)
            seq = -1
            if self.rt.resilient:
                seq = self._chunk_seq
                self._chunk_seq += 1
            # where clauses referencing scalars (hand-built bytecode
            # only) depend on worker-side state the master cannot see:
            # ship a snapshot for it to enumerate against
            need_scalars = self._cond_scalar_need.get(pc)
            if need_scalars is None:
                need_scalars = self._cond_scalar_need[pc] = (
                    conditions_read_scalars(conditions)
                )
            snapshot = tuple(self.scalars) if need_scalars else None
            payload = ChunkRequest(
                pc, state.activation, self.worker_index, reply_tag, seq, snapshot
            )

            def send() -> None:
                self.comm.isend(payload, dest=self.config.master_rank, tag=MASTER_TAG)

            send()
            t0 = self.sim.now
            msg = yield from self._reliable_wait(
                req.event, send, "chunk_retries", "chunk"
            )
            stats.chunk_wait += self.sim.now - t0
            iterations = msg.payload.iterations
            if not iterations:
                # pardo complete for this worker
                del self.pardo_states[pc]
                self.pardo_activations[pc] = state.activation + 1
                for i in index_ids:
                    self.index_values.pop(i, None)
                stats.elapsed += self.sim.now - state.entry_time
                self.current_pardo = None
                self.current_iteration = None
                self._iter_key = None
                return exit_pc
            state.chunk = iterations
            state.pos = 0

    def op_fill(self, instr, pc: int) -> Generator:
        dst_op, op, rpn = instr.args
        r = self.resolve(dst_op)
        value = self.eval_rpn(rpn)
        block = self.write_target(r, needs_existing=(op != "=" or r.slices is not None))
        cost = self.backend.fill(self.kernel_operand(r, block), value, op)
        yield Timeout(cost)
        return pc + 1

    def op_copy(self, instr, pc: int) -> Generator:
        dst_op, src_op = instr.args
        src_r = self.resolve(src_op)
        src_block = self.local_block(src_r) if src_r.is_local else (yield from self.acquire(src_r))
        dst_r = self.resolve(dst_op)
        dst_block = self.write_target(dst_r, needs_existing=dst_r.slices is not None)
        cost = self.backend.copy(
            self.kernel_operand(dst_r, dst_block),
            self.kernel_operand(src_r, src_block),
        )
        yield Timeout(cost)
        return pc + 1

    def op_negate(self, instr, pc: int) -> Generator:
        dst_op, src_op = instr.args
        src_r = self.resolve(src_op)
        src_block = self.local_block(src_r) if src_r.is_local else (yield from self.acquire(src_r))
        dst_r = self.resolve(dst_op)
        dst_block = self.write_target(dst_r, needs_existing=dst_r.slices is not None)
        cost = self.backend.negate(
            self.kernel_operand(dst_r, dst_block),
            self.kernel_operand(src_r, src_block),
        )
        yield Timeout(cost)
        return pc + 1

    def op_scale(self, instr, pc: int) -> Generator:
        dst_op, op, src_op, rpn = instr.args
        factor = self.eval_rpn(rpn)
        src_r = self.resolve(src_op)
        src_block = self.local_block(src_r) if src_r.is_local else (yield from self.acquire(src_r))
        dst_r = self.resolve(dst_op)
        dst_block = self.write_target(
            dst_r, needs_existing=(op != "=" or dst_r.slices is not None)
        )
        cost = self.backend.scale(
            self.kernel_operand(dst_r, dst_block),
            op,
            self.kernel_operand(src_r, src_block),
            factor,
        )
        yield Timeout(cost)
        return pc + 1

    def op_scale_inplace(self, instr, pc: int) -> Generator:
        dst_op, rpn = instr.args
        factor = self.eval_rpn(rpn)
        r = self.resolve(dst_op)
        block = self.write_target(r, needs_existing=True)
        cost = self.backend.scale_inplace(self.kernel_operand(r, block), factor)
        yield Timeout(cost)
        return pc + 1

    def op_accum(self, instr, pc: int) -> Generator:
        dst_op, op, src_op = instr.args
        src_r = self.resolve(src_op)
        src_block = self.local_block(src_r) if src_r.is_local else (yield from self.acquire(src_r))
        dst_r = self.resolve(dst_op)
        dst_block = self.write_target(dst_r, needs_existing=True)
        cost = self.backend.accumulate(
            self.kernel_operand(dst_r, dst_block),
            op,
            self.kernel_operand(src_r, src_block),
        )
        yield Timeout(cost)
        return pc + 1

    def op_addsub(self, instr, pc: int) -> Generator:
        dst_op, sign, a_op, b_op = instr.args
        a_r = self.resolve(a_op)
        a_block = self.local_block(a_r) if a_r.is_local else (yield from self.acquire(a_r))
        b_r = self.resolve(b_op)
        b_block = self.local_block(b_r) if b_r.is_local else (yield from self.acquire(b_r))
        dst_r = self.resolve(dst_op)
        dst_block = self.write_target(dst_r, needs_existing=dst_r.slices is not None)
        cost = self.backend.addsub(
            self.kernel_operand(dst_r, dst_block),
            sign,
            self.kernel_operand(a_r, a_block),
            self.kernel_operand(b_r, b_block),
        )
        yield Timeout(cost)
        return pc + 1

    def op_contract(self, instr, pc: int) -> Generator:
        dst_op, op, a_op, b_op = instr.args
        a_r = self.resolve(a_op)
        a_block = self.local_block(a_r) if a_r.is_local else (yield from self.acquire(a_r))
        b_r = self.resolve(b_op)
        b_block = self.local_block(b_r) if b_r.is_local else (yield from self.acquire(b_r))
        dst_r = self.resolve(dst_op)
        dst_block = self.write_target(
            dst_r, needs_existing=(op != "=" or dst_r.slices is not None)
        )
        cost = self.backend.contract(
            self.kernel_operand(dst_r, dst_block),
            op,
            self.kernel_operand(a_r, a_block),
            self.kernel_operand(b_r, b_block),
        )
        yield Timeout(cost)
        return pc + 1

    def op_contract_fused(self, instr, pc: int) -> Generator:
        """Optimizer-fused ``tmp = a*b; dst op [factor*]tmp``."""
        dst_op, op, a_op, b_op, tmp_ids, factor_rpn = instr.args
        factor = None if factor_rpn is None else self.eval_rpn(factor_rpn)
        a_r = self.resolve(a_op)
        a_block = self.local_block(a_r) if a_r.is_local else (yield from self.acquire(a_r))
        b_r = self.resolve(b_op)
        b_block = self.local_block(b_r) if b_r.is_local else (yield from self.acquire(b_r))
        dst_r = self.resolve(dst_op)
        dst_block = self.write_target(
            dst_r, needs_existing=(op != "=" or dst_r.slices is not None)
        )
        cost = self.backend.fused_contract(
            self.kernel_operand(dst_r, dst_block),
            op,
            self.kernel_operand(a_r, a_block),
            self.kernel_operand(b_r, b_block),
            tmp_ids,
            factor,
        )
        yield Timeout(cost)
        return pc + 1

    def op_scalar_contract(self, instr, pc: int) -> Generator:
        scalar_id, op, a_op, b_op = instr.args
        a_r = self.resolve(a_op)
        a_block = self.local_block(a_r) if a_r.is_local else (yield from self.acquire(a_r))
        b_r = self.resolve(b_op)
        b_block = self.local_block(b_r) if b_r.is_local else (yield from self.acquire(b_r))
        value, cost = self.backend.scalar_contract(
            self.kernel_operand(a_r, a_block),
            self.kernel_operand(b_r, b_block),
        )
        yield Timeout(cost)
        self._apply_scalar(scalar_id, op, value)
        return pc + 1

    def op_compute_integrals(self, instr, pc: int) -> Generator:
        r = self.resolve(instr.args[0])
        block = self.write_target(r, needs_existing=r.slices is not None)
        cost = self.backend.compute_integrals(
            self.kernel_operand(r, block),
            r.element_ranges,
            self.config.integral_source,
        )
        yield Timeout(cost)
        return pc + 1

    def op_execute(self, instr, pc: int) -> Generator:
        name, arg_spec = instr.args
        fn = self.rt.registry.lookup(name)
        blocks: list[KernelOperand] = []
        scalars: list[float] = []
        for kind, value in arg_spec:
            if kind == "block":
                r = self.resolve(value)
                if not r.is_local:
                    raise SIPError(
                        f"execute {name}: block arguments must be static/"
                        f"temp/local arrays (got {r.kind!r}); get/request "
                        "into a temp first"
                    )
                block = self.local_blocks.get(r.block_id)
                if block is None:
                    block = self.write_target(r, needs_existing=True)
                else:
                    # user supers may write their block args in place
                    self.memman.touch(r.block_id)
                    self.memman.pin_instr(r.block_id)
                    self._writable(block)
                blocks.append(self.kernel_operand(r, block))
            elif kind == "num":
                scalars.append(value)
            elif kind == "scalar":
                scalars.append(self.scalars[value])
            elif kind == "symbolic":
                scalars.append(self.rt.table.symbolic_values[value])
            elif kind == "index":
                v = self.index_values.get(value)
                if v is None:
                    raise SIPError(f"execute {name}: index argument not bound")
                scalars.append(float(v))
        from ..registry import SuperCall

        flops = fn(SuperCall(name=name, blocks=blocks, scalars=scalars, real=self.rt.real))
        if flops is None:
            nbytes = sum(b.nbytes for b in blocks) or 8
            cost = self.rt.cost.elementwise_time(nbytes)
        else:
            cost = self.rt.cost.flops_time(float(flops))
        yield Timeout(cost)
        return pc + 1

    def op_put(self, instr, pc: int) -> Generator:
        dst_op, op, src_op = instr.args
        src_r = self.resolve(src_op)
        src_block = self.local_block(src_r) if src_r.is_local else (yield from self.acquire(src_r))
        dst_r = self.resolve(dst_op)
        if dst_r.slices is not None:
            raise SIPError("put of a sub-block slice is not supported")
        if src_r.slices is not None:
            src_block = self._materialize_view(src_r, src_block)
        if src_block.shape != dst_r.shape:
            raise SIPError(
                f"put shape mismatch: {src_block.shape} -> {dst_r.shape}"
            )
        bid = dst_r.block_id
        self._sanitize("distributed", self.epoch, bid, op, instr, pc)
        accum_key = (
            None
            if op == "="
            else self.engine.accums.next_key(self._iter_key, self.worker_index)
        )
        if dst_r.owner_rank == self.rank:
            # a buffered '+=' holds the payload past this instruction,
            # so the owner-local fast path snapshots just like a send
            snapshot = (
                src_block
                if accum_key is None
                else self.engine.snapshot(src_block)
            )
            self.apply_put(
                bid, op, snapshot, self.worker_index, self.epoch,
                accum_key=accum_key,
            )
            cost = self.rt.cost.elementwise_time(src_block.nbytes)
            yield Timeout(cost)
            return pc + 1
        self.engine.post_put(bid, op, src_block, accum_key)
        yield Timeout(self.rt.config.machine.send_overhead)
        return pc + 1

    def op_prepare(self, instr, pc: int) -> Generator:
        dst_op, op, src_op = instr.args
        src_r = self.resolve(src_op)
        src_block = self.local_block(src_r) if src_r.is_local else (yield from self.acquire(src_r))
        dst_r = self.resolve(dst_op)
        if dst_r.slices is not None:
            raise SIPError("prepare of a sub-block slice is not supported")
        if src_r.slices is not None:
            src_block = self._materialize_view(src_r, src_block)
        bid = dst_r.block_id
        self._sanitize("served", self.served_epoch, bid, op, instr, pc)
        accum_key = (
            None
            if op == "="
            else self.engine.accums.next_key(self._iter_key, self.worker_index)
        )
        self.engine.post_prepare(bid, op, src_block, accum_key)
        yield Timeout(self.rt.config.machine.send_overhead)
        return pc + 1

    def _materialize_view(self, r: ResolvedOperand, block: Block) -> Block:
        data = None
        if block.data is not None:
            data = block.data[r.slices].copy()
        return Block(r.shape, data)

    def op_sip_barrier(self, instr, pc: int) -> Generator:
        yield from self._wait_events(self.engine.outstanding_put_acks)
        yield from self._barrier_wait(self.rt.worker_barrier)
        self.epoch += 1
        self._clear_cache_kind("distributed")
        return pc + 1

    def op_server_barrier(self, instr, pc: int) -> Generator:
        yield from self._wait_events(self.engine.outstanding_prepare_acks)
        yield from self._barrier_wait(self.rt.server_barrier_obj)
        self.served_epoch += 1
        self._clear_cache_kind("served")
        return pc + 1

    def _barrier_wait(self, barrier) -> Generator:
        t0 = self.sim.now
        yield from barrier.wait(self.comm)
        self._wait_acc += self.sim.now - t0

    def _clear_cache_kind(self, kind: str) -> None:
        drop = [
            bid
            for bid, entry in list(self.cache.items())
            if self.rt.array_desc(bid.array_id).kind == kind and not entry.pending
        ]
        for bid in drop:
            self.cache.remove(bid)
            self.rt.replicas.discard(bid, self.worker_index)

    def op_collective(self, instr, pc: int) -> Generator:
        scalar_id = instr.args[0]
        seq = self.collective_seq
        self.collective_seq += 1
        reply_tag = self.next_tag()
        req = self.comm.irecv(source=self.config.master_rank, tag=reply_tag)
        base, deltas, poisoned = self.scalar_ledger.contribution(scalar_id)
        payload = CollectiveContribution(
            seq,
            self.worker_index,
            self.scalars[scalar_id],
            reply_tag,
            base=base,
            deltas=deltas,
            poisoned=poisoned,
        )

        def send() -> None:
            self.comm.isend(payload, dest=self.config.master_rank, tag=MASTER_TAG)

        send()
        msg = yield from self._reliable_wait(
            req.event, send, "collective_retries", "collective"
        )
        total = msg.payload.value
        self.scalars[scalar_id] = total
        self.scalar_ledger.absorb_reduction(scalar_id, total)
        return pc + 1

    # -- serialization & checkpoint -------------------------------------------
    def op_blocks_to_list(self, instr, pc: int) -> Generator:
        array_id = instr.args[0]
        yield from self._serialize_array(array_id)
        yield from self._barrier_wait(self.rt.worker_barrier)
        return pc + 1

    def _serialize_array(self, array_id: int) -> Generator:
        desc = self.rt.array_desc(array_id)
        store = self.rt.external_store.setdefault(desc.name.lower(), {})
        total = 0
        for bid in self.owned:
            if bid.array_id == array_id:
                self._fold_accums(bid)
        for bid, block in self.owned.items():
            if bid.array_id != array_id:
                continue
            self.memman.touch(bid)
            store[bid.coords] = (
                block.data.copy() if block.data is not None else block.shape
            )
            total += block.nbytes
        if total:
            yield Timeout(total / self.rt.config.machine.copy_bandwidth)

    def op_list_to_blocks(self, instr, pc: int) -> Generator:
        array_id = instr.args[0]
        desc = self.rt.array_desc(array_id)
        store = self.rt.external_store.get(desc.name.lower())
        if store is None:
            raise SIPError(
                f"list_to_blocks: no serialized data for array {desc.name!r} "
                "in the external store"
            )
        placement = self.rt.placements[array_id]
        total = 0
        for coords in placement.owned_by(self.worker_index):
            saved = store.get(coords)
            if saved is None:
                # blocks are materialized only when filled with data; a
                # block absent from the store was never written
                continue
            bid = BlockId(array_id, coords)
            self.engine.accums.discard(bid)  # restore overwrites
            block = self.owned.get(bid)
            if block is None:
                block = self._alloc_block(bid, zero=False)
                self.owned[bid] = block
            else:
                self.memman.touch(bid)
                self._writable(block)
            if block.data is not None:
                block.data[...] = saved
            total += block.nbytes
        if total:
            yield Timeout(total / self.rt.config.machine.copy_bandwidth)
        yield from self._barrier_wait(self.rt.worker_barrier)
        return pc + 1

    def op_checkpoint(self, instr, pc: int) -> Generator:
        """Serialize every distributed array plus the scalar state."""
        for array_id, desc in enumerate(self.rt.program.array_table):
            if desc.kind == "distributed":
                yield from self._serialize_array(array_id)
        if self.worker_index == 0:
            self.rt.external_store["__scalars__"] = list(self.scalars)
            self.rt.external_store["__checkpoint_seq__"] = self.checkpoint_seq
        self.checkpoint_seq += 1
        yield from self._barrier_wait(self.rt.worker_barrier)
        return pc + 1
