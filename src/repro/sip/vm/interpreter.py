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
  the owning rank, keyed by pardo iteration (:mod:`repro.sip.sanitizer`).

Every block movement -- demand gets/requests, prefetch hints, puts,
prepares, replies -- goes through the rank's
:class:`~repro.sip.blockio.BlockTransferEngine`; the interpreter never
touches the wire protocol for block payloads itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import methodcaller
from typing import Any, Generator, Optional

from ...sial.bytecode import (
    OPS,
    Op,
    evaluate_condition,
    evaluate_rpn,
)
from ...simmpi import Timeout
from ...simmpi.faults import ResilienceStats, WorkerCrashed
from ..backend import KernelOperand
from ..blockio import BlockTransferEngine
from ..blocks import Block, BlockId
from ..config import SIPError
from ..decode import ResolvedOperand
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
from ..plans import perm
from ..profiling import WorkerProfile
from ..runtime import SharedRuntime
from ..sanitizer import RaceRecorder
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
        self.memman = MemoryManager(
            rt.config.memory_budget,
            real=rt.real,
            name=f"worker{worker_index}",
            nbytes_of=rt.block_nbytes,
            spill_capacity=rt.config.scratch_per_worker if rt.config.spill else 0,
            machine=rt.config.machine,
            faults=rt.config.faults,
            fault_device=f"scratch{worker_index}",
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
        # collective ledger: base + per-iteration deltas per scalar, so
        # the master reduces collectives in canonical iteration order
        self.scalar_ledger = ScalarLedger(len(rt.program.scalar_table))
        self._iter_key: Optional[tuple] = None  # identity of the running iteration
        # the race checker's key of the running iteration: the same
        # identity as the head of a '+=' accum key, a per-worker
        # constant outside pardo
        self._serial_iter = (1, worker_index)
        self.race_iter: tuple = self._serial_iter
        self._cond_scalar_need: dict[int, bool] = {}  # per pardo pc

        # communication bookkeeping ------------------------------------------
        self._tag_counter = REPLY_TAG_BASE
        self.epoch = 0
        self.served_epoch = 0
        self.collective_seq = 0
        self.checkpoint_seq = 0
        self.races = RaceRecorder(rt.config.race_check)
        self._wait_acc = 0.0
        self._shutdown = False

        # resilience bookkeeping (all inert unless a FaultPlan is
        # attached) ----------------------------------------------------
        self._msg_seq = 0  # sender-unique seq for puts/prepares
        self._chunk_seq = 0  # monotone seq for chunk requests
        self._applied_puts: set[tuple[int, int]] = set()  # (source, seq)
        plan = rt.config.faults
        self._crash_at = (
            plan.pending_crash_time(self.rank) if plan is not None else None
        )

        # every block movement for this rank goes through the engine;
        # the ReplicaMap learns of wire fetches through on_issue
        self.engine = BlockTransferEngine(self)
        self.engine.on_issue = (
            lambda bid: rt.replicas.note(bid, worker_index)
        )
        self.prefetcher = LookaheadPrefetcher(self)
        self._demand_pc = self.prefetcher.demand_pc

        # handler tables from the opcode specs: a handler that yields
        # (simulated time may pass) is slow, the rest run inline; STOP
        # has none and ends the loop
        fast: dict[str, Any] = {}
        slow: dict[str, Any] = {}
        for op, spec in OPS.items():
            handler = getattr(self, f"op_{op.lower()}", None)
            if handler is not None:
                (slow if spec.yields else fast)[op] = handler

        # execution fast path: the pre-decoded stream plus flat per-pc
        # handler tables, so the inner loop does no per-step dict lookup
        self._instrs = rt.decoded.instructions
        self._fast_tab = [fast.get(d.op) for d in self._instrs]
        self._slow_tab = [slow.get(d.op) for d in self._instrs]
        # resolve(op): a decoded block operand against the current index
        # values (memoized by index-value tuple); a C-level caller, so the
        # hot path pays one frame, not two
        self.resolve = methodcaller("resolve", self.index_values)
        self._rpn_consts = rt.rpn_consts

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
        for acks in self.engine.outstanding_acks.values():
            yield from self._wait_events(acks)
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
                    raise self._unwritten(payload.block_id)
                self._fold_accums(payload.block_id)
                self.memman.touch(payload.block_id)
                self.races.record(
                    "distributed", payload.epoch, payload.block_id, "read",
                    payload.iteration, payload.pc,
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
                        payload.epoch,
                        payload.accum_key,
                        payload.iteration,
                        payload.pc,
                    )
                self.comm.isend(Ack(payload.ack_tag), dest=msg.source, tag=payload.ack_tag)
            else:
                raise SIPError(f"unexpected service message {payload!r}")
            if self.memman.time_debt:
                yield Timeout(self.memman.take_time_debt())

    # ======================================================================
    # helpers
    # ======================================================================
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

    def _unwritten(self, bid: BlockId) -> SIPError:
        """The error for a get of an owned block nobody has put yet."""
        name = self.rt.array_desc(bid.array_id).name
        return SIPError(f"get of unwritten distributed block {bid} (array {name!r})")

    def acquire(self, r: ResolvedOperand, pc: int) -> Generator:
        """Obtain a distributed/served block, waiting if in flight."""
        if r.owner_rank == self.rank:
            block = self.owned.get(r.block_id)
            if block is None:
                raise self._unwritten(r.block_id)
            self._fold_accums(r.block_id)
            self.memman.touch(r.block_id)
            self.memman.pin_instr(r.block_id)
            self.races.record(
                "distributed", self.epoch, r.block_id, "read", self.race_iter, pc
            )
            return block
        return (yield from self.engine.acquire(r.block_id, self._wait, pc))

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
                return self.rt.writable(self.local_blocks[bid])
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
            return self.rt.writable(block)
        verb = "put" if r.kind == "distributed" else "prepare"
        raise SIPError(
            f"{r.kind} array blocks are written with '{verb}', "
            "not direct assignment"
        )

    def _alloc_block(self, bid: BlockId, zero: bool) -> Block:
        shape = self.rt.block_shape(bid)
        block = self.memman.allocate(shape)
        if zero and block.data is not None:
            block.data[...] = 0.0
        self.memman.register(bid, block, self.rt.array_desc(bid.array_id).kind)
        self.memman.pin_instr(bid)
        return block

    def kernel_operand(self, r: ResolvedOperand, block: Block) -> KernelOperand:
        data = None
        if block.data is not None:
            data = block.data[r.slices] if r.slices is not None else block.data
        return KernelOperand(r.shape, r.index_ids, data, r.element_ranges)

    # -- put application (shared with the service pump) --------------------------
    def apply_put(
        self,
        bid: BlockId,
        op: str,
        incoming: Block,
        epoch: int,
        accum_key: Optional[tuple],
        iteration: Optional[tuple],
        pc: int,
    ) -> None:
        """Apply a put to an owned block: ``=`` overwrites at once, a
        ``+=`` (which always carries ``accum_key``, headed by its
        iteration) is buffered and folded at the first read, sorted by
        that key."""
        self.races.record(
            "distributed", epoch, bid, op, iteration or accum_key[:-1], pc
        )
        block = self.owned.get(bid)
        if block is None:
            block = self._alloc_block(bid, zero=True)
            self.owned[bid] = block
        else:
            self.memman.touch(bid)
        if op != "=":
            self.engine.accums.buffer(bid, accum_key, incoming)
            return
        self.rt.writable(block)
        # an overwrite supersedes any buffered contributions
        self.engine.accums.discard(bid)
        if block.data is not None and incoming.data is not None:
            block.data[...] = incoming.data

    def _fold_accums(self, bid: BlockId) -> None:
        """Apply buffered '+=' contributions to ``bid`` in key order."""
        if bid not in self.engine.accums:
            return
        block = self.owned[bid]
        self.memman.touch(bid)
        self.rt.writable(block)
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
        index_id, exit_pc, _get_pcs = instr.args
        values = self.rt.table[index_id].values()
        if not values:
            return exit_pc
        self.do_states[pc] = _DoState(values=values)
        self.index_values[index_id] = values[0]
        self.prefetcher.future(pc, index_id, values, 1)
        return pc + 1

    def op_do_end(self, instr, pc: int) -> int:
        index_id, body_start = instr.args
        start_pc = body_start - 1
        state = self.do_states[start_pc]
        state.pos += 1
        if state.pos < len(state.values):
            self.index_values[index_id] = state.values[state.pos]
            self.prefetcher.future(start_pc, index_id, state.values, state.pos + 1)
            return body_start
        del self.do_states[start_pc]
        self.index_values.pop(index_id, None)
        return pc + 1

    def op_doin_start(self, instr, pc: int) -> int:
        sub_id, exit_pc, _get_pcs = instr.args
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
        self.prefetcher.future(pc, sub_id, values, 1)
        return pc + 1

    op_doin_end = op_do_end  # identical mechanics

    def op_pardo_end(self, instr, pc: int) -> int:
        return instr.args[0]

    def op_get(self, instr, pc: int) -> int:
        """A fetch hint (``get``, ``request`` or the optimizer's
        ``PREFETCH``): issue early, never wait.

        The fetch carries the pc of the get or request it serves (a
        ``PREFETCH`` runs ahead of the first later one of its operand, in
        the same iteration), so the owner's race recorder sees the same
        access as at ``-O0``.  An owned block needs no fetch: its read is
        recorded here, and one nobody wrote fails as that get would.
        """
        r = self.resolve(instr.args[0])
        bid = r.block_id
        read_pc = self._demand_pc[pc]
        if r.owner_rank == self.rank:
            if bid not in self.owned:
                raise self._unwritten(bid)
            self.races.record(
                "distributed", self.epoch, bid, "read", self.race_iter, read_pc
            )
            return pc + 1
        # a dropped hint is fine: the instruction that *uses* the block
        # fetches with backpressure
        self.engine.hint(bid, self.race_iter, read_pc)
        return pc + 1

    op_request = op_prefetch = op_get  # the block's array routes the fetch

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
        pardo_id, index_ids, conditions, exit_pc, _get_pcs = instr.args
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
                self.race_iter = (0, pardo_id, state.activation, combo)
                stats.iterations += 1
                self.prefetcher.pardo(pc, index_ids, state.chunk, state.pos)
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
                self._iter_key = None
                self.race_iter = self._serial_iter
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
        src_block = self.local_block(src_r) if src_r.is_local else (yield from self.acquire(src_r, pc))
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
        src_block = self.local_block(src_r) if src_r.is_local else (yield from self.acquire(src_r, pc))
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
        src_block = self.local_block(src_r) if src_r.is_local else (yield from self.acquire(src_r, pc))
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
        src_block = self.local_block(src_r) if src_r.is_local else (yield from self.acquire(src_r, pc))
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
        a_block = self.local_block(a_r) if a_r.is_local else (yield from self.acquire(a_r, pc))
        b_r = self.resolve(b_op)
        b_block = self.local_block(b_r) if b_r.is_local else (yield from self.acquire(b_r, pc))
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
        a_block = self.local_block(a_r) if a_r.is_local else (yield from self.acquire(a_r, pc))
        b_r = self.resolve(b_op)
        b_block = self.local_block(b_r) if b_r.is_local else (yield from self.acquire(b_r, pc))
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
        a_block = self.local_block(a_r) if a_r.is_local else (yield from self.acquire(a_r, pc))
        b_r = self.resolve(b_op)
        b_block = self.local_block(b_r) if b_r.is_local else (yield from self.acquire(b_r, pc))
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
        a_block = self.local_block(a_r) if a_r.is_local else (yield from self.acquire(a_r, pc))
        b_r = self.resolve(b_op)
        b_block = self.local_block(b_r) if b_r.is_local else (yield from self.acquire(b_r, pc))
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
                    self.rt.writable(block)
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
        """``put`` / ``prepare``: store (``=``) or accumulate (``+=``) the
        source into the destination block at its owner, a worker for a
        distributed block, an I/O server for a served one."""
        dst_op, op, src_op = instr.args
        src_r = self.resolve(src_op)
        src_block = self.local_block(src_r) if src_r.is_local else (yield from self.acquire(src_r, pc))
        dst_r = self.resolve(dst_op)
        if dst_r.slices is not None:
            raise SIPError(f"{instr.op.lower()} of a sub-block slice is not supported")
        src_block = self._write_source(src_r, src_block, dst_r)
        if src_block.shape != dst_r.shape:
            raise SIPError(
                f"{instr.op.lower()} shape mismatch: "
                f"{src_block.shape} -> {dst_r.shape}"
            )
        bid = dst_r.block_id
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
                bid, op, snapshot, self.epoch, accum_key,
                self.race_iter if accum_key is None else None, pc,
            )
            cost = self.rt.cost.elementwise_time(src_block.nbytes)
            yield Timeout(cost)
            return pc + 1
        self.engine.post_put(bid, op, src_block, accum_key, pc)
        yield Timeout(self.rt.config.machine.send_overhead)
        return pc + 1

    op_prepare = op_put  # the block's array routes the write

    def _write_source(
        self, src_r: ResolvedOperand, block: Block, dst_r: ResolvedOperand
    ) -> Block:
        """The block a put or prepare sends: the source itself when it is
        a whole block in the destination's index order (zero-copy), else
        a copy of its slice permuted into that order, as ``op_copy``
        permutes."""
        if src_r.slices is None and src_r.index_ids == dst_r.index_ids:
            return block
        axes = perm(dst_r.index_ids, src_r.index_ids)
        shape = tuple(src_r.shape[a] for a in axes)
        if block.data is None:
            return Block(shape, None)
        data = block.data if src_r.slices is None else block.data[src_r.slices]
        return Block(shape, data.transpose(axes).copy())

    def op_sip_barrier(self, instr, pc: int) -> Generator:
        yield from self._close_epoch("distributed", self.rt.worker_barrier)
        self.epoch += 1
        return pc + 1

    def op_server_barrier(self, instr, pc: int) -> Generator:
        yield from self._close_epoch("served", self.rt.server_barrier_obj)
        self.served_epoch += 1
        return pc + 1

    def _close_epoch(self, kind: str, barrier) -> Generator:
        """A barrier over one array kind: every write this worker posted
        to the kind's blocks lands, all workers meet, and the kind's
        replicas are dropped (the caller then opens the next epoch)."""
        yield from self._wait_events(self.engine.outstanding_acks[kind])
        yield from self._barrier_wait(barrier)
        self._clear_cache_kind(kind)

    def _barrier_wait(self, barrier) -> Generator:
        t0 = self.sim.now
        yield from barrier.wait(self.comm)
        self._wait_acc += self.sim.now - t0

    def _clear_cache_kind(self, kind: str) -> None:
        drop = []
        for bid, entry in list(self.cache.items()):
            if self.rt.array_desc(bid.array_id).kind != kind:
                continue
            if entry.pending:
                # a fetch still in flight was recorded in the closed epoch
                entry.fetched_by = entry.seen = entry.read_by = entry.written = None
            else:
                drop.append(bid)
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
                self.rt.writable(block)
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
