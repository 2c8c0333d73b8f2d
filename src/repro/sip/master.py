"""The SIP master rank.

The master sets up the calculation (the dry run happens before
simulated time starts; see :mod:`repro.sip.dryrun`) and then serves
two request streams from the workers (paper, Section V-B):

* **pardo chunks** -- iterations are doled out in shrinking chunks
  (guided self-scheduling); each request costs the master a fixed CPU
  overhead, which is exactly the serialization term that caps strong
  scaling at very large worker counts (Fig. 6);
* **collective scalar sums** -- the SIAL ``collective`` statement.

When every worker has reported completion, the master shuts down the
service pumps and I/O servers.
"""

from __future__ import annotations

from typing import Generator

from ..simmpi import AnyOf, Timeout
from ..simmpi.faults import ResilienceStats
from .config import RETRY_BACKOFF, RETRY_LIMIT, RETRY_TIMEOUT, SIPError
from .messages import (
    MASTER_TAG,
    REPLY_TAG_BASE,
    SERVER_TAG,
    SERVICE_TAG,
    Ack,
    ChunkReply,
    ChunkRequest,
    CollectiveContribution,
    CollectiveResult,
    Shutdown,
    WorkerDone,
)
from .runtime import SharedRuntime
from .transport import CommEndpoint
from .scheduler import (
    SchedStats,
    conditions_read_scalars,
    enumerate_pardo,
    make_scheduler,
)

__all__ = ["MasterProcess"]

# rough wire size of one iteration tuple in a chunk reply
_BYTES_PER_ITERATION = 16

#: locality scoring, per byte a pardo iteration gets: the credit of the
#: worker that owns a distributed block (a get served to itself moves
#: no bytes at all), and of each recent holder of a cached replica
AFFINITY_OWNER_WEIGHT = 2.0
AFFINITY_REPLICA_WEIGHT = 1.0


class MasterProcess:
    def __init__(self, rt: SharedRuntime, comm: CommEndpoint) -> None:
        self.rt = rt
        self.comm = comm
        self.config = rt.config
        self.schedulers: dict[tuple[int, int], object] = {}
        self.sched_stats = SchedStats(policy=self.config.scheduling)
        self.collectives: dict[int, list[CollectiveContribution]] = {}
        self.collective_sources: dict[int, dict[int, int]] = {}
        self.resilience = ResilienceStats()
        # resilient protocol state: replayed replies for retried
        # requests, keyed (worker, pardo_pc, activation) so a late
        # duplicate from a previous activation can never alias a live
        # one's cached reply
        self._chunk_replay: dict[
            tuple[int, int, int], tuple[int, ChunkReply, int]
        ] = {}
        self._collective_results: dict[int, float] = {}
        self._done_workers: set[int] = set()
        self._next_reply_tag = REPLY_TAG_BASE
        # scalar snapshot each scheduler was built against, for the
        # invariance assertion on later requests
        self._sched_scalars: dict[tuple[int, int], tuple[float, ...]] = {}

    def run(self) -> Generator:
        resilient = self.rt.resilient
        done = 0
        while done < self.config.workers:
            msg = yield from self.comm.recv(tag=MASTER_TAG)
            payload = msg.payload
            if isinstance(payload, ChunkRequest):
                yield Timeout(self.config.machine.master_chunk_overhead)
                self._serve_chunk(payload, msg.source)
            elif isinstance(payload, CollectiveContribution):
                self._collect(payload, msg.source)
            elif isinstance(payload, WorkerDone):
                if resilient:
                    if payload.worker_index not in self._done_workers:
                        self._done_workers.add(payload.worker_index)
                        done += 1
                    else:
                        self.resilience.duplicates_ignored += 1
                    if payload.ack_tag >= 0:
                        self.comm.isend(
                            Ack(payload.ack_tag),
                            dest=msg.source,
                            tag=payload.ack_tag,
                        )
                else:
                    done += 1
            else:
                raise SIPError(f"master got unexpected message {payload!r}")
        targets = [(rank, SERVICE_TAG) for rank in self.config.worker_ranks]
        targets += [(rank, SERVER_TAG) for rank in self.config.server_ranks]
        if not resilient:
            for rank, tag in targets:
                self.comm.isend(Shutdown(), dest=rank, tag=tag)
            return
        # resilient shutdown: retry until acked, but give up quietly
        # after the retry budget -- the peer may have received an
        # earlier copy and exited with its ack dropped in transit
        for rank, tag in targets:
            self.rt.sim.spawn(
                self._reliable_shutdown(rank, tag), name=f"master.shutdown->{rank}"
            )
        # keep serving stragglers: a worker whose WorkerDone ack (or
        # last chunk/collective reply) was dropped is still retrying
        # into this mailbox and needs a re-ack to finish
        self.rt.sim.spawn(
            self._straggler_pump(), name="master.stragglers", daemon=True
        )

    def _straggler_pump(self) -> Generator:
        while True:
            msg = yield from self.comm.recv(tag=MASTER_TAG)
            payload = msg.payload
            if isinstance(payload, WorkerDone):
                self.resilience.duplicates_ignored += 1
                if payload.ack_tag >= 0:
                    self.comm.isend(
                        Ack(payload.ack_tag), dest=msg.source, tag=payload.ack_tag
                    )
            elif isinstance(payload, ChunkRequest):
                self._serve_chunk(payload, msg.source)
            elif isinstance(payload, CollectiveContribution):
                self._collect(payload, msg.source)

    def _reliable_shutdown(self, dest: int, tag: int) -> Generator:
        ack_tag = self._next_reply_tag
        self._next_reply_tag += 1
        req = self.comm.irecv(source=dest, tag=ack_tag)
        self.comm.isend(Shutdown(ack_tag), dest=dest, tag=tag)
        timeout = RETRY_TIMEOUT
        attempts = 0
        while not req.event.triggered:
            yield AnyOf([req.event, self.rt.sim.timeout_event(timeout)])
            if req.event.triggered:
                return
            attempts += 1
            if attempts > RETRY_LIMIT:
                return
            self.resilience.control_retries += 1
            self.comm.isend(Shutdown(ack_tag), dest=dest, tag=tag)
            timeout *= RETRY_BACKOFF

    def _serve_chunk(self, payload: ChunkRequest, source: int) -> None:
        replay_key = (payload.worker_index, payload.pardo_pc, payload.activation)
        if payload.seq >= 0:
            cached = self._chunk_replay.get(replay_key)
            if cached is not None:
                seq, reply, nbytes = cached
                if payload.seq == seq:
                    # retried request whose reply (or request) was lost:
                    # replay the exact same chunk, never a fresh one
                    self.resilience.duplicates_ignored += 1
                    self.comm.isend(
                        reply, dest=source, tag=payload.reply_tag, nbytes=nbytes
                    )
                    return
                if payload.seq < seq:
                    self.resilience.duplicates_ignored += 1
                    return  # stale duplicate; its reply already went out
        stats = self.sched_stats
        hits0, steals0 = stats.locality_hits, stats.stolen_iterations
        chunk = self._next_chunk(payload)
        reply = ChunkReply(tuple(chunk))
        nbytes = 64 + _BYTES_PER_ITERATION * len(chunk)
        if payload.seq >= 0:
            self._chunk_replay[replay_key] = (payload.seq, reply, nbytes)
        self.comm.isend(reply, dest=source, tag=payload.reply_tag, nbytes=nbytes)
        stats.replies += 1
        tracer = self.config.tracer
        if tracer is not None and chunk and hasattr(tracer, "record_sched"):
            tracer.record_sched(
                self.rt.sim.now,
                payload.worker_index,
                payload.pardo_pc,
                len(chunk),
                stats.locality_hits - hits0,
                stats.stolen_iterations - steals0,
            )

    def _next_chunk(self, req: ChunkRequest) -> list[tuple[int, ...]]:
        key = (req.pardo_pc, req.activation)
        sched = self.schedulers.get(key)
        if sched is None:
            instr = self.rt.decoded.instructions[req.pardo_pc]
            _pardo_id, index_ids, conditions, _exit, get_pcs = instr.args
            scalars = None
            if conditions_read_scalars(conditions):
                if req.scalars is None:
                    raise SIPError(
                        "pardo where clause reads scalars but the chunk "
                        "request carried no scalar snapshot"
                    )
                scalars = req.scalars
            iterations = enumerate_pardo(
                self.rt.table, index_ids, conditions, scalars=scalars
            )
            preferred = None
            if self.config.scheduling == "locality":
                preferred = self._affinity_map(index_ids, get_pcs, iterations)
            sched = make_scheduler(
                self.config.scheduling,
                iterations,
                self.config.workers,
                preferred=preferred,
                stats=self.sched_stats,
            )
            self.schedulers[key] = sched
            if scalars is not None:
                self._sched_scalars[key] = scalars
        elif req.scalars is not None:
            baseline = self._sched_scalars.get(key)
            if baseline is not None and req.scalars != baseline:
                # every worker reaches the pardo through the same
                # sequential prefix, so snapshots must agree; a mismatch
                # means the iteration space is not well defined
                raise SIPError(
                    f"workers disagree on the scalar state at pardo entry "
                    f"(pc {req.pardo_pc}, activation {req.activation}); "
                    "the iteration space is ambiguous"
                )
        return sched.next_chunk_for(req.worker_index)

    def _affinity_map(
        self,
        index_ids: tuple[int, ...],
        get_pcs: tuple[int, ...],
        iterations: list[tuple[int, ...]],
    ) -> list[int] | None:
        """Preferred worker per iteration, scored from block placement.

        For each iteration the pardo indices are bound and every
        get/request the body issues at pardo level is resolved; the
        owner of a distributed block earns :data:`AFFINITY_OWNER_WEIGHT`
        per byte and each recent cache holder earns
        :data:`AFFINITY_REPLICA_WEIGHT` per byte.  The pardo lists no
        get whose operand uses an inner-loop index (those blocks are
        touched from every iteration); one that uses an index bound
        outside the pardo cannot be resolved here and is skipped.
        Iterations with no placement signal round-robin over the
        workers.
        """
        workers = self.config.workers
        if workers <= 1 or not iterations:
            return None
        decoded = self.rt.decoded.instructions
        ops = [decoded[gpc].args[0] for gpc in get_pcs]
        if not ops:
            return None
        w_owner, w_replica = AFFINITY_OWNER_WEIGHT, AFFINITY_REPLICA_WEIGHT
        placements = self.rt.placements
        replicas = self.rt.replicas
        preferred: list[int] = []
        for n, combo in enumerate(iterations):
            values = dict(zip(index_ids, combo))
            scores: dict[int, float] = {}
            for op in ops:
                try:
                    r = op.resolve(values)
                except SIPError:
                    continue  # depends on an index bound outside the pardo
                bid = r.block_id
                nb = self.rt.block_nbytes(bid)
                if bid.array_id in placements:
                    owner = placements[bid.array_id].owner_index(bid.coords)
                    scores[owner] = scores.get(owner, 0.0) + w_owner * nb
                for holder in replicas.holders(bid):
                    scores[holder] = scores.get(holder, 0.0) + w_replica * nb
            if scores:
                preferred.append(min(scores, key=lambda w: (-scores[w], w)))
            else:
                preferred.append(n % workers)
        return preferred

    def _collect(self, payload: CollectiveContribution, source: int) -> None:
        if self.rt.resilient:
            if payload.seq in self._collective_results:
                # collective already completed; the worker's result was
                # lost in transit -- replay it
                self.resilience.duplicates_ignored += 1
                self.comm.isend(
                    CollectiveResult(self._collective_results[payload.seq]),
                    dest=source,
                    tag=payload.reply_tag,
                )
                return
            sources = self.collective_sources.get(payload.seq)
            if sources is not None and payload.worker_index in sources:
                # duplicate contribution while the collective is still
                # gathering; the original is already counted
                self.resilience.duplicates_ignored += 1
                return
        pending = self.collectives.setdefault(payload.seq, [])
        self.collective_sources.setdefault(payload.seq, {})[
            payload.worker_index
        ] = source
        pending.append(payload)
        if len(pending) == self.config.workers:
            total = self._reduce(pending)
            sources = self.collective_sources.pop(payload.seq)
            for p in pending:
                self.comm.isend(
                    CollectiveResult(total),
                    dest=sources[p.worker_index],
                    tag=p.reply_tag,
                )
            del self.collectives[payload.seq]
            if self.rt.resilient:
                self._collective_results[payload.seq] = total

    @staticmethod
    def _reduce(pending: list[CollectiveContribution]) -> float:
        """Sum contributions in an assignment-independent order.

        When every worker decomposed its scalar into a base plus
        per-iteration deltas, the sum folds bases in worker order and
        then deltas sorted by their canonical iteration key -- the same
        additions in the same order no matter which worker ran which
        iteration, so collectives are bitwise identical across
        scheduling policies.  A poisoned contribution falls back to the
        historical worker-order sum of full values.
        """
        ordered = sorted(pending, key=lambda p: p.worker_index)
        if any(p.poisoned for p in ordered):
            return sum(p.value for p in ordered)
        total = 0.0
        for p in ordered:
            total += p.base
        items: list[tuple[tuple, float]] = []
        for p in ordered:
            items.extend(p.deltas)
        items.sort(key=lambda kv: kv[0])
        for _key, delta in items:
            total += delta
        return total
