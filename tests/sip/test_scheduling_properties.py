"""Property tests for chunk scheduling.

Two layers:

* scheduler-level -- every policy serves every iteration exactly once
  no matter how workers interleave their requests; and
* master-level -- the same holds across the resilient wire protocol,
  where requests may be retried (and the retried reply must be a
  bitwise replay, keyed per (worker, pardo pc, activation) so replies
  can never leak across activations or pardos).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sial.compiler import compile_source
from repro.simmpi import Simulator, World
from repro.sip import FaultPlan, SIPConfig
from repro.sip.master import MasterProcess
from repro.sip.messages import ChunkRequest
from repro.sip.runtime import SharedRuntime
from repro.sip.scheduler import make_scheduler

POLICIES = ("guided", "static", "locality")


# -- scheduler level ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_policies_serve_each_iteration_exactly_once(data):
    n = data.draw(st.integers(0, 40), label="iterations")
    workers = data.draw(st.integers(1, 5), label="workers")
    policy = data.draw(st.sampled_from(POLICIES), label="policy")
    chunk_factor = data.draw(st.integers(1, 4), label="chunk_factor")
    min_chunk = data.draw(st.integers(1, 6), label="min_chunk")
    preferred = None
    if policy == "locality" and n:
        preferred = data.draw(
            st.lists(
                st.integers(0, workers - 1), min_size=n, max_size=n
            ),
            label="preferred",
        )
    iters = [(i,) for i in range(n)]
    sched = make_scheduler(
        policy,
        iters,
        workers,
        chunk_factor,
        min_chunk=min_chunk,
        preferred=preferred,
    )
    served = []
    active = set(range(workers))
    while active:
        w = data.draw(st.sampled_from(sorted(active)), label="asker")
        chunk = sched.next_chunk_for(w)
        if chunk:
            served.extend(chunk)
        else:
            active.discard(w)
    assert sorted(served) == iters
    assert sched.stats.iterations == n
    # a drained scheduler stays drained
    for w in range(workers):
        assert sched.next_chunk_for(w) == []


# -- master level ------------------------------------------------------------

_TWO_PARDO_SRC = """sial t
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)
pardo M, N where M < N
  T(M, N) = 1.0
  put D(M, N) = T(M, N)
endpardo M, N
pardo M, N where M > N
  T(M, N) = 2.0
  put D(M, N) = T(M, N)
endpardo M, N
endsial t
"""


class FakeComm:
    """Records isends so tests can inspect the master's replies."""

    def __init__(self):
        self.sent = []

    def isend(self, payload, dest, tag, nbytes=None):
        self.sent.append((payload, dest, tag))


def make_master(workers, scheduling="guided", nb=8):
    config = SIPConfig(
        workers=workers,
        io_servers=1,
        segment_size=2,
        scheduling=scheduling,
        faults=FaultPlan(),
    )
    prog = compile_source(_TWO_PARDO_SRC)
    sim = Simulator()
    world = World(sim, config.world_size, config.machine.network(), None)
    rt = SharedRuntime(prog, config, {"nb": nb}, sim, world)
    master = MasterProcess(rt, FakeComm())
    pcs = [
        pc
        for pc, instr in enumerate(prog.instructions)
        if instr.op == "PARDO_START"
    ]
    return master, pcs


def pardo_space(master, pc):
    from repro.sip.scheduler import enumerate_pardo

    _pid, ids, conds, _exit, _gets = master.rt.decoded.instructions[pc].args
    return enumerate_pardo(master.rt.table, ids, conds)


def test_replay_cache_does_not_alias_across_pardos():
    """Regression: the replay cache used to ignore which pardo (and
    which activation) a retried request belonged to, so a request for
    the second pardo could be answered with the first pardo's cached
    chunk when the seq numbers happened to collide."""
    master, (pc1, pc2) = make_master(workers=1)
    comm = master.comm

    master._serve_chunk(ChunkRequest(pc1, 0, 0, reply_tag=100, seq=3), source=1)
    reply1 = comm.sent[-1][0]
    assert list(reply1.iterations)
    assert set(reply1.iterations) <= set(pardo_space(master, pc1))

    # same worker, same seq, different pardo pc: must NOT be a replay
    master._serve_chunk(ChunkRequest(pc2, 0, 0, reply_tag=101, seq=3), source=1)
    reply2 = comm.sent[-1][0]
    assert master.resilience.duplicates_ignored == 0
    assert set(reply2.iterations) <= set(pardo_space(master, pc2))
    assert set(reply2.iterations).isdisjoint(set(reply1.iterations))

    # a true retry (same worker, pc, activation, seq) replays the
    # identical reply instead of draining a fresh chunk
    before = len(comm.sent)
    master._serve_chunk(ChunkRequest(pc2, 0, 0, reply_tag=101, seq=3), source=1)
    assert master.resilience.duplicates_ignored == 1
    assert comm.sent[before][0] is reply2


def test_replay_cache_does_not_alias_across_activations():
    master, (pc1, _pc2) = make_master(workers=1)
    comm = master.comm
    space = pardo_space(master, pc1)

    # drain activation 0 completely (worker seq counter keeps rising)
    seq = 0
    got0 = []
    while True:
        master._serve_chunk(
            ChunkRequest(pc1, 0, 0, reply_tag=10 + seq, seq=seq), source=1
        )
        chunk = comm.sent[-1][0].iterations
        if not chunk:
            break
        got0.extend(chunk)
        seq += 1
    assert sorted(got0) == space

    # activation 1 re-runs the same pc: its first request must get the
    # full space again, not a stale cached reply from activation 0
    master._serve_chunk(
        ChunkRequest(pc1, 1, 0, reply_tag=99, seq=seq + 1), source=1
    )
    first = comm.sent[-1][0].iterations
    assert first
    assert set(first) <= set(space)
    assert master.resilience.duplicates_ignored == 0


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_master_exactly_once_under_retries_and_interleavings(data):
    """Across random interleavings, worker counts, policies, and
    resilient retried/duplicated requests, the master serves every
    iteration of every pardo exactly once, and every retry is answered
    with the identical cached reply."""
    workers = data.draw(st.integers(1, 3), label="workers")
    policy = data.draw(st.sampled_from(POLICIES), label="policy")
    master, pcs = make_master(workers=workers, scheduling=policy)
    comm = master.comm

    for pc in pcs:
        space = pardo_space(master, pc)
        served = {w: [] for w in range(workers)}
        seqs = {w: 0 for w in range(workers)}
        last = {}
        active = set(range(workers))
        while active:
            w = data.draw(st.sampled_from(sorted(active)), label="asker")
            retry = w in last and data.draw(st.booleans(), label="retry")
            if retry:
                req, prev_reply = last[w]
                before = len(comm.sent)
                master._serve_chunk(req, source=1 + w)
                # the retry is replayed bitwise, not served afresh
                assert comm.sent[before][0] is prev_reply
                continue
            req = ChunkRequest(
                pc, 0, w, reply_tag=1000 + seqs[w], seq=seqs[w]
            )
            seqs[w] += 1
            master._serve_chunk(req, source=1 + w)
            reply = comm.sent[-1][0]
            last[w] = (req, reply)
            if reply.iterations:
                served[w].extend(reply.iterations)
            else:
                active.discard(w)
        everything = sorted(
            it for chunks in served.values() for it in chunks
        )
        assert everything == space
