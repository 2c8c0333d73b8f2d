"""Unit tests for block placement and the owner-side race recorder."""

from repro.sial.compiler import compile_source
from repro.sip.blocks import BlockId, ResolvedIndexTable
from repro.sip.distributed import Placement
from repro.sip.sanitizer import RaceRecorder


def make_placement(n=12, seg=4, workers=3):
    prog = compile_source(
        "sial t\nsymbolic nb\naoindex M = 1, nb\naoindex N = 1, nb\n"
        "distributed D(M, N)\nendsial t\n"
    )
    table = ResolvedIndexTable(prog, {"nb": n}, segment_size=seg)
    return Placement(table, prog.array_id("D"), workers)


def test_every_block_has_exactly_one_owner():
    p = make_placement()
    seen = {}
    for w in range(3):
        for coords in p.owned_by(w):
            assert coords not in seen
            seen[coords] = w
    assert len(seen) == p.n_blocks == 9
    for coords, w in seen.items():
        assert p.owner_index(coords) == w


def test_linearize_delinearize_roundtrip():
    p = make_placement()
    for lin in range(p.n_blocks):
        assert p.linearize(p.delinearize(lin)) == lin


def test_placement_balanced():
    p = make_placement(n=16, seg=4, workers=4)  # 16 blocks over 4 workers
    counts = [len(p.owned_by(w)) for w in range(4)]
    assert counts == [4, 4, 4, 4]


def test_owner_index_in_range():
    p = make_placement(n=20, seg=3, workers=5)
    for coords in p.owned_by(2):
        assert 0 <= p.owner_index(coords) < 5


# -- race recorder ------------------------------------------------------------
# the recorder keys accesses by iteration; outside pardo the key is a
# per-worker constant, so "worker w" below is the iteration (1, w)
B = BlockId(0, (1, 1))
B2 = BlockId(0, (1, 2))
W0, W1, W2 = (1, 0), (1, 1), (1, 2)


def kinds(rec):
    return [c[0] for c in rec.log.conflicts]


def test_read_read_no_conflict():
    t = RaceRecorder()
    t.record("distributed", 0, B, "read", W0, 1)
    t.record("distributed", 0, B, "read", W1, 2)
    assert t.log.total == 0


def test_write_then_read_other_worker_conflicts():
    t = RaceRecorder()
    t.record("distributed", 0, B, "=", W0, 1)
    t.record("distributed", 0, B, "read", W1, 2)
    assert kinds(t) == ["read-write"]
    _, _, bid, first, second = t.log.conflicts[0]
    assert bid == B
    assert first == ("=", W0, 1) and second == ("read", W1, 2)


def test_same_worker_write_then_read_ok():
    t = RaceRecorder()
    t.record("distributed", 0, B, "=", W0, 1)
    t.record("distributed", 0, B, "read", W0, 2)
    assert t.log.total == 0


def test_read_then_write_other_worker_conflicts():
    t = RaceRecorder()
    t.record("distributed", 0, B, "read", W0, 1)
    t.record("distributed", 0, B, "=", W1, 2)
    assert kinds(t) == ["read-write"]


def test_write_write_other_worker_conflicts():
    t = RaceRecorder()
    t.record("distributed", 0, B, "=", W0, 1)
    t.record("distributed", 0, B, "=", W1, 1)
    assert kinds(t) == ["write-write"]


def test_accumulates_commute():
    t = RaceRecorder()
    t.record("distributed", 0, B, "+=", W0, 1)
    t.record("distributed", 0, B, "+=", W1, 1)
    t.record("distributed", 0, B, "+=", W2, 1)
    assert t.log.total == 0


def test_accumulate_conflicts_with_plain_write():
    t = RaceRecorder()
    t.record("distributed", 0, B, "=", W0, 1)
    t.record("distributed", 0, B, "+=", W1, 2)
    assert kinds(t) == ["write-write"]


def test_accumulate_then_read_conflicts():
    t = RaceRecorder()
    t.record("distributed", 0, B, "+=", W0, 1)
    t.record("distributed", 0, B, "read", W1, 2)
    assert kinds(t) == ["read-write"]


def test_distinct_blocks_independent():
    t = RaceRecorder()
    t.record("distributed", 0, B, "=", W0, 1)
    t.record("distributed", 0, B2, "read", W1, 2)  # different block: fine
    assert t.log.total == 0


def test_new_epoch_clears_history():
    t = RaceRecorder()
    t.record("distributed", 0, B, "=", W0, 1)
    t.record("distributed", 1, B, "read", W1, 2)  # previous epoch's write forgotten
    t.record("served", 0, B, "read", W1, 2)  # and each array class has its own epochs
    assert t.log.total == 0


def test_disabled_tracker_never_raises():
    t = RaceRecorder("off")
    t.record("distributed", 0, B, "=", W0, 1)
    t.record("distributed", 0, B, "read", W1, 2)
    t.record("distributed", 0, B, "=", W1, 3)
    assert t.log.total == 0 and t.log.accesses == 0


def test_two_iterations_on_one_worker_conflict():
    it1, it2 = (0, 0, 0, (1, 1)), (0, 0, 0, (1, 2))
    t = RaceRecorder()
    t.record("distributed", 0, B, "=", it1, 4)
    t.record("distributed", 0, B, "=", it2, 4)
    t.record("distributed", 0, B, "read", it1, 5)
    assert kinds(t) == ["write-write", "read-write"]
    assert t.log.total == 2


def test_an_accumulate_is_keyed_by_its_iteration():
    it = (0, 0, 0, (1,))
    t = RaceRecorder()
    t.record("distributed", 0, B, "read", it, 3)
    # the head of the '+=' accum key (0, 0, 0, (1,), seq) is its iteration
    t.record("distributed", 0, B, "+=", (0, 0, 0, (1,), 7)[:-1], 4)
    assert t.log.total == 0


def test_repeated_pairs_are_counted_but_kept_once():
    t = RaceRecorder()
    for w in range(5):
        t.record("distributed", 0, BlockId(0, (1, w + 1)), "=", W0, 1)
        t.record("distributed", 0, BlockId(0, (1, w + 1)), "=", W1, 1)
    assert t.log.total == 5
    assert len(t.log.conflicts) == 1


def test_at_most_two_epoch_tables_live_per_class():
    t = RaceRecorder()
    for epoch in range(12):
        t.record("distributed", epoch, B, "=", W0, 1)
        t.record("served", epoch, B, "=", W0, 1)
        assert len(t.tables["distributed"]) <= 2
        assert len(t.tables["served"]) <= 2
    # a hint lagging one epoch is still checked ...
    t.record("distributed", 10, B, "read", W1, 2)
    assert t.log.total == 1
    # ... an older one is not recorded and opens no table
    t.record("distributed", 3, B, "read", W1, 2)
    assert sorted(t.tables["distributed"]) == [10, 11]


class _Entry:
    fetched_by = seen = read_by = written = None


def test_replica_read_after_a_local_write_conflicts():
    it1, it2, it3 = (0, 0, 0, (1, 1)), (0, 0, 0, (1, 2)), (0, 0, 0, (1, 3))
    t = RaceRecorder()
    entry = _Entry()
    entry.fetched_by = it1
    t.replica_write(entry, 0, B, "=", it2, 7)
    t.replica_read(entry, B, it1, 5)  # the fetcher's reads reach the owner
    t.replica_read(entry, B, it2, 5)  # the writer itself: fine
    assert t.log.total == 0
    t.replica_read(entry, B, it3, 5)
    t.replica_read(entry, B, it3, 6)  # its second read is not checked again
    assert t.log.conflicts == [("read-write", 0, B, ("=", it2, 7), ("read", it3, 5))]


def test_write_after_another_iteration_read_the_replica_conflicts():
    it1, it2 = (0, 0, 0, (1, 1)), (0, 0, 0, (1, 2))
    t = RaceRecorder()
    entry = _Entry()
    entry.fetched_by = it1
    t.replica_read(entry, B, it2, 5)
    t.replica_write(entry, 0, B, "+=", it2, 7)  # its own read: fine
    assert t.log.total == 0
    t.replica_write(entry, 0, B, "+=", it1, 7)
    assert t.log.conflicts == [("read-write", 0, B, ("read", it2, 5), ("+=", it1, 7))]
