"""Unit tests for the block-transfer engine (``repro.sip.blockio``).

The engine owns every in-flight block movement of one rank: the request
table with duplicate-request coalescing, the single backpressure
predicate that replaced the copy-pasted ``capacity - 2`` guards, and
the canonical '+=' accumulation ledger.  These tests pin each of those
behaviors in isolation (fake ports) and through whole runs (stats
surfaced by the runner).
"""

from types import SimpleNamespace

from repro.sip import SIPConfig
from repro.sip.blockio import (
    IN_FLIGHT_CAP,
    AccumLedger,
    BlockIOStats,
    BlockTransferEngine,
)
from repro.sip.fold import fold, folded
from repro.sip.runner import run_source


def make_engine(pending=0, **reserve):
    """An engine wired to a fake port -- enough for the predicate paths.
    Without ``reserve`` it keeps the engine's own default, as every
    rank's engine does."""
    cache = SimpleNamespace(pending_count=pending)
    port = SimpleNamespace(sim=None, comm=None, cache=cache, rt=None)
    return BlockTransferEngine(port, **reserve)


# ---------------------------------------------------------------------------
# the backpressure predicate (satellite: the deduped cache-full guard)
# ---------------------------------------------------------------------------


def test_headroom_leaves_reserve_slots_free():
    # with the default reserve of 2, speculation stops at cap - 2 pending
    for pending in range(IN_FLIGHT_CAP - 4, IN_FLIGHT_CAP + 1):
        engine = make_engine(pending=pending)
        assert engine.headroom() == (pending < IN_FLIGHT_CAP - 2)


def test_headroom_reserve_is_configurable():
    pending = IN_FLIGHT_CAP - 3
    assert make_engine(pending=pending, reserve=0).headroom()
    assert not make_engine(pending=pending, reserve=3).headroom()
    # reserve >= the cap means no speculative fetches at all
    assert not make_engine(pending=0, reserve=IN_FLIGHT_CAP).headroom()


# ---------------------------------------------------------------------------
# stats aggregation
# ---------------------------------------------------------------------------


def test_stats_fold_sums_counters_and_maxes_peaks():
    a = BlockIOStats(issued_gets=2, coalesced=1, waiter_peak=3, in_flight_peak=5)
    b = BlockIOStats(issued_gets=4, issued_requests=1, waiter_peak=2, in_flight_peak=7)
    fold(a, b)
    assert a.issued_gets == 6
    assert a.issued_requests == 1
    assert a.issued == 7
    assert a.coalesced == 1
    assert a.waiter_peak == 3  # peaks take max, not sum
    assert a.in_flight_peak == 7


# ---------------------------------------------------------------------------
# the canonical accumulation ledger
# ---------------------------------------------------------------------------


class FakeBlock:
    def __init__(self, data=None):
        self.data = data


def test_accum_ledger_folds_in_canonical_key_order():
    import numpy as np

    ledger = AccumLedger()
    bid = ("D", (0, 0))
    # buffered out of canonical order: iteration 2 lands before iteration 1
    ledger.buffer(bid, (0, 7, 0, (2,), 2), FakeBlock(np.array([0.0, 1.0])))
    ledger.buffer(bid, (0, 7, 0, (1,), 1), FakeBlock(np.array([2.0, 0.0])))
    assert bid in ledger
    assert ledger.pending_ids() == [bid]
    pending = ledger.pop_sorted(bid)
    assert [key for key, _ in pending] == [
        (0, 7, 0, (1,), 1),
        (0, 7, 0, (2,), 2),
    ]
    assert bid not in ledger
    assert ledger.stats.accum_folds == 1
    assert ledger.stats.accums_buffered == 2


def test_accum_ledger_fold_into_applies_increments():
    import numpy as np

    ledger = AccumLedger()
    bid = ("D", (0, 0))
    target = FakeBlock(np.array([1.0, 1.0]))
    assert not ledger.fold_into(bid, target)  # nothing buffered
    ledger.buffer(bid, (1, 0, 1), FakeBlock(np.array([0.5, 0.0])))
    ledger.buffer(bid, (1, 1, 2), FakeBlock(np.array([0.0, 0.25])))
    assert ledger.fold_into(bid, target)
    assert target.data.tolist() == [1.5, 1.25]


def test_accum_ledger_discard_drops_superseded_contributions():
    ledger = AccumLedger()
    bid = ("D", (0, 0))
    ledger.buffer(bid, (1, 0, 1), FakeBlock())
    ledger.discard(bid)  # an overwrite supersedes buffered '+=' deltas
    assert not ledger
    assert ledger.pop_sorted(bid) == []


def test_accum_ledger_keys_sort_iterations_before_spmd():
    ledger = AccumLedger()
    in_pardo = ledger.next_key((3, 0, (1, 2)), worker_index=1)
    outside = ledger.next_key(None, worker_index=0)
    assert in_pardo[0] == 0 and outside[0] == 1
    assert in_pardo < outside  # pardo contributions fold first
    # the per-sender counter keeps ties within one iteration ordered
    again = ledger.next_key((3, 0, (1, 2)), worker_index=1)
    assert again > in_pardo


# ---------------------------------------------------------------------------
# whole-run behavior: coalescing and the runner's blockio_* stats
# ---------------------------------------------------------------------------

COALESCE_SRC = """sial coalesce
symbolic nb
symbolic nl
aoindex M = 1, nb
aoindex N = 1, nb
aoindex L = 1, nl
distributed D(M, N)
temp T(M, N)
temp S(M, N)
pardo M, N
  T(M, N) = 1.0
  put D(M, N) = T(M, N)
endpardo M, N
sip_barrier
pardo L
  do M
    do N
      get D(M, N)
      S(M, N) = D(M, N) * 2.0
    enddo N
  enddo M
endpardo L
sip_barrier
endsial coalesce
"""


def run_coalesce(**kw):
    defaults = dict(workers=2, io_servers=1, segment_size=4, race_check="report")
    defaults.update(kw)
    cfg = SIPConfig(**defaults)
    return run_source(COALESCE_SRC, cfg, symbolics={"nb": 4, "nl": 12})


def test_duplicate_requests_coalesce_to_one_wire_message():
    # D is a single block (the segment covers the whole range) and every
    # pardo L iteration demands it: the engine's request table must fold
    # the duplicates onto the one in-flight fetch
    res = run_coalesce()
    assert res.stats["blockio_issued_gets"] == 1
    assert res.stats["blockio_coalesced"] > 0
    assert res.stats["blockio_replies"] == 1


def test_runner_surfaces_blockio_stats_and_profile():
    res = run_coalesce()
    for key in (
        "blockio_issued",
        "blockio_issued_gets",
        "blockio_issued_requests",
        "blockio_coalesced",
        "blockio_in_flight_peak",
        "blockio_backpressure_stalls",
        "blockio_hint_drops",
        "blockio_puts",
        "blockio_replies",
    ):
        assert key in res.stats, key
    assert res.stats["blockio_issued"] == (
        res.stats["blockio_issued_gets"] + res.stats["blockio_issued_requests"]
    )
    bio = folded([r.stats["blockio"] for r in res.reports if r.role != "master"])
    assert bio.issued_gets == res.stats["blockio_issued_gets"]
    assert bio.in_flight_peak == res.stats["blockio_in_flight_peak"] >= 1


def test_arrival_events_name_the_block_in_readable_form(monkeypatch):
    """The engine stores (template, block id); the text appears on demand."""
    seen = []
    original = BlockTransferEngine._complete

    def spy(self, bid, block, arrival):
        seen.append((bid, repr(arrival)))
        return original(self, bid, block, arrival)

    monkeypatch.setattr(BlockTransferEngine, "_complete", spy)
    run_coalesce()
    assert seen
    for bid, text in seen:
        assert text == f"<Event 'arrive B[{bid.array_id}]{bid.coords}' pending>"
