"""A worker's replica cache is bounded by the rank's memory, not a count.

Three whole-run properties: with the default budget no replica is ever
dropped, so a worker fetches each remote block at most once per barrier
epoch; with spill off and a tight budget every cache insert leaves pool,
cache and adopted bytes inside the budget and the result does not move;
and speculation never has more than ``IN_FLIGHT_CAP - reserve`` fetches
in flight.
"""

import dataclasses
import inspect
from collections import Counter

import numpy as np

from repro.machines import CRAY_XT5
from repro.programs import run_ccsd
from repro.sip import SIPConfig, run_source
from repro.sip.blockio import IN_FLIGHT_CAP, BlockTransferEngine
from repro.sip.cache import BlockCache

from .test_stress import MATMUL


def test_default_budget_never_drops_a_replica(monkeypatch):
    fetched = Counter()
    issue = BlockTransferEngine._issue

    def spy(self, bid, *args, **kw):
        entry = issue(self, bid, *args, **kw)
        port = self.port
        kind = self.rt.array_desc(bid.array_id).kind
        epoch = port.epoch if kind == "distributed" else port.served_epoch
        fetched[port.rank, kind, epoch, bid] += 1
        return entry

    monkeypatch.setattr(BlockTransferEngine, "_issue", spy)
    cfg = SIPConfig(workers=2, io_servers=1, segment_size=2, opt_level=2)
    stats = run_ccsd(n_basis=4, n_occ=2, iterations=1, config=cfg).result.stats
    assert stats["cache_evictions"] == 0
    # a block is fetched again only after a barrier invalidated its replica
    assert stats["blockio_issued"] == len(fetched) > 0
    assert max(fetched.values()) == 1


def test_tight_budget_without_scratch_drops_replicas_and_keeps_the_result(monkeypatch):
    rng = np.random.default_rng(1)
    nb = 32
    base = SIPConfig(
        workers=4,
        io_servers=1,
        segment_size=4,
        inputs={"A": rng.standard_normal((nb, nb)), "B": rng.standard_normal((nb, nb))},
    )
    free = run_source(MATMUL, base, {"nb": nb})
    budget = float(free.dry_run.per_worker_bytes)  # the least spill=False admits
    assert free.stats["mem_peak_bytes"] > budget

    over = []
    for name in ("insert_pending", "insert_ready"):
        insert = getattr(BlockCache, name)

        def spy(self, *args, _insert=insert, **kw):
            entry = _insert(self, *args, **kw)
            ledger = self.ledger
            if ledger is not None and ledger.bytes_in_use > ledger.budget_bytes:
                over.append((self.name, ledger.bytes_in_use))
            return entry

        monkeypatch.setattr(BlockCache, name, spy)
    tight = run_source(
        MATMUL, dataclasses.replace(base, memory_per_worker=budget), {"nb": nb}
    )
    assert not over
    assert tight.stats["cache_evictions"] > 0
    assert tight.stats["mem_spills"] == 0
    assert np.array_equal(tight.array("C"), free.array("C"))


def test_speculation_stops_at_the_in_flight_cap(monkeypatch):
    reserve = inspect.signature(BlockTransferEngine).parameters["reserve"].default
    peak = [0]
    insert = BlockCache.insert_pending

    def spy(self, bid, arrival, demand=True):
        entry = insert(self, bid, arrival, demand)
        if not demand:
            peak[0] = max(peak[0], self.pending_count)
        return entry

    monkeypatch.setattr(BlockCache, "insert_pending", spy)
    cfg = SIPConfig(
        workers=4,
        io_servers=1,
        segment_size=1,
        backend="model",
        machine=CRAY_XT5,
        prefetch_depth=IN_FLIGHT_CAP,  # two gets a step: twice the cap wanted
        inputs={"A": None, "B": None},
    )
    run_source(MATMUL, cfg, {"nb": 48})
    assert peak[0] == IN_FLIGHT_CAP - reserve  # reached, never passed
