"""Served arrays under an I/O server's byte budget: the fine simulator
scales with the worker count.

A server's write-back cache holds what the rank budget holds.  At the
default budget every served share below fits, so each served block is
read from disk once however many workers ask for it, and simulated
time falls (or holds) as workers are added.  A cache capped at a count
of blocks below the share re-read blocks from disk, more so the more
workers interleaved their requests, and time grew with the workers.
"""

import pytest

from repro.programs import library, run_ccsd
from repro.sip import SIPConfig, run_source


def _ccsd(workers: int):
    config = SIPConfig(workers=workers, io_servers=1, segment_size=2, backend="model")
    # VVVV: 4^4 = 256 blocks on the one server
    return run_ccsd(n_basis=5, n_occ=1, iterations=1, config=config).result


def _lccd(workers: int):
    config = SIPConfig(
        workers=workers,
        io_servers=2,
        segment_size=4,
        backend="model",
        inputs=dict.fromkeys(("OOVV", "VVVV", "OOOO", "OVVO")),
        superinstructions={"cc_denominator": lambda call: 4.0},
    )
    # VVVV: 5^4 = 625 blocks, over 300 per server
    return run_source(
        library.LCCD_ITERATION, config, {"no": 5, "nv": 20, "niter": 1}
    )


@pytest.mark.parametrize(
    "run, workers, served_blocks",
    [(_ccsd, (1, 2, 4, 8), 256), (_lccd, (2, 8, 32), 625)],
    ids=["ccsd", "lccd"],
)
def test_served_blocks_are_read_once_and_time_falls_with_workers(
    run, workers, served_blocks
):
    results = {w: run(w) for w in workers}
    reads = {w: r.stats["disk_reads"] for w, r in results.items()}
    assert reads == dict.fromkeys(workers, served_blocks)
    assert all(r.stats["disk_rereads"] == 0 for r in results.values())
    assert results[8].elapsed < results[2].elapsed
