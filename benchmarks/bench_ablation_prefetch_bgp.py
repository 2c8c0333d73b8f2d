"""Section VI-A ablation: prefetch tuning on BlueGene/P.

The paper's porting story: on BG/P the processor/network performance
ratio differs sharply from the Crays, and the untuned prefetcher let
blocks arrive *too early* -- they were evicted from the (small) block
cache before use and had to be refetched; "the performance improvement
due after tuning was large" (>6 h down to ~4x the XT5 time).

We reproduce the mechanism on the fine-grained simulator: a blocked
contraction runs on the BG/P machine model with a memory budget that
leaves room for only a few replicas beside each worker's resident
blocks, across prefetch depths.  Deep prefetch causes evicted-before-use
blocks and refetches; the tuned depth minimizes simulated time.

The budget is below the dry run's no-spill requirement (which reserves
room for a full in-flight window), so the runs enable spill; BG/P
compute nodes have no local disk, so scratch is smaller than one block
and pressure can only drop replicas.  Much less room than ``ROOM``
fails at depth 16 with ``OutOfBlockMemory``: its ~21 in-flight blocks
then leave a pool allocation nothing to drop.
"""

import pytest

from repro.machines import BLUEGENE_P, CRAY_XT5
from repro.sip import SIPConfig, run_source

from _tables import emit_table

SRC = """
sial prefetch_probe
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
aoindex L = 1, nb
distributed A(M, L)
distributed B(L, N)
distributed C(M, N)
temp TC(M, N)

pardo M, N
  TC(M, N) = 0.0
  do L
    get A(M, L)
    get B(L, N)
    TC(M, N) += A(M, L) * B(L, N)
  enddo L
  put C(M, N) = TC(M, N)
endpardo M, N
endsial prefetch_probe
"""

NB = 60
SEG = 5
WORKERS = 4
BLOCK = SEG * SEG * 8
# each worker's share of A, B and C plus its TC block
RESIDENT = 3 * NB * NB * 8 // WORKERS + BLOCK
ROOM = 12  # replicas beside the residents: tight, as on the 0.5 GB/core BG/P
NO_SCRATCH = 1.0  # less than one block: nothing can spill
DEPTHS = [0, 1, 2, 4, 8, 16]


def run_depth(depth, machine=BLUEGENE_P, tight=True):
    memory = {}
    if tight:
        memory = dict(
            memory_per_worker=float(RESIDENT + ROOM * BLOCK),
            spill=True,
            scratch_per_worker=NO_SCRATCH,
        )
    cfg = SIPConfig(
        workers=WORKERS,
        io_servers=1,
        segment_size=SEG,
        backend="model",
        machine=machine,
        prefetch_depth=depth,
        inputs={"A": None, "B": None},
        **memory,
    )
    return run_source(SRC, cfg, symbolics={"nb": NB})


def generate_rows():
    rows = []
    for depth in DEPTHS:
        res = run_depth(depth)
        rows.append(
            {
                "depth": depth,
                "time": res.elapsed,
                "wait": res.profile.total_wait,
                "evicted_before_use": res.stats["cache_evicted_before_use"],
                "refetches": res.stats["refetches"],
            }
        )
    return rows


@pytest.mark.benchmark(group="ablation-prefetch")
def test_prefetch_tuning_on_bgp(benchmark):
    rows = benchmark(generate_rows)
    best = min(rows, key=lambda r: r["time"])
    emit_table(
        "ablation_prefetch_bgp",
        "Section VI-A -- prefetch depth on BlueGene/P (room for "
        f"{ROOM} replicas)",
        ["depth", "time (ms)", "wait (ms)", "evicted unused", "refetches"],
        [
            [
                r["depth"],
                r["time"] * 1e3,
                r["wait"] * 1e3,
                r["evicted_before_use"],
                r["refetches"],
            ]
            for r in rows
        ],
        notes=[
            f"tuned depth here: {best['depth']}",
            "paper: untuned prefetch on BG/P evicted blocks before use, "
            "forcing refetches; tuning recovered a large factor",
        ],
    )
    by_depth = {r["depth"]: r for r in rows}
    # no prefetch: nothing arrives early, so nothing is evicted unused
    assert by_depth[0]["evicted_before_use"] == 0
    # over-deep prefetch thrashes the cache: blocks evicted before use
    deepest = by_depth[DEPTHS[-1]]
    assert deepest["evicted_before_use"] > 0
    assert deepest["refetches"] > 0
    # moderate prefetch beats both extremes
    assert best["depth"] not in (0, DEPTHS[-1])
    assert best["time"] < by_depth[0]["time"]
    assert best["time"] < deepest["time"]


@pytest.mark.benchmark(group="ablation-prefetch")
def test_bgp_vs_xt5_after_tuning(benchmark):
    """After tuning, BG/P time should be within ~the processor-speed
    ratio of the XT5 (paper: a factor of four), not the 14x of the
    untuned port."""

    def generate():
        best_bgp = min(
            (run_depth(d).elapsed for d in DEPTHS),
            default=None,
        )
        xt5 = run_depth(2, machine=CRAY_XT5, tight=False).elapsed
        return best_bgp, xt5

    best_bgp, xt5 = benchmark(generate)
    ratio = best_bgp / xt5
    emit_table(
        "ablation_bgp_vs_xt5",
        "Section VI-A -- tuned BG/P vs Cray XT5",
        ["machine", "time (ms)"],
        [["bluegene-p (tuned)", best_bgp * 1e3], ["cray-xt5", xt5 * 1e3]],
        notes=[
            f"ratio: {ratio:.1f}x (paper: ~4x, 'commensurate with the "
            "ratio of the processor speeds')"
        ],
    )
    assert 1.5 < ratio < 8.0
