"""Medium-scale stress tests: many ranks, many blocks, model mode."""

import pytest

from repro.machines import CRAY_XT5
from repro.sip import SIPConfig, run_source

MATMUL = """
sial stress_matmul
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
endsial stress_matmul
"""


def run(workers, nb=128, seg=8):
    cfg = SIPConfig(
        workers=workers,
        io_servers=2,
        segment_size=seg,
        backend="model",
        machine=CRAY_XT5,
        inputs={"A": None, "B": None},
    )
    return run_source(MATMUL, cfg, {"nb": nb})


def test_sixty_four_workers_complete_and_scale():
    """64 simulated ranks: completes, scales, stays deterministic."""
    res8 = run(8)
    res64 = run(64)
    # more workers help, though sub-linearly here: fewer workers enjoy
    # much more block-cache reuse (each holds more of A's rows)
    assert res64.elapsed < res8.elapsed
    # every block computed exactly once: pardo covered the space
    assert res64.profile.pardo_totals()[0].iterations == 16 * 16
    # determinism at scale
    assert run(64).elapsed == res64.elapsed


def test_thousands_of_blocks_through_tiny_cache():
    """4096 pardo iterations with room for ~8 replicas: thrash-but-correct.

    The budget is each worker's share of A, B and C, one TC block, and 8
    replicas -- below the dry run's no-spill requirement, so spill is on.
    """
    nb, seg, workers = 64, 2, 16
    block = seg * seg * 8
    resident = 3 * nb * nb * 8 // workers + block
    cfg = SIPConfig(
        workers=workers,
        io_servers=1,
        segment_size=seg,
        backend="model",
        machine=CRAY_XT5,
        memory_per_worker=float(resident + 8 * block),
        spill=True,
        prefetch_depth=4,
        inputs={"A": None, "B": None},
    )
    res = run_source(MATMUL, cfg, {"nb": nb})
    assert res.profile.pardo_totals()[0].iterations == (nb // seg) ** 2
    assert res.stats["cache_evictions"] > 0  # the cache really was tight
