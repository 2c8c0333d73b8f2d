"""Property-based end-to-end tests of the whole stack."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import dry_run
from repro.sip import SIPConfig, run_source
from repro.sip.dryrun import PINNED_FLOOR_BLOCKS

MATMUL = """
sial prop_matmul
symbolic nm
symbolic nn
symbolic nk
aoindex M = 1, nm
aoindex N = 1, nn
aoindex K = 1, nk
distributed A(M, K)
distributed B(K, N)
distributed C(M, N)
temp TC(M, N)

pardo M, N
  TC(M, N) = 0.0
  do K
    get A(M, K)
    get B(K, N)
    TC(M, N) += A(M, K) * B(K, N)
  enddo K
  put C(M, N) = TC(M, N)
endpardo M, N
endsial prop_matmul
"""


@given(
    nm=st.integers(min_value=1, max_value=9),
    nn=st.integers(min_value=1, max_value=9),
    nk=st.integers(min_value=1, max_value=9),
    seg=st.integers(min_value=1, max_value=5),
    workers=st.integers(min_value=1, max_value=5),
    prefetch=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_distributed_matmul_equals_numpy(nm, nn, nk, seg, workers, prefetch, seed):
    """Any shape, any (ragged) segmentation, any worker count, any
    prefetch depth: the SIAL result equals the numpy product."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((nm, nk))
    b = rng.standard_normal((nk, nn))
    cfg = SIPConfig(
        workers=workers,
        io_servers=1,
        segment_size=seg,
        prefetch_depth=prefetch,
        inputs={"A": a, "B": b},
    )
    res = run_source(MATMUL, cfg, symbolics={"nm": nm, "nn": nn, "nk": nk})
    assert np.allclose(res.array("C"), a @ b, atol=1e-10)
    # the dry run's estimate bounds the observed pool peak
    assert res.stats["pool_peak_bytes"] <= res.dry_run.per_worker_bytes


ACCUMULATE = """
sial prop_accumulate
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)

pardo M, N
  T(M, N) = 1.0
  put D(M, N) += T(M, N)
endpardo M, N
sip_barrier
pardo N, M
  T(M, N) = 2.0
  put D(M, N) += T(M, N)
endpardo N, M
endsial prop_accumulate
"""


@given(
    nb=st.integers(min_value=1, max_value=10),
    seg=st.integers(min_value=1, max_value=4),
    workers=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=20, deadline=None)
def test_accumulates_order_independent(nb, seg, workers):
    """+= puts from different pardos/workers always sum to the same
    total, regardless of distribution or timing."""
    cfg = SIPConfig(workers=workers, io_servers=1, segment_size=seg)
    res = run_source(ACCUMULATE, cfg, symbolics={"nb": nb})
    assert np.all(res.array("D") == 3.0)


SERVED_ROUNDTRIP = """
sial prop_served
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
served SV(M, N)
distributed OUT(M, N)
temp T(M, N)

pardo M, N
  get OUT(M, N)
  T(M, N) = OUT(M, N)
  prepare SV(M, N) = T(M, N)
endpardo M, N
server_barrier
pardo M, N
  request SV(M, N)
  T(M, N) = SV(M, N)
  put OUT(M, N) = T(M, N)
endpardo M, N
endsial prop_served
"""


@given(
    nb=st.integers(min_value=1, max_value=8),
    seg=st.integers(min_value=1, max_value=4),
    servers=st.integers(min_value=1, max_value=3),
    headroom=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_served_array_roundtrip_identity(nb, seg, servers, headroom, seed):
    """prepare-then-request through any number of I/O servers and any
    cache pressure is the identity on data.

    Every rank's budget is the dry run's pinned-only floor plus
    ``headroom`` blocks, with spill on: servers hold 6 to 14 blocks.
    The OUT array is preloaded, copied through the served array, and
    read back; conflicting accesses are separated by barriers via the
    program structure (distinct pardos per epoch for OUT writes).
    """
    rng = np.random.default_rng(seed)
    value = rng.standard_normal((nb, nb))
    cfg = SIPConfig(
        workers=2,
        io_servers=servers,
        segment_size=seg,
        spill=True,
        inputs={"OUT": value},
        race_check="off",  # OUT is rewritten with equal values
    )
    report = dry_run(SERVED_ROUNDTRIP, cfg, {"nb": nb})
    block = report.pinned_floor_bytes // PINNED_FLOOR_BLOCKS
    cfg.memory_per_worker = float(report.pinned_floor_bytes + headroom * block)
    res = run_source(SERVED_ROUNDTRIP, cfg, symbolics={"nb": nb})
    assert np.allclose(res.array("OUT"), value)
    assert np.allclose(res.array("SV"), value)
