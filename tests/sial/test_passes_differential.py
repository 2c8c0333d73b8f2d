"""Differential harness: -O2 must be bitwise identical to -O0.

Every optimizer pass claims result-preservation; this suite is the
enforcement.  Each bundled application driver runs unoptimized and at
the full ``-O2`` pipeline -- on the deterministic simulator at 1, 2 and
4 workers, and on the multiprocess backend -- and every scalar and
every persistent array must match **bit for bit**, with identical
sanitizer verdicts.  The optimizer additionally must never *increase*
the simulated wall time (passes only remove dispatches or issue
fetches earlier), and on CCSD ``-O2`` must execute at least 10 % fewer
instructions than ``-O0``.
"""

import numpy as np
import pytest

from repro.programs import (
    run_ao2mo,
    run_ccsd,
    run_ccsd_t,
    run_fock_build,
    run_lccd,
    run_lccd_anderson,
    run_mp2,
    run_paper_contraction,
    run_uhf_mp2,
)
from repro.sip import SIPConfig, SIPError, mptransport

WORKER_COUNTS = (1, 2, 4)

DRIVERS = {
    "paper_contraction": lambda cfg: run_paper_contraction(
        n_basis=4, n_occ=2, config=cfg
    ),
    "mp2_energy": lambda cfg: run_mp2(n_basis=6, n_occ=2, config=cfg),
    "uhf_mp2_energy": lambda cfg: run_uhf_mp2(
        n_basis=5, n_alpha=2, n_beta=1, config=cfg
    ),
    "ao2mo_transform": lambda cfg: run_ao2mo(n_basis=4, config=cfg),
    "lccd_iteration": lambda cfg: run_lccd(
        n_basis=4, n_occ=1, iterations=2, config=cfg
    ),
    "lccd_anderson": lambda cfg: run_lccd_anderson(
        n_basis=4, n_occ=1, iterations=2, config=cfg
    ),
    # two occupied orbitals: with one, the occupied loops hold a single
    # segment and there is little for fetch hoisting and fusion to save
    "ccsd": lambda cfg: run_ccsd(n_basis=4, n_occ=2, iterations=2, config=cfg),
    "ccsd_t": lambda cfg: run_ccsd_t(n_basis=3, n_occ=1, sweeps=1, config=cfg),
    "fock_build": lambda cfg: run_fock_build(n_basis=5, n_occ=2, config=cfg),
}

#: the longest-running programs; their off-center worker counts are
#: deselected from tier-1 (w=2 still runs everywhere)
HEAVY = {"ccsd", "ccsd_t", "lccd_iteration", "lccd_anderson"}


def make_config(workers: int, opt_level: int, execution: str = "sim") -> SIPConfig:
    return SIPConfig(
        workers=workers,
        io_servers=1,
        segment_size=2,
        race_check="report",
        execution=execution,
        opt_level=opt_level,
    )


def persistent_arrays(result) -> list[str]:
    program = result._rt.program
    return [
        desc.name
        for desc in program.array_table
        if desc.kind in ("static", "distributed", "served")
    ]


def assert_bitwise_equal_results(base, opt) -> None:
    """Scalars and every gatherable array must match bit for bit."""
    assert opt.result.scalars.keys() == base.result.scalars.keys()
    for name, base_value in base.result.scalars.items():
        opt_value = opt.result.scalars[name]
        assert opt_value == base_value, (
            f"scalar {name}: -O0 {base_value!r} != -O2 {opt_value!r}"
        )
    # DCE may prune arrays the unoptimized program declared but whose
    # contents were dead; every array the optimized run still has must
    # match the baseline exactly
    base_arrays = set(persistent_arrays(base.result))
    for array in persistent_arrays(opt.result):
        assert array in base_arrays
        try:
            expected = base.result.array(array)
        except SIPError:
            continue  # declared but never materialized on this run
        actual = opt.result.array(array)
        assert np.array_equal(expected, actual), (
            f"array {array!r} differs between -O0 and -O2"
        )


def _params():
    for name in sorted(DRIVERS):
        for workers in WORKER_COUNTS:
            marks = []
            if name in HEAVY and workers != 2:
                marks.append(pytest.mark.slow)
            yield pytest.param(name, workers, marks=marks)


@pytest.mark.parametrize("name,workers", _params())
def test_O2_is_bitwise_identical_to_O0_on_simulator(name, workers):
    driver = DRIVERS[name]
    base = driver(make_config(workers, 0))
    opt = driver(make_config(workers, 2))

    # both must also agree with the independent numpy reference
    assert base.error < 1e-10
    assert opt.error < 1e-10
    assert_bitwise_equal_results(base, opt)

    # identical sanitizer verdicts
    assert base.result.sanitizer_report.ok == opt.result.sanitizer_report.ok

    # the pipeline actually ran and reported
    assert opt.result.stats["opt_level"] == 2
    assert "opt_instructions_after" in opt.result.stats
    # simulated time never regresses: passes only remove dispatches or
    # issue fetches earlier (tolerance covers float summation order)
    assert opt.result.elapsed <= base.result.elapsed * (1 + 1e-9)
    if name == "ccsd":
        # the fetch-dedup and fusion savings live in CCSD's inner loops
        executed = opt.result.stats["instr_executed"]
        assert executed <= 0.9 * base.result.stats["instr_executed"]


@pytest.mark.parametrize("name,workers", _params())
def test_O1_is_bitwise_identical_to_O0_on_simulator(name, workers):
    if name in HEAVY and workers != 2:
        pytest.skip("heavy off-center combos covered by the -O2 suite")
    driver = DRIVERS[name]
    base = driver(make_config(workers, 0))
    opt = driver(make_config(workers, 1))
    assert opt.error < 1e-10
    assert_bitwise_equal_results(base, opt)


@pytest.mark.mp
@pytest.mark.parametrize(
    "name,workers",
    [
        pytest.param(name, w, marks=[] if w == 2 else [pytest.mark.slow])
        for name in ("paper_contraction", "mp2_energy", "ccsd")
        for w in WORKER_COUNTS
    ],
)
def test_O2_is_bitwise_identical_on_mp_backend(name, workers, monkeypatch):
    """The optimized program ships to real worker processes by pickle;
    results must still match the unoptimized simulator bit for bit."""
    # small blocks detour through shared memory too, not just the pipe
    monkeypatch.setattr(mptransport, "PAYLOAD_SHM_MIN", 256)
    driver = DRIVERS[name]
    base = driver(make_config(workers, 0, "sim"))
    opt = driver(make_config(workers, 2, "mp"))
    assert opt.error < 1e-10
    assert_bitwise_equal_results(base, opt)
    assert opt.result.stats["opt_level"] == 2
    assert opt.result.sanitizer_report.ok
