"""Differential test harness: every bundled SIAL program, three ways.

Each program in the library runs on the serial reference configuration
(one worker) and on the simulated parallel SIP with 2 and 4 workers,
always with the runtime block-access sanitizer enabled.  The results
must agree with each other and with the numpy reference, and the
sanitizer must observe zero conflicting accesses -- the paper's
determinism claim (Section IV-C), checked program by program.
"""

import numpy as np
import pytest

from repro.programs import (
    run_ao2mo,
    run_ccsd,
    run_ccsd_t,
    run_checkpoint_demo,
    run_fock_build,
    run_lccd,
    run_lccd_anderson,
    run_mp2,
    run_paper_contraction,
    run_uhf_mp2,
)
from repro.sip import SIPConfig

WORKER_COUNTS = (1, 2, 4)
TOLERANCE = 1e-10

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
    "ccsd": lambda cfg: run_ccsd(n_basis=4, n_occ=1, iterations=2, config=cfg),
    "ccsd_t": lambda cfg: run_ccsd_t(n_basis=3, n_occ=1, sweeps=1, config=cfg),
    "fock_build": lambda cfg: run_fock_build(n_basis=5, n_occ=2, config=cfg),
}


def sanitized_config(workers):
    return SIPConfig(
        workers=workers, io_servers=1, segment_size=2, race_check="report"
    )


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_serial_and_parallel_agree_with_zero_conflicts(name):
    driver = DRIVERS[name]
    values = {}
    for workers in WORKER_COUNTS:
        out = driver(sanitized_config(workers))
        # every configuration reproduces the numpy reference
        assert out.error < TOLERANCE, (name, workers, out.error)
        report = out.result.sanitizer_report
        assert report is not None
        assert report.ok, (name, workers, report.render())
        assert report.accesses_recorded > 0, (name, workers)
        values[workers] = np.asarray(out.value)
    # serial reference vs parallel runs: identical to tight tolerance
    serial = values[WORKER_COUNTS[0]]
    for workers in WORKER_COUNTS[1:]:
        diff = float(np.max(np.abs(values[workers] - serial)))
        assert diff < TOLERANCE, (name, workers, diff)


def test_checkpoint_demo_differential():
    for workers in WORKER_COUNTS:
        first, second = run_checkpoint_demo(
            n_basis=4, config_factory=lambda w=workers: sanitized_config(w)
        )
        for out in (first, second):
            assert out.error < TOLERANCE, (workers, out.error)
            report = out.result.sanitizer_report
            assert report is not None and report.ok, (workers, report.render())
