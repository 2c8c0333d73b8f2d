"""The five workloads: what runs, on which inputs, and how it is checked.

Two programs at two extremes of the stack, each on both execution
backends, plus one memory-starved variant:

* CCSD on 128-byte blocks executes ~59 k instructions whose numpy
  kernels are a small share of host time: interpreter dispatch, operand
  resolution, the event heap, cache and block engine do the work.
* The paper's Section IV-D contraction on 307 KB blocks executes ~5 k
  instructions and spends its time inside the kernels.

Every optimisation of one layer therefore has a workload that
exercises it and one that bypasses it (prediction there: no change).
Inputs are synthetic integrals generated from the seed; the program
under test receives nothing else.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro import api
from repro.chem import (
    ao_to_mo,
    ccsd,
    make_integrals,
    n_occ_spin,
    rhf,
    spin_orbital_eri,
)
from repro.programs import library, supers
from repro.programs.ccsd_sial import CCSD_SIAL

#: program name -> SIAL source text
SOURCES = {"ccsd": CCSD_SIAL, "contract": library.PAPER_CONTRACTION}

#: numpy reference tolerance for every workload's result
TOLERANCE = 1e-10

#: the config every workload shares; everything not named here or in a
#: workload's own ``config`` stays at the SIPConfig default
BASE_CONFIG = {"workers": 2, "io_servers": 1, "opt_level": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    program: str  # "ccsd" | "contract"
    size: dict
    toy_size: dict
    config: dict
    toy_config: dict = field(default_factory=dict)
    #: timed repeats of the one-command run (the driver mode is timed
    #: by --seconds instead)
    repeats: int = 5
    #: name of the simulator twin an mp workload must equal bitwise
    pair: Optional[str] = None

    @property
    def execution(self) -> str:
        return self.config.get("execution", "sim")

    def resolved(self, toy: bool) -> tuple[dict, dict]:
        """(size, config dict) at full or toy scale."""
        size = self.toy_size if toy else self.size
        config = {**BASE_CONFIG, **self.config, **(self.toy_config if toy else {})}
        return size, config


_CCSD = {"n_basis": 6, "n_occ": 2, "iterations": 1, "segment_size": 2}
_CCSD_TOY = {"n_basis": 4, "n_occ": 1, "iterations": 1, "segment_size": 2}
_CONTRACT = {"n_basis": 56, "n_occ": 28, "segment_size": 14}
_CONTRACT_TOY = {"n_basis": 8, "n_occ": 4, "segment_size": 4}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ccsd_sim",
            why="59k instructions on 128-byte blocks: dispatch, operand resolve, "
            "event heap, cache and block engine do ~85% of the work, kernels ~15%",
            program="ccsd",
            size=_CCSD,
            toy_size=_CCSD_TOY,
            config={"execution": "sim"},
            repeats=9,
        ),
        Workload(
            name="ccsd_mp",
            why="same program over real processes: ~14k pickled batched control "
            "frames with inline payloads isolate pipe, pickle and per-rank "
            "event-loop cost",
            program="ccsd",
            size=_CCSD,
            toy_size=_CCSD_TOY,
            config={"execution": "mp"},
            repeats=7,
            pair="ccsd_sim",
        ),
        Workload(
            name="ccsd_spill",
            why="half the unconstrained memory with spill on: cache, block engine "
            "and memory manager run their eviction, spill and fault-in paths, "
            "which ccsd_sim never takes",
            program="ccsd",
            size=_CCSD,
            toy_size=_CCSD_TOY,
            # half of the unconstrained per-worker peak (mem_peak_bytes:
            # 75264 B at full size, 20128 B at toy size)
            config={"execution": "sim", "memory_per_worker": 37632, "spill": True},
            toy_config={"memory_per_worker": 10064},
            repeats=7,
        ),
        Workload(
            name="contract_sim",
            why="kernel-bound: 4.9k instructions on 307 KB blocks; bypasses every "
            "dispatch, heap and transport optimisation and exercises plan-cache, "
            "copy-on-write and kernel changes",
            program="contract",
            size=_CONTRACT,
            toy_size=_CONTRACT_TOY,
            config={"execution": "sim"},
            repeats=25,
        ),
        Workload(
            name="contract_mp",
            why="large payloads through the shm slab arena with true 2-core "
            "parallelism; fork, handshake and merge start-up are a visible share "
            "here and nowhere else",
            program="contract",
            size=_CONTRACT,
            toy_size=_CONTRACT_TOY,
            config={"execution": "mp"},
            repeats=25,
            pair="contract_sim",
        ),
    )
}


@dataclass
class Inputs:
    """Everything one run needs, generated from the seed."""

    source: str
    symbolics: dict[str, float]
    #: SIPConfig fields that carry data: inputs, integral_source, ...
    data: dict[str, Any]
    #: ("scalar" | "array", name) of the value checked against numpy
    result: tuple[str, str]
    reference: Any


def _ccsd_inputs(size: dict, seed: int) -> Inputs:
    n_basis, n_occ, iterations = size["n_basis"], size["n_occ"], size["iterations"]
    ints = make_integrals(n_basis, seed=seed)
    scf = rhf(ints.h, ints.eri, n_occ)
    eri_so = spin_orbital_eri(ao_to_mo(ints.eri, scf.mo_coeff))
    eps = np.repeat(scf.mo_energy, 2)
    no = n_occ_spin(n_occ)
    nso = 2 * n_basis
    spaces = {"O": slice(0, no), "V": slice(no, nso)}
    arrays = (
        "OOOO", "OOOV", "OOVO", "OOVV", "OVOV", "OVVO",
        "OVVV", "OVOO", "VOVV", "VVVO", "VVVV",
    )  # fmt: skip
    o, v = spaces["O"], spaces["V"]
    reference = ccsd(eps, eri_so, no, max_iterations=iterations, tolerance=0.0)
    return Inputs(
        source=SOURCES["ccsd"],
        symbolics={"no": no, "nv": nso - no, "niter": iterations},
        data={
            "inputs": {
                name: np.ascontiguousarray(eri_so[tuple(spaces[c] for c in name)])
                for name in arrays
            },
            "superinstructions": {
                "cc_denominator4": supers.cc_denominator(eps[o], eps[v]),
                "cc_denominator2": supers.make_energy_denominator(
                    [(eps[o], +1.0), (eps[v], -1.0)]
                ),
            },
        },
        result=("scalar", "ecc"),
        reference=reference.history[iterations],
    )


def _contract_inputs(size: dict, seed: int) -> Inputs:
    n_basis, n_occ = size["n_basis"], size["n_occ"]
    ints = make_integrals(n_basis, seed=seed)
    t = np.random.default_rng(seed).standard_normal((n_basis, n_basis, n_occ, n_occ))
    return Inputs(
        source=SOURCES["contract"],
        symbolics={"norb": n_basis, "nocc": n_occ},
        data={"inputs": {"T": t}, "integral_source": ints.eri_block},
        result=("array", "R"),
        reference=np.einsum("mnls,lsij->mnij", ints.eri, t, optimize=True),
    )


_GENERATORS = {"ccsd": _ccsd_inputs, "contract": _contract_inputs}


def make_inputs(workload: Workload, seed: int, toy: bool = False) -> Inputs:
    size, _ = workload.resolved(toy)
    return _GENERATORS[workload.program](size, seed)


def build_config(
    workload: Workload, inputs: Inputs, toy: bool = False
) -> tuple[api.SIPConfig, list[str]]:
    """A fresh SIPConfig plus the keys it no longer has.

    ROADMAP item 3 plans to delete config switches; filtering through
    ``dataclasses.fields`` keeps the benchmark running across that, and
    the dropped keys are listed in the report so a silently inert
    setting is visible.
    """
    size, wanted = workload.resolved(toy)
    wanted = {**wanted, "segment_size": size["segment_size"], **inputs.data}
    known = {f.name for f in dataclasses.fields(api.SIPConfig)}
    dropped = sorted(k for k in wanted if k not in known)
    return api.SIPConfig(**{k: v for k, v in wanted.items() if k in known}), dropped


def run_once(workload: Workload, inputs: Inputs, toy: bool = False):
    """The timed region: compile, then run on a fresh config."""
    config, _ = build_config(workload, inputs, toy)
    program = api.compile_sial(inputs.source)
    return api.run(program, config, inputs.symbolics)


def result_value(inputs: Inputs, result) -> Any:
    kind, name = inputs.result
    return result.scalar(name) if kind == "scalar" else result.array(name)


def fingerprint(result, value: Any) -> str:
    """Digest of every scalar and the checked value, for bitwise checks."""
    h = hashlib.sha256()
    for name in sorted(result.scalars):
        h.update(name.encode())
        h.update(np.float64(result.scalars[name]).tobytes())
    h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def config_digest(workload: Workload, toy: bool = False) -> str:
    """Digest of what defines the workload besides the seed."""
    size, config = workload.resolved(toy)
    blob = json.dumps(
        {"size": size, "config": config, "source": SOURCES[workload.program]},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
