"""Molecular systems from the paper's evaluation.

The paper benchmarks ACES III on specific molecules (Section VI-C).
We cannot run real Gaussian-basis integrals, so each molecule is
described by the two quantities that determine the *tensor shapes* and
therefore the computational structure: the number of single-particle
basis functions ``n_basis`` (the paper's ``n``) and the number of
occupied spatial orbitals ``n_occ`` (electron pairs; the paper's
``N/2``).  These drive the coarse performance model.

Basis counts are estimated from standard double-zeta basis sizes
(14 functions per first-row heavy atom, 18 per S, 5 per H), except the
diamond nanocrystal where the paper states the count (2944 functions of
aug-cc-pVTZ).  Electron counts are exact for the given formulas.

``tiny(...)`` builds scaled-down molecules whose synthetic integrals
run in real mode on one machine; the structure (occ/virt split, array
kinds) is identical.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Molecule",
    "tiny",
    "LUCIFERIN",
    "WATER_CLUSTER_21",
    "RDX",
    "HMX",
    "CYTOSINE_OH",
    "DIAMOND_NV",
    "PAPER_MOLECULES",
]


@dataclass(frozen=True)
class Molecule:
    """A molecular system, reduced to its tensor dimensions."""

    name: str
    formula: str
    n_basis: int  # paper's n: single-particle basis functions
    n_electrons: int
    uhf: bool = False  # open shell -> UHF reference (Fig. 7 workload)

    @property
    def n_occ(self) -> int:
        """Occupied spatial orbitals (closed shell: electron pairs)."""
        return (self.n_electrons + 1) // 2

    @property
    def n_virt(self) -> int:
        return self.n_basis - self.n_occ


def tiny(n_basis: int = 8, n_occ: int = 3, name: str = "tiny") -> Molecule:
    """A synthetic test molecule small enough for real-mode execution."""
    if n_occ >= n_basis:
        raise ValueError("need at least one virtual orbital")
    return Molecule(
        name=name, formula="Xn", n_basis=n_basis, n_electrons=2 * n_occ
    )


# Fig. 2: RHF CCSD on a Sun/Opteron cluster (aug-cc-pVDZ-scale basis:
# ~35 functions per heavy atom, ~9 per H)
LUCIFERIN = Molecule("luciferin", "C11H8O3S2N2", n_basis=570, n_electrons=144)

# Fig. 3: RHF CCSD on Cray XT4/XT5 (cc-pVDZ-scale)
WATER_CLUSTER_21 = Molecule(
    "water-cluster-21", "(H2O)21H+", n_basis=509, n_electrons=210
)

# Figs. 4-5: RHF CCSD / CCSD(T) on jaguar; 10k-80k-core runs imply
# triple-zeta-scale bases (~46 functions per heavy atom, ~23 per H)
RDX = Molecule("rdx", "C3H6N6O6", n_basis=828, n_electrons=114)
HMX = Molecule("hmx", "C4H8N8O8", n_basis=1104, n_electrons=152)

# Fig. 7: UHF MP2 gradient vs NWChem on the SGI Altix
CYTOSINE_OH = Molecule(
    "cytosine-oh", "C4H6N3O2", n_basis=156, n_electrons=67, uhf=True
)

# Fig. 6: Fock matrix build; the paper gives the basis size explicitly
DIAMOND_NV = Molecule("diamond-nv", "C42H42N", n_basis=2944, n_electrons=301)

PAPER_MOLECULES: dict[str, Molecule] = {
    m.name: m
    for m in (LUCIFERIN, WATER_CLUSTER_21, RDX, HMX, CYTOSINE_OH, DIAMOND_NV)
}
