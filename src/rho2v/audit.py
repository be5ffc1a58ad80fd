"""Variational cross-energy audit on exactly solvable one-electron systems.

For a single nucleus of charge Z the ground state is psi = sqrt(Z^3/pi)
exp(-Z r) with energy -Z^2/2, so every ingredient of the uniqueness
argument's inequality chain has a closed form:

    ground energies          E_a = <psi_a | T + v_a | psi_a>
    cross energies           <psi_b | T + v_a | psi_b>
    difference integrals     int (v_1 - v_2) rho

together with the identity cross = E_own + difference-integral that links
them (a system's ground energy is its own cross energy).
Cross energies and difference integrals are closed-form frame attractions
(rho2v.radial: incomplete gamma functions and Newton's shell theorem), for
concentric and displaced centers alike.  Constant
potential shifts are carried as an explicit tagged offset so that "equal
up to an additive constant" is testable exactly.  The audit classifies
each pair into the four-way case split (I: same state, II: all different,
III: structurally impossible, IV: same density under genuinely different
potentials) and, in case IV, cross-checks the cusp machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityModel, NuclearFrame, hydrogenic_model, total_integral
from .errors import NodeEncountered
from .inversion import IncompatibilityVerdict, incompatibility_check
from .radial import frame_attraction

__all__ = [
    "ExponentialWavefunction",
    "OneElectronSystem",
    "PotentialTable",
    "HKAuditReport",
    "potential_from_wavefunction",
    "audit_pair",
]

# max-norm tolerance for "equal" wavefunctions, densities and charges
AUDIT_TOL = 1e-9
# seed grid points per axis of the case-IV cusp cross-check
CUSP_CHECK_SEEDS = 5


@dataclass(frozen=True)
class ExponentialWavefunction:
    """psi(r) = amplitude * exp(-decay * r); hydrogenic for decay = Z."""

    decay: float
    amplitude: float = 1.0

    def value(self, r):
        return self.amplitude * np.exp(-self.decay * np.asarray(r, dtype=float))

    def kinetic_ratio(self, r):
        """(T psi)/psi with T = -(1/2) laplacian, away from r = 0."""
        r = np.asarray(r, dtype=float)
        return -0.5 * (self.decay**2 - 2.0 * self.decay / r)

    @classmethod
    def hydrogenic(cls, z: float) -> "ExponentialWavefunction":
        return cls(decay=z, amplitude=math.sqrt(z**3 / math.pi))


@dataclass(frozen=True)
class OneElectronSystem:
    """Single Coulomb center with its exact one-electron ground state.

    offset is a tagged additive constant on the potential; it shifts the
    energy by exactly offset without touching the wavefunction.
    """

    charge: float
    center: tuple = (0.0, 0.0, 0.0)
    offset: float = 0.0

    def __post_init__(self):
        if self.charge <= 0.0:
            raise ValueError(f"charge must be > 0, got {self.charge}")

    @property
    def frame(self) -> NuclearFrame:
        return NuclearFrame(np.asarray(self.center, dtype=float).reshape(1, 3), np.array([self.charge]))

    @property
    def wavefunction(self) -> ExponentialWavefunction:
        return ExponentialWavefunction.hydrogenic(self.charge)

    @property
    def density(self) -> DensityModel:
        return hydrogenic_model(self.charge, center=self.center)

    @property
    def energy(self) -> float:
        return -0.5 * self.charge**2 + self.offset


def _cross_energy(charge: float, total: float, attraction: float, offset: float) -> float:
    """<psi_A | T + v_B | psi_A> from int rho_A and A's attraction to B's frame;
    for concentric hydrogenic pairs Z_A^2/2 - Z_B*Z_A (plus B's offset)."""
    # <T> = (1/2) int |psi'|^2 d^3x = (Z^2/2) int psi^2 d^3x, as psi' = -Z psi
    return 0.5 * charge**2 * total + attraction + offset


def _difference_integral(attraction1, attraction2, total, offset1, offset2) -> float:
    """int [v1(x) - v2(x)] rho(x) d^3x from rho's attractions to the two frames
    and int rho, offsets contributing (c1-c2)*N."""
    return attraction1 - attraction2 + (offset1 - offset2) * total


@dataclass(frozen=True)
class PotentialTable:
    """Potential recovered from a wavefunction, sampled on a radial grid."""

    radii: np.ndarray
    values: np.ndarray
    energy: float


def potential_from_wavefunction(psi, energy: float) -> PotentialTable:
    """Invert T psi + v psi = E psi to v(r) = E - (T psi)(r)/psi(r).

    Works for any nodeless positive radial wavefunction with an analytic
    kinetic ratio; the potential need not be Coulombic.  It is sampled at 64
    radii spaced geometrically from 0.01 to 10 bohr.  Raises NodeEncountered
    when psi is not strictly positive on that grid.
    """
    radii = np.geomspace(1e-2, 10.0, 64)
    vals = psi.value(radii)
    if np.any(vals <= 0.0):
        bad = radii[np.argmax(vals <= 0.0)]
        raise NodeEncountered(f"wavefunction is non-positive at r = {bad:g}")
    return PotentialTable(radii=radii, values=energy - psi.kinetic_ratio(radii), energy=energy)


@dataclass(frozen=True)
class HKAuditReport:
    """All energies, integrals, verdicts, and the case label for one pair."""

    e1: float
    e2: float
    cross12: float
    cross21: float
    diff_integral_rho2: float
    diff_integral_rho1: float
    strict1: bool
    strict2: bool
    wavefunctions_equal: bool
    densities_equal: bool
    potentials_equal_mod_const: bool
    identity_residual_1: float
    identity_residual_2: float
    case: str
    notes: tuple
    cusp_verdict: IncompatibilityVerdict | None = None


_RADIAL_GRID = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 128)])


def _concentric(a: OneElectronSystem, b: OneElectronSystem) -> bool:
    return bool(
        np.linalg.norm(np.asarray(a.center, dtype=float) - np.asarray(b.center, dtype=float)) <= 1e-9
    )


def audit_pair(system1: OneElectronSystem, system2: OneElectronSystem, tol: float = AUDIT_TOL) -> HKAuditReport:
    """Assemble the full inequality audit for a pair of one-electron systems.

    cross12 is <psi_2|H_1|psi_2> and cross21 is <psi_1|H_2|psi_1>; both are
    tied back to the ground energies through the difference integrals, whose
    residuals are recorded.  The case label follows the four-way split; a
    case IV finding triggers the cusp-machinery cross-check on the two
    densities.  On the probe grid wavefunctions are equal within tol and
    densities within tol * max(1, max(psi1 + psi2)), psi's scale, as
    rho1 - rho2 = (psi1 - psi2)(psi1 + psi2): equal wavefunctions cannot
    carry unequal densities, and the gate is never tighter than tol.
    """
    e1 = system1.energy
    e2 = system2.energy
    # each density, frame and integral once: two totals, four attractions
    rho1, rho2 = system1.density, system2.density
    frame1, frame2 = system1.frame, system2.frame
    n1, n2 = total_integral(rho1), total_integral(rho2)
    a11, a12 = frame_attraction(rho1, frame1), frame_attraction(rho1, frame2)
    a21, a22 = frame_attraction(rho2, frame1), frame_attraction(rho2, frame2)
    o1, o2 = system1.offset, system2.offset
    cross12 = _cross_energy(system2.charge, n2, a21, o1)
    cross21 = _cross_energy(system1.charge, n1, a12, o2)
    d_rho2 = _difference_integral(a21, a22, n2, o1, o2)
    d_rho1 = _difference_integral(a11, a12, n1, o1, o2)

    concentric = _concentric(system1, system2)
    if concentric:
        psi1 = system1.wavefunction.value(_RADIAL_GRID)
        psi2 = system2.wavefunction.value(_RADIAL_GRID)
        rho1_vals = psi1 * psi1
        rho2_vals = psi2 * psi2
        psi_eq = bool(np.max(np.abs(psi1 - psi2)) <= tol)
        rho_eq = bool(np.max(np.abs(rho1_vals - rho2_vals)) <= tol * max(1.0, float(np.max(psi1 + psi2))))
        pot_eq = abs(system1.charge - system2.charge) <= tol
    else:
        psi_eq = rho_eq = pot_eq = False

    notes = []
    cusp_check = None
    # equal densities under different potentials is case IV whatever the
    # wavefunctions say: at a loose tol they can pass as equal as well
    if rho_eq and not pot_eq:
        case = "IV"
        cusp_check = incompatibility_check(rho1, rho2, seeds_per_axis=CUSP_CHECK_SEEDS)
        notes.append(
            "equal densities under potentials differing beyond a constant; "
            "cusp reconstruction cross-check attached"
        )
    elif psi_eq and rho_eq:
        case = "I"
        if abs(o1 - o2) > 0.0:
            notes.append(
                "potentials differ by a pure constant; the energy gap equals "
                "that constant times the electron count"
            )
    elif psi_eq and not rho_eq:
        case = "III"
        notes.append(
            "structurally impossible: a wavefunction determines its density "
            "uniquely, so equal wavefunctions cannot carry different densities"
        )
    elif not rho_eq:
        case = "II"
    else:
        case = "I"
        notes.append(
            "densities and potentials agree but the wavefunctions differ "
            "numerically (sign artifact); treated as the same state"
        )

    # strict variational gaps, with an equality band so that identical
    # systems (gap exactly zero in exact arithmetic) are not promoted to
    # "strict" by rounding
    band1 = 1e-10 * max(1.0, abs(e1))
    band2 = 1e-10 * max(1.0, abs(e2))

    return HKAuditReport(
        e1=e1,
        e2=e2,
        cross12=cross12,
        cross21=cross21,
        diff_integral_rho2=d_rho2,
        diff_integral_rho1=d_rho1,
        strict1=bool(cross12 - e1 > band1),
        strict2=bool(cross21 - e2 > band2),
        wavefunctions_equal=psi_eq,
        densities_equal=rho_eq,
        potentials_equal_mod_const=pot_eq,
        identity_residual_1=abs(cross12 - (e2 + d_rho2)),
        identity_residual_2=abs(cross21 - (e1 - d_rho1)),
        case=case,
        notes=tuple(notes),
        cusp_verdict=cusp_check,
    )
