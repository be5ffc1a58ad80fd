"""Reconstruct the Coulomb external potential of a density from its cusps.

The cusp maxima of the density mark the nuclear positions; at each one the
one-sided slope of the spherically averaged density fixes the charge via

    Z = -(1/2) * d/dr log rho_av(r) |_{r -> 0+}.

Positions plus charges assemble the point-charge potential
v(x) = -sum_a Z_a / |x - R_a|.  Smooth (non-nuclear) critical points carry
no such signature and are kept aside as skipped points; a density with no
cusp at all (e.g. any all-Gaussian mixture) admits no reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityModel, NuclearFrame, evaluate_many
from .errors import NoCuspsFound
from .lebedev import lebedev_grid
from .spherical import DEFAULT_ORDER, radial_derivative_at_center
from .topology import DEFAULT_SEEDS, find_critical_points

__all__ = [
    "MATCH_GATE",
    "CUSP_TOL",
    "CenterMatch",
    "ReconstructionReport",
    "CuspCheck",
    "IncompatibilityVerdict",
    "reconstruct_potential",
    "verify_cusp_conditions",
    "incompatibility_check",
]

# nearest-neighbor assignment gate against ground truth, bohr
MATCH_GATE = 0.5
# relative residual allowed between the two sides of the cusp relation
CUSP_TOL = 1e-2
# max |rho1 - rho2| on the probe grid for "equal" densities
DENSITY_TOL = 1e-6
# per matched center, the largest position (bohr) and charge (e) differences
# at which two reconstructed frames count as identical
IDENTICAL_POSITION_TOL = 1e-3
IDENTICAL_CHARGE_TOL = 1e-2

_PROBE_RADII = (0.1, 0.5, 1.0, 2.0, 4.0)
_PROBE_ORDER = 26


@dataclass(frozen=True)
class CenterMatch:
    """Estimated center paired with its nearest ground-truth center."""

    estimated_index: int
    true_index: int
    position_error: float
    charge_error: float


@dataclass(frozen=True)
class ReconstructionReport:
    """Frame estimated from the cusps of a density.

    charges are reported raw (not rounded); when snap_charges was requested
    snapped_charges/snap_distances carry the rounded values and how far the
    raw estimates sat from them.  skipped_points are the critical points
    that are not cusps: the smooth ones, which have no cusp to read a charge
    from, and any whose cusp reading did not converge.
    """

    cusp_points: tuple
    skipped_points: tuple
    positions: np.ndarray
    charges: np.ndarray
    snapped_charges: np.ndarray | None = None
    snap_distances: np.ndarray | None = None
    matches: tuple = ()
    spurious_indices: tuple = ()
    missed_true_indices: tuple = ()

    @property
    def estimated_frame(self) -> NuclearFrame:
        charges = self.snapped_charges if self.snapped_charges is not None else self.charges
        return NuclearFrame(self.positions, charges)

    def potential(self, point):
        """Reconstructed Coulomb potential -sum_a Z_a/|x - R_a|."""
        return self.estimated_frame.potential(point)


def _match_centers(positions, charges, frame: NuclearFrame):
    """Greedy nearest-neighbor assignment within MATCH_GATE."""
    pairs = sorted(
        (float(np.linalg.norm(positions[i] - frame.positions[j])), i, j)
        for i in range(len(charges))
        for j in range(len(frame))
    )
    used_est: set[int] = set()
    used_true: set[int] = set()
    matches = []
    for dist, i, j in pairs:
        if dist > MATCH_GATE:
            break
        if i in used_est or j in used_true:
            continue
        used_est.add(i)
        used_true.add(j)
        matches.append(
            CenterMatch(
                estimated_index=i,
                true_index=j,
                position_error=dist,
                charge_error=abs(float(charges[i]) - float(frame.charges[j])),
            )
        )
    matches.sort(key=lambda m: m.estimated_index)
    spurious = tuple(i for i in range(len(charges)) if i not in used_est)
    missed = tuple(j for j in range(len(frame)) if j not in used_true)
    return tuple(matches), spurious, missed


def reconstruct_potential(
    model: DensityModel,
    seeds_per_axis: int = DEFAULT_SEEDS,
    snap_charges: bool = False,
    order: int = DEFAULT_ORDER,
) -> ReconstructionReport:
    """Locate cusps, read off charges, and assemble the Coulomb frame.

    The cusp search runs on a seeds_per_axis^3 grid and reads every charge
    off a spherical average of Lebedev order `order`.  Raises NoCuspsFound
    (carrying the critical points that were located) when the
    density has no cusp maxima: a cusp-free density admits no Coulomb
    reconstruction.
    """
    points = find_critical_points(model, seeds_per_axis, order)
    cusps = [p for p in points if p.is_cusp]
    if not cusps:
        raise NoCuspsFound(
            "density has no cusp maxima; cannot reconstruct a Coulomb potential",
            critical_points=points,
        )

    positions = np.array([p.position for p in cusps])
    charges = np.array([-0.5 * p.log_derivative for p in cusps])

    snapped = distances = None
    if snap_charges:
        snapped = np.maximum(np.round(charges), 1.0)
        distances = np.abs(charges - snapped)

    matches: tuple = ()
    spurious: tuple = ()
    missed: tuple = ()
    if model.frame is not None:
        matches, spurious, missed = _match_centers(positions, charges, model.frame)

    return ReconstructionReport(
        cusp_points=tuple(cusps),
        skipped_points=tuple(p for p in points if not p.is_cusp),
        positions=positions,
        charges=charges,
        snapped_charges=snapped,
        snap_distances=distances,
        matches=matches,
        spurious_indices=spurious,
        missed_true_indices=missed,
    )


@dataclass(frozen=True)
class CuspCheck:
    """The cusp relation at one claimed nucleus: lhs_slope = rho_av'(R_a) against
    rhs_slope = -2 Z_a rho(R_a).  passed needs a cusp there as well, read as
    the search reads one (RadialDerivativeEstimate.is_cusp): lhs_slope is the
    ladder's best estimate either way, so a check whose ladder did not
    converge (ladder_converged False) fails whatever its residual.  The
    ladder fields are those of CriticalPoint: how many levels it ran and its
    uncertainty estimate on the log-derivative, which estimates the error and
    does not bound it.  Where rho(R_a) is at most 1e-30 no ladder runs:
    lhs_slope, residual and the uncertainty estimate are None,
    ladder_converged is False, ladder_levels_used is 0 and the check fails."""

    center: np.ndarray
    charge: float
    lhs_slope: float | None
    rhs_slope: float
    residual: float | None
    ladder_converged: bool
    ladder_levels_used: int
    log_derivative_uncertainty_estimate: float | None
    passed: bool


def verify_cusp_conditions(
    model: DensityModel,
    frame: NuclearFrame,
    tol: float = CUSP_TOL,
    order: int = DEFAULT_ORDER,
) -> tuple:
    """Check rho_av'(R_a) = -2 Z_a rho(R_a) at every claimed nucleus: one
    CuspCheck per center, in frame order.  A center passes where the density
    has a cusp, read by a converged ladder, and the two slopes agree within
    tol * max(1, |rhs|).

    rho_av is averaged at Lebedev order `order`.  Failures are recorded in
    the checks, never raised.
    """
    if len(frame) == 0:
        raise ValueError("frame must contain at least one center")
    checks = []
    for pos, z in zip(frame.positions, frame.charges):
        estimate = radial_derivative_at_center(model, pos, order=order)
        rhs = -2.0 * float(z) * estimate.center_value
        # no ladder ran where rho(R_a) <= 1e-30: no density there to have a cusp
        lhs = estimate.derivative if estimate.levels_used else None
        residual = None if lhs is None else abs(lhs - rhs)
        checks.append(
            CuspCheck(
                center=pos.copy(),
                charge=float(z),
                lhs_slope=lhs,
                rhs_slope=rhs,
                residual=residual,
                ladder_converged=estimate.converged,
                ladder_levels_used=estimate.levels_used,
                log_derivative_uncertainty_estimate=estimate.uncertainty,
                passed=estimate.is_cusp and residual <= tol * max(1.0, abs(rhs)),
            )
        )
    return tuple(checks)


@dataclass(frozen=True)
class IncompatibilityVerdict:
    """Outcome of comparing two densities through their reconstructions.

    case uses the four-way split of the uniqueness argument: II when the
    densities differ (distinct systems), IV when they agree, in which case
    the reconstructed potentials are necessarily identical and the premise
    that the external potentials differ by more than a constant collapses.
    """

    densities_equal: bool
    max_density_difference: float
    case: str
    message: str
    report1: ReconstructionReport | None
    report2: ReconstructionReport | None
    failure1: str | None
    failure2: str | None
    center_agreement: tuple = ()


def _reconstruct_or_fail(model: DensityModel, seeds_per_axis: int) -> tuple:
    """(report, None, detected maxima): the cusps and the smooth maxima; or,
    when the density has no cusp, (None, the failure message, the smooth
    critical points that were located)."""
    try:
        report = reconstruct_potential(model, seeds_per_axis)
    except NoCuspsFound as err:
        return None, str(err), [p.position for p in err.critical_points]
    maxima = [p.position for p in report.cusp_points]
    return report, None, maxima + [p.position for p in report.skipped_points if p.signature == -3]


def _probe_grid(centers) -> np.ndarray:
    units, _ = lebedev_grid(_PROBE_ORDER)
    shells = [np.asarray(c) + r * units for c in centers for r in _PROBE_RADII]
    return np.vstack(shells) if shells else np.zeros((0, 3))


def incompatibility_check(
    model1: DensityModel, model2: DensityModel, seeds_per_axis: int = DEFAULT_SEEDS
) -> IncompatibilityVerdict:
    """Compare densities on a probe grid, then compare reconstructed frames.

    The probe grid is the union of small Lebedev shells around every
    detected maximum of both models, which concentrates the comparison
    where either density is non-negligible; the densities are equal when
    they differ by at most DENSITY_TOL there.  A per-model reconstruction
    failure (NoCuspsFound) is recorded rather than raised.
    """
    (report1, failure1, maxima1), (report2, failure2, maxima2) = (
        _reconstruct_or_fail(model, seeds_per_axis) for model in (model1, model2)
    )
    probes = _probe_grid(maxima1 + maxima2)
    diff = np.abs(evaluate_many(model1, probes) - evaluate_many(model2, probes))
    max_diff = float(diff.max()) if len(diff) else 0.0
    densities_equal = max_diff <= DENSITY_TOL

    agreement: tuple = ()
    if densities_equal and report1 is not None and report2 is not None:
        matches, spurious, missed = _match_centers(report1.positions, report1.charges, report2.estimated_frame)
        agreement = matches
        identical = not spurious and not missed and all(
            m.position_error <= IDENTICAL_POSITION_TOL and m.charge_error <= IDENTICAL_CHARGE_TOL
            for m in matches
        )
        if identical:
            message = (
                "densities agree on the probe grid and the reconstructed Coulomb "
                "potentials are identical center by center; the premise that the "
                "two external potentials differ by more than an additive constant "
                "is contradicted"
            )
        else:
            message = (
                "densities agree on the probe grid but the reconstructed frames "
                "disagree beyond tolerance; inspect the per-center comparison"
            )
        case = "IV"
    elif densities_equal:
        case = "IV"
        message = (
            "densities agree on the probe grid; no cusp signature is available "
            "on at least one side, so the potentials cannot be compared"
        )
    else:
        case = "II"
        message = (
            "densities differ on the probe grid: distinct systems with distinct "
            "ground-state densities"
        )

    return IncompatibilityVerdict(
        densities_equal=densities_equal,
        max_density_difference=max_diff,
        case=case,
        message=message,
        report1=report1,
        report2=report2,
        failure1=failure1,
        failure2=failure2,
        center_agreement=agreement,
    )
