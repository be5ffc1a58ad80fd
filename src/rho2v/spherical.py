"""Spherical averages of the density and one-sided radial derivatives.

The average of rho over a sphere of radius r about a point x0,

    rho_av(x0; r) = (1/4pi) * integral rho(x0 + r*u) dOmega(u),

is evaluated by Lebedev quadrature.  Averaging kills all odd angular terms
of smooth contributions, so about a cusped center the one-sided expansion
is rho_av(r) = rho(x0) + a1*r + a2*r^2 + ... where a1 carries only the
cusped term's slope.  The limit derivative a1 is recovered from divided
differences on a geometrically shrinking radius ladder, accelerated by
Richardson extrapolation in integer powers of r with early stopping.  The
ladder's shells are evaluated a block of levels per density-kernel pass
(LADDER_BLOCKS), and each level's average is taken on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityModel, evaluate, evaluate_many
from .lebedev import lebedev_grid

__all__ = [
    "DEFAULT_ORDER",
    "TAU_CUSP",
    "RadialDerivativeEstimate",
    "spherical_average",
    "radial_derivative_at_center",
]

DEFAULT_ORDER = 194
# the Richardson ladder: first radius, shrink factor, level cap and stopping
# tolerance; fixed, and recorded under "radial_derivative" in every report
DEFAULT_R0 = 1e-2
DEFAULT_SHRINK = 0.5
DEFAULT_LEVELS = 20
DEFAULT_TOL = 1e-8

# levels per kernel pass of the ladder: the first block, then each next one.  On the
# benchmark workloads a ladder stops after 4-8 levels, most often 5, and 8 covers all
LADDER_BLOCKS = (5, 3)

# below this the center value gives a meaningless log-derivative
ZERO_VALUE_FLOOR = 1e-30
# a log-derivative below -TAU_CUSP marks a cusp: true nuclear cusps have
# |2 Z| >= 2 while smooth maxima extrapolate to ~1e-9, six orders below
TAU_CUSP = 1e-3


def spherical_average(model: DensityModel, center, radius: float, order: int = DEFAULT_ORDER) -> float:
    """Average of the density over the sphere |x - center| = radius."""
    if radius <= 0.0:
        raise ValueError(f"radius must be > 0, got {radius}")
    units, weights = lebedev_grid(order)
    c = np.asarray(center, dtype=float).reshape(3)
    values = evaluate_many(model, c[None, :] + radius * units)
    return float(np.dot(weights, values))


def _shell_averages(model: DensityModel, c: np.ndarray, order: int):
    """Yield (r_k, rho_av(c; r_k)) for each level k of the ladder.

    The shells are evaluated a block of levels per evaluate_many call, and
    each average is its own np.dot over its level's values, as in
    spherical_average, so the averages are the same bit for bit."""
    units, weights = lebedev_grid(order)
    radii = [DEFAULT_R0 * DEFAULT_SHRINK**k for k in range(DEFAULT_LEVELS)]
    lo, size = 0, LADDER_BLOCKS[0]
    while lo < DEFAULT_LEVELS:
        hi = min(lo + size, DEFAULT_LEVELS)
        values = evaluate_many(model, (c + np.multiply.outer(radii[lo:hi], units)).reshape(-1, 3))
        for k, level in zip(range(lo, hi), values.reshape(hi - lo, -1)):
            yield radii[k], float(np.dot(weights, level))
        lo, size = hi, LADDER_BLOCKS[1]


@dataclass(frozen=True)
class RadialDerivativeEstimate:
    """One-sided derivative of rho_av at r -> 0+ about a fixed center.

    uncertainty is the smallest step between consecutive diagonal entries,
    quoted on the log-derivative (divided by rho(center)), which makes both
    the convergence test and the estimate invariant under scaling of the
    density.  It estimates the error of log_derivative and does not bound
    it: on random 2-4-center frames the error exceeded it in 3 of 537
    readings, at worst 3.9e-12 against 1.7e-12.  center_value is the
    rho(center) that the ladder divided by.  Where it is at most 1e-30 no
    ladder runs: derivative and log_derivative are 0.0, uncertainty is None,
    and the estimate did not converge and used 0 levels.
    """

    derivative: float
    log_derivative: float
    uncertainty: float | None
    converged: bool
    levels_used: int
    center_value: float

    @property
    def is_cusp(self) -> bool:
        """A cusp: a log-derivative below -TAU_CUSP from a ladder that converged."""
        return self.converged and self.log_derivative < -TAU_CUSP


def radial_derivative_at_center(model: DensityModel, center, order: int = DEFAULT_ORDER) -> RadialDerivativeEstimate:
    """Estimate d/dr rho_av(center; r) at r -> 0+ by Richardson extrapolation.

    Divided differences d_k = (rho_av(r_k) - rho(center)) / r_k satisfy
    d_k = a1 + a2*r_k + a3*r_k^2 + ..., so with r_k = r0 * s^k (r0 =
    DEFAULT_R0, s = DEFAULT_SHRINK, at most DEFAULT_LEVELS levels) successive
    powers of r are eliminated by

        T[k][j] = (T[k][j-1] - s^j * T[k-1][j-1]) / (1 - s^j).

    Stops as soon as consecutive diagonal entries agree to tol = DEFAULT_TOL
    relative to rho(center) (equivalently: the log-derivative moves by less
    than tol); early stopping also keeps the ladder away from the
    cancellation noise floor of the divided differences.  When the diagonal
    differences start growing instead (which happens once r_k shrinks to
    the scale of any uncertainty in the center position), the ladder stops
    and the best diagonal entry seen so far is returned.  If no pair of
    levels agrees to tol the best estimate is returned with converged=False
    rather than raising.

    Where rho(center) <= 1e-30 the log-derivative is numerically
    meaningless, and the estimate is a reading of none (see
    RadialDerivativeEstimate).
    """
    c = np.asarray(center, dtype=float).reshape(3)
    # rho(center) takes a one-point pass of its own: in a larger one it can round
    # differently (see density.kernel_pass)
    rho0 = evaluate(model, c)
    if rho0 <= ZERO_VALUE_FLOOR:
        return RadialDerivativeEstimate(0.0, 0.0, None, False, 0, rho0)

    s = DEFAULT_SHRINK
    tableau: list[list[float]] = []
    best = 0.0
    best_uncertainty = np.inf
    converged = False
    rising = 0
    prev_diff = np.inf
    k = 0
    for k, (r_k, average) in enumerate(_shell_averages(model, c, order)):
        d_k = (average - rho0) / r_k
        row = [d_k]
        for j in range(1, k + 1):
            sj = s**j
            row.append((row[j - 1] - sj * tableau[k - 1][j - 1]) / (1.0 - sj))
        tableau.append(row)
        if k == 0:
            best = row[-1]
            continue
        # compared on the log-derivative scale so that the stopping level,
        # and hence the estimate, is exactly invariant under rho -> c*rho
        diff = abs(tableau[k][k] - tableau[k - 1][k - 1]) / rho0
        if diff < best_uncertainty:
            best = tableau[k][k]
            best_uncertainty = diff
        if diff <= DEFAULT_TOL:
            converged = True
            break
        # guard against the divided differences blowing up once the ladder
        # radii reach the scale of the center's position uncertainty (the
        # anchor value rho(center) then no longer matches the profile limit)
        rising = rising + 1 if diff > prev_diff else 0
        prev_diff = diff
        if k >= 3 and rising >= 2:
            break

    return RadialDerivativeEstimate(
        derivative=best,
        log_derivative=best / rho0,
        uncertainty=float(best_uncertainty),
        converged=converged,
        levels_used=k + 1,
        center_value=rho0,
    )
