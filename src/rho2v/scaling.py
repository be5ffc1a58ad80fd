"""Monotone radial maps carrying one spherical density into another.

For spherical densities the deformation f solving the Jacobian relation

    rho_target(f(r)) * f(r)^2 * f'(r) = r^2 * rho_source(r)

is the unique monotone match of cumulative radial charges,

    Q_target(f(r)) = Q_source(r),    Q(r) = int_0^r 4 pi s^2 rho(s) ds,

which is what gets solved here, for all radii at once: brackets read from
one table of the target's charges on the grid and one safeguarded
Newton-bisection iteration from a log secant inside them, with one relative
stop rule, each calling the density callables on arrays; f' is then
recovered algebraically from the Jacobian relation.
Cumulative matching is unconditionally stable and monotone, unlike direct
integration of the nonlinear ODE.

In the upper tail Q saturates at N in floating point, so there f matches
the complement N - Q, which rho2v.radial keeps relatively accurate; that
keeps f at full relative precision across the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityModel, _term_values, hydrogenic_model, total_integral
from .errors import MassMismatch, NonMonotoneCumulative
from .radial import FOUR_PI, _moment

__all__ = [
    "RadialDensity",
    "LocalScalingMap",
    "default_grid",
    "solve_scaling_map",
    "transform_wavefunction",
]

MASS_TOL = 1e-10
Q_RESIDUAL_TARGET = 1e-12
# the default radial grid: GRID_POINTS radii spaced geometrically from
# GRID_MIN to GRID_MAX bohr (also the defaults of `rho2v lst`)
GRID_MIN = 1e-3
GRID_MAX = 20.0
GRID_POINTS = 256


def default_grid(r_min: float = GRID_MIN, r_max: float = GRID_MAX, points: int = GRID_POINTS) -> np.ndarray:
    return np.geomspace(r_min, r_max, points)


@dataclass(frozen=True)
class RadialDensity:
    """Spherical density with its cumulative charge profile.

    rho, cumulative, and complement are callables of r, scalar or array
    (the solver passes 1-d arrays);
    complement(r) = electron_count - cumulative(r) evaluated in a form that
    stays relatively accurate in the tail.
    """

    rho: object
    cumulative: object
    complement: object
    electron_count: float

    @classmethod
    def hydrogenic(cls, z: float) -> "RadialDensity":
        return cls.from_model(hydrogenic_model(z))

    @classmethod
    def from_model(cls, model: DensityModel) -> "RadialDensity":
        """Radial reduction of a concentric DensityModel (common center)."""
        if len(model.centers) != 1:
            raise ValueError("model must have a single common center to be spherical")
        t = model._arrays
        charge = _moment(FOUR_PI * t.c, t.a, t.b, t.n, 2)

        def summed(per_term):
            """r -> the sum over terms, in term order, of the rows of per_term(r), (T, P),
            shaped as r (0-d or 1-d)."""
            return lambda r: np.reshape(sum(per_term(np.asarray(r, dtype=float))), np.shape(r))

        return cls(
            rho=summed(lambda r: _term_values(t, np.broadcast_to(np.ravel(r), (len(t.c), np.size(r))))),
            cumulative=summed(lambda r: charge(r, complement=False)),
            complement=summed(lambda r: charge(r, complement=True)),
            electron_count=total_integral(model),
        )


def _source_charges(source: RadialDensity, r: np.ndarray):
    """(Q_source(r), N - Q_source(r), upper) where upper marks the radii matched
    on the complement: those whose source charge is above N/2."""
    q = np.asarray(source.cumulative(r), dtype=float)
    return q, np.asarray(source.complement(r), dtype=float), q > 0.5 * source.electron_count


def _residual(target: RadialDensity, x: np.ndarray, q, qc, upper) -> np.ndarray:
    """Q_target(x) - q, or (N - q) - (N - Q_target(x)) where upper; increasing in x.

    One callable call per representation."""
    out = np.empty(len(x))
    if upper.any():
        out[upper] = qc[upper] - np.asarray(target.complement(x[upper]), dtype=float)
    if not upper.all():
        low = ~upper
        out[low] = np.asarray(target.cumulative(x[low]), dtype=float) - q[low]
    return out


# the radii a bracket table grows by past its end, as multiples of that end
_DOUBLINGS = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0])
# and a cumulative table below its first positive radius r1: r1 2^(-8k),
# k = 128 ... 1, down to where Q underflows for every term that rises as x^3
# or faster
_BELOW_FIRST = 2.0 ** np.arange(-1024.0, 0.0, 8.0)


def _bracket(values_at, x: np.ndarray, v: np.ndarray, key: np.ndarray, complement: bool) -> tuple:
    """(lo, hi, h(lo), h(hi), start) for each root of h = values_at - key.

    h increases in x; v = values_at(x) is its table on increasing radii x
    from x[0] = 0, extended past x[-1] by doublings (eight a call, at most
    200) while a key is above it and, on the cumulative, below its first
    positive radius r1 by _BELOW_FIRST in one call when a positive key is
    below v(r1).  lo and hi are adjacent table radii with h(lo) < 0 <= h(hi),
    except where h(0) >= 0 or, after the last doubling, h(hi) < 0: the
    caller raises on both.  start is the secant of log|v| over log x inside
    the bracket (over x on the complement, whose log is near linear in the
    tail); it is the midpoint where the secant leaves the bracket or is not
    finite, as in a bracket from 0.
    """
    for _ in range(25):
        if v[-1] >= key.max():
            break
        more = x[-1] * _DOUBLINGS
        x, v = np.concatenate((x, more)), np.concatenate((v, values_at(more)))
    first = int(np.searchsorted(x, 0.0, side="right"))  # the index of r1
    if not complement and first < len(x) and np.any((0.0 < key) & (key < v[first])):
        less = x[first] * _BELOW_FIRST
        x = np.concatenate((x[:first], less, x[first:]))
        v = np.concatenate((v[:first], values_at(less), v[first:]))
    j = np.clip(np.searchsorted(v, key), 1, len(v) - 1)
    a, b, v_a, v_b = x[j - 1], x[j], v[j - 1], v[j]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u_a, u_b, u = np.log(np.abs(v_a)), np.log(np.abs(v_b)), np.log(np.abs(key))
        if complement:
            secant = b + (a - b) * (u - u_b) / (u_a - u_b)
        else:
            rise = (u_b - u_a) / np.log(b / a)
            secant = b * np.exp((u - u_b) / rise)
    start = np.where((a < secant) & (secant < b), secant, 0.5 * (a + b))
    return a, b, v_a - key, v_b - key, start


def _solve_radii(target: RadialDensity, r: np.ndarray, charges) -> np.ndarray:
    """Solve Q_target(f) = Q_source(r) for every radius of the 1-d array r at once,
    given the source charges (q, N - q, upper) at r.

    Each point matches on the cumulative, or on the complement where its
    source charge is above N/2; either way the residual h(x) increases in x
    with slope 4 pi x^2 rho_target(x).  The brackets come from a table of the
    target's charges at 0 and along r (its running maximum: r itself on an
    increasing grid), one call per representation: the cumulative at all of
    those radii, the complement from the last that holds at most N/2 on,
    each grown by _bracket where a root lies past or below it.  Every root
    lies between two adjacent table radii (one that is a table radius is
    exact) and starts at a log secant inside them; a masked Newton
    iteration that bisects when a step is not finite, leaves the bracket or
    is more than half the step before last ends it, each point once its step
    is at most 4 eps times its radius.
    """
    q, qc, upper = charges

    def h(x, idx):
        return _residual(target, x, q[idx], qc[idx], upper[idx])

    def slope(x):
        return 4.0 * math.pi * x * x * np.asarray(target.rho(x), dtype=float)

    def cumulative(x):
        return np.asarray(target.cumulative(x), dtype=float)

    def negated_complement(x):
        return -np.asarray(target.complement(x), dtype=float)

    points = np.arange(len(r))
    radii = np.concatenate(([0.0], np.maximum.accumulate(r)))
    q_table = cumulative(radii)
    lo, hi, h_lo, h_hi, start = (np.zeros(len(r)) for _ in range(5))
    low = points[~upper]
    if low.size:
        lo[low], hi[low], h_lo[low], h_hi[low], start[low] = _bracket(cumulative, radii, q_table, q[low], False)
    if upper.any():
        # the complement from the last radius that holds at most half the charge on
        half = max(int(np.searchsorted(q_table, 0.5 * target.electron_count, side="right")) - 1, 1)
        x = np.concatenate(([0.0], radii[half:]))
        c_table = negated_complement(x)
        up = points[upper]
        lo[up], hi[up], h_lo[up], h_hi[up], start[up] = _bracket(negated_complement, x, c_table, -qc[up], True)
    unmatched = ~(h_hi >= 0.0)
    if np.any(unmatched):
        raise NonMonotoneCumulative(
            f"target cumulative never reaches the source charge at r = {r[np.argmax(unmatched)]:g}"
        )
    if np.any(h_lo > 0.0):
        bad = r[np.argmax(h_lo > 0.0)]
        raise NonMonotoneCumulative(f"no bracket below r = {bad:g}; cumulative not increasing from 0")

    f = np.where(h_lo == 0.0, 0.0, np.where(h_hi == 0.0, hi, start))
    last_step = hi - lo
    step_before = last_step.copy()  # the step before last_step
    active = points[(h_lo != 0.0) & (h_hi != 0.0)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(200):
            if active.size == 0:
                break
            x, a, b = f[active], lo[active], hi[active]
            hx = h(x, active)
            below = hx < 0.0
            a, b = np.where(below, x, a), np.where(below, b, x)
            newton = hx / slope(x)
            x_new = x - newton
            # far below the root on an exponential tail Newton creeps about one
            # decay length per step; bisect unless steps shrink fast enough
            slow = ~(np.abs(newton) <= 0.5 * step_before[active])
            # a step below the float spacing leaves x_new on the bracket end
            # x just became: that is convergence, not an escape
            bisect = ~(((a < x_new) & (x_new < b)) | (x_new == x)) | slow
            x_new = np.where(bisect, 0.5 * (a + b), x_new)
            taken = np.abs(x_new - x)
            done = (hx == 0.0) | (taken <= 4.0 * np.finfo(float).eps * np.abs(x_new))
            f[active] = np.where(hx == 0.0, x, x_new)
            lo[active], hi[active] = a, b
            step_before[active], last_step[active] = last_step[active], taken
            active = active[~done]
    return f


def _match_radii(source: RadialDensity, target: RadialDensity, r: np.ndarray) -> tuple:
    """(f, rho_target(f), source charges at r) for the 1-d array r.

    Raises NonMonotoneCumulative at the first r > 0 where the source charge
    matched there (the complement where it is above N/2) is below the
    smallest normal float, whatever the target density, or where the target
    density vanishes at f (a density hole).  Such a charge is taken as 0 in
    rho2v.radial and holds too few bits to fix f.  At r = 0 the charge is 0
    and f = 0, whatever the target density there."""
    charges = _source_charges(source, r)
    f = _solve_radii(target, r, charges)
    rho_t = np.asarray(target.rho(f), dtype=float)
    q, qc, upper = charges
    under = np.where(upper, qc, q) < np.finfo(float).tiny
    bad = (under | (rho_t == 0.0)) & (r > 0.0)
    if np.any(bad):
        i = np.argmax(bad)
        if under[i]:
            side, fix = ("beyond", "lower --grid-max") if upper[i] else ("within", "raise --grid-min")
            raise NonMonotoneCumulative(f"source charge {side} r = {r[i]:g} underflows to 0; {fix}")
        raise NonMonotoneCumulative(f"target density vanishes at f = {f[i]:g} (flat cumulative: density hole)")
    return f, rho_t, charges


@dataclass(frozen=True)
class LocalScalingMap:
    """Solved deformation r -> f(r) between two spherical densities.

    f_prime comes from the Jacobian relation; jacobian_residual instead
    differentiates the solved f numerically, so it measures how well the
    discrete map satisfies the defining ODE (a consistency diagnostic, not
    an error bound on f).  q_residuals is the relative mismatch of the
    matched charges, |Q_target(f) - Q_source(r)| / Q_source(r), or the same
    for the complements N - Q where a radius was matched on the complement.
    """

    source: RadialDensity
    target: RadialDensity
    grid: np.ndarray
    f: np.ndarray
    f_prime: np.ndarray
    q_residuals: np.ndarray
    jacobian_residual: float

    def map_at(self, r) -> np.ndarray:
        """Evaluate the deformation at arbitrary radii by re-solving."""
        rs = np.asarray(r, dtype=float)
        out = _match_radii(self.source, self.target, np.atleast_1d(rs))[0]
        return out[0] if rs.ndim == 0 else out


def solve_scaling_map(source: RadialDensity, target: RadialDensity, grid=None) -> LocalScalingMap:
    """Match cumulative charges on a radial grid.

    Raises MassMismatch when the electron counts differ (the map would not
    exist) and NonMonotoneCumulative when the target cumulative is flat
    where charge has to be placed (density hole).
    """
    n_src, n_tgt = source.electron_count, target.electron_count
    if abs(n_src - n_tgt) > MASS_TOL * max(1.0, abs(n_src)):
        raise MassMismatch(f"electron counts differ: {n_src!r} vs {n_tgt!r}")
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be positive and strictly increasing")

    f, rho_t, (q, qc, upper) = _match_radii(source, target, grid)

    rho_s = np.asarray(source.rho(grid), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_prime = np.where(rho_t > 0.0, grid**2 * rho_s / (f**2 * rho_t), np.inf)

    # relative, in the representation each radius was matched on: in the
    # upper tail both cumulatives round to N and only the complements show
    # an error in f, and near either end the charge itself is tiny
    matched = np.where(upper, qc, q)
    q_residuals = np.abs(_residual(target, f, q, qc, upper)) / np.where(matched > 0.0, matched, 1.0)

    # ODE-consistency diagnostic with an independent (finite-difference)
    # derivative of the solved map, taken in log r for uniform stencils
    dfdr = np.gradient(f, np.log(grid), edge_order=2) / grid
    lhs = rho_t * f * f * dfdr
    rhs = grid**2 * rho_s
    mask = rhs > 1e-12 * np.max(rhs)
    jac = float(np.max(np.abs(lhs[mask] - rhs[mask]) / rhs[mask])) if np.any(mask) else 0.0

    return LocalScalingMap(
        source=source,
        target=target,
        grid=grid,
        f=f,
        f_prime=f_prime,
        q_residuals=q_residuals,
        jacobian_residual=jac,
    )


def transform_wavefunction(psi, mapping: LocalScalingMap) -> np.ndarray:
    """Pull a radial wavefunction back along the deformation.

    psi lives on the target side (its density is the map's target density);
    the returned samples psi_f(r) = sqrt(f^2 f' / r^2) * psi(f(r)) carry the
    source density on the map's grid.
    """
    r = mapping.grid
    jac = mapping.f**2 * mapping.f_prime / r**2
    psi_vals = np.asarray([float(psi(x)) for x in mapping.f])
    return np.sqrt(jac) * psi_vals
