"""Locate and classify critical points of the density over R^3.

Two families of stationary features are distinguished:

  * cusp maxima -- kinks of the mixture at Slater centers, detected by a
    strictly negative one-sided log-derivative of the spherical average;
    the gradient is undefined there, so localization is derivative-free
    (simplex search plus a gradient-direction ray pursuit: away from the
    kink the gradient of the dominant cusped term points almost exactly
    at the center, so a 1D line maximization per step converges fast);
  * smooth critical points (non-nuclear maxima, saddles, minima), found
    by safeguarded Newton iteration on grad rho = 0 and classified by the
    rank and signature of the Hessian spectrum.

Search is multistart over a uniform seed grid; results are deduplicated
within a position tolerance and returned in canonical lexicographic order,
so the output is independent of seed enumeration order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .density import DensityModel, evaluate, gradient, hessian
from .errors import AtCuspSingularity, EmptyResult, ZeroCenterValue
from .spherical import radial_derivative_at_center

__all__ = [
    "CriticalKind",
    "CriticalPoint",
    "TAU_CUSP",
    "DEFAULT_SEEDS",
    "default_search_box",
    "classify",
    "find_critical_points",
]

# |log_derivative| above this marks a cusp: true nuclear cusps have
# |2 Z| >= 2 while smooth maxima extrapolate to ~1e-9, six orders below.
TAU_CUSP = 1e-3

GRAD_TOL = 1e-6
# seed grid points per axis of the multistart search box
DEFAULT_SEEDS = 8
MIN_SEEDS = 4
DEDUPE_RADIUS = 1e-4
# Newton is disabled this close to a detected non-smooth point
CUSP_EXCLUSION = 1e-2
# relative Hessian eigenvalue floor for rank counting
EIG_REL_TOL = 1e-8

_FLOOR_RADII = (1e-3, 1e-4)
_N_FLOOR_DIRECTIONS = 24


class CriticalKind(enum.Enum):
    CUSP_MAXIMUM = "cusp_maximum"
    SMOOTH_CRITICAL = "smooth_critical"


@dataclass(frozen=True)
class CriticalPoint:
    """Classified stationary/maximum point of the density."""

    position: np.ndarray
    kind: CriticalKind
    rank: int | None
    signature: int | None
    density_value: float
    gradient_norm: float | None
    gradient_norm_floor: float
    log_derivative: float

    @property
    def is_cusp(self) -> bool:
        return self.kind is CriticalKind.CUSP_MAXIMUM


def default_search_box(model: DensityModel, margin_factor: float = 3.0) -> np.ndarray:
    """Bounding box of the term centers inflated by three decay lengths."""
    centers = model.centers
    if len(centers) == 0:
        raise EmptyResult("model has no terms to search")
    margin = margin_factor * model.max_decay_length
    return np.array([centers.min(axis=0) - margin, centers.max(axis=0) + margin])


def _inside(box: np.ndarray, x: np.ndarray, slack: float = 1e-6) -> bool:
    return bool(np.all(x >= box[0] - slack) and np.all(x <= box[1] + slack))


def _fibonacci_directions(n: int) -> np.ndarray:
    i = np.arange(n)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(golden * i), r * np.sin(golden * i), z], axis=1)


def _gradient_norm_floor(model: DensityModel, position: np.ndarray) -> float:
    """Infimum of |grad rho| over small punctured spheres about position."""
    dirs = _fibonacci_directions(_N_FLOOR_DIRECTIONS)
    floor = np.inf
    for radius in _FLOOR_RADII:
        for u in dirs:
            try:
                g = gradient(model, position + radius * u)
            except AtCuspSingularity:
                continue
            floor = min(floor, float(np.linalg.norm(g)))
    return floor if np.isfinite(floor) else 0.0


def classify(
    model: DensityModel,
    position,
    tau_cusp: float = TAU_CUSP,
    derivative_options: dict | None = None,
) -> CriticalPoint:
    """Full diagnostic of the density at a point.

    kind is CUSP_MAXIMUM iff the one-sided log-derivative of the spherical
    average is below -tau_cusp; rank/signature come from the Hessian
    spectrum and are reported only for smooth points.
    """
    x = np.asarray(position, dtype=float).reshape(3)
    rho = evaluate(model, x)
    try:
        est = radial_derivative_at_center(model, x, **(derivative_options or {}))
        log_derivative = est.log_derivative
    except ZeroCenterValue:
        log_derivative = 0.0

    try:
        grad_norm = float(np.linalg.norm(gradient(model, x)))
    except AtCuspSingularity:
        grad_norm = None

    is_cusp = log_derivative < -tau_cusp
    rank = signature = None
    if not is_cusp:
        try:
            eigs = np.linalg.eigvalsh(hessian(model, x))
            lam_tol = EIG_REL_TOL * max(np.max(np.abs(eigs)), 1e-300)
            nonzero = eigs[np.abs(eigs) > lam_tol]
            rank = int(len(nonzero))
            signature = int(np.sum(np.sign(nonzero)))
        except AtCuspSingularity:
            pass

    return CriticalPoint(
        position=x,
        kind=CriticalKind.CUSP_MAXIMUM if is_cusp else CriticalKind.SMOOTH_CRITICAL,
        rank=rank,
        signature=signature,
        density_value=rho,
        gradient_norm=grad_norm,
        gradient_norm_floor=_gradient_norm_floor(model, x),
        log_derivative=log_derivative,
    )


def _simplex_maximize(model, seed, box, maxfev=2000, xatol=1e-7):
    scale = 0.05 * float(np.max(box[1] - box[0]))
    res = minimize(
        lambda x: -evaluate(model, x),
        seed,
        method="Nelder-Mead",
        options={
            "xatol": xatol,
            "fatol": np.inf,  # terminate on simplex size only
            "maxfev": maxfev,
            "initial_simplex": np.vstack([seed, seed + scale * np.eye(3)]),
        },
    )
    x = np.asarray(res.x, dtype=float)
    return x if _inside(box, x) else None


def _pursue_cusp(model, x0, initial_scale=1e-2, max_iter=60):
    """Refine a cusp position by repeated line maximization along the gradient.

    Near a kink the gradient of the cusped term dominates and points at the
    center, so each bounded 1D maximization along it lands nearly on top of
    the cusp; iteration is superlinear in the remaining distance.
    """
    x = np.asarray(x0, dtype=float)
    scale = initial_scale
    for _ in range(max_iter):
        try:
            g = gradient(model, x)
        except AtCuspSingularity:
            return x  # sitting on the center itself
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            return x
        u = g / gn
        res = minimize_scalar(
            lambda t: -evaluate(model, x + t * u),
            bounds=(0.0, 2.0 * scale),
            method="bounded",
            options={"xatol": 1e-14},
        )
        t = float(res.x)
        if t >= 1.9 * scale:  # maximum beyond the bracket; widen and retry
            scale *= 4.0
            continue
        if t <= 1e-13:
            return x
        x = x + t * u
        scale = max(t * 0.5, 1e-12)
    return x


def _newton_stationary(model, seed, box, cusp_positions, g_tol, max_iter=80):
    """Safeguarded Newton on grad rho = 0; None when not cleanly converged."""
    x = np.asarray(seed, dtype=float)
    step_cap = 0.25 * float(np.max(box[1] - box[0]))
    for _ in range(max_iter):
        if not _inside(box, x, slack=0.5):
            return None
        for c in cusp_positions:
            if np.linalg.norm(x - c) < CUSP_EXCLUSION:
                return None
        try:
            g = gradient(model, x)
            h = hessian(model, x)
        except AtCuspSingularity:
            return None
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        norm = float(np.linalg.norm(step))
        if norm > step_cap:
            step *= step_cap / norm
            norm = step_cap
        x = x + step
        if norm < 1e-12 * (1.0 + float(np.linalg.norm(x))):
            try:
                ok = float(np.linalg.norm(gradient(model, x))) <= g_tol
            except AtCuspSingularity:
                return None
            return x if (ok and _inside(box, x)) else None
    return None


def _dedupe(candidates, model, radius):
    """Keep the highest-density representative per cluster, canonically."""
    scored = [(evaluate(model, x), x) for x in candidates]
    scored.sort(key=lambda s: (-s[0], s[1][0], s[1][1], s[1][2]))
    kept: list[np.ndarray] = []
    for _, x in scored:
        if all(np.linalg.norm(x - y) > radius for y in kept):
            kept.append(x)
    return kept


def find_critical_points(
    model: DensityModel,
    search_box=None,
    seeds_per_axis: int = DEFAULT_SEEDS,
    g_tol: float = GRAD_TOL,
    tau_cusp: float = TAU_CUSP,
    dedupe_radius: float = DEDUPE_RADIUS,
    derivative_options: dict | None = None,
) -> list[CriticalPoint]:
    """Multistart search for all maxima and stationary points of the density.

    From every seed of a uniform grid over the search box, a derivative-free
    simplex ascent collects maxima (cusped or smooth) and a safeguarded
    Newton iteration collects smooth stationary points; Newton is kept out
    of a 1e-2 bohr exclusion ball around each detected cusp.  Survivors are
    deduplicated within dedupe_radius (highest density wins, ties broken by
    lexicographic position) and classified.

    Raises EmptyResult when no seed converges to anything (flat model).
    """
    if seeds_per_axis < MIN_SEEDS:
        raise ValueError(f"seeds_per_axis must be >= {MIN_SEEDS}, got {seeds_per_axis}")
    if not model.terms:
        raise EmptyResult("model has no terms")
    box = np.asarray(search_box, dtype=float) if search_box is not None else default_search_box(model)
    if box.shape != (2, 3):
        raise ValueError("search_box must have shape (2, 3): [mins, maxs]")

    axes = [np.linspace(box[0][i], box[1][i], seeds_per_axis) for i in range(3)]
    seeds = np.array(np.meshgrid(*axes, indexing="ij")).reshape(3, -1).T

    maxima = []
    for seed in seeds:
        x = _simplex_maximize(model, seed, box)
        if x is not None:
            maxima.append(x)
    if not maxima:
        raise EmptyResult("no seed converged; model appears flat or degenerate")

    # probe cusp-ness of each candidate maximum cluster, then polish
    cusps: list[np.ndarray] = []
    smooth: list[np.ndarray] = []
    for x in _dedupe(maxima, model, radius=max(dedupe_radius, 1e-3)):
        try:
            probe = radial_derivative_at_center(model, x, **(derivative_options or {}))
            cusp_like = probe.log_derivative < -tau_cusp
        except ZeroCenterValue:
            cusp_like = False
        if cusp_like:
            cusps.append(_pursue_cusp(model, x))
        else:
            polished = _newton_stationary(model, x, box, cusps, g_tol)
            smooth.append(polished if polished is not None else x)

    # stationary points between maxima (bond-region saddles) have narrow
    # Newton basins a coarse grid can miss; seed the segment between every
    # pair of detected maxima explicitly
    extremum_reps = cusps + smooth
    pair_seeds = [
        (1.0 - w) * a + w * b
        for i, a in enumerate(extremum_reps)
        for b in extremum_reps[i + 1 :]
        for w in (0.5, 1.0 / 3.0, 2.0 / 3.0)
    ]
    for seed in list(seeds) + pair_seeds:
        x = _newton_stationary(model, seed, box, cusps, g_tol)
        if x is not None:
            smooth.append(x)

    points = []
    for x in _dedupe(cusps + smooth, model, radius=dedupe_radius):
        cp = classify(model, x, tau_cusp=tau_cusp, derivative_options=derivative_options)
        if cp.is_cusp or (cp.gradient_norm is not None and cp.gradient_norm <= g_tol):
            points.append(cp)
    if not points:
        raise EmptyResult("no critical points survived classification")

    points.sort(key=lambda p: (p.position[0], p.position[1], p.position[2]))
    return points
