"""Locate and classify critical points of the density over R^3.

Two families of stationary features are distinguished:

  * cusp maxima -- kinks of the mixture at Slater centers, detected by a
    strictly negative one-sided log-derivative of the spherical average
    whose Richardson ladder converged; the gradient is undefined at the
    kink itself, so the ascent stops next to it, and a batched compass
    search (six axis steps per point, halved when none is uphill, at 16
    successive step lengths per pass) settles every cusp onto its kink
    down to a 1e-14 bohr step.  The ladder that routed an ascent maximum
    is kept by the bytes of its point, and classify reuses it where the
    compass search or Newton left that point where it was, so no ladder
    is read twice at one point;
  * smooth critical points (non-nuclear maxima, saddles, minima), found
    by safeguarded Newton iteration on grad rho = 0 and classified by the
    rank and signature of the Hessian spectrum.

The points of each stage are classified together (_classify_many): one
order-2 kernel pass over all of them, one order-1 pass over all their
gradient-floor probes and one stacked eigvalsh over their Hessians.

Search is multistart over a uniform seed grid, and every seed moves at
once: one batched gradient ascent with a step length per seed, then a
batched Newton iteration whose Hessians are solved as a stack.  The grid
seeds only the ascent; Newton runs from what it found: the ascent's smooth
maxima, to polish them, and one point on the segment between every pair of
extrema, the lowest of its 31 samples at k/32 of the way, next to the bond
point that is the minimum of rho along its bond path (Bader 1990); every
pair's samples take one evaluate_many pass together.  The ascent
doubles a seed's step after an uphill trial and halves it after a downhill
one, unless the trial slopes down along the step: then it has passed the
peak of its line, and the next step goes to the peak of a line model
through the two slopes and values: back from an uphill trial, or from the
seed, which stays put, after a downhill one (_ascend, _line_peak).  The
model is a parabola of ln rho, exact on a Gaussian, where the four data fit
one; elsewhere it is a V.  By Kato's cusp condition ln rho is locally a V
with slopes +-2Z along any line through a nucleus, so where the two
log-slopes are nearly opposite the V is taken in ln rho, and elsewhere in
rho.  Every step is one pass of the density kernel, which returns the values, the
derivatives and the mask of the points on a cusp together, over a
compacted set of the seeds still moving; the Newton seeds whose step
falls below tolerance take one order-1 pass of their own in that
iteration for their convergence check.  A seed that meets a cusp, a
singular Hessian or the edge of the box (widened by min(0.5 bohr, a
quarter box width)) drops out alone.

The critical points of a density that decays at infinity satisfy the
Poincare-Hopf relation n - b + r - c = 1 over its maxima, bond (3,-1),
ring (3,+1) and cage (3,+3) points (Bader, Atoms in Molecules, 1990), a
cusp counting as a maximum.  When no point found is degenerate and the sum
is not 1, Newton runs again from more of the structure found, in stages
that stop once the sum is 1: from the centroid of every triple of extrema,
then from seeds about the bond points (_bond_seeds).  A stage adds points
and never replaces one.  The sum cannot see a missed maximum together with
the bond point to it.  Results are
deduplicated within a position tolerance and returned in a canonical order
of their rounded positions, so the output is independent of seed
enumeration order.
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .density import DensityModel, _norms, evaluate_many, kernel_pass
from .errors import EmptyResult
from .spherical import DEFAULT_ORDER, TAU_CUSP, RadialDerivativeEstimate, radial_derivative_at_center

__all__ = [
    "CriticalKind",
    "CriticalPoint",
    "TAU_CUSP",
    "DEFAULT_SEEDS",
    "default_search_box",
    "classify",
    "find_critical_points",
]

# TAU_CUSP (from spherical), GRAD_TOL and DEDUPE_RADIUS are fixed; every
# report that ran the search records them under "topology".
# a smooth point is stationary when |grad rho| is at most this
GRAD_TOL = 1e-6
# seed grid points per axis of the multistart ascent over the search box
DEFAULT_SEEDS = 8
MIN_SEEDS = 4
# candidates closer than this are one point
DEDUPE_RADIUS = 1e-4
# ascent end points closer than this are one maximum
MAXIMA_MERGE_RADIUS = 1e-3
# the search box is the centers' bounding box widened by this many decay lengths
SEARCH_MARGIN = 3.0
# the seed ascent stops below this step; on cusps a compass search goes on to the next
ASCENT_MIN_STEP = 1e-8
# the ascent's line model is a parabola of ln rho where its four data fit one within
# this fraction of s (kappa - kappa_t), and a V elsewhere (_line_peak)
PARABOLA_FIT = 0.05
CUSP_MIN_STEP = 1e-14
# iteration caps of the seed ascent, the cusp compass search and Newton
ASCENT_ITERATIONS = 500
SETTLE_ITERATIONS = 2000
NEWTON_ITERATIONS = 80
_AXES = np.concatenate([np.eye(3), -np.eye(3)])
# a pass of the compass search tries its step times each of these: h, h/2, ..., h/2**15
_SETTLE_SCALES = 0.5 ** np.arange(16)
# Newton is disabled this close to a detected non-smooth point
CUSP_EXCLUSION = 1e-2
# relative Hessian eigenvalue floor for rank counting
EIG_REL_TOL = 1e-8
# Newton seeds about a bond point: these offsets (bohr) along its middle Hessian eigenvector,
# and these fractions of the way to each other bond point
_BOND_OFFSETS = np.array([-0.3, -0.15, -0.05, 0.05, 0.15, 0.3])
_BOND_PAIR_FRACTIONS = (0.5, 1.0 / 3.0, 2.0 / 3.0)
# the samples of the segment between two points, of which the lowest seeds Newton:
# these fractions of the way, the exact binary fractions k/32, k = 1 ... 31
_SEGMENT_SAMPLES = np.arange(1.0, 32.0) / 32.0


class CriticalKind(enum.Enum):
    CUSP_MAXIMUM = "cusp_maximum"
    SMOOTH_CRITICAL = "smooth_critical"


@dataclass(frozen=True)
class CriticalPoint:
    """Classified stationary/maximum point of the density.

    log_derivative and the three ladder fields are the RadialDerivativeEstimate
    of the spherical average at the point: whether its ladder converged, how
    many levels it ran and its uncertainty estimate on the log-derivative,
    which estimates the error and does not bound it.  Where the density is
    at most 1e-30 that estimate is a reading of none: log_derivative is 0.0,
    the ladder did not converge, ran 0 levels and has no estimate (None).
    """

    position: np.ndarray
    kind: CriticalKind
    rank: int | None
    signature: int | None
    density_value: float
    gradient_norm: float | None
    gradient_norm_floor: float
    log_derivative: float
    ladder_converged: bool
    ladder_levels_used: int
    log_derivative_uncertainty_estimate: float | None

    @property
    def is_cusp(self) -> bool:
        return self.kind is CriticalKind.CUSP_MAXIMUM


def default_search_box(model: DensityModel) -> np.ndarray:
    """Bounding box of the term centers inflated by SEARCH_MARGIN decay lengths."""
    centers = model.centers
    if len(centers) == 0:
        raise EmptyResult("model has no terms to search")
    margin = SEARCH_MARGIN * model.max_decay_length
    return np.array([centers.min(axis=0) - margin, centers.max(axis=0) + margin])


def _fibonacci_directions(n: int) -> np.ndarray:
    i = np.arange(n)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(golden * i), r * np.sin(golden * i), z], axis=1)


# the probes of _gradient_norm_floor less their center: 24 Fibonacci directions at
# 1e-3 bohr, then at 1e-4 bohr
_FLOOR_OFFSETS = np.concatenate([radius * _fibonacci_directions(24) for radius in (1e-3, 1e-4)])


def _gradient_norm_floor(model: DensityModel, positions: np.ndarray) -> np.ndarray:
    """(N,) infimum of |grad rho| over small punctured spheres about each of the
    positions (N, 3), skipping probe points on a cusp singularity; 0.0 where
    none remain.  The probes of all positions take one order-1 kernel pass."""
    p = kernel_pass(model, (positions[:, None] + _FLOOR_OFFSETS).reshape(-1, 3), 1)
    floor = np.where(p.on_cusp, np.inf, _norms(p.gradient)).reshape(len(positions), -1).min(axis=1)
    return np.where(floor < np.inf, floor, 0.0)


def classify(
    model: DensityModel, position, order: int = DEFAULT_ORDER, *, estimate: RadialDerivativeEstimate | None = None
) -> CriticalPoint:
    """Full diagnostic of the density at a point.

    kind is CUSP_MAXIMUM iff the Richardson ladder of the spherical average
    (Lebedev order `order`) reads a cusp (RadialDerivativeEstimate.is_cusp);
    rank/signature come from the Hessian spectrum and are reported only for
    smooth points off a cusp singularity, where gradient_norm is None as well.
    estimate, when given, is that ladder's reading at this very point and
    order, taken before: the ladder is a pure function of them, so it is
    reused as it is instead of being run again.  The one-point case of
    _classify_many.
    """
    return _classify_many(model, np.asarray(position, dtype=float).reshape(1, 3), order, [estimate])[0]


def _classify_many(model: DensityModel, x: np.ndarray, order: int, estimates) -> list[CriticalPoint]:
    """classify at every row of x (N, 3), with estimates[n] the ladder reading
    at x[n] or None, in one order-2 kernel pass over the points, one order-1
    pass over all their floor probes and one stacked eigvalsh over the smooth
    points' Hessians.  A point's gradient, cusp mask and floor are the bits of
    a pass of its own; its value and Hessian can differ by an ulp on models of
    8 or more terms (kernel_pass)."""
    p = kernel_pass(model, x, 2)
    floor = _gradient_norm_floor(model, x)
    estimates = [radial_derivative_at_center(model, xn, order) if e is None else e for xn, e in zip(x, estimates)]
    # rank and signature of the Hessian spectrum of the smooth points off a cusp
    # singularity, counting the eigenvalues above a relative floor
    smooth = ~p.on_cusp & ~np.array([e.is_cusp for e in estimates], dtype=bool)
    eigs = np.linalg.eigvalsh(p.hessian[smooth])
    nonzero = np.abs(eigs) > EIG_REL_TOL * np.maximum(np.max(np.abs(eigs), axis=1), 1e-300)[:, None]
    rank, signature = np.zeros(len(x), dtype=int), np.zeros(len(x), dtype=int)
    rank[smooth], signature[smooth] = nonzero.sum(axis=1), (np.sign(eigs) * nonzero).sum(axis=1)
    grad_norm = _norms(p.gradient)
    return [
        CriticalPoint(
            position=x[n],
            kind=CriticalKind.CUSP_MAXIMUM if e.is_cusp else CriticalKind.SMOOTH_CRITICAL,
            rank=int(rank[n]) if smooth[n] else None,
            signature=int(signature[n]) if smooth[n] else None,
            density_value=float(p.value[n]),
            gradient_norm=None if p.on_cusp[n] else float(grad_norm[n]),
            gradient_norm_floor=float(floor[n]),
            log_derivative=e.log_derivative,
            ladder_converged=e.converged,
            ladder_levels_used=e.levels_used,
            log_derivative_uncertainty_estimate=e.uncertainty,
        )
        for n, e in enumerate(estimates)
    ]


def _rows_inside(box: np.ndarray, x: np.ndarray, slack: float = 1e-6) -> np.ndarray:
    """(S,) mask of the rows of x (S, 3) inside the box widened by slack."""
    inside = (x >= box[0] - slack) & (x <= box[1] + slack)
    return inside[:, 0] & inside[:, 1] & inside[:, 2]


def _line_peak(s, f, f_t, k, k_t):
    """Distance from the start of a step of length s to the peak of the line
    model of rho along it, from its density f and slope k > 0 at the start and
    f_t and k_t < 0 at the trial, arrays alike.  With the log-slopes kappa =
    k/f and kappa_t = k_t/f_t, a parabola of ln rho meets ln(f_t/f) = s (kappa
    + kappa_t)/2 exactly; where the four data fit it within PARABOLA_FIT s
    (kappa - kappa_t), the peak is the parabola's, kappa s / (kappa - kappa_t),
    exact on a Gaussian.  An exact V of ln rho meets that identity only when
    its kink lies within PARABOLA_FIT s of the midpoint, where both models put
    the peak near s/2.  Elsewhere the peak is a V's: one of ln rho where the
    log-slopes are nearly opposite, |kappa + kappa_t| < (kappa - kappa_t)/2,
    the Kato signature of a kink, (ln(f_t/f) - kappa_t s) / (kappa - kappa_t);
    and one of rho, rising at k and falling at k_t, (f_t - f - k_t s) / (k -
    k_t), otherwise."""
    kappa, kappa_t = k / f, k_t / f_t
    spread = kappa - kappa_t
    log_rise = np.log(f_t / f)
    parabola = np.abs(log_rise - 0.5 * s * (kappa + kappa_t)) <= PARABOLA_FIT * s * spread
    kato = np.abs(kappa + kappa_t) < 0.5 * spread
    v = np.where(kato, (log_rise - kappa_t * s) / spread, (f_t - f - k_t * s) / (k - k_t))
    return np.where(parabola, kappa * s / spread, v)


def _ascend(model, seeds, box):
    """Gradient ascent from every seed at once; (endpoints (S, 3), kept (S,)).

    Each seed steps along its normalized gradient u with its own step length
    s, starting at 0.05 box widths.  A trial whose slope along the step,
    k_t = grad rho(trial) . u, is >= 0 doubles s when it is uphill and
    halves s when it is downhill (rejected).  A trial with k_t < 0 has
    passed the peak of its line, which lies s* from the start in the line
    model of _line_peak, with k = |grad rho| at the start: the peak of a
    parabola of ln rho where the four data fit one, exact on a Gaussian, and
    elsewhere that of a V, one of ln rho at the Kato signature of a kink
    (by Kato's cusp condition ln rho along a line through a nucleus is a V
    with slopes +-2Z, exactly so for one hydrogenic term), one of rho
    otherwise.  An uphill trial moves the seed and steps back to the peak
    next, s - s* clipped to [1e-3 s, s]; a downhill one leaves the seed
    where it is and steps to it next, s* clipped to [0.1 s, 0.3 s].  On a
    kink or a Gaussian peak that lands on the peak at once, where doubling
    would overshoot it again after every uphill step and halving would take
    a run of rejected trials to come back under it; on one hydrogenic or
    Gaussian term a seed lands within about 1e-15 bohr of the peak after its
    first trial past it, and then stops on the cusp or where the gradient
    vanishes.  The lower clip keeps a far overshoot, whose f_t << f makes s*
    much too short, from stopping far short of the peak; the Kato test and
    the upper clip keep the seeds that start in a small basin next to a
    heavier nucleus in it.  A seed stops when its step falls below
    ASCENT_MIN_STEP, when it sits on a cusp (where the gradient is
    undefined) or where its gradient vanishes.  Endpoints outside the box or
    at zero density are not kept.  Each iteration is one kernel pass over
    the trial points of the seeds still moving, and an uphill trial point
    brings its own next direction and slope.
    """
    x = np.array(seeds, dtype=float)
    p = kernel_pass(model, x, 1)
    f = p.value
    norm = _norms(p.gradient)
    # the seeds still moving: their index, position, density, step, direction and
    # slope along it
    ids = np.flatnonzero(~p.on_cusp & (norm > 0.0))
    xa, fa, ka = x[ids], f[ids], norm[ids]
    sa = np.full(len(ids), 0.05 * float(np.max(box[1] - box[0])))
    ua = p.gradient[ids] / norm[ids, None]
    for _ in range(ASCENT_ITERATIONS):
        if not len(ids):
            break
        trial = xa + sa[:, None] * ua
        p = kernel_pass(model, trial, 1)
        ft, g = p.value, p.gradient
        up = ft > fa
        step = sa * np.where(up, 2.0, 0.5)
        # a trial sloping down along the step has passed the peak of its line, which
        # the line model puts `peak` from the start (_line_peak): an uphill trial steps
        # back to it, a downhill one leaves the seed in place and steps to it next.
        # Only those trials, i, take the model; their k_t < 0 needs a nonzero
        # gradient, so f_t > 0 there
        gu = g * ua
        kt = gu[:, 0] + gu[:, 1] + gu[:, 2]
        i = (kt < 0.0).nonzero()[0]
        if len(i):
            s, rose = sa[i], up[i]
            peak = _line_peak(s, fa[i], ft[i], ka[i], kt[i])
            # clipped: s - peak to [1e-3 s, s] after an uphill trial, peak to [0.1 s, 0.3 s]
            lo, hi = s * np.where(rose, 1e-3, 0.1), s * np.where(rose, 1.0, 0.3)
            step[i] = np.minimum(np.maximum(np.where(rose, s - peak, peak), lo), hi)
        np.copyto(xa, trial, where=up[:, None])
        np.copyto(fa, ft, where=up)
        sa = step
        norm = _norms(g)
        turn = up & ~p.on_cusp & (norm > 0.0)
        np.divide(g, norm[:, None], out=ua, where=turn[:, None])
        np.copyto(ka, norm, where=turn)
        stop = (sa < ASCENT_MIN_STEP) | (up & ~turn)
        if stop.any():
            done, keep = stop.nonzero()[0], (~stop).nonzero()[0]
            x[ids[done]], f[ids[done]] = xa[done], fa[done]
            ids, xa, fa, ka, sa, ua = ids[keep], xa[keep], fa[keep], ka[keep], sa[keep], ua[keep]
    x[ids], f[ids] = xa, fa
    return x, _rows_inside(box, x) & (f > 0.0)


def _settle(model, points):
    """Compass search from every point at once; the settled points (S, 3).

    Each point moves to the best uphill one of its six axis steps, starting
    at ASCENT_MIN_STEP, or halves its step when none is uphill, until the
    step is below CUSP_MIN_STEP.  Needing no gradient, it goes on inside the
    CENTER_EPS ball of a cusp.  One pass tries the six steps at h and at
    its first 15 halvings at once (those not below CUSP_MIN_STEP), moves to
    the best uphill trial of the largest step that has one and keeps that
    step, or halves h 16 times when none is uphill.  That is the path of one
    halving per pass, bit for bit: the point does not move while it halves,
    h * 2**-j is exact, and a batch holds six points per step, an even
    number, so neither it nor any of the kernel's chunks of it holds a
    point alone: the kernel sums each point's terms in term order either way.
    SETTLE_ITERATIONS caps these passes; no search over the test frames or
    the invert-frames benchmark reaches the cap."""
    x = np.array(points, dtype=float).reshape(-1, 3)
    f = evaluate_many(model, x)
    # the points still searching: their index and step
    idx, h = np.arange(len(x)), np.full(len(x), ASCENT_MIN_STEP)
    for _ in range(SETTLE_ITERATIONS):
        if not len(idx):
            break
        # (S, J) steps, h times each scale that leaves some step at or above the floor,
        # and their (S, J, 6, 3) trial points
        scales = _SETTLE_SCALES[h.max() * _SETTLE_SCALES >= CUSP_MIN_STEP]
        steps = h[:, None] * scales
        trial = x[idx, None, None] + steps[:, :, None, None] * _AXES
        f_trial = evaluate_many(model, trial.reshape(-1, 3)).reshape(*steps.shape, len(_AXES))
        # the largest step with an uphill trial, if any, and its best trial
        up = (f_trial.max(axis=2) > f[idx, None]) & (steps >= CUSP_MIN_STEP)
        rows, j = np.arange(len(idx)), np.argmax(up, axis=1)
        moved = up[rows, j]
        h = np.where(moved, steps[rows, j], h * 0.5 ** len(_SETTLE_SCALES))
        rows, j = rows[moved], j[moved]
        best = np.argmax(f_trial[rows, j], axis=1)
        x[idx[moved]], f[idx[moved]] = trial[rows, j, best], f_trial[rows, j, best]
        keep = h >= CUSP_MIN_STEP
        idx, h = idx[keep], h[keep]
    return x


def _solve(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked solve h x = rhs; rows whose matrix is singular come back NaN."""
    try:
        return np.linalg.solve(h, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for i in range(len(h)):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[i] = np.linalg.solve(h[i], rhs[i])
        return out


def _newton(model, seeds, box, cusp_positions):
    """Safeguarded Newton on grad rho = 0 from every seed at once.

    Returns (points (S, 3), converged (S,)).  Steps are capped at a quarter
    box width, step_cap.  A seed is dropped where it stands when it leaves
    the box widened by min(0.5 bohr, step_cap), enters the CUSP_EXCLUSION
    ball of a detected cusp, lands on a cusp singularity, or meets a
    singular Hessian or a non-finite step.  A seed stops when its step falls
    below 1e-12 relative, and has converged when the gradient there is at
    most GRAD_TOL inside the box, off a cusp.  The seeds still stepping are
    kept compacted, and each iteration is one order-2 kernel pass over them,
    and one order-1 pass over the seeds that stopped in it, for their check.
    """
    x = np.array(seeds, dtype=float).reshape(-1, 3)
    cusps = np.asarray(cusp_positions, dtype=float).reshape(-1, 3)
    step_cap = 0.25 * float(np.max(box[1] - box[0]))
    slack = min(0.5, step_cap)
    converged = np.zeros(len(x), dtype=bool)

    def free(pts):
        """(S,) mask of the rows of pts inside the widened box and out of every exclusion ball."""
        return _rows_inside(box, pts, slack=slack) & np.logical_and.reduce(
            _norms(pts[:, None] - cusps) >= CUSP_EXCLUSION, axis=1
        )

    # the seeds still stepping: their index and position
    ok = free(x)
    ids, xa = np.flatnonzero(ok), x[ok]
    for _ in range(NEWTON_ITERATIONS):
        if not len(ids):
            break
        p = kernel_pass(model, xa, 2)
        step = _solve(p.hessian, -p.gradient)
        finite = np.isfinite(step)
        ok = ~p.on_cusp & finite[:, 0] & finite[:, 1] & finite[:, 2]
        if not ok.all():
            ids, xa, step = ids[ok], xa[ok], step[ok]
        norm = _norms(step)
        capped = norm > step_cap
        if capped.any():
            step[capped] *= (step_cap / norm[capped])[:, None]
            norm[capped] = step_cap
        xa += step
        x[ids] = xa  # where each seed stands, also if it is dropped later
        stop = norm < 1e-12 * (1.0 + _norms(xa))
        if stop.any():
            q = kernel_pass(model, xa[stop], 1)
            converged[ids[stop]] = _rows_inside(box, xa[stop]) & ~q.on_cusp & (_norms(q.gradient) <= GRAD_TOL)
        ok = ~stop & free(xa)
        ids, xa = ids[ok], xa[ok]
    return x, converged


def _segment_seeds(model, points) -> np.ndarray:
    """(P, 3) Newton seeds, one per pair of the points: the lowest of the
    _SEGMENT_SAMPLES of the segment between them, the first where two tie.  A
    bond point is the minimum of rho along its bond path (Bader 1990), so it
    lies next to that sample.  Every pair's samples take one evaluate_many pass
    together; fewer than two points take none."""
    points = np.reshape(points, (-1, 3))
    i, j = np.triu_indices(len(points), 1)
    if not len(i):
        return np.empty((0, 3))
    w = _SEGMENT_SAMPLES[:, None]
    samples = (1.0 - w) * points[i, None] + w * points[j, None]
    rho = evaluate_many(model, samples.reshape(-1, 3)).reshape(len(i), -1)
    return samples[np.arange(len(i)), np.argmin(rho, axis=1)]


def _triangle_centroids(points) -> np.ndarray:
    """(T, 3) centroids of every triple of the points."""
    triples = np.array(list(itertools.combinations(range(len(points)), 3)), dtype=int).reshape(-1, 3)
    return np.reshape(points, (-1, 3))[triples].mean(axis=1)


def _bond_seeds(model, bonds, centroids) -> np.ndarray:
    """Newton seeds about the bond points, where a missed ring point lies: each
    bond point moved by _BOND_OFFSETS along its middle Hessian eigenvector, the
    points at _BOND_PAIR_FRACTIONS of the segment between every pair of bond
    points, and the midpoint between each centroid and each bond point.  A
    bond pair takes no lowest sample (_segment_seeds): its straight segment
    leaves the ring surface and passes by a nucleus that the two bonds share,
    where rho rises, so its lowest sample sits next to a bond point already
    found."""
    bonds = np.reshape(bonds, (-1, 3))
    soft = np.linalg.eigh(kernel_pass(model, bonds, 2).hessian)[1][:, :, 1]
    along = bonds[:, None] + _BOND_OFFSETS[:, None] * soft[:, None]
    pairs = [(1.0 - w) * a + w * b for i, a in enumerate(bonds) for b in bonds[i + 1 :] for w in _BOND_PAIR_FRACTIONS]
    mids = 0.5 * (centroids[:, None] + bonds[None])
    return np.concatenate([along.reshape(-1, 3), np.reshape(pairs, (-1, 3)), mids.reshape(-1, 3)])


def _poincare_hopf_sum(points) -> int | None:
    """n - b + r - c over the points, a cusp counting as a maximum; None when
    a point is degenerate, neither a cusp nor of rank 3."""
    total = 0
    for p in points:
        if p.is_cusp:
            total += 1
        elif p.rank == 3:
            # (-1) ** (number of positive curvatures): +1 maximum, -1 bond, +1 ring, -1 cage
            total += -1 if p.signature in (-1, 3) else 1
        else:
            return None
    return total


def _dedupe(candidates, model, radius):
    """Keep the highest-density representative per cluster, canonically.

    In rank order (-density, x, y, z) a candidate is kept when it is farther
    than radius from every candidate kept before it."""
    x = np.reshape(candidates, (-1, 3))
    rank = np.lexsort((x[:, 2], x[:, 1], x[:, 0], -evaluate_many(model, x)))
    x = x[rank]
    alive = np.ones(len(x), dtype=bool)
    kept = []
    while alive.any():
        best = int(np.argmax(alive))
        kept.append(x[best])
        alive &= _norms(x - x[best]) > radius
    return kept


def _kept_points(model, candidates, order, ladders) -> list[CriticalPoint]:
    """Classify the candidates together (_classify_many) and keep each that is a
    cusp, whose ladder read a cusp without converging (not a cusp then), or whose
    gradient is at most GRAD_TOL.  ladders maps the bytes of a point to its
    ladder's reading, which classify reuses."""
    if not len(candidates):
        return []
    estimates = [ladders.get(x.tobytes()) for x in candidates]
    return [
        cp
        for cp in _classify_many(model, np.reshape(candidates, (-1, 3)), order, estimates)
        if cp.log_derivative < -TAU_CUSP or (cp.gradient_norm is not None and cp.gradient_norm <= GRAD_TOL)
    ]


def find_critical_points(
    model: DensityModel, seeds_per_axis: int = DEFAULT_SEEDS, order: int = DEFAULT_ORDER
) -> list[CriticalPoint]:
    """Multistart search for all maxima and stationary points of the density.

    From every seed of a seeds_per_axis^3 grid over default_search_box at
    once, a batched gradient ascent collects maxima; a trial that passed its
    line's peak steps to the peak of a parabola of ln rho where its four data
    fit one, and otherwise of a V, one of ln rho where the two log-slopes are
    nearly opposite (the Kato signature of a kink).  Maxima
    whose spherical average (Lebedev order `order`) has a negative one-sided
    slope, read on its sign alone, are routed as cusps, settled onto the kink
    by a compass search down to a CUSP_MIN_STEP step that tries 16 step
    lengths per pass; the others are polished by Newton.  Each routing
    ladder is kept by the bytes of its point, and classify reuses it for a
    point that neither the compass search nor Newton moved.  The grid seeds
    only the ascent: a batched safeguarded Newton iteration from one seed
    per pair of extrema, the lowest of the samples of its segment
    (_segment_seeds), then collects the smooth stationary points; it is kept
    out of a 1e-2 bohr exclusion ball around each cusp.  Survivors are
    deduplicated within DEDUPE_RADIUS (highest density wins, ties broken by
    lexicographic position) and classified together; a point is kept when it is a
    cusp, when its ladder read a cusp without converging (not a cusp then),
    or when its gradient is at most GRAD_TOL.
    When no kept point is degenerate (each is a cusp or of rank 3) and
    n - b + r - c, a cusp counting as a maximum, is not the 1 of
    Poincare-Hopf, Newton runs from the centroid of every triple of extrema,
    and if the sum is still not 1, from seeds about the bond points
    (_bond_seeds).  A stage's new points farther than DEDUPE_RADIUS from
    every kept point are deduplicated, classified and kept as above; they
    never replace a kept point.  The sum cannot see a missed maximum together
    with the bond point to it.  The kept points are sorted on their
    positions rounded to multiples of DEDUPE_RADIUS, ties broken by the raw
    positions, so that roundoff in a coordinate near zero cannot flip the
    order.

    Raises EmptyResult when no seed converges to anything (flat model).
    """
    if seeds_per_axis < MIN_SEEDS:
        raise ValueError(f"seeds_per_axis must be >= {MIN_SEEDS}, got {seeds_per_axis}")
    if not model.terms:
        raise EmptyResult("model has no terms")
    box = default_search_box(model)

    axes = [np.linspace(box[0][i], box[1][i], seeds_per_axis) for i in range(3)]
    seeds = np.array(np.meshgrid(*axes, indexing="ij")).reshape(3, -1).T

    ends, kept = _ascend(model, seeds, box)
    if not kept.any():
        raise EmptyResult("no seed converged; model appears flat or degenerate")

    # probe cusp-ness of each candidate maximum cluster, then polish: a
    # compass search from the ascent's last step on the cusps, Newton on the rest.
    # The sign routes, converged or not: at an ascent endpoint, next to a kink
    # rather than on it, the ladder need not converge; classify reads the settled point,
    # and reuses the reading kept here, by the bytes of the point, where it did not move
    cusps: list[np.ndarray] = []
    maxima: list[np.ndarray] = []
    ladders = {}
    for x in _dedupe(ends[kept], model, radius=MAXIMA_MERGE_RADIUS):
        ladders[x.tobytes()] = estimate = radial_derivative_at_center(model, x, order)
        (cusps if estimate.log_derivative < -TAU_CUSP else maxima).append(x)
    cusps = list(_settle(model, cusps))
    polished, ok = _newton(model, maxima, box, cusps)
    smooth = list(np.where(ok[:, None], polished, np.reshape(maxima, (-1, 3))))

    # stationary points between maxima (bond-region saddles) have narrow
    # Newton basins; seed each at the lowest sample of the segment between its
    # pair of detected extrema
    extremum_reps = cusps + smooth
    found, ok = _newton(model, _segment_seeds(model, extremum_reps), box, cusps)
    smooth.extend(found[ok])

    points = _kept_points(model, _dedupe(cusps + smooth, model, radius=DEDUPE_RADIUS), order, ladders)
    if not points:
        raise EmptyResult("no critical points survived classification")

    # close the search on Poincare-Hopf: while no point is degenerate and the sum
    # is not 1, seed Newton from more of the structure found; each stage's points
    # farther than DEDUPE_RADIUS from every point kept join them
    for stage in (1, 2):
        if _poincare_hopf_sum(points) in (1, None):
            break
        if stage == 1:
            seeds = centroids = _triangle_centroids(extremum_reps)
        else:
            bonds = [p.position for p in points if p.rank == 3 and p.signature == -1]
            seeds = _bond_seeds(model, bonds, centroids)
        found, ok = _newton(model, seeds, box, cusps)
        known = np.reshape([p.position for p in points], (-1, 1, 3))
        new = found[ok][np.all(_norms(found[ok] - known) > DEDUPE_RADIUS, axis=0)]
        points += _kept_points(model, _dedupe(new, model, radius=DEDUPE_RADIUS), order, ladders)

    points.sort(key=lambda p: (*np.round(p.position / DEDUPE_RADIUS), *p.position))
    return points
