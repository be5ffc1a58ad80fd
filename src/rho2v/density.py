"""Analytic one-electron densities as mixtures of centered radial primitives.

A density is a nonnegative mixture

    rho(x) = sum_t  c_t * r_t^n_t * E_t(r_t),     r_t = |x - C_t|,

where each radial factor is either a Slater s-type exponential
E(r) = exp(-2*zeta*r) or a Gaussian E(r) = exp(-alpha*r^2), both written
as exp(-(a + b*r)*r) with (a, b) = (2*zeta, 0) or (0, alpha).  Coefficients
are constrained nonnegative so the mixture is pointwise nonnegative by
construction.  The Slater exponent convention exp(-2*zeta*r) makes an
isolated normalized term with zeta = Z the exact hydrogenic ground-state
density rho(r) = Z^3/pi * exp(-2*Z*r).

Everything here is a pure function of immutable inputs: evaluation,
analytic first and second derivatives, closed-form normalization.  Values,
gradients, Hessians and the mask of the points where the derivatives are
undefined come from one kernel pass over a struct-of-arrays view of the
terms that each model builds once.  The kernel takes the separations x - C
and |x - C| once per site, a distinct term center, and gathers them per
term, so the shells that share a nucleus share its separations.  A model
whose terms have no power, or that has no Gaussian term, leaves out of the
kernel the factors and terms that are then exactly 1 or 0, with the same
results bit for bit.  evaluate_grid gives those values on a regular grid from
squared separations taken once per axis and site, without building its points.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import AtCuspSingularity, ZeroDensity
from .radial import FOUR_PI, _columns, _moment

__all__ = [
    "PrimitiveKind",
    "RadialPrimitive",
    "NuclearFrame",
    "DensityModel",
    "evaluate",
    "evaluate_many",
    "evaluate_grid",
    "gradient",
    "hessian",
    "kernel_pass",
    "KernelPass",
    "total_integral",
    "normalize",
    "hydrogenic_model",
    "model_from_frame",
]

# Below this separation a point is treated as sitting exactly on a center.
CENTER_EPS = 1e-12
# points per pass of the density kernel; bounds its (terms, points, 3) temporaries
_CHUNK = 8192


class PrimitiveKind(enum.Enum):
    SLATER_S = "slater_s"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class RadialPrimitive:
    """One radial factor c * r^power * E(r) of the mixture.

    exponent is zeta (units 1/a0) for SLATER_S, i.e. E(r) = exp(-2*zeta*r),
    and alpha (units 1/a0^2) for GAUSSIAN, i.e. E(r) = exp(-alpha*r^2).
    """

    kind: PrimitiveKind
    coefficient: float
    exponent: float
    power: int = 0

    def __post_init__(self):
        if self.coefficient < 0.0:
            raise ValueError(f"coefficient must be >= 0, got {self.coefficient}")
        if not self.exponent > 0.0:
            raise ValueError(f"exponent must be > 0, got {self.exponent}")
        if self.power < 0 or int(self.power) != self.power:
            raise ValueError(f"power must be a nonnegative integer, got {self.power}")

    @property
    def envelope(self) -> tuple:
        """(c, a, b, n) of g(r) = c * r^n * exp(-(a + b*r) * r): Slater terms have
        a = 2*zeta, b = 0 and Gaussian terms a = 0, b = alpha."""
        if self.kind is PrimitiveKind.SLATER_S:
            return self.coefficient, 2.0 * self.exponent, 0.0, self.power
        return self.coefficient, 0.0, self.exponent, self.power

    @property
    def decay_length(self) -> float:
        """Characteristic length scale 1/zeta or 1/sqrt(alpha) in bohr."""
        if self.kind is PrimitiveKind.SLATER_S:
            return 1.0 / self.exponent
        return 1.0 / math.sqrt(self.exponent)


@dataclass(frozen=True)
class NuclearFrame:
    """Point nuclei: positions (M, 3) in bohr and positive charges (M,)."""

    positions: np.ndarray
    charges: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        chg = np.atleast_1d(np.asarray(self.charges, dtype=float))
        if pos.shape != (chg.size, 3):
            raise ValueError(f"positions shape {pos.shape} does not match {chg.size} charges")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if np.any(chg <= 0.0):
            raise ValueError("all charges must be > 0")
        for i in range(len(chg)):
            for j in range(i + 1, len(chg)):
                if np.linalg.norm(pos[i] - pos[j]) <= 1e-6:
                    raise ValueError(f"centers {i} and {j} are coalesced (separation <= 1e-6 bohr)")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "charges", chg)

    def __len__(self) -> int:
        return len(self.charges)

    def potential(self, point):
        """Coulomb potential v(x) = -sum_a Z_a / |x - R_a|.

        Accepts a single point (3,) or a batch (M, 3); returns -inf exactly
        on a nucleus.
        """
        pts = np.atleast_2d(np.asarray(point, dtype=float))
        d = np.linalg.norm(pts[:, None, :] - self.positions[None, :, :], axis=2)
        with np.errstate(divide="ignore"):
            v = -np.sum(self.charges[None, :] / d, axis=1)
        return v[0] if np.ndim(point) == 1 else v


@dataclass(frozen=True)
class DensityModel:
    """Mixture density: list of (center, primitive) terms plus metadata.

    frame is the optional ground-truth nuclear frame; reconstruction runs
    blind without it and reports match errors against it when present.
    """

    terms: tuple
    electron_count: int = 1
    frame: NuclearFrame | None = None

    def __post_init__(self):
        if self.electron_count < 1 or int(self.electron_count) != self.electron_count:
            raise ValueError(f"electron_count must be a positive integer, got {self.electron_count}")
        fixed = []
        for center, prim in self.terms:
            c = np.asarray(center, dtype=float).reshape(3)
            if not np.all(np.isfinite(c)):
                raise ValueError("term center must be finite")
            if not isinstance(prim, RadialPrimitive):
                raise ValueError("term primitive must be a RadialPrimitive")
            fixed.append((c, prim))
        object.__setattr__(self, "terms", tuple(fixed))
        object.__setattr__(self, "_arrays", _TermArrays.of(fixed))

    @property
    def centers(self) -> np.ndarray:
        """Unique term centers, (K, 3); empty (0, 3) for an empty model."""
        uniq = []
        for p in self._arrays.sites:
            if all(np.linalg.norm(p - q) > CENTER_EPS for q in uniq):
                uniq.append(p)
        return np.array(uniq).reshape(-1, 3)

    @property
    def max_decay_length(self) -> float:
        if not self.terms:
            return 1.0
        return max(p.decay_length for _, p in self.terms)


class _TermArrays(NamedTuple):
    """Struct-of-arrays view of a model's terms, one row per term, and of their sites."""

    centers: np.ndarray  # (T, 3)
    sites: np.ndarray  # (K, 3) distinct centers, bit for bit, in order of first use
    site_of: np.ndarray | None  # (T,) site row of each term; None when every term has its own
    c: np.ndarray  # (T, 1) coefficient
    a: np.ndarray  # (T, 1) 2*zeta for Slater terms, 0 for Gaussian terms
    b: np.ndarray  # (T, 1) 0 for Slater terms, alpha for Gaussian terms
    n: np.ndarray  # (T, 1) power
    singular: np.ndarray  # (T,) radial slope nonzero at the term's own center
    high: np.ndarray | None  # (T,) power > 2, g in log form; None when no term has one
    powered: bool  # some term has a power; if not, the kernel takes no r^n and no n/r
    gaussian: bool  # some term is a Gaussian; if not, the kernel takes no b*r and no b

    @classmethod
    def of(cls, terms) -> "_TermArrays":
        centers = np.array([center for center, _ in terms]).reshape(-1, 3)
        # keyed on the bytes, so 0.0 and -0.0 are two sites: merging them would change d
        rows = {}
        site_of = np.array([rows.setdefault(p.tobytes(), len(rows)) for p in centers], dtype=np.intp)
        if len(rows) == len(centers):
            sites, site_of = centers, None
        else:
            sites = centers[np.unique(site_of, return_index=True)[1]]
        c, a, b, n = _columns(prim for _, prim in terms)
        singular = ((n == 1) | ((n == 0) & (a > 0))).ravel()
        high = (n > 2).ravel()
        return cls(
            centers, sites, site_of, c, a, b, n, singular, high if high.any() else None, bool(n.any()), bool(b.any())
        )


def _log_form(c, a, b, n, r):
    """g as exp(log c + n log r - (a + b*r) * r): r^n alone overflows where g
    does not, e.g. at r = 67 bohr for n = 169."""
    with np.errstate(divide="ignore"):  # log 0 = -inf gives g = 0 for c = 0 or r = 0
        return np.exp(np.log(c) + n * np.log(r) - (a + b * r) * r)


def _term_values(t: _TermArrays, r: np.ndarray, out=None) -> np.ndarray:
    """g of every term at its separations r, (T, P); terms of power > 2 in log form.

    Without powers, or without Gaussians, the factors and terms that are then
    exactly 1 or 0 are left out: at finite r, g is the same bit for bit
    (r^0 = 1, c*1 = c, a + 0*r = a).  out is None, or two arrays shaped like
    r: the first takes exp's argument and then g, the second exp's value.
    The ufuncs and their operands are the same either way, and exp and power
    never write over their own input, so g is the same bit for bit."""
    x, e = (None, None) if out is None else out
    # x = -(a + b*r) * r, or -a * r
    if t.gaussian:
        x = np.multiply(t.b, r, out=x)
        np.add(t.a, x, out=x)
        np.negative(x, out=x)
        np.multiply(x, r, out=x)
    else:
        x = np.multiply(-t.a, r, out=x)
    e = np.exp(x, out=e)
    if not t.powered:
        return np.multiply(t.c, e, out=x)
    # g = c * r^n * e: one (T, P) power over every row: numpy picks its power
    # loop by layout, so rows taken apart, or one term at a time, can round an
    # ulp differently; the log-form rows take power 0 here and are overwritten
    g = np.power(r, t.n if t.high is None else np.where(t.high[:, None], 0.0, t.n), out=x)
    np.multiply(t.c, g, out=g)
    np.multiply(g, e, out=g)
    if t.high is not None:
        g[t.high] = _log_form(t.c[t.high], t.a[t.high], t.b[t.high], t.n[t.high], r[t.high])
    return g


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, of length 3: np.linalg.norm's floats
    without its per-call checks."""
    # the xyz sum written out as slice sums: np.add.reduce over the axis adds
    # (x0 + x1) + x2 too, the same floats, but takes 3 to 10 times as long (9
    # against 3 us at 512 rows, 133 against 12 us at 8192; numpy 2.4 on a
    # 2-vCPU Xeon VM)
    q = v * v
    return np.sqrt(q[..., 0] + q[..., 1] + q[..., 2])


def _separation(centers, pts):
    """d = x - C, (K, P, 3), and r = |d|, (K, P), for every center and point.
    r sums the squares over xyz as slices, (d_x^2 + d_y^2) + d_z^2: np.add.reduce's
    association and floats at a fraction of its cost (_norms)."""
    d = pts - centers[:, None, :]
    return d, _norms(d)


def _site_values(t: _TermArrays, r: np.ndarray, out=None) -> tuple:
    """From the site separations r (K, P): the term separations (T, P), g of every
    term there and the density, their sum in term order.  out is None, or the
    arrays that take them: (T, P) for the term separations (unused when every
    term has its own site), two (T, P) for _term_values, and (P,) for the
    density."""
    if t.site_of is not None:
        # the rows are in range; "clip" writes straight into out, "raise" through a copy
        r = r[t.site_of] if out is None else np.take(r, t.site_of, axis=0, out=out[0], mode="clip")
    g = _term_values(t, r, None if out is None else out[1:3])
    return r, g, np.add.reduce(g, axis=0, out=None if out is None else out[3])


class KernelPass(NamedTuple):
    """One pass of the density kernel over a batch of points (P, 3)."""

    value: np.ndarray  # (P,) density
    gradient: np.ndarray | None  # (P, 3), order >= 1
    hessian: np.ndarray | None  # (P, 3, 3), order 2
    on_cusp: np.ndarray | None  # (P,) bool, order >= 1: derivatives undefined, entries there meaningless


def _term_sum(t: _TermArrays, pts: np.ndarray, order: int) -> tuple:
    """Sum over terms of the value and of its derivatives up to order (0, 1 or 2)
    at each point, with the mask of the points on a singular center: the
    fields of a KernelPass, as a plain tuple.  Never raises.

    With s = g'/g = n/r - q and q = a + 2*b*r,
        g'' = g * ((n*(n-1)/r - 2*n*q)/r + q^2 - 2*b),
    which is g * (s^2 - n/r^2 - 2*b) without its cancellation for n = 1.
    """
    d, r = _separation(t.sites, pts)
    r, g, value = _site_values(t, r)
    if order == 0:
        return value, None, None, None
    if t.site_of is not None:
        d = d[t.site_of]
    at_center = r < CENTER_EPS
    centered = np.count_nonzero(at_center) > 0
    if centered:
        cusp = np.any(at_center[t.singular], axis=0)
        r = np.where(at_center, 1.0, r)  # every term at its own center, patched below
    else:
        cusp = np.zeros(len(pts), dtype=bool)
    q = t.a + 2.0 * t.b * r if t.gaussian else t.a
    # g'/g = n/r - q; without powers 0/r - q = 0.0 - q, which is +0.0 (not -0.0) at q = 0
    slope = g * (t.n / r - q if t.powered else 0.0 - q) / r  # g'/r
    if centered:
        slope = np.where(at_center, 0.0, slope)
    grad = np.add.reduce(slope[:, :, None] * d, axis=0)
    if order == 1:
        return value, grad, None, cusp
    # without powers the first part is (-0.0/r - 0.0)/r = -0.0, and -0.0 + q*q = q*q
    g2 = (t.n * (t.n - 1.0) / r - 2.0 * t.n * q) / r + q * q if t.powered else q * q
    g2 = g * (g2 - 2.0 * t.b if t.gaussian else g2)
    radial = (g2 - slope) / (r * r)
    if centered:
        radial = np.where(at_center, 0.0, radial)
        # g''(0) of a smooth term at its own center: -2*c*b for n = 0, 2*c for n = 2
        slope = np.where(at_center, t.c * (2.0 * (t.n == 2) - 2.0 * t.b * (t.n == 0)), slope)
    hess = np.einsum("tp,tpi,tpj->pij", radial, d, d) + np.add.reduce(slope, axis=0)[:, None, None] * np.eye(3)
    return value, grad, hess, cusp


def _chunked(t: _TermArrays, points, order: int) -> tuple:
    """_term_sum over the points (M, 3) in chunks of _CHUNK, so temporaries stay O(T * _CHUNK)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(pts) <= _CHUNK:
        return _term_sum(t, pts, order)
    parts = [_term_sum(t, pts[lo : lo + _CHUNK], order) for lo in range(0, len(pts), _CHUNK)]
    return tuple(None if field[0] is None else np.concatenate(field) for field in zip(*parts))


def kernel_pass(model: DensityModel, points, order: int) -> KernelPass:
    """The density and its derivatives up to order at a batch of points (M, 3),
    with the on-cusp mask for order >= 1.

    Rounding depends on the batch size: numpy sums the terms of a one-point
    pass pairwise and of a larger one in term order, so on a model of 8 or
    more terms a point's value and Hessian can differ by an ulp between a pass
    of its own and a pass with other points.  Its gradient and cusp mask
    cannot.  A caller that must give the same bits keeps its batch size."""
    return KernelPass(*_chunked(model._arrays, points, order))


def _derivatives(model: DensityModel, points, order: int) -> KernelPass:
    """kernel_pass, raising AtCuspSingularity where the derivatives are undefined."""
    p = kernel_pass(model, points, order)
    if p.on_cusp.any():
        at = np.asarray(points, dtype=float).reshape(-1, 3)[np.argmax(p.on_cusp)]
        raise AtCuspSingularity(f"derivatives undefined at {at.tolist()}, on a cusped center")
    return p


def evaluate_many(model: DensityModel, points) -> np.ndarray:
    """Density at a batch of points (M, 3) -> (M,)."""
    return _chunked(model._arrays, points, 0)[0]


def evaluate_grid(model: DensityModel, origin, step, counts) -> np.ndarray:
    """Density at origin + (i, j, k) * step for 0 <= (i, j, k) < counts, z fastest:
    evaluate_many at those points bit for bit, without building them.  Each
    (x_k - C_k)^2 is taken once per axis and site, (K, n_k), and r is
    sqrt((sq_x + sq_y) + sq_z), _separation's sum, over each of evaluate_many's
    8192-point chunks: the tail of the first z-row the chunk touches, its whole
    z-rows and the head of its last, so no chunk sums more than its own points.
    The chunks stay, with evaluate_many's boundaries and contiguous (T, P)
    layout, since the power loop can round by layout.  The work arrays of the
    largest chunk are allocated once and every chunk's ufuncs write into them,
    so that (T, 8192) temporaries are not allocated, and their pages faulted
    in, chunk after chunk."""
    ny, nz = counts[1], counts[2]
    out = np.empty(counts[0] * ny * nz)  # first: a grid too large to hold fails here
    t = model._arrays
    sq = [o + np.arange(n) * h - c[:, None] for o, h, n, c in zip(origin, step, counts, t.sites.T)]
    for d in sq:
        np.square(d, out=d)
    k, n = len(t.sites), len(t.c)
    # flat, so that each chunk's views are contiguous: the squares summed and r
    # per site, and _site_values' r per term (unused when every term has its
    # own site), x and g, and exp
    r_buf, *work = (np.empty(m * _CHUNK) for m in (k, n, n, n))
    for lo in range(0, len(out), _CHUNK):
        hi = min(lo + _CHUNK, len(out))
        (first, z0), last = divmod(lo, nz), (hi - 1) // nz
        rows = np.arange(first, last + 1)  # the z-rows the chunk touches
        xy = sq[0][:, rows // ny] + sq[1][:, rows % ny]
        r = r_buf[: k * (hi - lo)].reshape(k, hi - lo)
        if first == last:
            np.add(xy, sq[2][:, z0 : z0 + hi - lo], out=r)
        else:
            head, tail = nz - z0, hi - last * nz
            np.add(xy[:, :1], sq[2][:, z0:], out=r[:, :head])
            np.add(xy[:, 1:-1, None], sq[2][:, None, :], out=r[:, head : hi - lo - tail].reshape(k, last - first - 1, nz))
            np.add(xy[:, -1:], sq[2][:, :tail], out=r[:, hi - lo - tail :])
        np.sqrt(r, out=r)
        _site_values(t, r, [w[: n * (hi - lo)].reshape(n, hi - lo) for w in work] + [out[lo:hi]])
    return out


def evaluate(model: DensityModel, point) -> float:
    """Density at one point; exact analytic sum, total on all of R^3."""
    return float(evaluate_many(model, np.asarray(point, dtype=float).reshape(1, 3))[0])


def gradient(model: DensityModel, point) -> np.ndarray:
    """Analytic gradient of the mixture at a point (3,) or a batch (M, 3).

    Raises AtCuspSingularity within 1e-12 bohr of the center of any term
    whose radial slope does not vanish there (Slater power 0 or 1, Gaussian
    power 1): the direction of the gradient is undefined at such points.
    """
    g = _derivatives(model, point, 1).gradient
    return g[0] if np.ndim(point) == 1 else g


def hessian(model: DensityModel, point) -> np.ndarray:
    """Analytic Hessian (symmetric 3x3) of the mixture at a point (3,) or a batch (M, 3).

    For a radial term g(r):  H = (g'' - g'/r) u u^T + (g'/r) I  with
    u = (x - C)/r.  Terms smooth at their center contribute g''(0) * I
    when evaluated exactly there; singular terms raise as in gradient().
    """
    h = _derivatives(model, point, 2).hessian
    return h[0] if np.ndim(point) == 1 else h


def total_integral(model: DensityModel) -> float:
    """Closed-form integral of the density over R^3, in electrons: 4*pi times
    the m = 2 radial moment of every term from 0."""
    t = model._arrays
    return float(sum(_moment(FOUR_PI * t.c, t.a, t.b, t.n, 2)(0.0, complement=True)[:, 0]))


def normalize(model: DensityModel) -> DensityModel:
    """Rescale all coefficients so the density integrates to model.electron_count."""
    n = model.electron_count
    total = total_integral(model)
    if total <= 0.0:
        raise ZeroDensity("cannot normalize a model with zero total integral")
    if total == math.inf:
        raise ValueError("the total integral is beyond the float range")
    scale = n / total
    terms = tuple(
        (center, replace(prim, coefficient=prim.coefficient * scale))
        for center, prim in model.terms
    )
    return DensityModel(terms=terms, electron_count=n, frame=model.frame)


def hydrogenic_model(z: float, center=(0.0, 0.0, 0.0)) -> DensityModel:
    """Exact one-electron hydrogen-like density Z^3/pi * exp(-2 Z r).

    The model carries its single-center ground-truth frame.
    """
    if z <= 0.0:
        raise ValueError("nuclear charge must be > 0")
    prim = RadialPrimitive(
        kind=PrimitiveKind.SLATER_S,
        coefficient=z**3 / math.pi,
        exponent=z,
        power=0,
    )
    frame = NuclearFrame(np.asarray(center, dtype=float).reshape(1, 3), np.array([z]))
    return DensityModel(terms=((np.asarray(center, dtype=float), prim),), frame=frame)


def model_from_frame(frame: NuclearFrame) -> DensityModel:
    """Superposition fixture: one normalized Slater term per nucleus.

    Center alpha gets coefficient Z_a^4/pi and exponent zeta = Z_a, i.e. a
    hydrogen-like cloud holding Z_a electrons, so the model is neutral and
    every cusp encodes its own charge exactly up to cross-center tails.
    """
    terms = []
    for pos, z in zip(frame.positions, frame.charges):
        prim = RadialPrimitive(
            kind=PrimitiveKind.SLATER_S,
            coefficient=z**4 / math.pi,
            exponent=float(z),
            power=0,
        )
        terms.append((pos.copy(), prim))
    n = int(round(float(np.sum(frame.charges))))
    return DensityModel(terms=tuple(terms), electron_count=max(n, 1), frame=frame)
