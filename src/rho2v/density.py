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
gradients and Hessians come from one kernel over a struct-of-arrays view of
the terms that each model builds once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import AtCuspSingularity, ZeroDensity

__all__ = [
    "PrimitiveKind",
    "RadialPrimitive",
    "NuclearFrame",
    "DensityModel",
    "evaluate",
    "evaluate_many",
    "gradient",
    "hessian",
    "on_cusp",
    "total_integral",
    "normalize",
    "translate",
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

    def radial_value(self, r):
        """g(r) = c * r^n * E(r) for scalar or array r >= 0."""
        r = np.asarray(r, dtype=float)
        # arithmetic on a 0-d array costs about a microsecond per operation
        return _radial(*self.envelope, r if r.ndim else float(r))

    @property
    def decay_length(self) -> float:
        """Characteristic length scale 1/zeta or 1/sqrt(alpha) in bohr."""
        if self.kind is PrimitiveKind.SLATER_S:
            return 1.0 / self.exponent
        return 1.0 / math.sqrt(self.exponent)

    def total_integral(self) -> float:
        """Closed-form 4*pi * int_0^inf r^(n+2) g(r)/c... see module notes.

        Slater:   4*pi*c*(n+2)! / (2*zeta)^(n+3)
        Gaussian: 2*pi*c*Gamma((n+3)/2) / alpha^((n+3)/2)
        """
        c, n = self.coefficient, self.power
        if self.kind is PrimitiveKind.SLATER_S:
            return 4.0 * math.pi * c * math.factorial(n + 2) / (2.0 * self.exponent) ** (n + 3)
        half = 0.5 * (n + 3)
        return 2.0 * math.pi * c * math.gamma(half) / self.exponent**half


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

    def potential(self, point, offset: float = 0.0):
        """Coulomb potential v(x) = -sum_a Z_a / |x - R_a| (+ offset).

        Accepts a single point (3,) or a batch (M, 3); returns -inf exactly
        on a nucleus.
        """
        pts = np.atleast_2d(np.asarray(point, dtype=float))
        d = np.linalg.norm(pts[:, None, :] - self.positions[None, :, :], axis=2)
        with np.errstate(divide="ignore"):
            v = -np.sum(self.charges[None, :] / d, axis=1) + offset
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
        for p in self._arrays.centers:
            if all(np.linalg.norm(p - q) > CENTER_EPS for q in uniq):
                uniq.append(p)
        return np.array(uniq).reshape(-1, 3)

    @property
    def max_decay_length(self) -> float:
        if not self.terms:
            return 1.0
        return max(p.decay_length for _, p in self.terms)


class _TermArrays(NamedTuple):
    """Struct-of-arrays view of a model's terms, one row per term."""

    centers: np.ndarray  # (T, 3)
    c: np.ndarray  # (T, 1) coefficient
    a: np.ndarray  # (T, 1) 2*zeta for Slater terms, 0 for Gaussian terms
    b: np.ndarray  # (T, 1) 0 for Slater terms, alpha for Gaussian terms
    n: np.ndarray  # (T, 1) power
    singular: np.ndarray  # (T,) radial slope nonzero at the term's own center

    @classmethod
    def of(cls, terms) -> "_TermArrays":
        centers = np.array([center for center, _ in terms]).reshape(-1, 3)
        c, a, b, n = np.array([prim.envelope for _, prim in terms], dtype=float).reshape(-1, 4).T[:, :, None]
        singular = ((n == 1) | ((n == 0) & (a > 0))).ravel()
        return cls(centers, c, a, b, n, singular)


def _radial(c, a, b, n, r):
    """g(r) = c * r^n * exp(-(a + b*r) * r), the one formula for every kind."""
    return c * r**n * np.exp(-(a + b * r) * r)


def _separation(centers, pts):
    """d = x - C, (T, P, 3), and r = |d|, (T, P), for every term and point."""
    d = pts - centers[:, None, :]
    return d, np.sqrt(np.add.reduce(d * d, axis=2))


def _chunked(fn, points) -> np.ndarray:
    """fn over the points (M, 3) in fixed chunks, so temporaries stay O(T * _CHUNK)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(pts) <= _CHUNK:
        return fn(pts)
    return np.concatenate([fn(pts[lo : lo + _CHUNK]) for lo in range(0, len(pts), _CHUNK)])


def _term_sum(t: _TermArrays, pts: np.ndarray, order: int) -> np.ndarray:
    """Sum over terms of the value (order 0), gradient (1) or Hessian (2) at each point.

    With s = g'/g = n/r - q and q = a + 2*b*r,
        g'' = g * ((n*(n-1)/r - 2*n*q)/r + q^2 - 2*b),
    which is g * (s^2 - n/r^2 - 2*b) without its cancellation for n = 1.
    """
    d, r = _separation(t.centers, pts)
    g = _radial(t.c, t.a, t.b, t.n, r)
    if order == 0:
        return np.add.reduce(g, axis=0)
    at_center = r < CENTER_EPS
    centered = np.count_nonzero(at_center) > 0
    if centered:
        hit = np.flatnonzero(np.any(at_center, axis=1) & t.singular)
        if len(hit):
            raise AtCuspSingularity(f"derivatives undefined at cusped center {t.centers[hit[0]].tolist()}")
        r = np.where(at_center, 1.0, r)  # smooth terms at their own center, patched below
    q = t.a + 2.0 * t.b * r
    slope = g * (t.n / r - q) / r  # g'/r
    if centered:
        slope = np.where(at_center, 0.0, slope)
    if order == 1:
        return np.add.reduce(slope[:, :, None] * d, axis=0)
    g2 = g * ((t.n * (t.n - 1.0) / r - 2.0 * t.n * q) / r + q * q - 2.0 * t.b)
    radial = (g2 - slope) / (r * r)
    if centered:
        radial = np.where(at_center, 0.0, radial)
        # g''(0) of a smooth term at its own center: -2*c*b for n = 0, 2*c for n = 2
        slope = np.where(at_center, t.c * (2.0 * (t.n == 2) - 2.0 * t.b * (t.n == 0)), slope)
    return np.einsum("tp,tpi,tpj->pij", radial, d, d) + np.add.reduce(slope, axis=0)[:, None, None] * np.eye(3)


def evaluate_many(model: DensityModel, points) -> np.ndarray:
    """Density at a batch of points (M, 3) -> (M,)."""
    return _chunked(lambda pts: _term_sum(model._arrays, pts, 0), points)


def evaluate(model: DensityModel, point) -> float:
    """Density at one point; exact analytic sum, total on all of R^3."""
    return float(evaluate_many(model, np.asarray(point, dtype=float).reshape(1, 3))[0])


def gradient(model: DensityModel, point) -> np.ndarray:
    """Analytic gradient of the mixture at a point (3,) or a batch (M, 3).

    Raises AtCuspSingularity within 1e-12 bohr of the center of any term
    whose radial slope does not vanish there (Slater power 0 or 1, Gaussian
    power 1): the direction of the gradient is undefined at such points.
    """
    g = _chunked(lambda pts: _term_sum(model._arrays, pts, 1), point)
    return g[0] if np.ndim(point) == 1 else g


def hessian(model: DensityModel, point) -> np.ndarray:
    """Analytic Hessian (symmetric 3x3) of the mixture at a point.

    For a radial term g(r):  H = (g'' - g'/r) u u^T + (g'/r) I  with
    u = (x - C)/r.  Terms smooth at their center contribute g''(0) * I
    when evaluated exactly there; singular terms raise as in gradient().
    """
    return _term_sum(model._arrays, np.asarray(point, dtype=float).reshape(1, 3), 2)[0]


def on_cusp(model: DensityModel, points) -> np.ndarray:
    """(M,) mask of the points where gradient and hessian raise AtCuspSingularity."""
    cusps = model._arrays.centers[model._arrays.singular]
    return _chunked(lambda pts: np.any(_separation(cusps, pts)[1] < CENTER_EPS, axis=0), points)


def total_integral(model: DensityModel) -> float:
    """Closed-form integral of the density over R^3, in electrons."""
    return sum(prim.total_integral() for _, prim in model.terms)


def normalize(model: DensityModel, electron_count: int | None = None) -> DensityModel:
    """Rescale all coefficients so the density integrates to electron_count."""
    n = model.electron_count if electron_count is None else electron_count
    total = total_integral(model)
    if total <= 0.0:
        raise ZeroDensity("cannot normalize a model with zero total integral")
    scale = n / total
    terms = tuple(
        (center, replace(prim, coefficient=prim.coefficient * scale))
        for center, prim in model.terms
    )
    return DensityModel(terms=terms, electron_count=n, frame=model.frame)


def translate(model: DensityModel, shift) -> DensityModel:
    """Rigidly translate every term center (and the frame) by shift."""
    s = np.asarray(shift, dtype=float).reshape(3)
    terms = tuple((center + s, prim) for center, prim in model.terms)
    frame = None
    if model.frame is not None:
        frame = NuclearFrame(model.frame.positions + s, model.frame.charges)
    return DensityModel(terms=terms, electron_count=model.electron_count, frame=frame)


def hydrogenic_model(z: float, center=(0.0, 0.0, 0.0), electrons: int = 1) -> DensityModel:
    """Exact one-electron hydrogen-like density Z^3/pi * exp(-2 Z r).

    The model carries its single-center ground-truth frame.
    """
    if z <= 0.0:
        raise ValueError("nuclear charge must be > 0")
    prim = RadialPrimitive(
        kind=PrimitiveKind.SLATER_S,
        coefficient=electrons * z**3 / math.pi,
        exponent=z,
        power=0,
    )
    frame = NuclearFrame(np.asarray(center, dtype=float).reshape(1, 3), np.array([z]))
    return DensityModel(terms=((np.asarray(center, dtype=float), prim),), electron_count=electrons, frame=frame)


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
