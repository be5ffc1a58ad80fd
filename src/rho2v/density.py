"""Analytic one-electron densities as mixtures of centered radial primitives.

A density is a nonnegative mixture

    rho(x) = sum_t  c_t * r_t^n_t * E_t(r_t),     r_t = |x - C_t|,

where each radial factor is either a Slater s-type exponential
E(r) = exp(-2*zeta*r) or a Gaussian E(r) = exp(-alpha*r^2).  Coefficients
are constrained nonnegative so the mixture is pointwise nonnegative by
construction.  The Slater exponent convention exp(-2*zeta*r) makes an
isolated normalized term with zeta = Z the exact hydrogenic ground-state
density rho(r) = Z^3/pi * exp(-2*Z*r).

Everything here is a pure function of immutable inputs: evaluation,
analytic first and second derivatives, closed-form normalization.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

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
    "total_integral",
    "normalize",
    "translate",
    "hydrogenic_model",
    "model_from_frame",
]

# Below this separation a point is treated as sitting exactly on a center.
CENTER_EPS = 1e-12


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

    def radial_value(self, r):
        """g(r) = c * r^n * E(r) for scalar or array r >= 0."""
        r = np.asarray(r, dtype=float)
        if self.kind is PrimitiveKind.SLATER_S:
            env = np.exp(-2.0 * self.exponent * r)
        else:
            env = np.exp(-self.exponent * r * r)
        if self.power == 0:
            return self.coefficient * env
        return self.coefficient * r**self.power * env

    def radial_derivative(self, r):
        """g'(r) for scalar or array r > 0."""
        r = np.asarray(r, dtype=float)
        c, n = self.coefficient, self.power
        if self.kind is PrimitiveKind.SLATER_S:
            env = np.exp(-2.0 * self.exponent * r)
            poly = -2.0 * self.exponent * r**n
        else:
            env = np.exp(-self.exponent * r * r)
            poly = -2.0 * self.exponent * r ** (n + 1)
        if n > 0:
            poly = poly + n * r ** (n - 1)
        return c * env * poly

    def radial_second_derivative(self, r):
        """g''(r) for scalar or array r > 0."""
        r = np.asarray(r, dtype=float)
        c, n = self.coefficient, self.power
        if self.kind is PrimitiveKind.SLATER_S:
            z = self.exponent
            env = np.exp(-2.0 * z * r)
            poly = 4.0 * z * z * r**n
            if n > 0:
                poly = poly - 4.0 * z * n * r ** (n - 1)
            if n > 1:
                poly = poly + n * (n - 1) * r ** (n - 2)
        else:
            a = self.exponent
            env = np.exp(-a * r * r)
            poly = 4.0 * a * a * r ** (n + 2) - 2.0 * a * (2 * n + 1) * r**n
            if n > 1:
                poly = poly + n * (n - 1) * r ** (n - 2)
        return c * env * poly

    @property
    def gradient_singular(self) -> bool:
        """True when grad of this term is undefined at its own center.

        Slater terms with power 0 or 1 and Gaussian terms with power 1 have
        a direction-dependent or nonzero radial slope at r = 0.
        """
        if self.kind is PrimitiveKind.SLATER_S:
            return self.power <= 1
        return self.power == 1

    def hessian_center_limit(self) -> float:
        """lim_{r->0} g'(r)/r (= g''(0)) for terms smooth enough at center.

        The Hessian contribution at the exact center is this value times the
        identity matrix.  Only meaningful when gradient_singular is False.
        """
        c, n = self.coefficient, self.power
        if self.kind is PrimitiveKind.GAUSSIAN and n == 0:
            return -2.0 * c * self.exponent
        if n == 2:
            return 2.0 * c
        return 0.0

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

    @property
    def centers(self) -> np.ndarray:
        """Unique term centers, (K, 3); empty (0, 3) for an empty model."""
        if not self.terms:
            return np.zeros((0, 3))
        pts = np.array([c for c, _ in self.terms])
        uniq = [pts[0]]
        for p in pts[1:]:
            if all(np.linalg.norm(p - q) > CENTER_EPS for q in uniq):
                uniq.append(p)
        return np.array(uniq)

    @property
    def max_decay_length(self) -> float:
        if not self.terms:
            return 1.0
        return max(p.decay_length for _, p in self.terms)


def evaluate_many(model: DensityModel, points) -> np.ndarray:
    """Density at a batch of points (M, 3) -> (M,)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(len(pts))
    for center, prim in model.terms:
        r = np.linalg.norm(pts - center, axis=1)
        out += prim.radial_value(r)
    return out


def evaluate(model: DensityModel, point) -> float:
    """Density at one point; exact analytic sum, total on all of R^3."""
    return float(evaluate_many(model, np.asarray(point, dtype=float).reshape(1, 3))[0])


def gradient(model: DensityModel, point) -> np.ndarray:
    """Analytic gradient of the mixture at a point.

    Raises AtCuspSingularity within 1e-12 bohr of the center of any term
    whose radial slope does not vanish there (Slater power 0 or 1, Gaussian
    power 1): the direction of the gradient is undefined at such points.
    """
    x = np.asarray(point, dtype=float).reshape(3)
    g = np.zeros(3)
    for center, prim in model.terms:
        d = x - center
        r = float(np.linalg.norm(d))
        if r < CENTER_EPS:
            if prim.gradient_singular:
                raise AtCuspSingularity(
                    f"gradient undefined at cusped center {center.tolist()}"
                )
            continue  # smooth terms contribute zero gradient at their center
        g += float(prim.radial_derivative(r)) * d / r
    return g


def hessian(model: DensityModel, point) -> np.ndarray:
    """Analytic Hessian (symmetric 3x3) of the mixture at a point.

    For a radial term g(r):  H = (g'' - g'/r) u u^T + (g'/r) I  with
    u = (x - C)/r.  Terms smooth at their center contribute g''(0) * I
    when evaluated exactly there; singular terms raise as in gradient().
    """
    x = np.asarray(point, dtype=float).reshape(3)
    h = np.zeros((3, 3))
    eye = np.eye(3)
    for center, prim in model.terms:
        d = x - center
        r = float(np.linalg.norm(d))
        if r < CENTER_EPS:
            if prim.gradient_singular:
                raise AtCuspSingularity(
                    f"hessian undefined at cusped center {center.tolist()}"
                )
            h += prim.hessian_center_limit() * eye
            continue
        u = d / r
        g1 = float(prim.radial_derivative(r))
        g2 = float(prim.radial_second_derivative(r))
        h += (g2 - g1 / r) * np.outer(u, u) + (g1 / r) * eye
    return h


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
