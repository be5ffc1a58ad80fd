"""Radial quadrature for atomic-style integrals.

All integrands here decay exponentially (Slater) or super-exponentially
(Gaussian), so Gauss-Laguerre rules with the weight matched to the
integrand's own decay are used: for int_0^inf g(r) exp(-beta*r) dr only the
non-exponential factor g is evaluated at the scaled nodes, which is exact
whenever g is polynomial.  Gaussian radial moments use the generalized
(power-weighted) Laguerre rule after t = alpha*r^2.

Coulomb attraction of a spherical charge shell reduces by Newton's theorem
to the 1/max(r, d) kernel, splitting each center pair into a finite
Gauss-Legendre piece on [0, d] and a matched-decay tail on [d, inf).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_legendre

from .density import DensityModel, NuclearFrame, PrimitiveKind, RadialPrimitive
from .errors import QuadratureNotConverged

__all__ = [
    "DEFAULT_NODES",
    "integrate_decaying",
    "radial_moment",
    "primitive_attraction",
    "model_moment",
    "frame_attraction",
    "converged",
]

DEFAULT_NODES = 200
CONVERGENCE_TOL = 1e-8


@lru_cache(maxsize=64)
def _genlaguerre(n: int, alpha: float = 0.0):
    """Generalized Gauss-Laguerre nodes/weights by Golub-Welsch.

    Built from the symmetric tridiagonal Jacobi matrix (diagonal
    2i+alpha+1, off-diagonal sqrt(i(i+alpha))), which stays stable at node
    counts where the recurrence-based evaluation overflows; tail weights
    underflow harmlessly to zero.
    """
    i = np.arange(n)
    diag = 2.0 * i + alpha + 1.0
    off = np.sqrt((i[1:]) * (i[1:] + alpha))
    nodes, vectors = eigh_tridiagonal(diag, off)
    weights = math.gamma(alpha + 1.0) * vectors[0, :] ** 2
    return nodes, weights


@lru_cache(maxsize=64)
def _legendre(n: int):
    return roots_legendre(n)


def integrate_decaying(g, beta: float, nodes: int = DEFAULT_NODES) -> float:
    """int_0^inf g(r) exp(-beta*r) dr with the weight matched to beta."""
    x, w = _genlaguerre(nodes, 0.0)
    return float(np.dot(w, g(x / beta)) / beta)


def _segment(f, a: float, b: float, nodes: int) -> float:
    x, w = _legendre(nodes)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.dot(w, f(mid + half * x)))


def radial_moment(prim: RadialPrimitive, m: int, nodes: int = DEFAULT_NODES, lower: float = 0.0) -> float:
    """int_lower^inf r^m * g_prim(r) dr by matched-weight quadrature."""
    c, n = prim.coefficient, prim.power
    p = m + n  # total power of r against the envelope
    if prim.kind is PrimitiveKind.SLATER_S:
        beta = 2.0 * prim.exponent
        if lower == 0.0:
            return integrate_decaying(lambda r: c * r**p, beta, nodes)
        shift = math.exp(-beta * lower)
        return shift * integrate_decaying(lambda s: c * (lower + s) ** p, beta, nodes)
    alpha = prim.exponent
    if lower == 0.0:
        # t = alpha r^2:  (c / (2 alpha^{(p+1)/2})) int t^{(p-1)/2} e^{-t} dt
        x, w = _genlaguerre(nodes, 0.5 * (p - 1))
        return float(c / (2.0 * alpha ** (0.5 * (p + 1))) * np.sum(w))
    # u = alpha (r^2 - lower^2); integrand analytic for lower > 0
    shift = math.exp(-alpha * lower * lower)
    x, w = _genlaguerre(nodes, 0.0)
    rsq = lower * lower + x / alpha
    return float(shift / (2.0 * alpha) * np.dot(w, c * rsq ** (0.5 * (p - 1))))


def primitive_attraction(prim: RadialPrimitive, d: float, nodes: int = DEFAULT_NODES) -> float:
    """int g_prim(|x|) / |x - d*ez| d^3x for a spherical term at distance d.

    Newton's shell theorem turns this into
        4*pi * [ (1/d) int_0^d r^2 g dr + int_d^inf r g dr ]
    (the whole second form with d -> 0 giving 4*pi int r g dr).
    """
    if d < 0.0:
        raise ValueError("distance must be nonnegative")
    if d == 0.0:
        return 4.0 * math.pi * radial_moment(prim, 1, nodes)
    inner = _segment(lambda r: r * r * prim.radial_value(r), 0.0, d, nodes)
    outer = radial_moment(prim, 1, nodes, lower=d)
    return 4.0 * math.pi * (inner / d + outer)


def model_moment(model: DensityModel, m: int, nodes: int = DEFAULT_NODES) -> float:
    """Sum of per-term radial moments; m = 2 gives int rho / 4 pi."""
    return sum(radial_moment(prim, m, nodes) for _, prim in model.terms)


def frame_attraction(model: DensityModel, frame: NuclearFrame, nodes: int = DEFAULT_NODES) -> float:
    """int v_frame(x) rho(x) d^3x  (negative: attraction)."""
    total = 0.0
    for center, prim in model.terms:
        for pos, z in zip(frame.positions, frame.charges):
            d = float(np.linalg.norm(center - pos))
            total -= float(z) * primitive_attraction(prim, d, nodes)
    return total


def converged(compute, nodes: int = DEFAULT_NODES, tol: float = CONVERGENCE_TOL, label: str = "integral") -> float:
    """Evaluate compute(nodes); doubling nodes must not move the result."""
    coarse = compute(nodes)
    fine = compute(2 * nodes)
    if abs(fine - coarse) > tol:
        raise QuadratureNotConverged(
            f"{label} moved by {abs(fine - coarse):.3e} when doubling nodes from {nodes}"
        )
    return fine
