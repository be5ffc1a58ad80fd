"""Radial moments and Coulomb integrals of atomic-style densities.

Every integral here is a regularized incomplete gamma function, P or
Q = 1 - P, as rho2v.scaling computes them for cumulative charges.  A
radial moment int_lower^inf r^m g(r) dr of a term g = c r^n E(r) is

    Slater   E = exp(-beta r):     c Gamma(a) Q(a, beta lower) / beta^a,
             a = m + n + 1
    Gaussian E = exp(-alpha r^2):  c Gamma(a) Q(a, alpha lower^2) / (2 alpha^a),
             a = (m + n + 1) / 2

Coulomb attraction of a spherical charge cloud reduces by Newton's shell
theorem to the 1/max(r, d) kernel: the charge within d acts as if at the
center and each shell beyond d contributes its own 1/r.  So a same-center
pair (d = 0) is one moment, and a displaced pair is the cumulative charge
within d over d plus a moment from d.
"""

from __future__ import annotations

import math

import numpy as np

from .density import DensityModel, NuclearFrame, PrimitiveKind, RadialPrimitive
from .scaling import _regularized_gamma, _term_cumulative

__all__ = [
    "radial_moment",
    "primitive_attraction",
    "frame_attraction",
]


def radial_moment(prim: RadialPrimitive, m: int, lower: float = 0.0) -> float:
    """int_lower^inf r^m * g_prim(r) dr."""
    c, n = prim.coefficient, prim.power
    if prim.kind is PrimitiveKind.SLATER_S:
        beta = 2.0 * prim.exponent
        a = m + n + 1
        q = _regularized_gamma(a, beta * lower, complement=True)
        return float(c * math.gamma(a) * q / beta**a)
    alpha = prim.exponent
    a = 0.5 * (m + n + 1)
    q = _regularized_gamma(a, alpha * lower * lower, complement=True)
    return float(c * math.gamma(a) * q / (2.0 * alpha**a))


def primitive_attraction(prim: RadialPrimitive, d: float) -> float:
    """int g_prim(|x|) / |x - d*ez| d^3x for a spherical term at distance d.

    Newton's shell theorem turns this into
        (1/d) int_{|x| < d} g d^3x + 4*pi int_d^inf r g dr,
    of which only the second term is left at d = 0.
    """
    if d < 0.0:
        raise ValueError("distance must be nonnegative")
    outer = 4.0 * math.pi * radial_moment(prim, 1, lower=d)
    if d == 0.0:
        return outer
    return float(_term_cumulative(prim, d, complement=False)) / d + outer


def frame_attraction(model: DensityModel, frame: NuclearFrame) -> float:
    """int v_frame(x) rho(x) d^3x  (negative: attraction)."""
    total = 0.0
    for center, prim in model.terms:
        for pos, z in zip(frame.positions, frame.charges):
            d = float(np.linalg.norm(center - pos))
            total -= float(z) * primitive_attraction(prim, d)
    return total
