"""Radial moments and Coulomb integrals of atomic-style densities.

A Slater radial moment int_lower^inf c r^p exp(-beta*r) dr is the finite
sum c e^(-beta lower) sum_k (p!/k!) lower^k / beta^(p-k+1), every term
positive, and a Gaussian moment from 0 is a Gamma function, both in closed
form.  The one moment without a closed form is a Gaussian tail above
lower > 0: a Gauss-Laguerre integral after u = alpha*(r^2 - lower^2), whose
rule carries the integrand's own decay as its weight.

Coulomb attraction of a spherical charge shell reduces by Newton's theorem
to the 1/max(r, d) kernel: a same-center pair (d = 0) is one moment, and a
displaced pair splits into a Gauss-Legendre piece on [0, d] and a moment
on [d, inf).

Both rules are built with numpy alone.  Laguerre nodes are the eigenvalues
of the Jacobi matrix (Golub & Welsch, Math. Comp. 23 (1969) 221-230); one
pass of the three-term recurrence then gives each node a Newton correction
and its Christoffel weight 1/sum_k L_k(x)^2.  Legendre nodes come from a
vectorised Newton iteration started at the asymptotic cosine guesses.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .density import DensityModel, NuclearFrame, PrimitiveKind, RadialPrimitive
from .errors import QuadratureNotConverged

__all__ = [
    "DEFAULT_NODES",
    "radial_moment",
    "primitive_attraction",
    "frame_attraction",
    "converged",
]

# converged() integrates at DEFAULT_NODES and twice that, and the two must
# agree to CONVERGENCE_TOL; audit reports record the node count
DEFAULT_NODES = 200
CONVERGENCE_TOL = 1e-8
# beyond this node e^(-x/2), the scale the recurrence starts from, nears
# underflow; the weight e^(-x)/sum(...) there is 0 in double precision anyway
_LAGUERRE_MAX_NODE = 1400.0


@lru_cache(maxsize=64)
def _genlaguerre(n: int):
    """Gauss-Laguerre nodes/weights (weight e^-x on [0, inf)) by Golub-Welsch.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    (diagonal 2k+1, off-diagonal k).  One vectorised pass of the recurrence
    (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}, carried with the factor
    e^(-x/2) so that nothing overflows, then gives each node a Newton step
    L_n / L_n' (with x L_n' = n (L_n - L_{n-1})) and its Christoffel weight
    1 / sum_{k<n} L_k(x)^2.  Nodes above _LAGUERRE_MAX_NODE get weight 0.
    """
    jacobi = np.zeros((n, n))
    jacobi.flat[:: n + 1] = 2.0 * np.arange(n) + 1.0
    jacobi.flat[n :: n + 1] = -np.arange(1.0, n)
    nodes = np.linalg.eigvalsh(jacobi, UPLO="L")
    weights = np.zeros(n)
    kept = nodes <= _LAGUERRE_MAX_NODE
    x = nodes[kept]
    k = np.arange(1.0, n)[:, None]
    grow, fade = (2.0 * k + 1.0 - x) / (k + 1.0), (k / (k + 1.0)).ravel()
    table = np.empty((n + 1, len(x)))  # row k: e^(-x/2) L_k(x)
    table[0] = np.exp(-0.5 * x)
    table[1] = (1.0 - x) * table[0]
    for i in range(1, n):
        np.multiply(grow[i - 1], table[i], out=table[i + 1])
        table[i + 1] -= fade[i - 1] * table[i - 1]
    weights[kept] = np.exp(-x) / np.einsum("ij,ij->j", table[:n], table[:n])
    nodes[kept] = x - x * table[n] / (n * (table[n] - table[n - 1]))
    return nodes, weights


@lru_cache(maxsize=64)
def _legendre(n: int):
    """Gauss-Legendre nodes/weights on [-1, 1], ascending, by Newton.

    Every node iterates at once from x = (1 - (n-1)/(8 n^3)) cos(pi (k - 1/4)
    / (n + 1/2)) with P_n from the three-term recurrence and
    (1 - x^2) P_n' = n (P_{n-1} - x P_n), until no node moves by more than
    1e-15; weights are 2 / ((1 - x^2) P_n'(x)^2).
    """
    x = (1.0 - 0.125 * (n - 1.0) / n**3) * np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        prev, cur = np.ones_like(x), x.copy()
        for j in range(2, n + 1):
            prev, cur = cur, ((2.0 * j - 1.0) * x * cur - (j - 1.0) * prev) / j
        one_minus_sq = (1.0 - x) * (1.0 + x)
        slope = n * (prev - x * cur) / one_minus_sq
        step = cur / slope
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    return x, 2.0 / (one_minus_sq * slope * slope)


def _segment(f, a: float, b: float, nodes: int) -> float:
    x, w = _legendre(nodes)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.dot(w, f(mid + half * x)))


def radial_moment(prim: RadialPrimitive, m: int, nodes: int = DEFAULT_NODES, lower: float = 0.0) -> float:
    """int_lower^inf r^m * g_prim(r) dr; only a Gaussian tail above lower > 0
    takes the nodes-point Laguerre rule, every other case is closed-form."""
    c, n = prim.coefficient, prim.power
    p = m + n  # total power of r against the envelope
    if prim.kind is PrimitiveKind.SLATER_S:
        # term k is c e^(-x) (p!/k!) lower^k / beta^(p-k+1) with x = beta lower;
        # a factor e^(-x) that underflows zeroes every term
        beta = 2.0 * prim.exponent
        x = beta * lower
        term = total = c * math.exp(-x) * math.factorial(p) / beta ** (p + 1)
        for k in range(1, p + 1):
            term *= x / k
            total += term
        return total
    alpha = prim.exponent
    if lower == 0.0:
        # t = alpha r^2:  (c / (2 alpha^{(p+1)/2})) int t^{(p-1)/2} e^{-t} dt
        return c * math.gamma(0.5 * (p + 1)) / (2.0 * alpha ** (0.5 * (p + 1)))
    # u = alpha (r^2 - lower^2); integrand analytic for lower > 0
    shift = math.exp(-alpha * lower * lower)
    x, w = _genlaguerre(nodes)
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


def frame_attraction(model: DensityModel, frame: NuclearFrame, nodes: int = DEFAULT_NODES) -> float:
    """int v_frame(x) rho(x) d^3x  (negative: attraction)."""
    total = 0.0
    for center, prim in model.terms:
        for pos, z in zip(frame.positions, frame.charges):
            d = float(np.linalg.norm(center - pos))
            total -= float(z) * primitive_attraction(prim, d, nodes)
    return total


def converged(compute, label: str = "integral") -> float:
    """compute(2 * DEFAULT_NODES), which must be within CONVERGENCE_TOL of
    compute(DEFAULT_NODES); raises QuadratureNotConverged otherwise."""
    coarse = compute(DEFAULT_NODES)
    fine = compute(2 * DEFAULT_NODES)
    if abs(fine - coarse) > CONVERGENCE_TOL:
        raise QuadratureNotConverged(
            f"{label} moved by {abs(fine - coarse):.3e} when doubling nodes from {DEFAULT_NODES}"
        )
    return fine
