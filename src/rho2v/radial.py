"""Radial integrals of atomic-style densities: moments, cumulative charges
and Coulomb attractions, all from one regularized incomplete gamma.

A term g(r) = c r^n exp(-(a + b r) r) is a Slater term (b = 0, k = 1, s = a)
or a Gaussian one (a = 0, k = 2, s = b).  Its moment int_0^R r^m g dr is
c Gamma(A) P(A, s R^k) / (k s^A), A = (m + n + 1) / k, and int_R^inf the same
with Q = 1 - P; one kernel, _moment, takes one incomplete gamma per term,
and c Gamma(A) / (k s^A) from its log where Gamma(A) or s^A overflows.  The
charge within R is 4 pi times the m = 2 moment, and by Newton's shell
theorem a spherical cloud attracts a point at distance d with the charge
within d over d plus 4 pi times the m = 1 moment from d.

P is a power series below x = A; from there on Q is a finite sum, from erfc
for half-integer orders, so Q keeps full precision where P rounds to 1.
Where e^-x underflows, or for P where Gamma(A + 1) or x^A can overflow, the
factor x^A e^-x / Gamma(A + 1) comes from its log, and a result below the
smallest normal float is taken as 0.  It imports no other rho2v module.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from rho2v.density import DensityModel, NuclearFrame

__all__ = ["frame_attraction"]

FOUR_PI = 4.0 * math.pi
_erfc = np.frompyfunc(math.erfc, 1, 1)
# log of the smallest normal float: e^-x is below it past _X_UNDERFLOW, and a
# P or Q below it has lost digits and is taken as 0
_LOG_TINY = math.log(np.finfo(float).tiny)
_X_UNDERFLOW = -_LOG_TINY
_LOG_HUGE = math.log(np.finfo(float).max)
# from this order on x^a (x < a) or Gamma(a + 1) can overflow, and P is taken
# in log form; below it both stay under 1e301
_LARGE_ORDER = 140.0


def _columns(prims) -> tuple:
    """(c, a, b, n), (T, 1) each, from the envelopes of T primitives."""
    return tuple(np.array([p.envelope for p in prims], dtype=float).reshape(-1, 4).T[:, :, None])


def _series(a: float, x: np.ndarray) -> np.ndarray:
    """P(a, x) = x^a e^-x / Gamma(a + 1) * sum_j x^j / ((a + 1) ... (a + j))
    for x < a, in Horner form to the length that the largest x needs."""
    if a >= _LARGE_ORDER:
        return _log_form(a, x, math.lgamma(a + 1.0), upper=False)
    x_max, coefficients, term = float(x.max()), [1.0], 1.0
    while term > 1e-17:  # the last coefficient times x_max^j
        k = len(coefficients)
        coefficients.append(coefficients[-1] / (a + k))
        term *= x_max / (a + k)
    total = np.zeros_like(x)
    for c in reversed(coefficients):
        total *= x
        total += c
    return x**a * np.exp(-x) * total / math.gamma(a + 1.0)


def _finite_sum(a: float, x: np.ndarray) -> np.ndarray:
    """Q(a, x) = Q(s0, x) + e^-x x^s0 sum_{s0 <= s < a} x^(s - s0) / Gamma(s + 1)
    for x >= a: s0 = 0, Q(0, x) = 0 for integer a, else s0 = 1/2,
    Q(1/2, x) = erfc(sqrt x).  Where e^-x underflows, Q comes from the log
    form instead."""
    s0 = 0.0 if a == math.floor(a) else 0.5
    x_high, x = x, np.minimum(x, _X_UNDERFLOW)  # the sum stays below e^x, finite
    total = np.ones_like(x)  # Horner form, innermost term first
    for d in np.arange(a - 1.0, s0, -1.0):
        total *= x / d
        total += 1.0
    e = np.exp(-x)
    if not s0:
        q = e * total
    else:  # no sum for a = 1/2
        root = np.sqrt(x)
        q = _erfc(root).astype(float) + (e * root * total / math.gamma(1.5) if a > s0 else 0.0)
    big = x_high > _X_UNDERFLOW
    if np.count_nonzero(big):
        q[big] = _log_form(a, x_high[big], math.lgamma(a + 1.0), upper=True)
    return q


def _log_form(a: float, x, log_gamma_next: float, upper: bool) -> np.ndarray:
    """P(a, x) for x < a, or Q(a, x) for x >= a, elementwise, with the factor
    x^a e^-x / Gamma(a + 1) taken from its log and a series summed forward
    from its largest term:

        P = x^a e^-x / Gamma(a + 1) * (1 + x/(a + 1) (1 + x/(a + 2) (1 + ...)))
        Q = x^a e^-x / Gamma(a + 1) * (a/x) (1 + (a - 1)/x (1 + (a - 2)/x (1 + ...)))

    For integer a the second ends at (a - a)/x = 0; for half-integer a it runs
    on through negative numerators as the asymptotic series of e^x erfc(sqrt x),
    which reaches 1e-17 within a few terms where e^-x underflows.  No series
    coefficient is formed, so none underflows at large a.  A result below the
    smallest normal float is taken as 0."""
    total, term, k = np.ones_like(x), np.ones_like(x), 1.0
    while np.any(np.abs(term) > 1e-17 * total):
        term *= (a - k) / x if upper else x / (a + k)
        total += term
        k += 1.0
    # x = 0 gives log P = -inf and x = inf log Q = nan: both are taken as 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_value = a * np.log(x) - x - log_gamma_next + np.log(a / x * total if upper else total)
    return np.where(log_value >= _LOG_TINY, np.exp(log_value), 0.0)


def _regularized_gamma(a: float, x, complement: bool) -> np.ndarray:
    """Q(a, x) if complement else P(a, x) for a scalar order a and x >= 0 of any
    shape.  Below x = a Q = 1 - P stays above about 0.4, from there on P = 1 - Q
    above 0.5."""
    x = np.asarray(x, dtype=float)
    low = x < a
    out = np.empty(x.shape)
    if np.count_nonzero(low):
        p = _series(a, x[low])
        out[low] = 1.0 - p if complement else p
    if not low.all():
        q = _finite_sum(a, x[~low])
        out[~low] = q if complement else 1.0 - q
    return out


def _scale(c: float, k: float, s: float, a: float) -> tuple:
    """(numerator, denominator) of c Gamma(a) / (k s^a); where Gamma(a) or s^a
    overflows, the quotient over 1, from math.lgamma and logs (inf if it too
    overflows)."""
    try:
        return c * math.gamma(a), k * s**a
    except OverflowError:
        log_value = math.lgamma(a) - a * math.log(s) + (math.log(c / k) if c else -math.inf)
        return (math.exp(log_value) if log_value < _LOG_HUGE else math.inf), 1.0


def _moment(c, a, b, n, m: int):
    """(r, complement) -> int_0^r t^m g dt, or int_r^inf, (T, P) for r a scalar or
    (P,) shared by the terms, or (T, P); all that r does not change is taken once."""
    terms = []
    for c_t, a_t, b_t, n_t in zip(*(np.ravel(v).tolist() for v in (c, a, b, n))):
        k = 2.0 if b_t > 0.0 else 1.0
        s = a_t + b_t  # the one of a and b that is not 0
        order = (m + n_t + 1.0) / k
        terms.append((k, s, order, *_scale(c_t, k, s, order)))

    def moment(r, complement: bool) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.empty((len(terms), r.shape[-1] if r.ndim else 1))
        for t, (k, s, order, numerator, denominator) in enumerate(terms):
            r_t = r[t] if r.ndim == 2 else r
            x = s * r_t * r_t if k == 2.0 else s * r_t
            out[t] = numerator * _regularized_gamma(order, x, complement) / denominator
        return out

    return moment


def _attraction(c, a, b, n, d) -> np.ndarray:
    """int g(|x|) / |x - d*ez| d^3x per term and distance d (T, M): the charge
    within d over d, 0 at d = 0, plus 4 pi int_d^inf r g dr."""
    outer = FOUR_PI * _moment(c, a, b, n, 1)(d, complement=True)
    if not np.count_nonzero(d):
        return outer
    inner = _moment(FOUR_PI * c, a, b, n, 2)(d, complement=False)
    return np.divide(inner, d, out=np.zeros_like(inner), where=d > 0.0) + outer


def frame_attraction(model: DensityModel, frame: NuclearFrame) -> float:
    """int v_frame(x) rho(x) d^3x (negative: attraction), in one pass over the
    (T, M) distances from every term center to every nucleus."""
    t = model._arrays
    d = np.linalg.norm(t.centers[:, None, :] - frame.positions[None, :, :], axis=2)
    return -float(sum((frame.charges * _attraction(t.c, t.a, t.b, t.n, d)).ravel()))
