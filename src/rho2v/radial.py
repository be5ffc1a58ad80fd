"""Radial integrals of atomic-style densities: moments, cumulative charges
and Coulomb attractions, all from one regularized incomplete gamma.

A term g(r) = c r^n exp(-(a + b r) r) is a Slater term (b = 0, k = 1, s = a)
or a Gaussian one (a = 0, k = 2, s = b).  Its moment int_0^R r^m g dr is
c Gamma(A) P(A, s R^k) / (k s^A), A = (m + n + 1) / k, and int_R^inf the same
with Q = 1 - P; one kernel, _moment, takes it for every term at once.  The
charge within R is 4 pi times the m = 2 moment, and by Newton's shell theorem
a spherical cloud attracts a point at distance d with the charge within d
over d plus 4 pi times the m = 1 moment from d.

P is a power series below x = A; from there on Q is a finite sum, from erfc
for half-integer orders.  Each side stays relatively accurate, so Q keeps full
precision where P rounds to 1.  Where e^-x underflows, or for P where the
order is large enough that Gamma(A + 1) or x^A can overflow, the common factor
x^A e^-x / Gamma(A + 1) is taken from its log instead, and a result below the
smallest normal float is taken as 0.  This module imports no other rho2v
module.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from rho2v.density import DensityModel, NuclearFrame, RadialPrimitive

__all__ = ["radial_moment", "primitive_attraction", "frame_attraction"]

FOUR_PI = 4.0 * math.pi
_erfc = np.frompyfunc(math.erfc, 1, 1)
_gamma = np.frompyfunc(math.gamma, 1, 1)
_lgamma = np.frompyfunc(math.lgamma, 1, 1)
_pow = np.frompyfunc(pow, 2, 1)  # libm pow on Python floats; numpy's own pow rounds differently
# log of the smallest normal float: e^-x is below it past _X_UNDERFLOW, and a
# P or Q below it has lost digits and is taken as 0
_LOG_TINY = math.log(np.finfo(float).tiny)
_X_UNDERFLOW = -_LOG_TINY
# from this order on x^a (x < a) or Gamma(a + 1) can overflow, and P is taken
# in log form; below it both stay under 1e301
_LARGE_ORDER = 140.0


def _columns(prims) -> tuple:
    """(c, a, b, n), (T, 1) each, from the envelopes of T primitives."""
    return tuple(np.array([p.envelope for p in prims], dtype=float).reshape(-1, 4).T[:, :, None])


def _power(x, p):
    """x**p for an exponent array p, rounded as numpy does for a scalar p."""
    out = x**p
    for special, fast in ((2.0, np.square), (0.5, np.sqrt)):
        at = p == special
        if np.count_nonzero(at):
            np.copyto(out, fast(x), where=at)
    return out


def _sum_terms(v):
    """Sum over the terms, axis 0 of v (T, P), in term order; np.add.reduce adds
    one column of eight or more terms in pairs."""
    return np.add.accumulate(v, axis=0)[-1] if v.shape[1] == 1 and len(v) >= 8 else np.add.reduce(v, axis=0)


class _Orders(NamedTuple):
    """A (T, 1) column of integer or half-integer orders a, with all that
    their regularized incomplete gamma functions take from a alone."""

    a: np.ndarray
    half: np.ndarray  # (T,) a is a half-integer: Q starts from erfc
    steps: np.ndarray  # (S, T) the finite sum's Horner divisors, inf before a term's first step
    divisors: np.ndarray  # (T, J) a + j for j = 1 .. J, enough for any x below a
    coefficients: np.ndarray  # (T, J + 1) 1 / ((a + 1) ... (a + j))
    gamma_next: np.ndarray  # (T,) Gamma(a + 1), inf from _LARGE_ORDER on
    log_gamma_next: np.ndarray  # (T,) log Gamma(a + 1)
    any_large: bool  # some a is at least _LARGE_ORDER

    def __call__(self, x, complement: bool) -> np.ndarray:
        """Q(a, x) if complement else P(a, x) for x >= 0, (T, P).  Below x = a
        Q = 1 - P stays above about 0.4, from there on P = 1 - Q above 0.5."""
        if not np.count_nonzero(x):  # P(a, 0) = 0
            return np.full(x.shape, float(complement))
        low = x < self.a
        n_low = np.count_nonzero(low)
        out = np.empty(x.shape)
        if n_low:
            p = self._series(x, low)
            out[low] = 1.0 - p if complement else p
        if n_low < low.size:
            high = ~low
            q = self._finite_sum(x, high)
            out[high] = q if complement else 1.0 - q
        return out

    def _series(self, x, low):
        """P(a, x) = x^a e^-x / Gamma(a + 1) * sum_j x^j / ((a + 1) ... (a + j))
        at the elements under the mask low, in row order.  Each term's sum
        runs in Horner form to the length that its largest x needs."""
        count = low.sum(axis=1)
        x_max = np.where(low, x, 0.0).max(axis=1, keepdims=True)
        # the last coefficient times x_max^j: the sum stops after the first at most 1e-17
        length = 2 + (np.multiply.accumulate(x_max / self.divisors, axis=1) > 1e-17).sum(axis=1, keepdims=True)
        top = int(length.max())
        # past its length a term's coefficients are 0, so its sum stays 0 until its own last one
        table = np.where(np.arange(top) < length, self.coefficients[:, :top], 0.0)
        x = x[low]
        total = np.zeros_like(x)
        for c in np.repeat(table[:, ::-1].T, count, axis=1):
            total *= x
            total += c
        a, gamma_next = np.repeat(self.a[:, 0], count), np.repeat(self.gamma_next, count)
        if not self.any_large:
            return _power(x, a) * np.exp(-x) * total / gamma_next
        big = a >= _LARGE_ORDER
        p = np.empty_like(x)
        small = ~big
        p[small] = _power(x[small], a[small]) * np.exp(-x[small]) * total[small] / gamma_next[small]
        p[big] = _log_form(a[big], x[big], np.repeat(self.log_gamma_next, count)[big], upper=False)
        return p

    def _finite_sum(self, x, high):
        """Q(a, x) = Q(s0, x) + e^-x x^s0 sum_{s0 <= s < a} x^(s - s0) / Gamma(s + 1)
        at the elements under the mask high, in row order: s0 = 0, Q(0, x) = 0
        for integer a, else s0 = 1/2, Q(1/2, x) = erfc(sqrt x).  Where e^-x
        underflows, Q comes from the log form instead."""
        count = high.sum(axis=1)
        x_high = x[high]
        x = np.minimum(x_high, _X_UNDERFLOW)  # the sum stays below e^x, finite
        total = np.ones_like(x)  # Horner form, innermost term first
        for d in np.repeat(self.steps, count, axis=1):
            total *= x / d
            total += 1.0
        e = np.exp(-x)
        q = e * total
        half = np.repeat(self.half, count)
        if np.count_nonzero(half):
            root = np.sqrt(x[half])
            erfc = _erfc(root).astype(float)
            empty = np.repeat(self.a[:, 0], count)[half] == 0.5  # a = 1/2: no sum
            q[half] = erfc + np.where(empty, 0.0, e[half] * root * total[half] / math.gamma(1.5))
        big = x_high > _X_UNDERFLOW
        if np.count_nonzero(big):
            a, log_gamma_next = np.repeat(self.a[:, 0], count)[big], np.repeat(self.log_gamma_next, count)[big]
            q[big] = _log_form(a, x_high[big], log_gamma_next, upper=True)
        return q


def _log_form(a, x, log_gamma_next, upper: bool) -> np.ndarray:
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


@functools.lru_cache(maxsize=64)
def _orders(a: tuple) -> _Orders:
    """The _Orders of a tuple of orders; few distinct ones recur call after call."""
    a = np.array(a).reshape(-1, 1)
    half = a != np.floor(a)
    last = a - 1.0 - 0.5 * half  # the finite sum's last step
    s = np.arange(last.max(initial=0.0), 0.0, -1.0)
    span = 32
    while (np.multiply.accumulate(a / (a + np.arange(1.0, span + 1.0)), axis=1)[:, -1] > 1e-17).any():
        span *= 2  # a term's series is longest as x nears a
    divisors = a + np.arange(1.0, span + 1.0)
    coefficients = np.divide.accumulate(np.concatenate([np.ones_like(a), divisors], axis=1), axis=1)
    steps = np.where(s <= last, 0.5 * half + s, np.inf).T
    large = a[:, 0] >= _LARGE_ORDER
    gamma_next = np.where(large, np.inf, _gamma(np.minimum(a[:, 0], _LARGE_ORDER) + 1.0).astype(float))
    log_gamma_next = _lgamma(a[:, 0] + 1.0).astype(float)
    return _Orders(a, half[:, 0], steps, divisors, coefficients, gamma_next, log_gamma_next, bool(large.any()))


def _regularized_gamma(a, x, complement: bool) -> np.ndarray:
    """Q(a, x) if complement else P(a, x): a scalar a and any x, or a (T, 1) and x (T, P)."""
    x = np.asarray(x, dtype=float)
    return _orders(tuple(np.ravel(a).tolist()))(np.atleast_2d(x), complement).reshape(x.shape)


def _moment(c, a, b, n, m: int):
    """(r, complement) -> int_0^r t^m g dt, or int_r^inf, (T, P) for r a scalar or
    (P,) shared by the terms, or (T, P); all that r does not change is taken once."""
    gaussian = b > 0.0
    k = 1.0 + gaussian
    s = a + b  # the one of a and b that is not 0
    orders = _orders(tuple(((m + n + 1.0) / k).ravel().tolist()))
    numerator, denominator = c * _gamma(orders.a).astype(float), k * _pow(s, orders.a).astype(float)

    def moment(r, complement: bool) -> np.ndarray:
        x = s * r
        np.multiply(x, r, out=x, where=gaussian)
        return numerator * orders(x, complement) / denominator

    return moment


def _attraction(c, a, b, n, d) -> np.ndarray:
    """int g(|x|) / |x - d*ez| d^3x per term and distance d (T, M): the charge
    within d over d, 0 at d = 0, plus 4 pi int_d^inf r g dr."""
    outer = FOUR_PI * _moment(c, a, b, n, 1)(d, complement=True)
    if not np.count_nonzero(d):
        return outer
    inner = _moment(FOUR_PI * c, a, b, n, 2)(d, complement=False)
    return np.divide(inner, d, out=np.zeros_like(inner), where=d > 0.0) + outer


def radial_moment(prim: RadialPrimitive, m: int, lower: float = 0.0) -> float:
    """int_lower^inf r^m * g_prim(r) dr."""
    return float(_moment(*_columns([prim]), m)(lower, complement=True)[0, 0])


def primitive_attraction(prim: RadialPrimitive, d: float) -> float:
    """int g_prim(|x|) / |x - d*ez| d^3x for a spherical term at distance d."""
    if d < 0.0:
        raise ValueError("distance must be nonnegative")
    return float(_attraction(*_columns([prim]), np.full((1, 1), float(d)))[0, 0])


def frame_attraction(model: DensityModel, frame: NuclearFrame) -> float:
    """int v_frame(x) rho(x) d^3x (negative: attraction), in one pass over the
    (T, M) distances from every term center to every nucleus."""
    t = model._arrays
    d = np.linalg.norm(t.centers[:, None, :] - frame.positions[None, :, :], axis=2)
    return -float(_sum_terms((frame.charges * _attraction(t.c, t.a, t.b, t.n, d)).reshape(-1, 1))[0])
