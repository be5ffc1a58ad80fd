"""Gauss-Laguerre and Gauss-Legendre rules built with numpy alone, and the
closed-form radial moments.

Oracles are exact polynomial moments: int_0^inf x^k e^-x dx = k! and
int_-1^1 x^k dx = 2/(k+1) for even k, 0 for odd k; an n-node rule is exact
up to degree 2n - 1.  A Slater moment int_L^inf r^p e^(-beta r) dr is
Gamma(p+1, beta L) / beta^(p+1), taken from mpmath at 40 digits: scipy's
gammaincc is itself off by up to 7.4e-14 relative at beta L = 600.
"""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from rho2v.density import PrimitiveKind, RadialPrimitive
from rho2v.radial import _genlaguerre, _legendre, radial_moment


@pytest.mark.parametrize("n", [20, 200, 400])
def test_laguerre_rule_moments(n):
    x, w = _genlaguerre(n)
    assert np.all(np.diff(x) > 0.0) and np.all(w >= 0.0)
    for k in range(40):
        assert abs(np.dot(w, x**k) / math.factorial(k) - 1.0) <= 1e-13, k


@pytest.mark.parametrize("n", [20, 200, 400])
def test_legendre_rule_moments(n):
    x, w = _legendre(n)
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    assert np.max(np.abs(x + x[::-1])) <= 1e-15
    for k in range(40):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(w, x**k) - exact) <= 1e-13, k


def test_small_rules_match_closed_forms():
    root2, root3, root06 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(0.6)
    closed = [
        (_genlaguerre(1), [1.0], [1.0]),
        (_genlaguerre(2), [2.0 - root2, 2.0 + root2], [(2.0 + root2) / 4.0, (2.0 - root2) / 4.0]),
        (_legendre(1), [0.0], [2.0]),
        (_legendre(2), [-1.0 / root3, 1.0 / root3], [1.0, 1.0]),
        (_legendre(3), [-root06, 0.0, root06], [5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0]),
    ]
    for (x, w), nodes, weights in closed:
        np.testing.assert_allclose(x, nodes, rtol=1e-15, atol=1e-16)
        np.testing.assert_allclose(w, weights, rtol=1e-15)


@pytest.mark.parametrize("power", [0, 1, 2, 5])
def test_gaussian_moment_from_zero_is_a_gamma_function(power):
    alpha, m = 0.7, 2
    prim = RadialPrimitive(PrimitiveKind.GAUSSIAN, 1.3, alpha, power)
    p = m + power
    exact = 1.3 * math.gamma(0.5 * (p + 1)) / (2.0 * alpha ** (0.5 * (p + 1)))
    assert radial_moment(prim, m) == pytest.approx(exact, rel=1e-15)


@pytest.mark.parametrize("beta,lower", itertools.product((0.2, 2.0, 20.0), (0.0, 1e-3, 0.5, 1.7, 30.0)))
def test_slater_moment_is_the_incomplete_gamma_function(beta, lower):
    for p in range(13):
        power = p // 2
        prim = RadialPrimitive(PrimitiveKind.SLATER_S, 1.3, 0.5 * beta, power)
        with mpmath.workdps(40):
            b = mpmath.mpf(beta)
            exact = float(1.3 * mpmath.gammainc(p + 1, b * mpmath.mpf(lower)) / b ** (p + 1))
        assert radial_moment(prim, p - power, lower=lower) == pytest.approx(exact, rel=1e-14, abs=0.0), p


@pytest.mark.parametrize("lower", [400.0, 1e30])
def test_slater_moment_far_tail_is_zero_without_warning(lower):
    prim = RadialPrimitive(PrimitiveKind.SLATER_S, 1.0, 1.0, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert radial_moment(prim, 2, lower=lower) == 0.0
