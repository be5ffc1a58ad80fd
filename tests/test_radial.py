"""Closed-form radial moments and shell-theorem attractions.

Oracles come from mpmath's incomplete gamma at 40 digits: scipy's gammaincc
is itself off by up to 7.4e-14 relative at beta L = 600.  A Slater moment
int_L^inf r^p e^(-beta r) dr is Gamma(p+1, beta L) / beta^(p+1), a Gaussian
moment int_L^inf r^p e^(-alpha r^2) dr is Gamma((p+1)/2, alpha L^2) /
(2 alpha^((p+1)/2)), and the charge within d is the lower incomplete gamma
of the same orders.
"""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from rho2v.density import DensityModel, NuclearFrame, PrimitiveKind, RadialPrimitive, normalize
from rho2v.radial import _columns, _moment, _regularized_gamma, frame_attraction


def radial_moment(prim, m, lower=0.0):
    """int_lower^inf r^m g dr of one term, from the package's moment kernel."""
    return _moment(*_columns([prim]), m)(lower, complement=True)[0, 0]


def attraction(prim, d):
    """int g(|x|) / |x - d*ez| d^3x of one term at the origin: minus its frame
    attraction to a unit charge at (0, 0, d)."""
    model = DensityModel(terms=((np.zeros(3), prim),))
    return -frame_attraction(model, NuclearFrame([[0.0, 0.0, d]], [1.0]))


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


@pytest.mark.parametrize("lower", [30.0, 1e15])
def test_gaussian_moment_far_tail_is_zero_without_warning(lower):
    # half-integer orders: the erfc term and the sum both vanish
    prim = RadialPrimitive(PrimitiveKind.GAUSSIAN, 1.0, 1.0, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert radial_moment(prim, 1, lower=lower) == 0.0


@pytest.mark.parametrize(
    "a,x",
    [
        (10, 746.0), (600, 800.0), (50, 800.0), (10, 720.0), (2.5, 709.0), (3.5, 720.0),
        (140, 139.0), (600, 500.0), (600, 599.9), (600, 650.0), (1000, 1010.0),
    ],
)
def test_regularized_gamma_where_e_to_the_minus_x_underflows_or_the_order_overflows(a, x):
    # e^-x below the smallest normal float, and orders from 140 on, whose
    # Gamma(a + 1) or x^a can overflow, on both sides of x = a
    with mpmath.workdps(60):
        q = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
        exact = {True: float(q), False: float(1 - q)}
    for complement in (True, False):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = float(_regularized_gamma(a, x, complement))
        assert got == pytest.approx(exact[complement], rel=1e-12, abs=0.0), complement


def test_a_large_order_leaves_the_other_terms_of_its_mixture_bit_for_bit():
    # a power-597 Slater term (order 600 for the charge, past where Gamma
    # overflows) beside ordinary terms: each ordinary row of the kernel is its
    # own one-term result, on both sides of every x = A and where e^-x underflows
    slater, gaussian = PrimitiveKind.SLATER_S, PrimitiveKind.GAUSSIAN
    ordinary = [
        RadialPrimitive(slater, 0.7, 1.3, 1), RadialPrimitive(gaussian, 0.2, 0.6, 2), RadialPrimitive(slater, 0.4, 0.8, 0)
    ]
    prims = [ordinary[0], RadialPrimitive(slater, 1.0, 50.0, 597), *ordinary[1:]]
    r = np.array([0.0, 0.05, 0.5, 1.9, 3.0, 6.0, 30.0, 400.0, 1e4])
    for complement in (True, False):
        rows = _moment(*_columns(prims), 2)(r, complement)
        assert np.all(np.isfinite(rows))
        for row, prim in zip(np.delete(rows, 1, axis=0), ordinary):
            assert np.array_equal(row, _moment(*_columns([prim]), 2)(r, complement)[0]), prim


def test_normalizing_past_the_gamma_overflow_matches_the_exact_coefficient():
    # 4 pi int r^171 e^(-2r) dr = 4 pi Gamma(172) / 2^172, and Gamma(172) > 1.8e308
    prim = RadialPrimitive(PrimitiveKind.SLATER_S, 1.0, 1.0, 169)
    model = DensityModel(terms=((np.zeros(3), prim),), electron_count=1)
    with mpmath.workdps(40):
        exact = float(mpmath.mpf(2) ** 172 / (4 * mpmath.pi * mpmath.gamma(172)))
    assert normalize(model).terms[0][1].coefficient == pytest.approx(exact, rel=1e-13, abs=0.0)


def _slater_gamma(p, beta, lower, upper):
    # int_lower^upper r^p e^(-beta r) dr
    return mpmath.gammainc(p + 1, beta * lower, beta * upper) / beta ** (p + 1)


def _gaussian_gamma(p, alpha, lower, upper):
    # int_lower^upper r^p e^(-alpha r^2) dr
    a = mpmath.mpf(p + 1) / 2
    return mpmath.gammainc(a, alpha * lower**2, alpha * upper**2) / (2 * alpha**a)


@pytest.mark.parametrize("alpha,lower", itertools.product((0.1, 0.8, 5.0), (1e-3, 0.2, 1.0, 3.0)))
def test_gaussian_tail_moment_is_the_incomplete_gamma_function(alpha, lower):
    for power, m in itertools.product(range(4), range(4)):
        prim = RadialPrimitive(PrimitiveKind.GAUSSIAN, 1.3, alpha, power)
        with mpmath.workdps(40):
            exact = float(1.3 * _gaussian_gamma(m + power, mpmath.mpf(alpha), mpmath.mpf(lower), mpmath.inf))
        assert radial_moment(prim, m, lower=lower) == pytest.approx(exact, rel=1e-14, abs=0.0), (power, m)


@pytest.mark.parametrize(
    "kind,exponent", itertools.product(PrimitiveKind, (0.3, 1.0, 5.0, 20.0)), ids=lambda v: getattr(v, "value", v)
)
def test_displaced_attraction_is_the_shell_theorem(kind, exponent):
    # 4 pi [ (1/d) int_0^d r^2 g dr + int_d^inf r g dr ]
    gamma = _slater_gamma if kind is PrimitiveKind.SLATER_S else _gaussian_gamma
    rate = 2.0 * exponent if kind is PrimitiveKind.SLATER_S else exponent
    for power, d in itertools.product(range(3), (1e-6, 1e-3, 0.1, 1.0, 5.0, 30.0)):
        prim = RadialPrimitive(kind, 0.7, exponent, power)
        with mpmath.workdps(40):
            s, x = mpmath.mpf(rate), mpmath.mpf(d)
            inner = gamma(power + 2, s, 0, x) / x
            exact = float(4 * mpmath.pi * 0.7 * (inner + gamma(power + 1, s, x, mpmath.inf)))
        assert attraction(prim, d) == pytest.approx(exact, rel=1e-14, abs=0.0), (power, d)
