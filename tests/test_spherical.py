"""Spherical averaging and the r -> 0+ derivative ladder.

Off-center averages are checked against a dense product-grid oracle
(Gauss-Legendre in cos(theta) x trapezoid in phi); the derivative ladder is
checked against analytic one-sided slopes of exponential profiles.
"""

import math

import numpy as np
import pytest

from rho2v.density import (
    DensityModel,
    PrimitiveKind,
    RadialPrimitive,
    evaluate,
    evaluate_many,
    hydrogenic_model,
)
from rho2v.errors import UnsupportedOrder, ZeroCenterValue
from rho2v.lebedev import SUPPORTED_ORDERS
from rho2v.spherical import DEFAULT_ORDER, radial_derivative_at_center, spherical_average


def dense_angular_average(model, center, radius, n_theta=400, n_phi=800):
    """Product-grid angular average, independent of the Lebedev machinery."""
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)  # cos(theta) in [-1, 1]
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    ct = np.repeat(nodes, n_phi)  # one ring of n_phi points per theta node
    st = np.sqrt(1.0 - ct * ct)
    ph = np.tile(phis, n_theta)
    pts = center + radius * np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=1)
    ring_means = evaluate_many(model, pts).reshape(n_theta, n_phi).mean(axis=1)
    total = 0.0
    for w, mean in zip(weights, ring_means):
        total += w * mean
    return total / 2.0  # legendre weights sum to 2


def slater_dimer(zeta1=1.0, zeta2=1.0, sep=2.4):
    t1 = RadialPrimitive(PrimitiveKind.SLATER_S, zeta1**3 / math.pi, zeta1, 0)
    t2 = RadialPrimitive(PrimitiveKind.SLATER_S, zeta2**3 / math.pi, zeta2, 0)
    return DensityModel(
        terms=((np.array([0.0, 0.0, -sep / 2]), t1), (np.array([0.0, 0.0, sep / 2]), t2)),
        electron_count=2,
    )


# --- spherical_average --------------------------------------------------------

def test_isotropic_average_equals_on_sphere_value_all_orders():
    model = hydrogenic_model(1.0)
    r = 0.37
    on_sphere = evaluate(model, (0, 0, r))
    for order in SUPPORTED_ORDERS:
        assert spherical_average(model, (0, 0, 0), r, order) == pytest.approx(on_sphere, rel=1e-14)


def test_hydrogenic_average_at_r_tenth():
    model = hydrogenic_model(1.0)
    expected = math.exp(-0.2) / math.pi  # = 0.2606100928...
    assert spherical_average(model, (0, 0, 0), 0.1) == pytest.approx(expected, rel=1e-13)


def test_off_center_average_matches_dense_oracle():
    model = hydrogenic_model(1.0)
    center = np.array([0.0, 0.4, 1.1])
    got = spherical_average(model, center, 0.5, order=194)
    oracle = dense_angular_average(model, center, 0.5)
    assert got == pytest.approx(oracle, abs=1e-10)


def test_average_converges_monotonically_in_order():
    # sphere kept clear of both cusps so the harmonic content decays fast
    model = slater_dimer(zeta1=1.3, zeta2=0.9, sep=1.8)
    center = np.array([0.1, -0.2, 0.3])
    radius = 0.3
    oracle = dense_angular_average(model, center, radius)
    errs = [abs(spherical_average(model, center, radius, o) - oracle) for o in SUPPORTED_ORDERS]
    for a, b in zip(errs, errs[1:]):
        assert max(b, 1e-15) <= max(a, 1e-15) * (1 + 1e-9)


def test_unsupported_order():
    with pytest.raises(UnsupportedOrder):
        spherical_average(hydrogenic_model(1.0), (0, 0, 0), 0.1, order=74)


# --- radial_derivative_at_center ----------------------------------------------

def test_hydrogenic_slope_and_log_derivative():
    est = radial_derivative_at_center(hydrogenic_model(1.0), (0, 0, 0))
    assert est.converged
    assert est.derivative == pytest.approx(-2.0 / math.pi, abs=1e-9)
    assert est.log_derivative == pytest.approx(-2.0, abs=1e-8)


def test_gaussian_slope_is_zero():
    model = DensityModel(terms=((np.zeros(3), RadialPrimitive(PrimitiveKind.GAUSSIAN, 1.0, 0.8, 0)),))
    est = radial_derivative_at_center(model, (0, 0, 0))
    assert est.converged
    assert abs(est.derivative) < 1e-8
    assert abs(est.log_derivative) < 1e-8


@pytest.mark.parametrize("z", [2.0, 3.0])
def test_scaled_hydrogenic_log_derivative(z):
    est = radial_derivative_at_center(hydrogenic_model(z), (0, 0, 0))
    assert est.converged
    assert est.log_derivative == pytest.approx(-2.0 * z, abs=1e-6)


def test_two_center_slope_matches_tail_contamination_formula():
    # about the left nucleus the averaged tail is flat at r -> 0, so the
    # slope is the own-term slope while rho(center) includes the tail
    zeta, sep = 1.0, 2.4
    model = slater_dimer(zeta1=zeta, zeta2=zeta, sep=sep)
    center = np.array([0.0, 0.0, -sep / 2])
    rho_own = zeta**3 / math.pi
    rho_tail = (zeta**3 / math.pi) * math.exp(-2 * zeta * sep)
    est = radial_derivative_at_center(model, center)
    assert est.converged
    assert est.derivative == pytest.approx(-2.0 * zeta * rho_own, rel=1e-8)
    expected_logd = -2.0 * zeta * rho_own / (rho_own + rho_tail)
    assert est.log_derivative == pytest.approx(expected_logd, rel=1e-8)


def test_estimate_rotation_invariance():
    model = slater_dimer(zeta1=1.2, zeta2=0.8, sep=2.0)
    center = np.array([0.0, 0.0, -1.0])
    a = math.radians(30)
    rot = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
    rotated_terms = tuple((rot @ (c - center) + center, p) for c, p in model.terms)
    rotated = DensityModel(terms=rotated_terms, electron_count=2)
    est0 = radial_derivative_at_center(model, center)
    est1 = radial_derivative_at_center(rotated, center)
    assert est0.derivative == pytest.approx(est1.derivative, abs=1e-10)


def test_deterministic_reruns():
    model = slater_dimer(1.1, 0.9, 2.2)
    e1 = radial_derivative_at_center(model, (0.0, 0.0, -1.1))
    e2 = radial_derivative_at_center(model, (0.0, 0.0, -1.1))
    assert e1.derivative == e2.derivative and e1.uncertainty == e2.uncertainty


def test_zero_center_value_raises():
    with pytest.raises(ZeroCenterValue):
        radial_derivative_at_center(DensityModel(terms=()), (0, 0, 0))


def test_converged_flag_tracks_uncertainty():
    est = radial_derivative_at_center(hydrogenic_model(5.0), (0, 0, 0), tol=1e-8)
    assert est.converged and est.uncertainty <= 1e-8
    hopeless = radial_derivative_at_center(hydrogenic_model(5.0), (0, 0, 0), max_levels=2, tol=1e-14)
    assert not hopeless.converged


# --- exact cusp-slope oracle for the ladder -------------------------------------
#
# Averaging kills the odd harmonics of every term not centred at x0, so the
# one-sided slope of rho_av at x0 comes only from the terms centred there:
# Slater power 0 gives -2*zeta*c, Slater or Gaussian power 1 gives +c, and
# every other term is smooth at x0 and gives 0.

def exact_cusp_slope(model, x0):
    total = 0.0
    for center, prim in model.terms:
        if np.linalg.norm(center - x0) > 1e-12:
            continue
        if prim.kind is PrimitiveKind.SLATER_S and prim.power == 0:
            total -= 2.0 * prim.exponent * prim.coefficient
        elif prim.power == 1:
            total += prim.coefficient
    return total


def cusped_center(x0, zeta):
    """A nucleus plus one term of every other kind and power 0-2 at x0."""
    return [
        (x0, RadialPrimitive(PrimitiveKind.SLATER_S, zeta**3 / math.pi, zeta, 0)),
        (x0, RadialPrimitive(PrimitiveKind.SLATER_S, 0.3, 0.8 * zeta, 1)),
        (x0, RadialPrimitive(PrimitiveKind.GAUSSIAN, 0.2, 0.9, 1)),
        (x0, RadialPrimitive(PrimitiveKind.GAUSSIAN, 0.5, 0.6, 0)),
        (x0, RadialPrimitive(PrimitiveKind.SLATER_S, 0.4, 1.1, 2)),
    ]


def two_center_model(za, zb, sep):
    a = np.zeros(3)
    b = sep * np.array([0.3, -0.4, 1.0]) / np.linalg.norm([0.3, -0.4, 1.0])
    tail = RadialPrimitive(PrimitiveKind.SLATER_S, zb**3 / math.pi, zb, 0)
    return DensityModel(terms=tuple(cusped_center(a, za)) + ((b, tail),)), [a, b]


def three_center_model(sep):
    a, b, c = np.zeros(3), np.array([sep, 0.0, 0.0]), np.array([0.5 * sep, 0.8 * sep, 0.2])
    terms = cusped_center(a, 2.0) + cusped_center(b, 1.0) + [
        (c, RadialPrimitive(PrimitiveKind.SLATER_S, 1.0 / math.pi, 1.0, 0)),
        (c, RadialPrimitive(PrimitiveKind.GAUSSIAN, 0.7, 1.3, 1)),
    ]
    return DensityModel(terms=tuple(terms)), [a, b, c]


def oracle_error(model, x0, order=DEFAULT_ORDER):
    est = radial_derivative_at_center(model, x0, order=order)
    exact = exact_cusp_slope(model, x0)
    assert est.converged
    return abs(est.derivative - exact) / abs(exact)


def test_hydrogenic_cusp_slope_oracle_z_1_to_50():
    # worst measured relative error before the vectorised kernel: 1.1e-12
    worst = max(oracle_error(hydrogenic_model(float(z)), np.zeros(3)) for z in range(1, 51))
    assert worst < 2e-11


@pytest.mark.parametrize("order", [26, 50, 110, 194])
def test_cusp_slope_oracle_with_tail_contamination(order):
    # worst measured relative errors before the vectorised kernel, over all
    # four orders: 9.9e-12 (two centers) and 2.2e-11 (three centers)
    cases = [two_center_model(za, zb, sep) for za, zb in ((1.0, 1.0), (3.0, 1.0), (1.0, 3.0), (6.0, 2.0)) for sep in (1.0, 2.0, 4.0)]
    two = max(oracle_error(model, x0, order) for model, centers in cases for x0 in centers)
    assert two < 1e-10
    cases = [three_center_model(sep) for sep in (1.5, 3.0)]
    three = max(oracle_error(model, x0, order) for model, centers in cases for x0 in centers)
    assert three < 3e-10
