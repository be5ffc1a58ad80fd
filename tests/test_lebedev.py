"""Lebedev grid sanity: weights, symmetry, and polynomial exactness.

The oracle for monomial averages over the sphere is the closed form

    <x^i y^j z^k> = (i-1)!! (j-1)!! (k-1)!! / (i+j+k+1)!!   (all even)

and zero whenever any exponent is odd.
"""

import hashlib
import itertools

import numpy as np
import pytest

from rho2v.errors import UnsupportedOrder
from rho2v.lebedev import _TABLES, SUPPORTED_ORDERS, lebedev_grid

# point count -> exact algebraic degree (Lebedev & Laikov 1999)
DEGREE = {6: 3, 14: 5, 26: 7, 38: 9, 50: 11, 86: 15, 110: 17, 146: 19, 194: 23}


def double_factorial(n):
    return 1 if n <= 0 else n * double_factorial(n - 2)


def monomial_average(i, j, k):
    if i % 2 or j % 2 or k % 2:
        return 0.0
    num = double_factorial(i - 1) * double_factorial(j - 1) * double_factorial(k - 1)
    return num / double_factorial(i + j + k + 1)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_weights_sum_to_one(order):
    pts, wts = lebedev_grid(order)
    assert pts.shape == (order, 3)
    assert wts.sum() == pytest.approx(1.0, abs=5e-14)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_points_on_unit_sphere(order):
    pts, _ = lebedev_grid(order)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_inversion_symmetry(order):
    pts, _ = lebedev_grid(order)
    as_set = {tuple(np.round(p, 12)) for p in pts}
    for p in pts:
        assert tuple(np.round(-p, 12)) in as_set


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_polynomial_exactness_to_degree(order):
    pts, wts = lebedev_grid(order)
    deg = DEGREE[order]
    rng = np.random.default_rng(order)
    exps = []
    for total in range(deg + 1):
        for _ in range(4):
            i = int(rng.integers(0, total + 1))
            j = int(rng.integers(0, total - i + 1))
            exps.append((i, j, total - i - j))
    for i, j, k in exps:
        val = float(np.sum(wts * pts[:, 0] ** i * pts[:, 1] ** j * pts[:, 2] ** k))
        assert val == pytest.approx(monomial_average(i, j, k), abs=2e-14)


def test_degree_beyond_order_fails():
    # degree-4... beyond-degree monomial should NOT integrate exactly on the
    # smallest grid, confirming the degree table is not vacuous
    pts, wts = lebedev_grid(6)
    val = float(np.sum(wts * pts[:, 0] ** 4))
    assert abs(val - monomial_average(4, 0, 0)) > 1e-3


def test_grids_are_pinned_bit_for_bit():
    # points, their order and weights of every grid, as first tabulated; the
    # reports' bytes depend on all three
    digest = hashlib.sha256()
    for order in SUPPORTED_ORDERS:
        pts, wts = lebedev_grid(order)
        digest.update(pts.tobytes() + wts.tobytes())
    assert digest.hexdigest() == "fa7aff710923882afa1277c42b918fc59c61806c7b316ea22c06ce656eeb298e"


def tuple_orbit(generator):
    """The signed permutations of generator as Python tuples, each where it first
    occurs (dict.fromkeys; -0.0 == 0.0): how the grids were first built."""
    return dict.fromkeys(
        (sx * x, sy * y, sz * z)
        for x, y, z in itertools.permutations(generator)
        for sx, sy, sz in itertools.product((1.0, -1.0), repeat=3)
    )


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_numpy_orbits_match_the_tuple_built_grid_bit_for_bit(order):
    orbits = [(tuple_orbit(generator), weight) for generator, weight in _TABLES[order]]
    points = np.array([p for orbit, _ in orbits for p in orbit])
    weights = np.array([weight for orbit, weight in orbits for _ in orbit])
    pts, wts = lebedev_grid(order)
    # tobytes tells -0.0 from 0.0
    assert pts.tobytes() == points.tobytes() and wts.tobytes() == weights.tobytes()


def test_unsupported_order_raises():
    with pytest.raises(UnsupportedOrder):
        lebedev_grid(74)
    with pytest.raises(UnsupportedOrder):
        lebedev_grid(12)
