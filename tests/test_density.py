"""Density mixture evaluation, derivatives, and closed-form integrals.

Expected values come from independent oracles: analytic hydrogenic formulas,
Richardson-combined central finite differences, and adaptive radial
quadrature (scipy.integrate.quad).
"""

import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rho2v.density import (
    _CHUNK,
    CENTER_EPS,
    _separation,
    _term_sum,
    DensityModel,
    NuclearFrame,
    PrimitiveKind,
    RadialPrimitive,
    evaluate,
    evaluate_grid,
    evaluate_many,
    gradient,
    hessian,
    hydrogenic_model,
    kernel_pass,
    model_from_frame,
    normalize,
    total_integral,
)
from rho2v import topology
from rho2v.errors import AtCuspSingularity, ZeroDensity


def slater(c, zeta, n=0):
    return RadialPrimitive(PrimitiveKind.SLATER_S, c, zeta, n)


def gauss(c, alpha, n=0):
    return RadialPrimitive(PrimitiveKind.GAUSSIAN, c, alpha, n)


def random_model(rng, n_terms=3, smooth_only=False):
    terms = []
    for _ in range(n_terms):
        center = rng.uniform(-2.0, 2.0, size=3)
        if smooth_only:
            kind, expo, power = PrimitiveKind.GAUSSIAN, rng.uniform(0.3, 2.0), int(rng.integers(0, 2)) * 2
        elif rng.random() < 0.5:
            kind, expo, power = PrimitiveKind.SLATER_S, rng.uniform(0.5, 3.0), int(rng.integers(0, 4))
        else:
            kind, expo, power = PrimitiveKind.GAUSSIAN, rng.uniform(0.3, 2.0), int(rng.integers(0, 4))
        terms.append((center, RadialPrimitive(kind, rng.uniform(0.1, 2.0), expo, power)))
    return DensityModel(terms=tuple(terms))


# --- finite-difference oracles -------------------------------------------

def fd_gradient(model, x, h=1e-4):
    """Central differences at h and h/10, Richardson-combined (O(h^4))."""
    def fd(step):
        g = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = step
            g[i] = (evaluate(model, x + e) - evaluate(model, x - e)) / (2 * step)
        return g

    return (100.0 * fd(h / 10) - fd(h)) / 99.0


def fd_hessian(model, x, h=1e-3):
    """Second central differences at h and h/2, Richardson-combined.

    At h = 1e-4 the h/2 differences sit in the round-off regime: the worst
    error over test_hessian_matches_finite_differences was 9.77e-7 against
    its 1e-6 gate.  At h = 1e-3 it is 9.5e-9.
    """
    def fd(step):
        m = np.zeros((3, 3))
        f0 = evaluate(model, x)
        for i in range(3):
            ei = np.zeros(3)
            ei[i] = step
            m[i, i] = (evaluate(model, x + ei) - 2 * f0 + evaluate(model, x - ei)) / step**2
            for j in range(i + 1, 3):
                ej = np.zeros(3)
                ej[j] = step
                m[i, j] = m[j, i] = (
                    evaluate(model, x + ei + ej)
                    - evaluate(model, x + ei - ej)
                    - evaluate(model, x - ei + ej)
                    + evaluate(model, x - ei - ej)
                ) / (4 * step**2)
        return m

    return (4.0 * fd(h / 2) - fd(h)) / 3.0


# --- evaluate --------------------------------------------------------------

def test_evaluate_hydrogenic_origin():
    model = hydrogenic_model(1.0)
    assert evaluate(model, (0, 0, 0)) == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_evaluate_hydrogenic_off_center():
    model = hydrogenic_model(1.0)
    assert evaluate(model, (0, 0, 1.0)) == pytest.approx(0.0430785586, abs=1e-10)
    assert evaluate(model, (0, 0, 1.0)) == pytest.approx(math.exp(-2.0) / math.pi, rel=1e-14)


def test_evaluate_empty_model_is_zero():
    model = DensityModel(terms=())
    assert evaluate(model, (0.3, -1.0, 2.0)) == 0.0


def test_evaluate_nonnegative_everywhere():
    rng = np.random.default_rng(7)
    for k in range(5):
        model = random_model(rng, n_terms=int(rng.integers(1, 5)))
        pts = rng.uniform(-8, 8, size=(2000, 3))
        assert np.all(evaluate_many(model, pts) >= 0.0)


def test_evaluate_translation_equivariance():
    # exactly-representable coordinates (multiples of 2^-10) make the
    # translated distances bitwise equal, so the values must match exactly
    rng = np.random.default_rng(11)
    snap = lambda a: np.round(a * 1024.0) / 1024.0
    terms = []
    for _ in range(3):
        center = snap(rng.uniform(-2, 2, size=3))
        terms.append((center, RadialPrimitive(PrimitiveKind.SLATER_S, 0.5, 1.2, 1)))
        terms.append((center, RadialPrimitive(PrimitiveKind.GAUSSIAN, 0.25, 0.75, 0)))
    model = DensityModel(terms=tuple(terms))
    shift = np.array([0.5, -1.25, 2.0])
    moved = DensityModel(terms=tuple((center + shift, prim) for center, prim in terms))
    for _ in range(20):
        p = snap(rng.uniform(-3, 3, size=3))
        assert evaluate(moved, p + shift) == evaluate(model, p)


# --- gradient ---------------------------------------------------------------

def test_gradient_hydrogenic_axis():
    model = hydrogenic_model(1.0)
    g = gradient(model, (0, 0, 1.0))
    expected = -2.0 * math.exp(-2.0) / math.pi
    assert g[0] == 0.0 and g[1] == 0.0
    assert g[2] == pytest.approx(expected, rel=1e-12)
    assert g[2] == pytest.approx(-0.0861571, abs=1e-7)


def test_gradient_gaussian_center_is_zero():
    model = DensityModel(terms=((np.zeros(3), gauss(1.0, 0.8)),))
    assert np.all(gradient(model, (0, 0, 0)) == 0.0)


def test_gradient_is_radial_for_single_center():
    rng = np.random.default_rng(3)
    model = DensityModel(terms=((np.zeros(3), slater(1.0, 1.3)), (np.zeros(3), gauss(0.5, 0.6, 2))))
    for _ in range(20):
        p = rng.normal(size=3)
        p *= rng.uniform(0.2, 3.0) / np.linalg.norm(p)
        g = gradient(model, p)
        cross = np.cross(g, p / np.linalg.norm(p))
        assert np.linalg.norm(cross) < 1e-12 * max(1.0, np.linalg.norm(g))


def test_gradient_raises_at_cusp_center():
    model = hydrogenic_model(2.0, center=(1.0, 0.0, 0.0))
    with pytest.raises(AtCuspSingularity):
        gradient(model, (1.0, 0.0, 0.0))
    with pytest.raises(AtCuspSingularity):
        hessian(model, (1.0 + 1e-13, 0.0, 0.0))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    model = random_model(rng, n_terms=4)
    centers = model.centers
    checked = 0
    while checked < 100:
        x = rng.uniform(-3, 3, size=3)
        if min(np.linalg.norm(x - c) for c in centers) < 0.05:
            continue
        g = gradient(model, x)
        g_fd = fd_gradient(model, x)
        denom = max(np.linalg.norm(g), 1e-8)
        assert np.linalg.norm(g - g_fd) / denom < 1e-6
        checked += 1


# --- hessian ----------------------------------------------------------------

def test_hessian_gaussian_center_diagonal():
    c, alpha = 1.7, 0.9
    model = DensityModel(terms=((np.zeros(3), gauss(c, alpha)),))
    h = hessian(model, (0, 0, 0))
    assert np.allclose(h, -2.0 * c * alpha * np.eye(3), atol=1e-14)


def test_hessian_radial_eigenvector():
    model = DensityModel(terms=((np.zeros(3), slater(1.0, 1.0)),))
    p = np.array([0.3, -0.4, 1.2])
    h = hessian(model, p)
    u = p / np.linalg.norm(p)
    hu = h @ u
    # u must be an eigenvector: H u parallel to u
    assert np.linalg.norm(np.cross(hu, u)) < 1e-12 * np.linalg.norm(hu)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(1234)
    model = random_model(rng, n_terms=4)
    centers = model.centers
    checked = 0
    while checked < 100:
        x = rng.uniform(-3, 3, size=3)
        if min(np.linalg.norm(x - c) for c in centers) < 0.05:
            continue
        h = hessian(model, x)
        h_fd = fd_hessian(model, x)
        denom = max(np.linalg.norm(h), 1.0)
        assert np.linalg.norm(h - h_fd) / denom < 1e-6
        checked += 1


def test_hessian_center_limits_smooth_powers():
    # r^2 terms have Hessian 2c*I at their center; higher powers vanish.
    model = DensityModel(terms=(
        (np.zeros(3), slater(0.7, 1.1, 2)),
        (np.zeros(3), gauss(0.3, 0.8, 2)),
        (np.zeros(3), gauss(0.2, 0.5, 4)),
    ))
    h = hessian(model, (0, 0, 0))
    assert np.allclose(h, 2.0 * (0.7 + 0.3) * np.eye(3), atol=1e-14)


# --- total_integral / normalize ---------------------------------------------

def test_total_integral_hydrogenic():
    assert total_integral(hydrogenic_model(1.0)) == pytest.approx(1.0, rel=1e-14)


def test_total_integral_two_centers_additive():
    m1 = hydrogenic_model(1.0)
    m2 = hydrogenic_model(1.0, center=(0, 0, 2.0))
    both = DensityModel(terms=m1.terms + m2.terms, electron_count=2)
    assert total_integral(both) == pytest.approx(2.0, rel=1e-14)


def test_total_integral_unnormalized_slater():
    model = DensityModel(terms=((np.zeros(3), slater(1.0, 1.0)),))
    assert total_integral(model) == pytest.approx(math.pi, rel=1e-14)


@pytest.mark.parametrize(
    "prim",
    [
        slater(0.8, 1.4, 0),
        slater(1.2, 0.6, 2),
        slater(0.5, 2.0, 3),
        gauss(0.9, 0.7, 0),
        gauss(1.1, 1.9, 1),
        gauss(0.4, 0.5, 4),
    ],
)
def test_total_integral_matches_quadrature(prim):
    model = DensityModel(terms=((np.zeros(3), prim),))
    oracle, _ = quad(
        lambda r: 4.0 * math.pi * r * r * evaluate_many(model, [[r, 0.0, 0.0]])[0],
        0,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    assert total_integral(model) == pytest.approx(oracle, rel=1e-8)


def test_normalize_hydrogenic_coefficient():
    model = DensityModel(terms=((np.zeros(3), slater(1.0, 1.0)),), electron_count=1)
    normed = normalize(model)
    assert normed.terms[0][1].coefficient == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert total_integral(normed) == pytest.approx(1.0, rel=1e-10)


def test_normalize_idempotent_and_linear():
    rng = np.random.default_rng(5)
    model = random_model(rng)
    once = normalize(model)
    twice = normalize(once)
    for (c1, p1), (c2, p2) in zip(once.terms, twice.terms):
        assert p1.coefficient == pytest.approx(p2.coefficient, rel=1e-14)
    doubled = normalize(dataclasses.replace(once, electron_count=2))
    for (c1, p1), (c2, p2) in zip(once.terms, doubled.terms):
        assert p2.coefficient == pytest.approx(2.0 * p1.coefficient, rel=1e-14)


def test_normalize_zero_density_raises():
    with pytest.raises(ZeroDensity):
        normalize(DensityModel(terms=()))


# --- type validation ---------------------------------------------------------

def test_primitive_validation():
    with pytest.raises(ValueError):
        RadialPrimitive(PrimitiveKind.SLATER_S, -1.0, 1.0)
    with pytest.raises(ValueError):
        RadialPrimitive(PrimitiveKind.SLATER_S, 1.0, 0.0)
    with pytest.raises(ValueError):
        RadialPrimitive(PrimitiveKind.GAUSSIAN, 1.0, 1.0, -1)


def test_frame_validation():
    with pytest.raises(ValueError):
        NuclearFrame(np.zeros((1, 3)), np.array([-1.0]))
    with pytest.raises(ValueError):
        NuclearFrame(np.array([[0, 0, 0], [0, 0, 1e-7]]), np.array([1.0, 1.0]))


def test_frame_potential():
    frame = NuclearFrame(np.array([[0.0, 0.0, 0.0]]), np.array([1.0]))
    assert frame.potential(np.array([0.0, 0.0, 1.0])) == pytest.approx(-1.0, rel=1e-14)
    frame2 = NuclearFrame(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]]), np.array([3.0, 1.0]))
    v = frame2.potential(np.array([0.0, 0.0, 1.0]))
    assert v == pytest.approx(-3.0 / 1.0 - 1.0 / 2.0, rel=1e-14)


def test_model_from_frame_charge_scaled():
    frame = NuclearFrame(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]]), np.array([3.0, 1.0]))
    model = model_from_frame(frame)
    assert model.electron_count == 4
    assert total_integral(model) == pytest.approx(4.0, rel=1e-12)
    # each term holds Z_a electrons with the hydrogenic profile of its own Z
    assert evaluate(model, (0, 0, 0)) == pytest.approx(
        81.0 / math.pi + (1.0 / math.pi) * math.exp(-6.0), rel=1e-12
    )


# --- the batched kernel --------------------------------------------------------

def test_batched_gradient_equals_stacked_single_points():
    rng = np.random.default_rng(21)
    model = random_model(rng, n_terms=6)
    pts = rng.uniform(-3, 3, size=(50, 3))
    stacked = np.array([gradient(model, p) for p in pts])
    # numpy's r**2 squares on some loops and calls pow() on others: an ulp apart
    np.testing.assert_allclose(gradient(model, pts), stacked, rtol=1e-15, atol=1e-300)


def test_fused_gradient_and_hessian_equal_separate_calls():
    rng = np.random.default_rng(24)
    for _ in range(20):
        model = random_model(rng, n_terms=int(rng.integers(1, 7)))
        smooth = [c for c, _ in model.terms if not kernel_pass(model, c[None], 1).on_cusp[0]]
        pts = np.concatenate([rng.uniform(-3, 3, size=(40, 3))] + [np.reshape(smooth, (-1, 3))])
        _, g, h, _ = kernel_pass(model, pts, 2)
        np.testing.assert_allclose(g, gradient(model, pts), rtol=1e-15, atol=1e-300)
        stacked = np.array([hessian(model, p) for p in pts])
        np.testing.assert_allclose(h, stacked, rtol=1e-15, atol=1e-300)


@pytest.mark.parametrize("kind", list(PrimitiveKind))
@pytest.mark.parametrize("power", [0, 1, 2])
def test_fused_kernel_raises_where_gradient_raises(kind, power):
    center = np.array([0.4, -1.1, 0.7])
    other = (np.array([1.0, 1.0, 1.0]), slater(0.5, 0.9))
    model = DensityModel(terms=(other, (center, RadialPrimitive(kind, 1.3, 0.8, power))))
    for at in (center, other[0], center + 1e-13, np.array([2.0, 0.0, 0.0])):
        batch = np.array([[-1.0, 0.5, 0.0], at])
        fused = kernel_pass(model, batch, 2)
        try:
            gradient(model, batch)
        except AtCuspSingularity:
            assert fused.on_cusp.any()
            with pytest.raises(AtCuspSingularity):
                hessian(model, batch)
        else:
            assert not fused.on_cusp.any()
            assert np.all(np.isfinite(fused.hessian))


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reduced_norms(v):
    return np.sqrt(np.add.reduce(v * v, axis=-1))


# the first two rows' norms differ between (x0 + x1) + x2 and x0 + (x1 + x2),
# after the square root as well
_ROWS = np.array(
    [[1.2, 1e-8, 1e-8], [1e-8, 1e-8, 1.2], [1e16, 1.0, 1.0], [-0.0, 0.0, -0.0], [-0.0, 1.5, -0.0], [0.0, -0.0, 0.0]]
)


@pytest.mark.parametrize("size", [1, 100, _CHUNK + 1])
def test_separation_and_norms_sum_xyz_as_the_reduce_does(size):
    for q in _ROWS[:2] ** 2:
        assert math.sqrt(q[0] + (q[1] + q[2])) != math.sqrt(np.add.reduce(q))  # the association shows
    rng = np.random.default_rng(size)
    pts = rng.normal(size=(size, 3)) * 10.0 ** rng.integers(-8, 8, size=(size, 1))
    pts[rng.choice(size, min(size, len(_ROWS)), replace=False)] = _ROWS[: min(size, len(_ROWS))]
    centers = np.array([[0.0, 0.0, 0.0], [0.3, -1.7, 2.2]])
    d, r = _separation(centers, pts)
    assert same_bits(d, pts - centers[:, None, :]) and same_bits(r, reduced_norms(d))
    assert same_bits(topology._norms(pts), reduced_norms(pts))
    assert same_bits(topology._norms(d), reduced_norms(d))


def test_norms_on_the_rows_where_the_association_matters():
    assert same_bits(topology._norms(_ROWS), reduced_norms(_ROWS))
    assert same_bits(_separation(np.zeros((1, 3)), _ROWS)[1][0], reduced_norms(_ROWS))
    # a signed zero squares to +0.0: the norm of a zero row is +0.0
    assert np.signbit(topology._norms(_ROWS[3:4])).tolist() == [False]


@pytest.mark.parametrize("size", [9, 300, _CHUNK + 100])
def test_kernel_pass_is_bit_identical_to_the_public_functions(size):
    rng = np.random.default_rng(size)
    centers = rng.uniform(-2.0, 2.0, size=(4, 3))
    model = DensityModel(
        terms=(
            (centers[0], slater(0.7, 1.3)),  # a cusp: derivatives undefined at its center
            (centers[1], slater(0.4, 0.9, 2)),  # smooth at its center, patched there
            (centers[2], gauss(0.5, 0.6)),  # smooth at its center, patched there
            (centers[3], gauss(0.3, 1.1, 1)),  # a cusp
        )
    )
    unit = rng.normal(size=3)
    special = np.array(
        [centers[0], centers[0] + 0.5 * CENTER_EPS * unit / np.linalg.norm(unit), centers[1], centers[2]]
    )
    pts = rng.uniform(-3.0, 3.0, size=(size, 3))
    at = rng.choice(size, len(special), replace=False)
    pts[at] = special
    mask = np.zeros(size, dtype=bool)
    mask[at[:2]] = True

    k0, k1, k2 = (kernel_pass(model, pts, order) for order in (0, 1, 2))
    assert k0.gradient is None and k0.hessian is None and k0.on_cusp is None
    assert k1.hessian is None
    value = evaluate_many(model, pts)
    assert same_bits(k0.value, value) and same_bits(k1.value, value) and same_bits(k2.value, value)
    assert same_bits(k1.on_cusp, mask) and same_bits(k2.on_cusp, mask)
    with pytest.raises(AtCuspSingularity):
        gradient(model, pts)
    g, h = gradient(model, pts[~mask]), hessian(model, pts[~mask])
    off = kernel_pass(model, pts[~mask], 2)
    assert same_bits(off.gradient, g) and same_bits(off.hessian, h)
    assert same_bits(k1.gradient[~mask], g) and same_bits(k2.gradient[~mask], g)
    assert same_bits(k2.hessian[~mask], h)
    # the entries on a cusp are finite, for callers that mask them out
    assert np.all(np.isfinite(k2.gradient)) and np.all(np.isfinite(k2.hessian))


def test_batch_size_rounding_rule_on_ten_terms():
    # the rule kernel_pass states: a one-point pass gives evaluate's value, and a
    # point's gradient and cusp mask do not depend on the batch it rides in
    rng = np.random.default_rng(10)
    model = random_model(rng, n_terms=10)
    pts = np.concatenate([rng.uniform(-3.0, 3.0, size=(40, 3)), [c for c, _ in model.terms]])
    alone = [kernel_pass(model, x[None], 2) for x in pts]
    assert any(p.on_cusp[0] for p in alone) and not all(p.on_cusp[0] for p in alone)
    for x, p in zip(pts, alone):
        assert same_bits(p.value, np.array([evaluate(model, x)]))
        assert same_bits(kernel_pass(model, x[None], 1).gradient, p.gradient)
    for size in (2, 3, len(pts)):
        for lo in range(0, len(pts) - size + 1, size):
            batch = kernel_pass(model, pts[lo : lo + size], 2)
            assert same_bits(batch.gradient, np.concatenate([p.gradient for p in alone[lo : lo + size]]))
            assert same_bits(batch.on_cusp, np.concatenate([p.on_cusp for p in alone[lo : lo + size]]))
            np.testing.assert_allclose(batch.value, [p.value[0] for p in alone[lo : lo + size]], rtol=1e-15)


@pytest.mark.parametrize("size", [9, 300, _CHUNK + 100])
def test_shared_sites_are_bit_identical_to_the_per_term_layout(size):
    shared = np.array([0.0, 0.5, -1.0])  # a Slater cusp with two more shells
    smooth = np.array([1.2, -0.7, 0.4])  # power-2 and Gaussian shells only
    signed = np.array([-0.0, 0.5, -1.0])  # equal to shared, but another bit pattern
    near = smooth + np.array([1e-13, 0.0, 0.0])
    model = DensityModel(
        terms=(
            (shared, slater(0.7, 1.3)),
            (smooth, slater(0.4, 0.9, 2)),
            (shared, gauss(0.3, 1.1, 1)),
            (smooth, gauss(0.5, 0.6, 2)),
            (signed, gauss(0.2, 0.8)),
            (near, gauss(0.1, 1.7, 2)),
            (shared, slater(0.05, 0.9, 1)),
            (smooth, gauss(0.25, 0.4)),
        )
    )
    t = model._arrays
    assert t.site_of.tolist() == [0, 1, 0, 1, 2, 3, 0, 1]
    assert same_bits(t.sites, np.array([shared, smooth, signed, near]))
    # DensityModel.centers still merges centers within CENTER_EPS
    assert same_bits(model.centers, np.array([shared, smooth]))
    per_term = t._replace(sites=t.centers, site_of=None)

    rng = np.random.default_rng(size)
    pts = rng.uniform(-3.0, 3.0, size=(size, 3))
    special = np.array([shared, smooth, signed, near, [-0.0, 1.3, 2.0], [0.0, 1.3, 2.0]])
    at = rng.choice(size, len(special), replace=False)
    pts[at] = special
    for order in (0, 1, 2):
        fields = _term_sum(t, pts, order)
        for field, expected in zip(fields, _term_sum(per_term, pts, order)):
            assert (field is None and expected is None) or same_bits(field, expected)
    # the derivatives are undefined on the Slater cusp and defined on the smooth center
    assert fields[3][at].tolist() == [True, False, True, False, False, False]
    assert np.count_nonzero(fields[3]) == 2


FOLDED_TERM_SETS = {
    # power 0 only, one term per site and two shells on one site: no r^n, no n/r, no b
    "slater": ((0, slater(0.7, 1.3)), (1, slater(0.4, 0.9)), (0, slater(0.05, 2.2)), (2, slater(1.1, 0.6))),
    # power 0 only: no r^n, no n/r; the b parts stay
    "gaussian": ((0, gauss(0.5, 0.6)), (1, gauss(0.3, 1.1)), (2, gauss(0.8, 0.3)), (1, gauss(0.2, 2.4))),
}


@pytest.mark.parametrize("size", [9, 300, _CHUNK + 100])
@pytest.mark.parametrize("kind", sorted(FOLDED_TERM_SETS))
def test_folded_kernel_is_bit_identical_to_the_full_formula(kind, size):
    rng = np.random.default_rng([size, len(kind)])
    centers = rng.uniform(-2.0, 2.0, size=(3, 3))
    model = DensityModel(terms=tuple((centers[i], prim) for i, prim in FOLDED_TERM_SETS[kind]))
    t = model._arrays
    assert not t.powered and t.gaussian == (kind == "gaussian")
    full = t._replace(powered=True, gaussian=True)  # every factor and term taken

    unit = rng.normal(size=3)
    near = centers + 0.5 * CENTER_EPS * unit / np.linalg.norm(unit)
    pts = rng.uniform(-3.0, 3.0, size=(size, 3))
    at = rng.choice(size, 6, replace=False)
    pts[at] = np.concatenate([centers, near])
    for order in (0, 1, 2):
        fields = _term_sum(t, pts, order)
        for field, expected in zip(fields, _term_sum(full, pts, order)):
            assert (field is None and expected is None) or same_bits(field, expected)
    # Slater centers are cusps; Gaussian ones are smooth, and patched there
    assert fields[3][at].tolist() == [kind == "slater"] * 6
    assert np.all(np.isfinite(fields[2]))


def test_high_power_terms_match_mpmath_far_out():
    # a normalized power-169 Slater term peaks at r = 84.5 bohr, where r^169 alone overflows
    model = normalize(DensityModel(terms=((np.zeros(3), slater(1.0, 1.0, 169)),)))
    c = model.terms[0][1].coefficient
    radii = [10.0, 67.0, 84.5, 300.0]
    pts = np.array([[r, 0.0, 0.0] for r in radii])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = kernel_pass(model, pts, 2)
    with mpmath.workdps(40):
        exact = [mpmath.mpf(c) * mpmath.mpf(r) ** 169 * mpmath.exp(-2 * mpmath.mpf(r)) for r in radii]
    for value, reference in zip(p.value, exact):
        assert abs(value - reference) <= 1e-12 * reference
    assert np.all(np.isfinite(p.gradient)) and np.all(np.isfinite(p.hessian))
    assert not p.on_cusp.any()


def test_high_power_terms_vanish_at_zero_coefficient_and_at_their_center():
    low = ((np.array([0.3, 0.0, 0.0]), slater(0.7, 1.3)), (np.zeros(3), gauss(0.2, 0.9, 2)))
    high = ((np.zeros(3), gauss(0.0, 0.5, 4)), (np.zeros(3), slater(0.6, 1.1, 3)))
    model = DensityModel(terms=low + high)
    pts = np.array([[0.0, 0.0, 0.0], [1.0, -0.5, 2.0], [40.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = kernel_pass(model, pts[:2], 2)
        assert evaluate(DensityModel(terms=high), pts[0]) == 0.0  # log 0 = -inf: c = 0, and r = 0
        # the low-power terms keep the direct formula, bit for bit
        with_zero = evaluate_many(DensityModel(terms=low + high[:1]), pts)
        assert same_bits(with_zero, evaluate_many(DensityModel(terms=low), pts))
    assert np.all(np.isfinite(p.gradient)) and np.all(np.isfinite(p.hessian))
    np.testing.assert_allclose(p.hessian[1], fd_hessian(model, pts[1]), rtol=1e-6, atol=1e-8)


def test_evaluate_many_across_chunk_boundary_equals_pieces():
    rng = np.random.default_rng(22)
    model = random_model(rng, n_terms=5)
    pts = rng.uniform(-4, 4, size=(20000, 3))  # more than two 8192-point chunks
    pieces = np.concatenate([evaluate_many(model, pts[lo : lo + 3000]) for lo in range(0, len(pts), 3000)])
    np.testing.assert_allclose(evaluate_many(model, pts), pieces, rtol=1e-15, atol=0)


GRID_SITES = ([0.3, -0.2, 0.1], [1.9, 0.4, -0.6], [0.5, -0.25, 1.0])


def grid_mixture(power_169=True):
    """Ten terms on three shared sites, Slater and Gaussian powers 0-2, and a
    power-169 Slater term (log form) on the third site."""
    terms = [
        (0, slater(0.8, 1.7)), (1, slater(0.6, 1.3)), (2, slater(0.5, 2.1)), (0, slater(0.05, 1.2, 1)),
        (2, gauss(0.2, 1.4)), (1, gauss(0.04, 0.7, 1)), (0, gauss(0.3, 0.9, 2)), (2, slater(0.03, 0.9, 1)),
        (1, slater(0.2, 1.1, 2)), (2, gauss(0.1, 0.5, 2)),
    ]
    if power_169:
        terms.append((2, slater(1e17, 40.0, 169)))  # about 1e-5 at 2 bohr
    return DensityModel(terms=tuple((np.array(GRID_SITES[s]), p) for s, p in terms))


def test_evaluate_grid_equals_evaluate_many_at_the_meshgrid_points_bit_for_bit():
    grids = [
        ((2, 2, 2), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        ((5, 4, 3), (0.3, -1.7, 2.25), (0.37, -0.113, 1.0 / 3.0)),
        ((5, 100, 100), (-2.1, -3.0, -3.3), (1.1, 0.061, 0.067)),  # x-planes straddle chunks
        ((3, 3, 9000), (-1.0, -1.0, -20.0), (0.5, 0.5, 40.0 / 8999)),  # a z-row longer than _CHUNK
        ((2, 2, 20000), (-0.9, 0.4, -20.0), (1.5, -0.6, 0.002)),  # chunks inside one z-row, and astride two
        ((5, 29, 113), (-2.6, -1.9, -2.4), (1.3, 0.14, 0.043)),  # 2 * _CHUNK + 1: a last chunk of one point
        ((4, 3, 5), (0.0, 0.0, 0.0), (0.25, -0.125, 0.5)),  # point (2, 2, 2) on the third site
    ]
    assert np.array_equal(np.array(grids[-1][1]) + 2 * np.array(grids[-1][2]), GRID_SITES[2])
    assert math.prod(grids[-2][0]) == 2 * _CHUNK + 1
    assert grids[4][0][2] > 2 * _CHUNK
    distinct = [np.array(GRID_SITES[i % 3]) + 0.1 * i for i in range(9)]
    kinds = [slater(0.4, 1.6), gauss(0.2, 0.8, 2), slater(0.05, 1.1, 1), gauss(0.3, 1.2), slater(0.1, 0.9, 2)]
    models = [
        grid_mixture(),
        hydrogenic_model(1.3, center=(0.3, -0.2, 0.1)),
        DensityModel(terms=()),
        # each kernel fold: no power and no Gaussian on distinct sites; Gaussians
        # only; powered Slater terms only; 9 terms on distinct sites (site_of None)
        DensityModel(terms=tuple((np.array(s), slater(0.3, 1.0 + 0.4 * i)) for i, s in enumerate(GRID_SITES))),
        DensityModel(terms=tuple((np.array(GRID_SITES[i % 2]), gauss(0.2, 0.5 + 0.3 * i, i % 3)) for i in range(5))),
        DensityModel(terms=tuple((np.array(GRID_SITES[i % 3]), slater(0.1, 1.0 + 0.2 * i, 1 + i % 2)) for i in range(4))),
        DensityModel(terms=tuple((c, kinds[i % len(kinds)]) for i, c in enumerate(distinct))),
    ]
    assert models[-1]._arrays.site_of is None and len(models[-1].terms) >= 8
    for model in models:
        for counts, origin, step in grids:
            ix, iy, iz = np.meshgrid(*map(np.arange, counts), indexing="ij")
            idx = np.stack([ix.ravel(), iy.ravel(), iz.ravel()], axis=1)  # z fastest
            points = np.asarray(origin)[None, :] + idx @ np.diag(step)
            expected = evaluate_many(model, points)
            assert same_bits(evaluate_grid(model, origin, step, counts), expected), (counts, len(model.terms))
            assert np.all(np.isfinite(expected)) and expected.any() == bool(model.terms)


def test_evaluate_grid_builds_no_point_array():
    # a (P, 3) point array alone is 3 times the output; the kernel's work
    # arrays, allocated once per call, are about 2.4 MB on 10 terms
    counts = (64, 64, 64)
    tracemalloc.start()
    try:
        values = evaluate_grid(grid_mixture(power_169=False), (-4.0, -4.0, -4.0), (0.125, 0.125, 0.125), counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (64**3,) and peak < values.nbytes + 4 * 2**20


def test_evaluate_grid_sums_only_its_chunk_on_long_z_rows():
    # each chunk sums the squares of its own points only: besides the output the
    # call holds the per-axis squares, (K, n) per axis, and one chunk's work
    # arrays, r per site and three (T, _CHUNK) arrays; summing whole z-rows of
    # 200,000 points per chunk would add 2 * K * 200,000 floats
    model = grid_mixture(power_169=False)
    counts = (2, 2, 200_000)
    k, t = len(GRID_SITES), len(model.terms)
    tracemalloc.start()
    try:
        values = evaluate_grid(model, (-1.0, -1.0, -20.0), (0.5, 0.5, 2e-4), counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    work = 8 * (k * sum(counts) + (k + 3 * t) * _CHUNK)
    assert values.shape == (math.prod(counts),) and peak < values.nbytes + work + 2**16


def test_term_order_does_not_change_results():
    rng = np.random.default_rng(23)
    model = random_model(rng, n_terms=8)
    shuffled = DensityModel(terms=tuple(model.terms[i] for i in rng.permutation(len(model.terms))))
    pts = rng.uniform(-3, 3, size=(200, 3))
    np.testing.assert_allclose(evaluate_many(shuffled, pts), evaluate_many(model, pts), rtol=1e-14, atol=0)
    for p in pts[:20]:
        g, g_s = gradient(model, p), gradient(shuffled, p)
        assert np.linalg.norm(g_s - g) <= 1e-14 * np.linalg.norm(g)
        h, h_s = hessian(model, p), hessian(shuffled, p)
        assert np.linalg.norm(h_s - h) <= 1e-14 * np.linalg.norm(h)


def rotation(q):
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


coordinate = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    q=st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1),
    shift=st.tuples(coordinate, coordinate, coordinate),
    seed=st.integers(0, 2**32 - 1),
)
def test_rigid_motion_invariance(q, shift, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_terms=4)
    rot, shift = rotation(q), np.asarray(shift)
    moved = DensityModel(terms=tuple((rot @ c + shift, p) for c, p in model.terms))
    pts = rng.uniform(-3, 3, size=(30, 3))
    moved_pts = pts @ rot.T + shift
    np.testing.assert_allclose(evaluate_many(moved, moved_pts), evaluate_many(model, pts), rtol=1e-12, atol=1e-300)
    keep = ~kernel_pass(model, pts, 1).on_cusp
    g, g_moved = gradient(model, pts[keep]), gradient(moved, moved_pts[keep])
    scale = np.max(np.linalg.norm(g, axis=1)) + 1e-300
    assert np.max(np.linalg.norm(g_moved - g @ rot.T, axis=1)) <= 1e-11 * scale


@pytest.mark.parametrize("kind", list(PrimitiveKind))
@pytest.mark.parametrize("power", [0, 1, 2, 3])
def test_cusp_singularity_raised_exactly_at_singular_centers(kind, power):
    center = np.array([0.4, -1.1, 0.7])
    other = (np.array([1.0, 1.0, 1.0]), gauss(0.5, 0.9))
    model = DensityModel(terms=(other, (center, RadialPrimitive(kind, 1.3, 0.8, power))))
    singular = power == 1 or (power == 0 and kind is PrimitiveKind.SLATER_S)
    batch = np.array([[2.0, 0.0, 0.0], center])
    assert kernel_pass(model, batch, 1).on_cusp.tolist() == [False, singular]
    for at in (center, center + 1e-13):
        if singular:
            with pytest.raises(AtCuspSingularity):
                gradient(model, at)
            with pytest.raises(AtCuspSingularity):
                hessian(model, at)
        else:
            assert np.all(np.isfinite(hessian(model, at)))
    if singular:
        with pytest.raises(AtCuspSingularity):
            gradient(model, batch)
    else:
        # smooth at its own center: only the other term pulls
        assert np.array_equal(gradient(model, center), gradient(DensityModel(terms=(other,)), center))

