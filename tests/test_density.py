"""Density mixture evaluation, derivatives, and closed-form integrals.

Expected values come from independent oracles: analytic hydrogenic formulas,
Richardson-combined central finite differences, and adaptive radial
quadrature (scipy.integrate.quad).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rho2v.density import (
    DensityModel,
    NuclearFrame,
    PrimitiveKind,
    RadialPrimitive,
    evaluate,
    evaluate_many,
    gradient,
    hessian,
    hydrogenic_model,
    model_from_frame,
    normalize,
    on_cusp,
    total_integral,
    translate,
)
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
    moved = translate(model, shift)
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
        lambda r: 4.0 * math.pi * r * r * prim.radial_value(r),
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
    once = normalize(model, 1)
    twice = normalize(once, 1)
    for (c1, p1), (c2, p2) in zip(once.terms, twice.terms):
        assert p1.coefficient == pytest.approx(p2.coefficient, rel=1e-14)
    doubled = normalize(once, 2)
    for (c1, p1), (c2, p2) in zip(once.terms, doubled.terms):
        assert p2.coefficient == pytest.approx(2.0 * p1.coefficient, rel=1e-14)


def test_normalize_zero_density_raises():
    with pytest.raises(ZeroDensity):
        normalize(DensityModel(terms=()), 1)


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


def test_evaluate_many_across_chunk_boundary_equals_pieces():
    rng = np.random.default_rng(22)
    model = random_model(rng, n_terms=5)
    pts = rng.uniform(-4, 4, size=(20000, 3))  # more than two 8192-point chunks
    pieces = np.concatenate([evaluate_many(model, pts[lo : lo + 3000]) for lo in range(0, len(pts), 3000)])
    np.testing.assert_allclose(evaluate_many(model, pts), pieces, rtol=1e-15, atol=0)


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
    keep = ~on_cusp(model, pts)
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
    assert on_cusp(model, batch).tolist() == [False, singular]
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

