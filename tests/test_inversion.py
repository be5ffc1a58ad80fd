"""Cusp-based frame reconstruction and cusp-condition verification.

Charge oracles are analytic: for superposed hydrogen-like clouds the
log-derivative at center a is -2*zeta_a*rho_own/(rho_own + tails), so the
expected contamination of every Z estimate is computable in closed form.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from rho2v.density import (
    DensityModel,
    NuclearFrame,
    PrimitiveKind,
    RadialPrimitive,
    evaluate,
    hydrogenic_model,
    model_from_frame,
    normalize,
)
from rho2v.errors import NoCuspsFound
from rho2v.inversion import (
    CUSP_TOL,
    incompatibility_check,
    reconstruct_potential,
    verify_cusp_conditions,
)
from rho2v.spherical import radial_derivative_at_center
from rho2v.topology import DEFAULT_SEEDS


def all_gaussian_model():
    prim = RadialPrimitive(PrimitiveKind.GAUSSIAN, 1.0, 0.8, 0)
    return DensityModel(terms=((np.zeros(3), prim),))


def matched_gaussian_model():
    """Gaussian with the same rho(0) and total charge as hydrogenic Z=1."""
    alpha = math.pi ** (1.0 / 3.0)
    prim = RadialPrimitive(PrimitiveKind.GAUSSIAN, 1.0 / math.pi, alpha, 0)
    return DensityModel(terms=((np.zeros(3), prim),))


@pytest.fixture(scope="module")
def two_center_report():
    frame = NuclearFrame(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]]), np.array([3.0, 1.0]))
    return frame, reconstruct_potential(model_from_frame(frame), seeds_per_axis=6)


def test_hydrogenic_reconstruction_exact():
    model = hydrogenic_model(1.0)
    report = reconstruct_potential(model, seeds_per_axis=5)
    assert len(report.charges) == 1
    assert report.charges[0] == pytest.approx(1.0, abs=1e-6)
    assert np.linalg.norm(report.positions[0]) < 1e-6
    assert report.potential((0.0, 0.0, 1.0)) == pytest.approx(-1.0, abs=1e-6)
    # ground truth present: match recorded
    assert model.frame is not None
    assert len(report.matches) == 1
    assert report.matches[0].charge_error < 1e-6
    assert not report.spurious_indices and not report.missed_true_indices


def test_two_center_recovery(two_center_report):
    frame, report = two_center_report
    assert len(report.charges) == 2
    assert len(report.matches) == 2
    for m in report.matches:
        assert m.position_error < 1e-4
        assert m.charge_error < 1e-2
    # analytic contamination bound: Z_est = zeta*(1 - tail/rho + O(tail^2))
    heavy = max(report.matches, key=lambda m: frame.charges[m.true_index])
    tail = (1.0 / math.pi) * math.exp(-6.0)
    rho_own = 81.0 / math.pi
    expected = 3.0 * rho_own / (rho_own + tail)
    assert report.charges[heavy.estimated_index] == pytest.approx(expected, abs=2e-4)


def test_all_gaussian_raises_no_cusps():
    with pytest.raises(NoCuspsFound) as excinfo:
        reconstruct_potential(all_gaussian_model(), seeds_per_axis=5)
    # the exception carries the smooth maxima that were found
    pts = excinfo.value.critical_points
    assert len(pts) >= 1
    assert all(not p.is_cusp for p in pts)


def test_charge_scale_invariance():
    base = hydrogenic_model(1.0)
    scaled = DensityModel(
        terms=tuple(
            (c, RadialPrimitive(p.kind, 3.7 * p.coefficient, p.exponent, p.power))
            for c, p in base.terms
        ),
        electron_count=base.electron_count,
    )
    r1 = reconstruct_potential(base, seeds_per_axis=5)
    r2 = reconstruct_potential(scaled, seeds_per_axis=5)
    assert abs(r1.charges[0] - r2.charges[0]) <= 1e-10


def test_reconstruction_translation_equivariance():
    shift = np.array([0.5, -0.75, 1.25])
    base = hydrogenic_model(2.0)
    moved = hydrogenic_model(2.0, center=shift)
    r1 = reconstruct_potential(base, seeds_per_axis=5)
    r2 = reconstruct_potential(moved, seeds_per_axis=5)
    assert np.linalg.norm(r2.positions[0] - (r1.positions[0] + shift)) < 1e-8
    x = np.array([1.0, 1.0, 0.0])
    assert r2.potential(x + shift) == pytest.approx(r1.potential(x), abs=1e-8)


def test_charge_snapping():
    report = reconstruct_potential(hydrogenic_model(3.0), seeds_per_axis=5, snap_charges=True)
    assert report.snapped_charges[0] == 3.0
    assert report.snap_distances[0] < 1e-6
    assert report.estimated_frame.charges[0] == 3.0


def test_round_trip_random_three_center_frame():
    # any frame at separations >= 2 bohr must round-trip within the
    # stated gates (positions 1e-4, charges 1e-2)
    rng = np.random.default_rng(17)
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.2, 2.4], [2.1, -0.3, 0.6]])
    positions[1:] += rng.uniform(-0.05, 0.05, size=(2, 3))
    charges = np.array([2.0, 1.0, 1.5])
    frame = NuclearFrame(positions, charges)
    report = reconstruct_potential(model_from_frame(frame), seeds_per_axis=6)
    assert len(report.matches) == 3
    assert not report.spurious_indices and not report.missed_true_indices
    for m in report.matches:
        assert m.position_error <= 1e-4
        assert m.charge_error <= 1e-2


@pytest.mark.parametrize("seeds", [DEFAULT_SEEDS, 5])
def test_z3_z1_at_one_bohr_finds_both_centers(seeds):
    # the Z=1 nucleus is a cusp maximum on the flank of the Z=3 cloud
    frame = NuclearFrame(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), np.array([3.0, 1.0]))
    report = reconstruct_potential(model_from_frame(frame), seeds_per_axis=seeds)
    assert len(report.matches) == 2
    assert not report.spurious_indices and not report.missed_true_indices
    for m in report.matches:
        assert m.position_error < 1e-6
    light = min(report.matches, key=lambda m: frame.charges[m.true_index])
    # Kato reading zeta*c_own/rho(x0): the Z=3 tail adds to rho(x0) but has
    # no slope there, so 0.833 (not 1) is exact for this superposition
    assert report.charges[light.estimated_index] == pytest.approx(1.0 / (1.0 + 81.0 * math.exp(-6.0)), abs=1e-6)


RIGID_FRAMES = (
    ([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]], [3.0, 1.0]),
    ([[0.0, 0.0, 0.0], [0.0, 0.2, 2.4], [2.1, -0.3, 0.6]], [2.0, 1.0, 1.5]),
)


@functools.cache
def rigid_base_report(index):
    positions, charges = RIGID_FRAMES[index]
    return reconstruct_potential(model_from_frame(NuclearFrame(np.array(positions), np.array(charges))))


@settings(max_examples=25, deadline=None)
@given(
    index=st.integers(0, len(RIGID_FRAMES) - 1),
    q=st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1),
    shift=st.tuples(*[st.floats(-3.0, 3.0, allow_nan=False)] * 3),
)
def test_reconstruction_follows_rigid_motion(index, q, shift):
    positions, charges = RIGID_FRAMES[index]
    rot = Rotation.from_quat(q).as_matrix()
    moved = NuclearFrame(np.array(positions) @ rot.T + shift, np.array(charges))
    report = reconstruct_potential(model_from_frame(moved))
    base = rigid_base_report(index)
    assert len(report.charges) == len(base.charges)
    for position, charge in zip(base.positions @ rot.T + shift, base.charges):
        j = int(np.argmin(np.linalg.norm(report.positions - position, axis=1)))
        assert np.linalg.norm(report.positions[j] - position) <= 1e-8
        # the Richardson ladder stops within about 1e-8 of the log-derivative,
        # and a rotated Lebedev grid can stop it one level apart
        assert report.charges[j] == pytest.approx(charge, rel=1e-8)


# --- verify_cusp_conditions ---------------------------------------------------

def test_verify_hydrogenic_z2():
    model = hydrogenic_model(2.0)
    frame = NuclearFrame(np.zeros((1, 3)), np.array([2.0]))
    checks = verify_cusp_conditions(model, frame, tol=1e-6)
    assert all(c.passed for c in checks)
    check = checks[0]
    assert check.lhs_slope == pytest.approx(-4.0 * evaluate(model, (0, 0, 0)), rel=1e-8)


def test_verify_gaussian_with_claimed_frame_fails():
    model = all_gaussian_model()
    frame = NuclearFrame(np.zeros((1, 3)), np.array([1.0]))
    checks = verify_cusp_conditions(model, frame, tol=1e-2)
    assert not all(c.passed for c in checks)
    check = checks[0]
    rho0 = evaluate(model, (0, 0, 0))
    assert check.lhs_slope == pytest.approx(0.0, abs=1e-8)
    assert check.residual == pytest.approx(2.0 * rho0, rel=1e-6)


def test_verify_two_center_true_frame(two_center_report):
    frame, _ = two_center_report
    model = model_from_frame(frame)
    checks = verify_cusp_conditions(model, frame, tol=1e-2)
    assert all(c.passed for c in checks)


def test_verify_fails_on_perturbed_charge():
    tol = 1e-2
    checks = verify_cusp_conditions(
        hydrogenic_model(1.0), NuclearFrame(np.zeros((1, 3)), np.array([1.1])), tol=tol
    )
    assert not all(c.passed for c in checks)
    assert checks[0].residual > tol
    # for Z >= 2 the 10% perturbation overshoots the gate by an order
    checks2 = verify_cusp_conditions(
        hydrogenic_model(2.0), NuclearFrame(np.zeros((1, 3)), np.array([2.2])), tol=tol
    )
    assert not all(c.passed for c in checks2)
    assert checks2[0].residual > 10.0 * tol


@pytest.mark.parametrize("z,height", [(1.0, 5.0), (3.0, 5.0), (10.0, 8.0)])
def test_verify_fails_a_claimed_nucleus_where_the_density_has_no_cusp(z, height):
    # 4 to 7 bohr from the nearer nucleus of the Z3/Z1 1-bohr density, rho is so
    # small that the slopes agree within tol's absolute floor; no cusp, no pass
    model = model_from_frame(NuclearFrame([[0, 0, 0], [0, 0, 1]], [3.0, 1.0]))
    (check,) = verify_cusp_conditions(model, NuclearFrame([[0.0, 0.0, height]], [z]))
    assert check.residual <= CUSP_TOL * max(1.0, abs(check.rhs_slope))
    assert not check.passed


def power2_model():
    """One normalized slater_s term of power 2 (c = zeta = 1) at the origin: rho is
    0 there, a minimum, and the term has no radial slope, so no nucleus."""
    prim = RadialPrimitive(PrimitiveKind.SLATER_S, 1.0, 1.0, 2)
    return normalize(DensityModel(terms=((np.zeros(3), prim),), electron_count=1))


@pytest.mark.parametrize("z", [1.0, 2.0, 3.0])
def test_verify_fails_a_claimed_nucleus_whose_ladder_did_not_converge(z):
    # 1e-8 bohr from the power-2 center the ladder reads a log-derivative of
    # about -4 without converging; with the check on convergence, Z = 1, 2 and 3 fail alike
    x = np.array([1e-8, 0.0, 0.0])
    estimate = radial_derivative_at_center(power2_model(), x)
    assert not estimate.converged and estimate.log_derivative == pytest.approx(-4.0, abs=1e-2)
    (check,) = verify_cusp_conditions(power2_model(), NuclearFrame([x], [z]))
    assert check.lhs_slope == estimate.derivative
    assert not check.passed


def test_verify_reads_rho_at_the_center_from_the_ladders_own_pass():
    # with 8 or more terms a one-point kernel pass sums them in another order than
    # a larger one: rhs_slope must take rho(R_a) from a one-point pass, as evaluate does
    rng = np.random.default_rng(27)
    sites = rng.uniform(-1.5, 1.5, (3, 3))
    slater, gauss = PrimitiveKind.SLATER_S, PrimitiveKind.GAUSSIAN
    terms = [(sites[i % 3], RadialPrimitive(slater, rng.uniform(0.2, 2.0), rng.uniform(0.8, 2.5), 0)) for i in range(5)]
    terms += [(sites[i % 3], RadialPrimitive(gauss, rng.uniform(0.1, 1.0), rng.uniform(0.3, 2.0), 0)) for i in range(4)]
    model = DensityModel(terms=tuple(terms))
    # the three sites, a point 1e-4 bohr off one (the ladder does not converge)
    # and one 300 bohr out, where rho <= 1e-30 and no ladder runs
    positions = np.vstack([sites, sites[0] + [1e-4, 0.0, 0.0], [300.0, 0.0, 0.0]])
    frame = NuclearFrame(positions, rng.uniform(0.5, 3.0, len(positions)))
    checks = verify_cusp_conditions(model, frame)
    for check, pos, z in zip(checks, positions, frame.charges):
        assert check.rhs_slope == -2.0 * float(z) * evaluate(model, pos)
        # each check carries its ladder's reading
        estimate = radial_derivative_at_center(model, pos)
        assert check.ladder_converged == estimate.converged
        assert check.ladder_levels_used == estimate.levels_used
        assert check.log_derivative_uncertainty_estimate == estimate.uncertainty
    assert [c.ladder_converged for c in checks] == [True, True, True, False, False]
    assert all(c.ladder_levels_used > 0 for c in checks[:-1])
    assert checks[-1].lhs_slope is None and checks[-1].residual is None and not checks[-1].passed
    assert (checks[-1].ladder_levels_used, checks[-1].log_derivative_uncertainty_estimate) == (0, None)


# --- incompatibility_check -----------------------------------------------------

def test_identical_models_contradict_distinct_potentials():
    m1 = hydrogenic_model(1.0)
    m2 = hydrogenic_model(1.0)
    verdict = incompatibility_check(m1, m2, seeds_per_axis=5)
    assert verdict.densities_equal
    assert verdict.case == "IV"
    assert "identical center by center" in verdict.message or "contradicted" in verdict.message
    assert len(verdict.center_agreement) == 1
    assert verdict.center_agreement[0].charge_error < 1e-8


def test_z1_vs_z2_assigns_case_ii():
    verdict = incompatibility_check(hydrogenic_model(1.0), hydrogenic_model(2.0), seeds_per_axis=5)
    assert not verdict.densities_equal
    assert verdict.case == "II"
    # densities differ at the origin by 8/pi - 1/pi
    assert verdict.max_density_difference > 1.0
    z1 = verdict.report1.charges[0]
    z2 = verdict.report2.charges[0]
    assert z1 == pytest.approx(1.0, abs=1e-6)
    assert z2 == pytest.approx(2.0, abs=1e-6)


def test_slater_vs_matched_gaussian():
    verdict = incompatibility_check(hydrogenic_model(1.0), matched_gaussian_model(), seeds_per_axis=5)
    assert not verdict.densities_equal
    assert verdict.failure1 is None
    assert verdict.failure2 is not None  # Gaussian side has no cusp signature
    assert verdict.report2 is None
    assert verdict.case == "II"


@pytest.mark.parametrize("index", range(len(RIGID_FRAMES)))
def test_reconstruction_ignores_term_order(index):
    base = rigid_base_report(index)
    model = model_from_frame(NuclearFrame(*map(np.array, RIGID_FRAMES[index])))
    for order in list(itertools.permutations(range(len(model.terms))))[1:]:
        shuffled = DensityModel(
            terms=tuple(model.terms[i] for i in order), electron_count=model.electron_count, frame=model.frame
        )
        report = reconstruct_potential(shuffled)
        assert len(report.charges) == len(base.charges)
        assert np.max(np.abs(report.positions - base.positions)) <= 1e-12
        assert np.max(np.abs(report.charges / base.charges - 1.0)) <= 1e-9
