"""Critical-point search and classification.

The two-center expectation (saddle vs non-nuclear maximum between the
nuclei) is decided by a brute-force 1D scan of the density along the
internuclear axis at 1e-3 bohr spacing, independent of the search code.
"""

import math

import numpy as np
import pytest

from rho2v.density import (
    DensityModel,
    NuclearFrame,
    PrimitiveKind,
    RadialPrimitive,
    evaluate,
    gradient,
    hydrogenic_model,
    model_from_frame,
    on_cusp,
    translate,
)
from rho2v.errors import AtCuspSingularity, EmptyResult
from rho2v.topology import (
    _FLOOR_RADII,
    _N_FLOOR_DIRECTIONS,
    CriticalKind,
    _fibonacci_directions,
    _gradient_norm_floor,
    classify,
    default_search_box,
    find_critical_points,
)


def gauss_model(c=1.0, alpha=0.8, center=(0, 0, 0)):
    prim = RadialPrimitive(PrimitiveKind.GAUSSIAN, c, alpha, 0)
    return DensityModel(terms=((np.asarray(center, dtype=float), prim),))


@pytest.fixture(scope="module")
def dimer():
    frame = NuclearFrame(np.array([[0.0, 0.0, -1.2], [0.0, 0.0, 1.2]]), np.array([1.0, 1.0]))
    return model_from_frame(frame)


@pytest.fixture(scope="module")
def dimer_points(dimer):
    return find_critical_points(dimer, seeds_per_axis=6)


def test_single_hydrogenic_atom():
    pts = find_critical_points(hydrogenic_model(1.0), seeds_per_axis=5)
    assert len(pts) == 1
    (p,) = pts
    assert p.kind is CriticalKind.CUSP_MAXIMUM
    assert np.linalg.norm(p.position) < 1e-6
    assert p.log_derivative == pytest.approx(-2.0, abs=1e-4)
    assert p.rank is None and p.signature is None


def test_single_gaussian_peak():
    pts = find_critical_points(gauss_model(), seeds_per_axis=5)
    assert len(pts) == 1
    (p,) = pts
    assert p.kind is CriticalKind.SMOOTH_CRITICAL
    assert p.rank == 3 and p.signature == -3
    assert abs(p.log_derivative) < 1e-6
    assert np.linalg.norm(p.position) < 1e-8


def test_two_center_cusps_and_between_point(dimer, dimer_points):
    cusps = [p for p in dimer_points if p.kind is CriticalKind.CUSP_MAXIMUM]
    smooth = [p for p in dimer_points if p.kind is CriticalKind.SMOOTH_CRITICAL]
    assert len(cusps) == 2
    for p, z in zip(cusps, (-1.2, 1.2)):
        assert np.linalg.norm(p.position - np.array([0, 0, z])) < 1e-6
    assert len(smooth) == 1
    mid = smooth[0]
    assert np.linalg.norm(mid.position) < 1e-8

    # brute-force axial oracle decides max vs saddle between the nuclei
    zs = np.arange(-1.0, 1.0 + 1e-9, 1e-3)
    vals = np.array([evaluate(dimer, (0.0, 0.0, z)) for z in zs])
    i0 = len(zs) // 2
    axial_max = vals[i0] > vals[i0 - 1] and vals[i0] > vals[i0 + 1]
    assert mid.signature == (-3 if axial_max else -1)
    assert mid.rank == 3


def test_every_slater_center_is_reported(dimer, dimer_points):
    cusp_positions = [p.position for p in dimer_points if p.kind is CriticalKind.CUSP_MAXIMUM]
    for center, prim in dimer.terms:
        if prim.kind is PrimitiveKind.SLATER_S and prim.power == 0:
            assert min(np.linalg.norm(center - q) for q in cusp_positions) < 1e-4


def test_gaussian_only_model_has_no_cusp_maxima():
    terms = (
        (np.array([0.0, 0.0, -0.8]), RadialPrimitive(PrimitiveKind.GAUSSIAN, 1.0, 0.9, 0)),
        (np.array([0.0, 0.0, 0.8]), RadialPrimitive(PrimitiveKind.GAUSSIAN, 0.7, 0.5, 0)),
    )
    pts = find_critical_points(DensityModel(terms=terms), seeds_per_axis=5)
    assert all(p.kind is CriticalKind.SMOOTH_CRITICAL for p in pts)


def test_output_canonically_sorted_and_deterministic(dimer, dimer_points):
    keys = [tuple(p.position) for p in dimer_points]
    assert keys == sorted(keys)
    again = find_critical_points(dimer, seeds_per_axis=6)
    assert len(again) == len(dimer_points)
    for a, b in zip(dimer_points, again):
        assert np.array_equal(a.position, b.position)
        assert a.log_derivative == b.log_derivative


# --- classify -------------------------------------------------------------

def test_classify_hydrogenic_center(dimer):
    model = hydrogenic_model(1.0)
    cp = classify(model, (0.0, 0.0, 0.0))
    assert cp.kind is CriticalKind.CUSP_MAXIMUM
    assert cp.gradient_norm is None
    # |grad rho| -> 2*Z*rho(0) on the punctured ball
    assert cp.gradient_norm_floor == pytest.approx(2.0 / math.pi, rel=1e-2)
    assert cp.gradient_norm_floor > 0.0


def test_classify_gaussian_center():
    cp = classify(gauss_model(), (0.0, 0.0, 0.0))
    assert cp.kind is CriticalKind.SMOOTH_CRITICAL
    assert cp.signature == -3 and cp.rank == 3
    assert cp.gradient_norm == 0.0
    assert cp.gradient_norm_floor < 1e-2  # O(r) on the ball


def test_classify_dimer_midpoint_axial_eigenvector(dimer):
    from rho2v.density import hessian

    cp = classify(dimer, (0.0, 0.0, 0.0))
    assert cp.kind is CriticalKind.SMOOTH_CRITICAL
    eigval, eigvec = np.linalg.eigh(hessian(dimer, np.zeros(3)))
    # the non-degenerate eigenvalue's eigenvector must lie along the axis
    distinct = np.argmax(np.abs(eigval - np.median(eigval)))
    axis = np.abs(eigvec[:, distinct])
    assert axis[2] == pytest.approx(1.0, abs=1e-10)


def test_classify_translation_invariance():
    model = hydrogenic_model(2.0)
    shift = np.array([1.5, -0.25, 0.75])
    cp0 = classify(model, (0.0, 0.0, 0.0))
    cp1 = classify(translate(model, shift), shift)
    assert cp0.kind is cp1.kind
    assert cp0.log_derivative == pytest.approx(cp1.log_derivative, abs=1e-9)
    assert cp0.density_value == pytest.approx(cp1.density_value, rel=1e-12)


# --- guards ----------------------------------------------------------------

def test_empty_model_raises():
    with pytest.raises(EmptyResult):
        find_critical_points(DensityModel(terms=()), seeds_per_axis=5)


def test_seed_count_validation(dimer):
    with pytest.raises(ValueError):
        find_critical_points(dimer, seeds_per_axis=3)


def test_default_search_box_contains_centers(dimer):
    box = default_search_box(dimer)
    for center, _ in dimer.terms:
        assert np.all(center >= box[0]) and np.all(center <= box[1])
    # margin of three decay lengths (zeta = 1 -> 3 bohr)
    assert box[0][2] == pytest.approx(-1.2 - 3.0)
    assert box[1][2] == pytest.approx(1.2 + 3.0)


def test_gradient_norm_floor_skips_probe_on_cusp():
    position = np.array([0.2, -0.3, 0.5])
    dirs = _fibonacci_directions(_N_FLOOR_DIRECTIONS)
    probes = np.concatenate([position + radius * dirs for radius in _FLOOR_RADII])
    cusp = RadialPrimitive(PrimitiveKind.SLATER_S, 0.2, 1.5, 0)
    smooth = (position, RadialPrimitive(PrimitiveKind.GAUSSIAN, 1.0, 0.7, 0))
    model = DensityModel(terms=(smooth, (probes[3], cusp)))
    assert on_cusp(model, probes).tolist() == [i == 3 for i in range(len(probes))]
    with pytest.raises(AtCuspSingularity):
        gradient(model, probes[3])
    others = [np.linalg.norm(gradient(model, p)) for i, p in enumerate(probes) if i != 3]
    assert _gradient_norm_floor(model, position) == pytest.approx(min(others), rel=1e-15)
    # every probe on a cusp: nothing left to measure
    covered = DensityModel(terms=(smooth,) + tuple((p, cusp) for p in probes))
    assert _gradient_norm_floor(covered, position) == 0.0
