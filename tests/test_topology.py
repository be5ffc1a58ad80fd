"""Critical-point search and classification.

The two-center expectation (saddle vs non-nuclear maximum between the
nuclei) is decided by a brute-force 1D scan of the density along the
internuclear axis at 1e-3 bohr spacing, independent of the search code.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from rho2v import topology
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
    kernel_pass,
    model_from_frame,
    normalize,
)
from rho2v.errors import AtCuspSingularity, EmptyResult
from rho2v.spherical import radial_derivative_at_center
from rho2v.topology import (
    _FLOOR_OFFSETS,
    ASCENT_MIN_STEP,
    CUSP_EXCLUSION,
    CUSP_MIN_STEP,
    DEDUPE_RADIUS,
    GRAD_TOL,
    NEWTON_ITERATIONS,
    CriticalKind,
    _ascend,
    _dedupe,
    _fibonacci_directions,
    _gradient_norm_floor,
    _newton,
    _poincare_hopf_sum,
    _rows_inside,
    _segment_seeds,
    _settle,
    _solve,
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
    # positions rounded to the dedupe radius first, so that roundoff in a
    # coordinate near zero cannot flip the order; raw positions break ties
    keys = [(*np.round(p.position / DEDUPE_RADIUS), *p.position) for p in dimer_points]
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
    cp1 = classify(hydrogenic_model(2.0, center=shift), shift)
    assert cp0.kind is cp1.kind
    assert cp0.log_derivative == pytest.approx(cp1.log_derivative, abs=1e-9)
    assert cp0.density_value == pytest.approx(cp1.density_value, rel=1e-12)


def test_classify_carries_the_ladder_reading():
    model = hydrogenic_model(2.0)
    estimate = radial_derivative_at_center(model, np.zeros(3))
    cp = classify(model, (0.0, 0.0, 0.0))
    assert cp.is_cusp and estimate.converged
    assert cp.log_derivative == estimate.log_derivative
    assert (cp.ladder_converged, cp.ladder_levels_used) == (True, estimate.levels_used)
    assert cp.log_derivative_uncertainty_estimate == estimate.uncertainty
    # no density, no ladder
    cp = classify(hydrogenic_model(1.0), (60.0, 0.0, 0.0))
    assert (cp.log_derivative, cp.ladder_converged, cp.ladder_levels_used) == (0.0, False, 0)
    assert cp.log_derivative_uncertainty_estimate is None


def test_classify_reads_no_cusp_from_a_ladder_that_did_not_converge():
    # one normalized power-2 slater_s term (c = zeta = 1): rho is 0 at the center and
    # has no radial slope there, so there is no cusp; 1e-8 bohr away the ladder reads
    # a log-derivative of about -4 without converging
    prim = RadialPrimitive(PrimitiveKind.SLATER_S, 1.0, 1.0, 2)
    model = normalize(DensityModel(terms=((np.zeros(3), prim),), electron_count=1))
    cp = classify(model, (1e-8, 0.0, 0.0))
    assert cp.log_derivative == pytest.approx(-4.0, abs=1e-2)
    assert not cp.ladder_converged and cp.ladder_levels_used > 2
    assert cp.kind is CriticalKind.SMOOTH_CRITICAL
    assert cp.rank == 3 and cp.signature == 3  # a minimum of rho


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
    probes = position + _FLOOR_OFFSETS
    # 24 directions at each of two radii, the same bits as building them per call
    dirs = _fibonacci_directions(24)
    assert probes.tobytes() == np.concatenate([position + radius * dirs for radius in (1e-3, 1e-4)]).tobytes()
    cusp = RadialPrimitive(PrimitiveKind.SLATER_S, 0.2, 1.5, 0)
    smooth = (position, RadialPrimitive(PrimitiveKind.GAUSSIAN, 1.0, 0.7, 0))
    model = DensityModel(terms=(smooth, (probes[3], cusp)))
    assert kernel_pass(model, probes, 1).on_cusp.tolist() == [i == 3 for i in range(len(probes))]
    with pytest.raises(AtCuspSingularity):
        gradient(model, probes[3])
    others = [np.linalg.norm(gradient(model, p)) for i, p in enumerate(probes) if i != 3]
    assert _gradient_norm_floor(model, position[None])[0] == pytest.approx(min(others), rel=1e-15)
    # every probe on a cusp: nothing left to measure
    covered = DensityModel(terms=(smooth,) + tuple((p, cusp) for p in probes))
    assert _gradient_norm_floor(covered, position[None]).tolist() == [0.0]
    # the probes of several points take one pass, each point's floor the bits of its own
    positions = np.array([position, [1.0, 0.4, -0.2], [-0.6, 0.1, 0.3]])
    floors = _gradient_norm_floor(covered, positions)
    assert floors.tolist() == [_gradient_norm_floor(covered, x[None])[0] for x in positions]
    assert floors[0] == 0.0 and floors[1:].min() > 0.0


# --- batched seed search: a bad seed drops only itself ----------------------

def grid_seeds(box, per_axis):
    axes = [np.linspace(box[0][i], box[1][i], per_axis) for i in range(3)]
    return np.array(np.meshgrid(*axes, indexing="ij")).reshape(3, -1).T


def run_without_warnings(search, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return search(*args)


def bad_seed_result(search, model, seeds, bad, box, *args):
    """Result of the bad seed, after checking that every other seed's result
    equals a run without it."""
    x, ok = run_without_warnings(search, model, np.vstack([seeds, bad]), box, *args)
    x0, ok0 = run_without_warnings(search, model, seeds, box, *args)
    assert np.array_equal(x[:-1], x0) and np.array_equal(ok[:-1], ok0)
    assert ok0.any()
    return x[-1], ok[-1]


@pytest.fixture(scope="module")
def peak_and_cusp():
    """Gaussian peak at the origin, a weak Slater cusp at x = 2.5, and Newton
    seeds near the peak, most of which converge to it."""
    cusp = (np.array([2.5, 0.0, 0.0]), RadialPrimitive(PrimitiveKind.SLATER_S, 0.05, 1.0, 0))
    model = DensityModel(terms=((np.zeros(3), RadialPrimitive(PrimitiveKind.GAUSSIAN, 1.0, 0.8, 0)), cusp))
    box = default_search_box(model)
    return model, box, grid_seeds(box, 4) * 0.1


def test_seed_on_a_cusp_center_drops_only_itself(peak_and_cusp):
    model = hydrogenic_model(1.0)
    box = default_search_box(model)
    seeds = grid_seeds(box, 5)
    on_center = np.all(seeds == 0.0, axis=1)
    assert on_center.sum() == 1  # the 5-per-axis grid holds the nucleus itself
    # the ascent stops there, at the maximum
    x, ok = bad_seed_result(_ascend, model, seeds[~on_center], np.zeros(3), box)
    assert ok and np.array_equal(x, np.zeros(3))
    # Newton cannot take a step there; no cusp is excluded, so on_cusp must catch it
    model, box, seeds = peak_and_cusp
    _, ok = bad_seed_result(_newton, model, seeds, np.array([2.5, 0.0, 0.0]), box, [])
    assert not ok


def test_far_field_seed_with_zero_hessian_drops_only_itself(peak_and_cusp):
    far = np.array([900.0, 0.0, 0.0])
    big = np.array([[-1000.0] * 3, [1000.0] * 3])
    model = hydrogenic_model(1.0)
    assert evaluate(model, far) == 0.0
    _, ok = bad_seed_result(_ascend, model, grid_seeds(default_search_box(model), 4), far, big)
    assert not ok
    model, _, seeds = peak_and_cusp
    assert not np.any(hessian(model, far))  # the stacked solve raises LinAlgError
    _, ok = bad_seed_result(_newton, model, seeds, far, big, [])
    assert not ok


def test_seed_that_leaves_the_box_drops_only_itself(dimer, peak_and_cusp):
    box = default_search_box(dimer)
    box[1][2] = 0.5  # the upper nucleus at z = 1.2 lies outside
    seeds = grid_seeds(np.array([box[0], [box[1][0], box[1][1], -0.5]]), 4)
    x, ok = bad_seed_result(_ascend, dimer, seeds, np.array([0.0, 0.0, 0.4]), box)
    assert not ok and x[2] > box[1][2]
    # Newton steps outward from the outer flank of the Gaussian peak
    model, box, seeds = peak_and_cusp
    x, ok = bad_seed_result(_newton, model, seeds, np.array([0.0, 2.0, 0.0]), box, [])
    assert not ok and x[1] > box[1][1] + 0.5


def test_newton_slack_shrinks_with_a_small_box():
    # a 0.2 bohr box about a Gaussian peak: steps are capped at
    # step_cap = 0.05 bohr, and so is the slack of the box
    model = gauss_model(alpha=1.0)
    box = np.array([[-0.1] * 3, [0.1] * 3])
    step_cap = 0.25 * 0.2
    # 0.06 bohr outside: dropped on the first pass, before any step
    far = np.array([0.1 + 1.2 * step_cap, 0.0, 0.0])
    x, ok = run_without_warnings(_newton, model, far[None], box, [])
    assert not ok[0] and np.array_equal(x[0], far)
    # 0.02 bohr outside, inside the widened box: Newton walks in to the peak
    near = np.array([0.1 + 0.4 * step_cap, 0.0, 0.0])
    x, ok = run_without_warnings(_newton, model, near[None], box, [])
    assert ok[0]
    assert np.all((x[0] >= box[0]) & (x[0] <= box[1]))
    assert np.linalg.norm(x[0]) < 1e-12
    assert np.linalg.norm(gradient(model, x[0])) <= GRAD_TOL


def newton_one_seed(model, seed, box, cusp_positions, g_tol, max_iter=80):
    """Reference: the safeguarded Newton iteration for a single seed, one
    gradient and one Hessian call per step; None when not cleanly converged."""
    inside = lambda x, slack: np.all(x >= box[0] - slack) and np.all(x <= box[1] + slack)
    x = np.asarray(seed, dtype=float)
    step_cap = 0.25 * float(np.max(box[1] - box[0]))
    for _ in range(max_iter):
        if not inside(x, min(0.5, step_cap)) or any(np.linalg.norm(x - c) < 1e-2 for c in cusp_positions):
            return None
        try:
            step = np.linalg.solve(hessian(model, x), -gradient(model, x))
        except (AtCuspSingularity, np.linalg.LinAlgError):
            return None
        if not np.all(np.isfinite(step)):
            return None
        norm = float(np.linalg.norm(step))
        if norm > step_cap:
            step *= step_cap / norm
            norm = step_cap
        x = x + step
        if norm < 1e-12 * (1.0 + float(np.linalg.norm(x))):
            try:
                ok = float(np.linalg.norm(gradient(model, x))) <= g_tol
            except AtCuspSingularity:
                return None
            return x if (ok and inside(x, 1e-6)) else None
    return None


def test_batched_newton_matches_one_seed_at_a_time(dimer):
    three = model_from_frame(NuclearFrame(np.array([[0.0, 0.0, 0.0], [0.0, 0.2, 2.4], [2.1, -0.3, 0.6]]), np.array([2.0, 1.0, 1.5])))
    rng = np.random.default_rng(5)
    for model in (dimer, three):
        box = default_search_box(model)
        # grid seeds, plus jittered seeds along each internuclear segment,
        # where the saddles' narrow Newton basins lie
        centers = model.centers
        w = np.linspace(0.05, 0.95, 19)[:, None]
        between = [(1 - w) * a + w * b for i, a in enumerate(centers) for b in centers[i + 1 :]]
        seeds = np.concatenate([grid_seeds(box, 6), *between])
        seeds += rng.normal(scale=0.05, size=seeds.shape)
        cusps = [c for c, _ in model.terms[:1]]
        x, ok = _newton(model, seeds, box, cusps)
        reference = [newton_one_seed(model, s, box, cusps, GRAD_TOL) for s in seeds]
        assert ok.tolist() == [r is not None for r in reference]
        assert ok.sum() >= 10
        np.testing.assert_allclose(x[ok], [r for r in reference if r is not None], rtol=0, atol=1e-12)


def newton_with_separate_check(model, seeds, box, cusp_positions, iterations):
    """Reference: batched Newton over a mask of the active seeds, with one order-1
    pass per iteration for the convergence check of the seeds that stopped in it."""
    x = np.array(seeds, dtype=float).reshape(-1, 3)
    cusps = np.asarray(cusp_positions, dtype=float).reshape(-1, 3)
    step_cap = 0.25 * float(np.max(box[1] - box[0]))
    active = np.ones(len(x), dtype=bool)
    converged = np.zeros(len(x), dtype=bool)
    for _ in range(iterations):
        idx = np.flatnonzero(active)
        ok = _rows_inside(box, x[idx], slack=min(0.5, step_cap))
        ok &= np.all(np.linalg.norm(x[idx, None] - cusps, axis=2) >= CUSP_EXCLUSION, axis=1)
        active[idx[~ok]] = False
        idx = idx[ok]
        if not len(idx):
            break
        p = kernel_pass(model, x[idx], 2)
        step = _solve(p.hessian, -p.gradient)
        ok = ~p.on_cusp & np.all(np.isfinite(step), axis=1)
        active[idx[~ok]] = False
        idx, step = idx[ok], step[ok]
        norm = np.linalg.norm(step, axis=1)
        capped = norm > step_cap
        step[capped] *= (step_cap / norm[capped])[:, None]
        norm[capped] = step_cap
        x[idx] += step
        done = idx[norm < 1e-12 * (1.0 + np.linalg.norm(x[idx], axis=1))]
        active[done] = False
        if len(done):
            p = kernel_pass(model, x[done], 1)
            good = _rows_inside(box, x[done]) & ~p.on_cusp
            good &= np.linalg.norm(p.gradient, axis=1) <= GRAD_TOL
            converged[done[good]] = True
    return x, converged


def test_newton_is_bit_identical_to_the_separate_check_reference(dimer, peak_and_cusp, monkeypatch):
    three = model_from_frame(NuclearFrame([[0.0, 0.0, 0.0], [0.0, 0.2, 2.4], [2.1, -0.3, 0.6]], [2.0, 1.0, 1.5]))
    rng = np.random.default_rng(11)
    model, box, seeds = peak_and_cusp
    runs = [(model, seeds, box, [])]
    for model in (dimer, three):
        box = default_search_box(model)
        seeds = grid_seeds(box, 6) + rng.normal(scale=0.05, size=(216, 3))
        runs.append((model, seeds, box, [c for c, _ in model.terms[:1]]))
    # the seeds near the Gaussian peak stop after 4 to 7 iterations: with a cap of
    # that many, some stop in the last one
    newly = 0
    for iterations in (1, 3, 4, 5, 6, 7, 8, NEWTON_ITERATIONS):
        monkeypatch.setattr(topology, "NEWTON_ITERATIONS", iterations)
        for model, seeds, box, cusps in runs:
            x, ok = _newton(model, seeds, box, cusps)
            x_ref, ok_ref = newton_with_separate_check(model, seeds, box, cusps, iterations)
            assert x.tobytes() == x_ref.tobytes() and ok.tobytes() == ok_ref.tobytes()
            if iterations > 1:
                newly += np.count_nonzero(ok & ~newton_with_separate_check(model, seeds, box, cusps, iterations - 1)[1])
    assert newly > 0


def gaussian_mixture_and_seeds(seed):
    """8 to 12 Gaussian terms of powers 0, 2 and 4 on 1 to 3 sites, and 4 seeds near the sites."""
    rng = np.random.default_rng(seed)
    sites = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 4)), 3))
    terms = []
    for _ in range(int(rng.integers(8, 13))):
        site = sites[rng.integers(len(sites))]
        prim = RadialPrimitive(PrimitiveKind.GAUSSIAN, rng.uniform(0.05, 1.0), rng.uniform(0.3, 2.5), int(rng.integers(0, 3)) * 2)
        terms.append((site, prim))
    return DensityModel(terms=tuple(terms)), sites[rng.integers(len(sites), size=4)] + rng.normal(scale=0.3, size=(4, 3))


@pytest.mark.parametrize("seed", [18, 68, 92, 109, 144, 1, 2, 3])
def test_newton_with_one_seed_left_is_bit_identical_on_many_terms(seed):
    # with 8 or more terms, a one-point kernel pass sums them in another order
    # than a larger one; in the first five of these mixtures one seed is still
    # stepping when another has just stopped
    model, seeds = gaussian_mixture_and_seeds(seed)
    box = default_search_box(model)
    x, ok = run_without_warnings(_newton, model, seeds, box, [])
    x_ref, ok_ref = newton_with_separate_check(model, seeds, box, [], NEWTON_ITERATIONS)
    assert x.tobytes() == x_ref.tobytes() and ok.tobytes() == ok_ref.tobytes()


def dedupe_by_loop(candidates, model, radius):
    """The rank-order pass that _dedupe replaces: keep each candidate farther
    than radius from every candidate kept before it."""
    scored = list(zip(evaluate_many(model, np.reshape(candidates, (-1, 3))), candidates))
    scored.sort(key=lambda s: (-s[0], s[1][0], s[1][1], s[1][2]))
    kept = []
    for _, x in scored:
        if all(np.linalg.norm(x - y) > radius for y in kept):
            kept.append(x)
    return kept


@pytest.mark.parametrize("seed", range(12))
def test_dedupe_keeps_the_winners_of_the_rank_order_pass(seed):
    rng = np.random.default_rng(seed)
    model = hydrogenic_model(1.0)  # spherical: mirror images tie on density
    radius = 10.0 ** rng.uniform(-4, -1)
    centers = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 8)), 3))
    points = centers[rng.integers(0, len(centers), 60)] + rng.normal(0.0, radius, (60, 3))
    points = np.concatenate([points, -points[:10], points[:10]])  # density ties, exact duplicates
    points = points[rng.permutation(len(points))]
    kept, expected = _dedupe(points, model, radius), dedupe_by_loop(points, model, radius)
    assert np.array_equal(np.reshape(kept, (-1, 3)), np.reshape(expected, (-1, 3)))


def settle_one_halving_per_pass(model, points):
    """Reference: the compass search with one step length per pass, halved after a
    pass with no uphill step."""
    x = np.array(points, dtype=float).reshape(-1, 3)
    f = evaluate_many(model, x)
    h = np.full(len(x), ASCENT_MIN_STEP)
    idx = np.arange(len(x))
    while len(idx):
        trial = x[idx, None] + h[idx, None, None] * np.concatenate([np.eye(3), -np.eye(3)])
        f_trial = evaluate_many(model, trial.reshape(-1, 3)).reshape(-1, 6)
        best = np.argmax(f_trial, axis=1)
        f_best = f_trial[np.arange(len(idx)), best]
        up = f_best > f[idx]
        x[idx[up]], f[idx[up]] = trial[up, best[up]], f_best[up]
        h[idx[~up]] *= 0.5
        idx = idx[h[idx] >= CUSP_MIN_STEP]
    return x


def slater_mixture_on_shared_sites(seed):
    """8 to 12 power-0 slater_s terms on three sites 3 bohr apart, each a maximum
    of the density, and 5 points within 1e-8 bohr of the sites."""
    rng = np.random.default_rng(seed)
    sites = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0], [2.6, 0.0, 1.5]]) + rng.uniform(-0.1, 0.1, (3, 3))
    terms = tuple(
        (sites[i % 3], RadialPrimitive(PrimitiveKind.SLATER_S, rng.uniform(0.2, 2.0), rng.uniform(1.0, 3.0), 0))
        for i in range(int(rng.integers(8, 13)))
    )
    return DensityModel(terms=terms), sites[rng.integers(3, size=5)] + rng.normal(scale=1e-8, size=(5, 3))


def test_settle_is_bit_identical_to_one_halving_per_pass():
    three = model_from_frame(NuclearFrame([[0, 0, 0], [0, 0.2, 2.4], [2.1, -0.3, 0.6]], [2.0, 1.0, 1.5]))
    box = default_search_box(three)
    ends, kept = _ascend(three, grid_seeds(box, 5), box)
    center = np.array([0.4, -0.7, 1.1])
    near_center = center + np.random.default_rng(7).normal(scale=1e-9, size=(4, 3))
    runs = [(three, ends[kept]), (hydrogenic_model(1.0, center=center), near_center)]
    runs += [slater_mixture_on_shared_sites(seed) for seed in range(3)]
    for model, points in runs:
        x = _settle(model, points)
        assert x.tobytes() == settle_one_halving_per_pass(model, points).tobytes()
        assert not np.array_equal(x, points)


# --- the seed ascent -------------------------------------------------------

def random_maxima_frame(seed):
    """2-4 nuclei uniform in [-2, 2]^3, every pair more than 0.6 bohr apart, Z in 1-4,
    drawn again until every nucleus is a maximum of the model_from_frame density:
    the slope of the other terms there is below the own kink's 2 zeta c = 2 Z^5/pi."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    while True:
        positions = rng.uniform(-2.0, 2.0, (k, 3))
        charges = rng.integers(1, 5, k).astype(float)
        model = model_from_frame(NuclearFrame(positions, charges))
        apart = np.linalg.norm(positions[:, None] - positions[None], axis=-1)[np.triu_indices(k, 1)]
        maxima = all(
            np.linalg.norm(gradient(DensityModel(terms=model.terms[:a] + model.terms[a + 1 :]), positions[a]))
            < 2.0 * charges[a] ** 5 / math.pi
            for a in range(k)
        )
        if np.all(apart > 0.6) and maxima:
            return model


# frames with a nucleus in a small basin that few of the 125 seeds reach; the
# search finds it only when a downhill trial that passed its line's peak steps to
# that peak instead of halving.  A V of ln rho at every such trial loses 1246
SMALL_BASIN_SEEDS = [1091, 1105, 1193, 1246, 1306, 1359]


def assert_every_nucleus_read(seed, seeds_per_axis):
    # the closed-form Kato reading of a model_from_frame nucleus: only its own term
    # has a slope there, -2 zeta c = -2 Z^5/pi, so Z = (Z^5/pi) / rho(R)
    model = random_maxima_frame(seed)
    cusps = [p for p in find_critical_points(model, seeds_per_axis=seeds_per_axis) if p.is_cusp]
    assert len(cusps) == len(model.frame)
    for position, z in zip(model.frame.positions, model.frame.charges):
        cp = min(cusps, key=lambda p: np.linalg.norm(p.position - position))
        assert np.linalg.norm(cp.position - position) <= 1e-12
        kato = z**5 / math.pi / evaluate(model, position)
        assert -0.5 * cp.log_derivative == pytest.approx(kato, rel=1e-9)


# frames where the search at 5 seeds per axis misses a Z = 1 nucleus 0.89-0.93 bohr
# from a Z = 2 one together with the bond point to it, so that n - b + r - c is still 1
MISSED_NUCLEUS_SEEDS = (72, 83, 92)


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(seed, marks=pytest.mark.xfail(strict=True, reason="misses a Z = 1 nucleus and its bond point"))
        if seed in MISSED_NUCLEUS_SEEDS
        else seed
        for seed in [*range(120), *SMALL_BASIN_SEEDS]
    ],
)
def test_search_lands_on_every_nucleus_and_reads_its_kato_charge(seed):
    assert_every_nucleus_read(seed, 5)


@pytest.mark.parametrize("seed", [1105, 1152])
def test_search_at_eight_seeds_per_axis_reads_every_small_basin_nucleus(seed):
    # both missed a nucleus at 8 seeds per axis while a downhill trial that had
    # passed its line's peak only halved its step; a V of ln rho at every such
    # trial loses 1152 again
    assert_every_nucleus_read(seed, 8)


def count_search_passes(monkeypatch):
    """Count the kernel passes of find_critical_points, and those of its batched
    ascent, its compass search, its segment sampling, its Newton runs and its
    batched classify passes (_classify_many, once per stage), with the points
    they evaluate under "<phase>_points"; the dict also holds the ascent's last
    (endpoints, kept).  Of the Richardson ladders, "routing_ladders" counts
    those run outside classify and "classify_ladders" those run inside it;
    "classify_calls" counts the points classified and "reused" those at a
    point, bit for bit, that a routing ladder read."""
    phases = ("ascent", "settle", "segments", "newton", "classify")
    ladders = ("routing_ladders", "classify_ladders", "classify_calls", "reused")
    classify_many = topology._classify_many
    passes = dict.fromkeys(("all", "all_points", *phases, *(f"{name}_points" for name in phases), *ladders), 0)
    routed = set()
    inside = []

    def counted(fn):
        def run(model, x, *args, **kwargs):
            passes["all"] += 1
            passes["all_points"] += len(x)
            return fn(model, x, *args, **kwargs)

        return run

    def phase(name, fn):
        def run(*args, **kwargs):
            before, points = passes["all"], passes["all_points"]
            result = fn(*args, **kwargs)
            passes[name] += passes["all"] - before
            passes[f"{name}_points"] += passes["all_points"] - points
            return result

        return run

    def ascent(*args, **kwargs):
        passes["result"] = _ascend(*args, **kwargs)
        return passes["result"]

    def ladder(model, center, *args, **kwargs):
        if inside:
            passes["classify_ladders"] += 1
        else:
            passes["routing_ladders"] += 1
            routed.add(np.asarray(center, dtype=float).tobytes())
        return radial_derivative_at_center(model, center, *args, **kwargs)

    def classified(model, positions, *args, **kwargs):
        passes["classify_calls"] += len(positions)
        passes["reused"] += sum(x.tobytes() in routed for x in positions)
        inside.append(True)
        try:
            return classify_many(model, positions, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(topology, "kernel_pass", counted(kernel_pass))
    monkeypatch.setattr(topology, "radial_derivative_at_center", ladder)
    monkeypatch.setattr(topology, "_classify_many", phase("classify", classified))
    monkeypatch.setattr(topology, "evaluate_many", counted(evaluate_many))
    monkeypatch.setattr(topology, "_ascend", phase("ascent", ascent))
    monkeypatch.setattr(topology, "_settle", phase("settle", _settle))
    monkeypatch.setattr(topology, "_segment_seeds", phase("segments", _segment_seeds))
    monkeypatch.setattr(topology, "_newton", phase("newton", _newton))
    return passes


def search_three_center_frame(monkeypatch):
    passes = count_search_passes(monkeypatch)
    frame = NuclearFrame([[0, 0, 0], [0, 0.2, 2.4], [2.1, -0.3, 0.6]], [2.0, 1.0, 1.5])
    points = find_critical_points(model_from_frame(frame), seeds_per_axis=5)
    assert sum(p.is_cusp for p in points) == 3
    return passes


def test_ascent_pass_count_on_the_three_center_frame(monkeypatch):
    # a trial that passed its line's peak steps to the V model's peak: back to it
    # when uphill, instead of doubling, and there next when downhill, instead of
    # halving, with a V of ln rho where the two log-slopes are nearly opposite; 28
    # passes with all three rules, 34 with a V of rho only, 48 with the uphill rule
    # alone, 73 with none
    assert 0 < search_three_center_frame(monkeypatch)["ascent"] <= 30


def test_settle_pass_count_on_the_three_center_frame(monkeypatch):
    # the compass search tries 16 step lengths per pass: 18 passes from where the
    # ascent stops, where one step length per pass took 39 from the V model's end
    # points (21 passes)
    assert 0 < search_three_center_frame(monkeypatch)["settle"] <= 25


def test_ascent_pass_count_on_an_off_origin_hydrogen(monkeypatch):
    # every seed climbs one kink, where ln rho is an exact V: a seed lands on the
    # nucleus after its first trial past it; 10 passes with the V of ln rho, 24 with
    # the V of rho, 40 while a downhill trial that had passed the peak only halved
    passes = count_search_passes(monkeypatch)
    center = np.array([0.4, -0.7, 1.1])
    find_critical_points(hydrogenic_model(1.0, center=center), seeds_per_axis=5)
    assert 0 < passes["ascent"] <= 12
    ends, kept = passes["result"]
    assert kept.any()
    assert np.max(np.linalg.norm(ends[kept] - center, axis=1)) <= 1e-12


def line_data(log_rho, slope, s):
    """The four data of a trial s along a line, (f, f_t, k, k_t), from ln rho and its slope."""
    f, f_t = math.exp(log_rho(0.0)), math.exp(log_rho(s))
    return f, f_t, f * slope(0.0), f_t * slope(s)


@pytest.mark.parametrize("peak", [0.2, 0.45, 0.7, 0.95])
def test_a_trial_past_the_peak_of_a_parabola_of_ln_rho_steps_onto_it(peak):
    # ln rho = 1.5 - 0.8 (x - x*)^2, a Gaussian along a line through its center: the
    # parabola through the four data is exact, so its peak is x*; a V of rho or of
    # ln rho through them misses it
    s, a = 0.6, 0.8
    f, f_t, k, k_t = line_data(lambda x: 1.5 - a * (x - peak * s) ** 2, lambda x: -2.0 * a * (x - peak * s), s)
    assert topology._line_peak(s, f, f_t, k, k_t) == pytest.approx(peak * s, rel=1e-12)


@pytest.mark.parametrize("kink, slopes", [(0.8, (2.0, -2.0)), (0.25, (2.0, -2.0)), (0.7, (6.0, -4.0))])
def test_a_trial_past_a_kink_off_the_midpoint_steps_onto_it(kink, slopes):
    # ln rho a V with its kink at x*, 0.2-0.3 s off the midpoint, rising at kappa and
    # falling at kappa_t: the data meet no parabola, and the V of ln rho through them
    # (the Kato signature) has its kink at x*; a parabola would step to
    # kappa s / (kappa - kappa_t) instead
    s, (rise, fall) = 0.4, slopes
    f, f_t, k, k_t = line_data(
        lambda x: 0.3 + (rise if x < kink * s else fall) * (x - kink * s), lambda x: rise if x < kink * s else fall, s
    )
    assert topology._line_peak(s, f, f_t, k, k_t) == pytest.approx(kink * s, rel=1e-12)
    assert rise * s / (rise - fall) != pytest.approx(kink * s, rel=1e-3)


def test_ascent_pass_count_on_a_normalized_gaussian(monkeypatch):
    # ln rho is a parabola along every line through the center, so a seed steps onto
    # the peak after its first trial past it: 10 passes, and every seed ends within
    # rounding of the center, where the V model alone took 36 passes and stopped
    # 1.1e-8 bohr away
    passes = count_search_passes(monkeypatch)
    center = np.array([0.4, -0.7, 1.1])
    model = normalize(DensityModel(terms=((center, RadialPrimitive(PrimitiveKind.GAUSSIAN, 1.0, 0.8, 0)),)))
    (point,) = find_critical_points(model, seeds_per_axis=5)
    assert passes["ascent"] == 10
    ends, kept = passes["result"]
    assert kept.sum() == 125
    assert np.max(np.linalg.norm(ends[kept] - center, axis=1)) <= 1e-14
    assert point.rank == 3 and point.signature == -3


def test_search_pass_count_on_the_three_center_frame(monkeypatch):
    # Newton runs from one seed per pair of extrema, the lowest sample of its
    # segment, and the polish, not from the 125 grid seeds: 22 points in its passes,
    # 79 from three fixed seeds per pair and 484 with the grid seeds as well.  Its 13
    # passes are set by the slowest pair seed, 21 from the fixed seeds; the samples
    # take one pass, so the total went 82 -> 75.  classify takes one order-2 pass
    # and one floor pass for the five points instead of two passes per point, and
    # the compass search 18 passes from where the parabola-or-V ascent stops
    # instead of 21: 75 -> 64
    passes = search_three_center_frame(monkeypatch)
    assert (passes["segments"], passes["segments_points"]) == (1, 93)
    assert (passes["newton"], passes["newton_points"]) == (13, 22)
    assert (passes["classify"], passes["classify_points"]) == (2, 5 + 5 * len(_FLOOR_OFFSETS))
    assert passes["all"] == 64


def test_newton_pass_count_on_an_off_origin_hydrogen(monkeypatch):
    # one cusp: nothing to polish, no pair of extrema and no grid seed, so Newton
    # makes no pass; with the 512 grid seeds it made 11
    passes = count_search_passes(monkeypatch)
    find_critical_points(hydrogenic_model(1.0, center=np.array([0.4, -0.7, 1.1])), seeds_per_axis=8)
    assert passes["newton"] == 0 and passes["ascent"] > 0


# frames searched by the pass-count test below, with their seeds per axis
COUNTED_FRAMES = {
    "hydrogen": (NuclearFrame([[0.4, -0.7, 1.1]], [1.0]), 8),
    "z3z1-3bohr": (NuclearFrame([[0, 0, 0], [0, 0, 3]], [3.0, 1.0]), 5),
    "3center": (NuclearFrame([[0, 0, 0], [0, 0.2, 2.4], [2.1, -0.3, 0.6]], [2.0, 1.0, 1.5]), 5),
}


@pytest.mark.parametrize(
    "name, expected",
    [
        (
            "hydrogen",
            dict(ascent=13, settle=3, segments=0, newton=0, classify=2, routing_ladders=1, classify_ladders=0, reused=1),
        ),
        (
            "z3z1-3bohr",
            dict(ascent=20, settle=3, segments=1, newton=6, classify=2, routing_ladders=2, classify_ladders=1, reused=2),
        ),
        (
            "3center",
            dict(ascent=28, settle=18, segments=1, newton=13, classify=2, routing_ladders=3, classify_ladders=5, reused=0),
        ),
    ],
)
def test_search_passes_and_ladders_per_phase(monkeypatch, name, expected):
    # the kernel passes of each phase: kernel_pass in the ascent, Newton and classify,
    # evaluate_many in the compass search and the segment sampling.  Newton from the
    # lowest sample of each pair's segment takes 6 and 13 passes on the two- and
    # three-center frames, where three fixed seeds per pair took 11 and 21; a single
    # nucleus has no pair to sample.  classify reuses the routing ladder's
    # reading at a point that neither the compass search nor Newton moved, so each
    # such ladder runs once: the hydrogen nucleus, which the ascent lands on, and
    # both Z3/Z1 nuclei ran 2 and 5 ladders where they now run 1 and 3.  The points
    # of each stage take one order-2 pass and one pass over their floor probes
    # together, where each point took two passes of its own (6 and 10 on the two-
    # and three-center frames)
    passes = count_search_passes(monkeypatch)
    frame, seeds_per_axis = COUNTED_FRAMES[name]
    find_critical_points(model_from_frame(frame), seeds_per_axis=seeds_per_axis)
    assert {key: passes[key] for key in expected} == expected
    assert passes["classify_ladders"] == passes["classify_calls"] - passes["reused"]


@pytest.mark.parametrize(
    "model",
    [model_from_frame(COUNTED_FRAMES["3center"][0]), random_maxima_frame(0)],
    ids=["3center", "random-frame-0"],
)
def test_each_pair_of_extrema_seeds_newton_at_the_lowest_sample_of_its_segment(monkeypatch, model):
    # one seed per pair, bit for bit the lowest of its 31 samples (1 - w) a + w b at
    # w = k/32, the first where two tie, from one evaluate_many pass for all pairs
    passes = count_search_passes(monkeypatch)
    sampled, newton_seeds = [], []
    segment_seeds, newton = topology._segment_seeds, topology._newton

    def sample(model, points):
        sampled.append((np.reshape(points, (-1, 3)), segment_seeds(model, points)))
        return sampled[-1][1]

    def run_newton(model, seeds, *args):
        newton_seeds.append(np.reshape(seeds, (-1, 3)))
        return newton(model, seeds, *args)

    monkeypatch.setattr(topology, "_segment_seeds", sample)
    monkeypatch.setattr(topology, "_newton", run_newton)
    find_critical_points(model, seeds_per_axis=5)
    assert passes["segments"] == len(sampled) == 1 and len(newton_seeds) == 2
    (points, seeds), k = sampled[0], np.arange(1.0, 32.0)[:, None]
    pairs = list(itertools.combinations(points, 2))
    assert len(points) == len(model.frame) and len(seeds) == len(pairs)
    assert np.array_equal(newton_seeds[1], seeds)
    for (a, b), seed in zip(pairs, seeds):
        samples = (1.0 - k / 32.0) * a + k / 32.0 * b
        rho = evaluate_many(model, samples)
        assert np.array_equal(seed, samples[np.argmin(rho)])


def poincare_hopf_sum(points):
    """n - b + r - c from the points' kinds, a cusp counting as a maximum."""
    index = {-3: 1, -1: -1, 1: 1, 3: -1}
    assert all(p.is_cusp or p.rank == 3 for p in points)
    return sum(1 if p.is_cusp else index[p.signature] for p in points)


@pytest.mark.parametrize("seeds_per_axis", [5, 8])
def test_search_closes_on_poincare_hopf(seeds_per_axis):
    # a density that decays at infinity has n - b + r - c = 1 over its critical
    # points (Bader 1990).  With Newton from the grid seeds and the pair seeds only,
    # 11 of these frames broke it at 5 seeds per axis and 6 at 8, each missing a ring
    # point
    broken = [
        seed
        for seed in range(120)
        if poincare_hopf_sum(find_critical_points(random_maxima_frame(seed), seeds_per_axis=seeds_per_axis)) != 1
    ]
    assert broken == []


def test_the_seeds_between_bond_points_find_a_ring_point_the_pair_seeds_miss():
    # in frame 1242 (Z = 1, 4, 2) the lowest samples of the segments between the
    # nuclei and the centroid of the three miss the ring point; the bond stage's
    # three fixed seeds per pair of bond points find it.  The lowest sample of a
    # segment between two bond points would not: each of those segments passes by
    # the nucleus the two bonds share, so its lowest sample sits next to a bond point
    points = find_critical_points(random_maxima_frame(1242), seeds_per_axis=5)
    assert poincare_hopf_sum(points) == 1
    assert sum(p.signature == 1 for p in points) == 1


def test_the_bond_stage_seeds_three_points_per_pair_of_bond_points_and_a_midpoint_per_centroid():
    # b bond points and C triangle centroids: 3 b (b - 1) / 2 pair seeds at 1/2, 1/3
    # and 2/3 of the way, then the C b midpoints; seeds along each bond point's
    # middle Hessian eigenvector, 6 b of them, never found a point the others missed
    rng = np.random.default_rng(7)
    bonds, centroids = rng.uniform(-2.0, 2.0, (4, 3)), rng.uniform(-2.0, 2.0, (5, 3))
    b, c = len(bonds), len(centroids)
    seeds = topology._bond_seeds(bonds, centroids)
    assert seeds.shape == (3 * b * (b - 1) // 2 + c * b, 3)
    pairs = [(1.0 - w) * x + w * y for x, y in itertools.combinations(bonds, 2) for w in (0.5, 1.0 / 3.0, 2.0 / 3.0)]
    mids = [0.5 * (g + x) for g in centroids for x in bonds]
    assert np.array_equal(seeds, np.array(pairs + mids))


def test_a_shell_of_maxima_runs_no_later_newton_stage(monkeypatch):
    # one normalized power-2 slater_s term (c = zeta = 1): its maxima form a sphere,
    # and the search finds hundreds of degenerate points on it, for which the
    # Poincare-Hopf sum means nothing.  Newton runs twice, to polish the smooth
    # maxima and from the pair seeds; the centroids of every triple of the 56 ascent
    # maxima (27,720 seeds) are never built
    calls = []

    def newton(model, seeds, *args):
        calls.append(len(seeds))
        return _newton(model, seeds, *args)

    monkeypatch.setattr(topology, "_newton", newton)
    monkeypatch.setattr(topology, "_triangle_centroids", lambda points: pytest.fail("built the triangle centroids"))
    prim = RadialPrimitive(PrimitiveKind.SLATER_S, 1.0, 1.0, 2)
    model = normalize(DensityModel(terms=((np.zeros(3), prim),), electron_count=1))
    points = find_critical_points(model, seeds_per_axis=4)
    assert len(calls) == 2
    assert _poincare_hopf_sum(points) is None
    # 788 of 789 from one seed per pair; 776 of 777 while the ascent's line model was
    # a V of rho off the Kato signature, 2,684 of 2,685 from three seeds per pair
    assert sum(not p.is_cusp and p.rank != 3 for p in points) == 788


@pytest.mark.parametrize("seed", [45, 68])
def test_a_later_newton_stage_adds_points_and_replaces_none(seed, monkeypatch):
    # in both frames the pair seeds miss a ring point, and so do the triangle
    # centroids; the seeds about the bond points find it
    model = random_maxima_frame(seed)
    full = find_critical_points(model, seeds_per_axis=5)
    monkeypatch.setattr(topology, "_poincare_hopf_sum", lambda points: 1)
    first = find_critical_points(model, seeds_per_axis=5)
    assert poincare_hopf_sum(first) != 1 and poincare_hopf_sum(full) == 1
    assert len(full) > len(first)
    kept = {p.position.tobytes() for p in full}
    assert all(p.position.tobytes() in kept for p in first)
    assert any(p.signature == 1 for p in full if p.position.tobytes() not in {q.position.tobytes() for q in first})
