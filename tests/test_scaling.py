"""Radial cumulative matching and wavefunction transport.

Hydrogenic oracle: Q_Z depends on r only through Z*r, so matching Z=1 onto
Z=2 forces f(r) = r/2 exactly, and the transported Z=2 ground state is the
Z=1 ground state in closed form.  Likewise a normalized Gaussian's Q depends
on r only through alpha*r^2, so between two of them f(r) = r*sqrt(a_s/a_t).
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import gammainc, gammaincc

from rho2v.density import DensityModel, PrimitiveKind, RadialPrimitive
from rho2v import radial, scaling
from rho2v.errors import MassMismatch, NonMonotoneCumulative
from rho2v.specio import parse_spec
from rho2v.scaling import (
    Q_RESIDUAL_TARGET,
    RadialDensity,
    default_grid,
    solve_scaling_map,
    transform_wavefunction,
)


def hydrogenic_psi(z):
    return lambda r: math.sqrt(z**3 / math.pi) * math.exp(-z * r)


@pytest.fixture(scope="module")
def map_1_to_2():
    return solve_scaling_map(RadialDensity.hydrogenic(1.0), RadialDensity.hydrogenic(2.0))


def test_cumulative_endpoints():
    rd = RadialDensity.hydrogenic(3.0)
    assert rd.electron_count == pytest.approx(1.0, rel=1e-12)
    assert float(rd.cumulative(1e-9)) == pytest.approx(0.0, abs=1e-20)
    assert float(rd.cumulative(50.0)) == pytest.approx(1.0, rel=1e-10)
    # complement stays accurate where the plain cumulative saturates
    assert float(rd.complement(10.0)) == pytest.approx(
        math.exp(-60.0) * (1 + 60 + 1800), rel=1e-10
    )


def test_hydrogenic_map_is_half(map_1_to_2):
    m = map_1_to_2
    assert np.max(np.abs(m.f - m.grid / 2.0)) <= 1e-10
    assert m.map_at(1.0) == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(m.f_prime - 0.5)) <= 1e-8
    assert np.max(m.q_residuals) <= 1e-10


def test_steep_source_onto_wide_target():
    # f reaches 300 bohr, deep in the target's tail, where a plain Newton step
    # on the complement advances only about 1/(2 Z_target) per iteration
    m = solve_scaling_map(RadialDensity.hydrogenic(15.0), RadialDensity.hydrogenic(1.0))
    assert np.max(np.abs(m.f / (15.0 * m.grid) - 1.0)) <= 1e-10


def test_identity_map():
    rd = RadialDensity.hydrogenic(1.3)
    m = solve_scaling_map(rd, RadialDensity.hydrogenic(1.3))
    # h vanishes at every radius of the bracket table, so each root is one
    assert np.array_equal(m.f, m.grid) and np.all(m.q_residuals == 0.0)
    assert m.jacobian_residual < 1e-3  # FD diagnostic on an exact map
    mixture = mixture_density([(1.0, 1.6, 0), (0.3, 0.9, 1), (PrimitiveKind.GAUSSIAN, 0.4, 0.8, 2)])
    grid = default_grid(1e-3, 20.0, 2048)
    m = solve_scaling_map(mixture, mixture, grid)
    assert np.array_equal(m.f, grid) and np.all(m.q_residuals == 0.0)


def test_map_starts_at_zero(map_1_to_2):
    # f(0) = 0: matching forces vanishing images of vanishing charge
    assert map_1_to_2.map_at(1e-8) <= 1e-7


def test_map_at_the_origin_onto_a_target_that_vanishes_there():
    # a power-1 target has rho = 0 at r = 0: f(0) = 0 holds no charge, which is
    # no density hole, while a positive radius whose source charge underflows
    # to 0 still raises
    target = mixture_density([(1.0, 1.0, 1)])
    m = solve_scaling_map(RadialDensity.hydrogenic(1.0), target)
    at_one = m.map_at(1.0)
    assert m.map_at(0.0) == 0.0 and np.ndim(m.map_at(0.0)) == 0
    both = m.map_at(np.array([0.0, 1.0]))
    assert both.tolist() == [0.0, at_one]
    with pytest.raises(NonMonotoneCumulative, match=r"^source charge within r = 1e-300 underflows to 0"):
        m.map_at(1e-300)


def test_a_subnormal_source_charge_raises_whatever_the_target_density(map_1_to_2):
    # hydrogen's charge 4 r^3 / 3 is subnormal at 1e-105 bohr and 0 at 1e-110, though
    # the target density at the origin is positive; below the smallest normal float
    # the charge is taken as 0, as in rho2v.radial, and f is never read from it
    assert map_1_to_2.map_at(1e-100) == 5e-101
    for r in (1e-105, 1e-110):
        with pytest.raises(NonMonotoneCumulative, match=rf"^source charge within r = {r:g} underflows to 0"):
            map_1_to_2.map_at(r)


def at_origin(prims) -> RadialDensity:
    """The radial density of the primitives, all centered at the origin."""
    return RadialDensity.from_model(DensityModel(terms=tuple((np.zeros(3), p) for p in prims)))


def mixture_density(spec):
    """Normalized concentric mixture of (coefficient, exponent, power) Slater
    terms; an entry that leads with a PrimitiveKind is a term of that kind."""
    spec = [entry if len(entry) == 4 else (PrimitiveKind.SLATER_S, *entry) for entry in spec]
    prims = [RadialPrimitive(k, c, z, n) for k, c, z, n in spec]
    scale = 1.0 / at_origin(prims).electron_count
    return at_origin([RadialPrimitive(k, c * scale, z, n) for k, c, z, n in spec])


def scalar_match_radius(source, target, r):
    """Reference solver: one scalar brentq bracket solve plus Newton polish per radius."""
    q = float(source.cumulative(r))
    if q > 0.5 * source.electron_count:
        qc = float(source.complement(r))
        h = lambda x: qc - float(target.complement(x))
    else:
        h = lambda x: float(target.cumulative(x)) - q
    hi = max(r, 1e-6)
    while h(hi) < 0.0:
        hi *= 2.0
    f = brentq(h, 0.0, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps, maxiter=200)
    for _ in range(4):
        slope = 4.0 * math.pi * f * f * float(target.rho(f))
        if slope <= 0.0:
            break
        step = h(f) / slope
        if not math.isfinite(step) or abs(step) > 0.5 * max(f, 1e-6):
            break
        f -= step
        if abs(step) <= 1e-16 * max(f, 1e-300):
            break
    return f


def test_batched_solver_matches_scalar_reference():
    slater, gauss = PrimitiveKind.SLATER_S, PrimitiveKind.GAUSSIAN
    source = mixture_density(
        [(slater, 1.0, 1.6, 0), (slater, 0.3, 0.9, 1), (slater, 0.2, 2.4, 2),
         (gauss, 0.4, 0.8, 0), (gauss, 0.2, 1.7, 1), (gauss, 0.1, 0.5, 2)]
    )
    target = mixture_density(
        [(slater, 0.7, 1.1, 0), (slater, 0.5, 2.0, 1), (slater, 0.1, 0.7, 2),
         (gauss, 0.3, 1.2, 0), (gauss, 0.3, 0.6, 1), (gauss, 0.2, 2.2, 2)]
    )
    grid = default_grid(1e-3, 20.0, 2048)
    m = solve_scaling_map(source, target, grid)
    expected = np.array([scalar_match_radius(source, target, r) for r in grid])
    assert np.max(np.abs(m.f - expected) / expected) <= 1e-14
    assert np.all(m.q_residuals <= Q_RESIDUAL_TARGET)
    assert np.array_equal(m.map_at(grid), m.f)
    at_one = m.map_at(1.0)
    assert np.ndim(at_one) == 0 and isinstance(at_one, float)
    assert at_one == m.map_at(np.array([1.0]))[0]


@pytest.mark.parametrize(("z_source", "z_target"), [(1.0, 15.0), (15.0, 1.0)], ids=["compact-target", "diffuse-target"])
def test_roots_outside_the_grid_match_scalar_reference(z_source, z_target):
    # f = r Z_source / Z_target: a compact target puts the first roots below
    # grid[0], in brackets from the table grown below it, a diffuse one the
    # last roots beyond grid[-1], in brackets from the doubled table
    source, target = RadialDensity.hydrogenic(z_source), RadialDensity.hydrogenic(z_target)
    grid = default_grid()
    m = solve_scaling_map(source, target, grid)
    outside = m.f < grid[0] if z_target > z_source else m.f > grid[-1]
    assert outside.sum() >= 10
    expected = np.array([scalar_match_radius(source, target, r) for r in grid])
    assert np.max(np.abs(m.f - expected) / expected) <= 1e-14


@pytest.mark.parametrize(
    ("target", "law"),
    [
        # Q(x) = 1 - e^(-2x) (1 + 2x + 2x^2) = 4 x^3 / 3 to within a relative 1.5 x
        (RadialDensity.hydrogenic(1.0), lambda q: np.cbrt(0.75 * q)),
        # a normalized Slater term of power n and exponent 1 has Q ~ 2^(n+3) x^(n+3) / (n+3)!
        (mixture_density([(1.0, 1.0, 1)]), lambda q: np.sqrt(np.sqrt(1.5 * q))),
        (mixture_density([(1.0, 1.0, 2)]), lambda q: fifth_root(3.75 * q)),
        # and a Gaussian one of power 2 and exponent 1 Q ~ 8 x^5 / (15 sqrt(pi))
        (
            mixture_density([(PrimitiveKind.GAUSSIAN, 1.0, 1.0, 2)]),
            lambda q: fifth_root(15.0 * math.sqrt(math.pi) / 8.0 * q),
        ),
    ],
    ids=["hydrogen-x3", "slater1-x4", "slater2-x5", "gaussian2-x5"],
)
def test_charge_near_the_float_floor_maps_by_the_targets_power_law(target, law):
    # from 0.54 bohr the power-169 term holds 9e-307 of its charge and more, a
    # normal float; its roots in the target lie near 1e-100 to 1e-60 bohr, far
    # below the grid, where the target's Q rises as the power of the test's id
    source = mixture_density([(1e-258, 1.0, 169)])
    grid = default_grid(0.54)
    m = solve_scaling_map(source, target, grid)
    assert np.all(m.q_residuals <= Q_RESIDUAL_TARGET)
    q = source.cumulative(grid)
    tiny = q < 1e-250
    assert q.min() > 0.0 and tiny.sum() >= 10
    assert np.max(np.abs(m.f[tiny] / law(q[tiny]) - 1.0)) <= 1e-14


def fifth_root(x):
    """x^(1/5), rounded once: 1/5 is not a float, and x^0.2 is off by about
    |ln x| 1e-17 relative, 7e-15 near the float floor."""
    with mpmath.workdps(40):
        return np.array([float(mpmath.root(mpmath.mpf(v), 5)) for v in np.ravel(x)])


@pytest.mark.parametrize("power", [0, 2])
def test_gaussian_map_is_exponent_ratio(power):
    alpha_s, alpha_t = 0.3, 0.75
    source = mixture_density([(PrimitiveKind.GAUSSIAN, 1.0, alpha_s, power)])
    target = mixture_density([(PrimitiveKind.GAUSSIAN, 1.0, alpha_t, power)])
    m = solve_scaling_map(source, target)
    exact = m.grid * math.sqrt(alpha_s / alpha_t)
    assert np.max(np.abs(m.f / exact - 1.0)) <= 1e-10


def test_group_law():
    rho1 = mixture_density([(1.0, 1.0, 0), (0.4, 2.2, 1)])
    rho2 = RadialDensity.hydrogenic(2.0)
    rho3 = mixture_density([(0.8, 1.7, 0), (0.2, 0.9, 2)])
    grid = default_grid(1e-2, 10.0, 64)
    m12 = solve_scaling_map(rho1, rho2, grid)
    m23 = solve_scaling_map(rho2, rho3, grid)
    m13 = solve_scaling_map(rho1, rho3, grid)
    composed = m23.map_at(m12.f)
    assert np.max(np.abs(composed - m13.f)) <= 1e-8


def test_inverse_law(map_1_to_2):
    m21 = solve_scaling_map(RadialDensity.hydrogenic(2.0), RadialDensity.hydrogenic(1.0))
    grid = map_1_to_2.grid
    roundtrip = m21.map_at(map_1_to_2.f)
    assert np.max(np.abs(roundtrip - grid)) <= 1e-8


def test_transform_wavefunction_closed_form(map_1_to_2):
    # pull the Z=2 ground state back along the 1->2 map: exactly Z=1's state
    got = transform_wavefunction(hydrogenic_psi(2.0), map_1_to_2)
    expected = np.array([hydrogenic_psi(1.0)(r) for r in map_1_to_2.grid])
    ratio = got / expected
    assert np.max(np.abs(ratio - 1.0)) <= 1e-10


def test_transform_identity():
    rd = RadialDensity.hydrogenic(1.0)
    m = solve_scaling_map(rd, rd)
    psi = hydrogenic_psi(1.0)
    got = transform_wavefunction(psi, m)
    expected = np.array([psi(r) for r in m.grid])
    assert np.max(np.abs(got - expected)) <= 1e-10


def test_density_transport(map_1_to_2):
    m = map_1_to_2
    got_density = transform_wavefunction(hydrogenic_psi(2.0), m) ** 2
    src = np.array([m.source.rho(r) for r in m.grid])
    mask = src > 1e-12
    assert np.max(np.abs(got_density[mask] - src[mask]) / src[mask]) <= 1e-8


def test_uniqueness_witness(map_1_to_2):
    m = map_1_to_2
    k = len(m.grid) // 2
    f_perturbed = m.f.copy()
    f_perturbed[k] += 1e-3
    residual = abs(float(m.target.cumulative(f_perturbed[k])) - float(m.source.cumulative(m.grid[k])))
    assert residual > 1e-6


def test_mass_mismatch():
    one = RadialDensity.hydrogenic(1.0)
    two = at_origin([RadialPrimitive(PrimitiveKind.SLATER_S, 2.0 / math.pi, 1.0, 0)])
    with pytest.raises(MassMismatch):
        solve_scaling_map(one, two)


def test_rho_of_a_high_power_term_takes_the_log_form():
    # r^169 overflows at 84.5 bohr, where c r^169 e^(-2r) is 1.7e-6
    rd = at_origin([RadialPrimitive(PrimitiveKind.SLATER_S, 1e-258, 1.0, 169)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = rd.rho(np.array([10.0, 84.5, 300.0]))
        at_peak = rd.rho(84.5)
    with mpmath.workdps(40):
        exact = [mpmath.mpf(1e-258) * mpmath.mpf(r) ** 169 * mpmath.exp(-2 * mpmath.mpf(r)) for r in (10.0, 84.5, 300.0)]
    for value, reference in zip(values, exact):
        assert abs(value - reference) <= 1e-12 * reference
    assert np.shape(at_peak) == () and at_peak == values[1]


def ball_and_shell(gap_end):
    """Half an electron in a uniform ball of radius 1 and half in a uniform shell
    from gap_end to gap_end + 1, with vacuum between them."""
    shell = (gap_end + 1.0) ** 3 - gap_end**3

    def rho(r):
        r = np.asarray(r, dtype=float)
        in_shell = (gap_end <= r) & (r <= gap_end + 1.0)
        return np.where(r <= 1.0, 0.375 / math.pi, np.where(in_shell, 0.375 / (math.pi * shell), 0.0))

    def cumulative(r):
        r = np.asarray(r, dtype=float)
        return 0.5 * np.clip(r, 0.0, 1.0) ** 3 + 0.5 * (np.clip(r, gap_end, gap_end + 1.0) ** 3 - gap_end**3) / shell

    return RadialDensity(rho=rho, cumulative=cumulative, complement=lambda r: 1.0 - cumulative(r), electron_count=1.0)


def test_density_hole_raises():
    holed = ball_and_shell(2.0)
    with pytest.raises(NonMonotoneCumulative, match="vanishes at f = 1.5 .flat cumulative: density hole.$"):
        solve_scaling_map(holed, holed, grid=np.array([0.5, 1.5, 2.5]))
    # a target with exactly half its charge at every grid radius from 1.2 to 3.5
    # and a source with half at 1.2, 1.5 and 1.8: equal keys meet a run of equal
    # table values, on the cumulative here and on the complement for 2.2 and 2.6
    grid = np.array([0.5, 1.2, 1.5, 1.8, 2.2, 2.6, 3.5, 4.2])
    message = r"^target density vanishes at f = 1.2 \(flat cumulative: density hole\)$"
    with pytest.raises(NonMonotoneCumulative, match=message):
        solve_scaling_map(holed, ball_and_shell(4.0), grid)


def test_target_that_never_reaches_the_charge_raises():
    # claims one electron, but its cumulative levels off at half of that
    def rho(r):
        r = np.asarray(r, dtype=float)
        return 0.5 * np.exp(-r) / (4.0 * math.pi * r * r)

    def cumulative(r):
        return 0.5 * -np.expm1(-np.asarray(r, dtype=float))

    short = RadialDensity(rho=rho, cumulative=cumulative, complement=lambda r: 1.0 - cumulative(r), electron_count=1.0)
    # r = 0.5 holds 0.08 of the source's charge and is matched; r = 3 holds 0.94
    with pytest.raises(NonMonotoneCumulative, match="never reaches the source charge at r = 3"):
        solve_scaling_map(RadialDensity.hydrogenic(1.0), short, grid=np.array([0.5, 3.0]))


def test_target_charge_at_the_origin_leaves_no_bracket_below():
    # a fifth of the target's electron sits at r = 0, so Q_target(0) = 0.2
    def rho(r):
        r = np.asarray(r, dtype=float)
        return 0.8 * np.exp(-r) / (4.0 * math.pi * r * r)

    pointlike = RadialDensity(
        rho=rho,
        cumulative=lambda r: 0.2 - 0.8 * np.expm1(-np.asarray(r, dtype=float)),
        complement=lambda r: 0.8 * np.exp(-np.asarray(r, dtype=float)),
        electron_count=1.0,
    )
    with pytest.raises(NonMonotoneCumulative, match=r"^no bracket below r = 0.001; cumulative not increasing from 0$"):
        solve_scaling_map(RadialDensity.hydrogenic(1.0), pointlike)


@pytest.mark.parametrize("a", np.arange(0.5, 6.5, 0.5))
def test_regularized_gamma_matches_scipy(a):
    x = np.concatenate([np.geomspace(1e-6, 200.0, 2000), [a - 1e-12, a, a + 1e-12]])
    p, q = radial._regularized_gamma(a, x, False), radial._regularized_gamma(a, x, True)
    tiny = np.finfo(float).tiny
    assert np.max(np.abs(p - gammainc(a, x)) / np.maximum(gammainc(a, x), tiny)) <= 1e-13
    assert np.max(np.abs(q - gammaincc(a, x)) / np.maximum(gammaincc(a, x), tiny)) <= 1e-13
    assert radial._regularized_gamma(a, 0.0, False) == 0.0 and radial._regularized_gamma(a, 0.0, True) == 1.0


def test_q_residual_sees_an_upper_tail_error(monkeypatch):
    # out to r = 40 the source complement falls below 1e-30, so both plain
    # cumulatives round to N there and cannot show an error in f
    source, target = RadialDensity.hydrogenic(1.0), RadialDensity.hydrogenic(2.0)
    grid = default_grid(1e-3, 40.0, 256)
    assert np.all(solve_scaling_map(source, target, grid).q_residuals <= Q_RESIDUAL_TARGET)
    upper = source.cumulative(grid) > 0.5
    saturated = upper & (target.cumulative(grid / 2.0) == 1.0)
    assert saturated.sum() > 10
    solve = scaling._solve_radii
    monkeypatch.setattr(scaling, "_solve_radii", lambda t, r, c: solve(t, r, c) * np.where(upper, 1.0 + 1e-9, 1.0))
    m = solve_scaling_map(source, target, grid)
    assert np.all(m.q_residuals[upper] > Q_RESIDUAL_TARGET)
    assert np.all(m.q_residuals[~upper] <= Q_RESIDUAL_TARGET)


def counting(density: RadialDensity, calls: dict) -> RadialDensity:
    """density with its cumulative and complement counting their calls in calls."""

    def counted(name, f):
        def wrapper(r):
            calls[name] = calls.get(name, 0) + 1
            return f(r)

        return wrapper

    cumulative, complement = counted("cumulative", density.cumulative), counted("complement", density.complement)
    return RadialDensity(density.rho, cumulative, complement, density.electron_count)


def test_solve_scaling_map_evaluates_the_source_charges_once():
    calls = {}
    solve_scaling_map(counting(RadialDensity.hydrogenic(1.0), calls), RadialDensity.hydrogenic(2.0), default_grid())
    assert calls == {"cumulative": 1, "complement": 1}


def two_electron_mixture(slater0, slater_n, gaussian_n):
    """The radial density of a normalized two-electron spec of a Slater, a Slater
    and a Gaussian term at one center, each (coefficient, exponent, power)."""
    kinds = ("slater_s", "slater_s", "gaussian")
    terms = [
        {"kind": kind, "center": [0.4, -1.1, 0.7], "coefficient": c, "exponent": e, "power": n}
        for kind, (c, e, n) in zip(kinds, (slater0, slater_n, gaussian_n))
    ]
    return RadialDensity.from_model(parse_spec({"electron_count": 2, "normalize": True, "terms": terms}))


@pytest.mark.parametrize(
    ("source", "target", "grid", "most"),
    [
        # the pair of the pinned 2048-point lst outputs in test_cli: 19 and 21 calls
        # while each radius doubled its own bracket and Newton started at its middle,
        # 9 and 12 while a 4-step Newton polish followed the Newton-bisection
        (
            two_electron_mixture((0.74, 1.62, 0), (0.31, 0.97, 2), (0.27, 1.15, 1)),
            two_electron_mixture((0.58, 2.21, 0), (0.44, 0.63, 1), (0.12, 0.41, 2)),
            default_grid(points=2048),
            {"cumulative": 5, "complement": 8},
        ),
        # f reaches 300 bohr, 4 doublings past the grid: 18 and 29 calls, then 9 and 10
        (
            RadialDensity.hydrogenic(15.0),
            RadialDensity.hydrogenic(1.0),
            default_grid(),
            {"cumulative": 5, "complement": 8},
        ),
        # f = r / 15 puts the first roots below the grid: one call grows the
        # cumulative table below its first radius
        (
            RadialDensity.hydrogenic(1.0),
            RadialDensity.hydrogenic(15.0),
            default_grid(),
            {"cumulative": 7, "complement": 5},
        ),
    ],
    ids=["pinned-mixture-2048", "z15-onto-z1", "z1-onto-z15"],
)
def test_solve_scaling_map_target_charge_calls(source, target, grid, most):
    # one table call per representation brackets every radius; the rest are
    # Newton iterations and the q residual
    calls = {}
    solve_scaling_map(source, counting(target, calls), grid)
    assert set(calls) == set(most)
    assert all(calls[name] <= most[name] for name in most)
