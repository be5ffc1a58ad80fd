"""Cross-energy audit machinery and wavefunction-to-potential inversion.

Analytic oracles: hydrogenic E = -Z^2/2, <1/r>_Z = Z, cross energy
Z_A^2/2 - Z_B*Z_A, the screened-Coulomb attraction of a displaced
hydrogenic cloud (1 - (1+Z d) e^(-2 Z d))/d, and incomplete-gamma closed
forms for the radial moments.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from rho2v import audit
from rho2v.density import NuclearFrame, PrimitiveKind, RadialPrimitive, hydrogenic_model
from rho2v.errors import NodeEncountered
from rho2v.audit import (
    ExponentialWavefunction,
    OneElectronSystem,
    audit_pair,
    potential_from_wavefunction,
)
from rho2v.radial import _columns, _moment, frame_attraction


def unit_charge_at(d):
    return NuclearFrame([[0.0, 0.0, d]], [1.0])


# --- radial moments against scipy's incomplete gamma ---------------------------

@pytest.mark.parametrize(
    "prim,m,lower",
    [
        (RadialPrimitive(PrimitiveKind.SLATER_S, 0.7, 1.3, 0), 1, 0.0),
        (RadialPrimitive(PrimitiveKind.SLATER_S, 1.1, 0.8, 2), 2, 1.7),
        (RadialPrimitive(PrimitiveKind.GAUSSIAN, 0.9, 0.6, 0), 1, 0.0),
        (RadialPrimitive(PrimitiveKind.GAUSSIAN, 1.3, 1.1, 3), 2, 0.9),
    ],
)
def test_radial_moment_closed_form(prim, m, lower):
    c, n = prim.coefficient, prim.power
    p = m + n
    if prim.kind is PrimitiveKind.SLATER_S:
        b = 2.0 * prim.exponent
        oracle = c * math.gamma(p + 1) * gammaincc(p + 1, b * lower) / b ** (p + 1)
    else:
        a = prim.exponent
        half = 0.5 * (p + 1)
        oracle = c * math.gamma(half) * gammaincc(half, a * lower * lower) / (2.0 * a**half)
    assert _moment(*_columns([prim]), m)(lower, complement=True)[0, 0] == pytest.approx(oracle, rel=1e-12)


def test_displaced_attraction_screened_coulomb():
    z, d = 2.0, 1.4
    oracle = (1.0 - math.exp(-2.0 * z * d) * (1.0 + z * d)) / d
    assert -frame_attraction(hydrogenic_model(z), unit_charge_at(d)) == pytest.approx(oracle, rel=1e-12)


def test_same_center_attraction_is_mean_inverse_radius():
    z = 3.0
    assert -frame_attraction(hydrogenic_model(z), unit_charge_at(0.0)) == pytest.approx(z, rel=1e-13)


# --- ground and cross energies --------------------------------------------------
# audit_pair(A, B).cross21 is <psi_A | T + v_B | psi_A>

@pytest.mark.parametrize("z,expected", [(1.0, -0.5), (2.0, -2.0)])
def test_ground_energy_analytic(z, expected):
    assert OneElectronSystem(z).energy == expected


def test_ground_energy_quadrature_matches_analytic():
    sys1 = OneElectronSystem(1.0)
    assert audit_pair(sys1, sys1).cross21 == pytest.approx(sys1.energy, abs=1e-8)
    shifted = OneElectronSystem(2.0, offset=0.3)
    assert audit_pair(shifted, shifted).cross21 == pytest.approx(-2.0 + 0.3, abs=1e-8)


def test_cross_energy_oracle_values():
    z1, z2 = OneElectronSystem(1.0), OneElectronSystem(2.0)
    # psi(Z=2) in v(Z=1): Z_A^2/2 - Z_B Z_A = 2 - 2
    assert audit_pair(z2, z1).cross21 == pytest.approx(0.0, abs=1e-10)
    # psi(Z=1) in v(Z=2): 0.5 - 2
    assert audit_pair(z1, z2).cross21 == pytest.approx(-1.5, abs=1e-10)
    # self-consistency
    assert audit_pair(z1, z1).cross21 == pytest.approx(-0.5, abs=1e-10)


def test_variational_strictness():
    for za in (1.0, 2.0, 3.0):
        for zb in (1.0, 2.0, 3.0):
            gap = audit_pair(OneElectronSystem(za), OneElectronSystem(zb)).cross21 - OneElectronSystem(zb).energy
            if za == zb:
                assert abs(gap) <= 1e-10
            else:
                assert gap > 0.0
                assert gap == pytest.approx(0.5 * (za - zb) ** 2, abs=1e-9)


def test_displaced_audit_matches_screened_coulomb():
    # Z_A at the origin, Z_B at distance d: <psi_A|T + v_B|psi_A> is
    # Z_A^2/2 - Z_B (1 - (1 + Z_A d) e^(-2 Z_A d)) / d, and symmetrically
    za, zb, d = 1.5, 2.0, 1.3

    def cross(z_psi, z_pot):
        return 0.5 * z_psi**2 - z_pot * (1.0 - (1.0 + z_psi * d) * math.exp(-2.0 * z_psi * d)) / d

    report = audit_pair(OneElectronSystem(za), OneElectronSystem(zb, center=(0.0, 0.0, d)))
    assert report.cross21 == pytest.approx(cross(za, zb), abs=1e-10)
    assert report.cross12 == pytest.approx(cross(zb, za), abs=1e-10)
    assert report.case == "II" and report.strict1 and report.strict2
    assert max(report.identity_residual_1, report.identity_residual_2) <= 1e-10


# --- difference integrals --------------------------------------------------------
# diff_integral_rho* is int (v1 - v2) rho* of the pair's frames and densities

def test_difference_integral_oracle():
    report = audit_pair(OneElectronSystem(1.0), OneElectronSystem(2.0))
    # (v1 - v2) = +1/r; <1/r>_{Z=2} = 2
    assert report.diff_integral_rho2 == pytest.approx(2.0, abs=1e-10)
    assert report.diff_integral_rho1 == pytest.approx(1.0, abs=1e-10)


def test_difference_integral_same_potential_is_zero():
    report = audit_pair(OneElectronSystem(2.0), OneElectronSystem(2.0))
    assert report.diff_integral_rho1 == pytest.approx(0.0, abs=1e-12)
    assert report.diff_integral_rho2 == pytest.approx(0.0, abs=1e-12)


def test_difference_integral_constant_shift():
    c = 0.37
    report = audit_pair(OneElectronSystem(1.0, offset=c), OneElectronSystem(1.0))
    assert report.diff_integral_rho1 == pytest.approx(c * 1.0, abs=1e-10)


# --- potential_from_wavefunction ---------------------------------------------------

def test_exponential_inversion_recovers_coulomb():
    table = potential_from_wavefunction(ExponentialWavefunction(1.0), energy=-0.5)
    (v_at_1,) = table.values[table.radii == 1.0]  # the grid holds r = 1 exactly
    assert v_at_1 == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(table.values + 1.0 / table.radii)) <= 1e-10


@pytest.mark.parametrize("z", [1.0, 2.0, 3.0])
def test_hydrogenic_inversion_all_z(z):
    table = potential_from_wavefunction(ExponentialWavefunction(z), energy=-0.5 * z * z)
    assert np.max(np.abs(table.values + z / table.radii)) <= 1e-10


class GaussianWavefunction:
    """psi(r) = exp(-width * r^2), the harmonic-oscillator ground state."""

    def __init__(self, width):
        self.width = width

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return np.exp(-self.width * r * r)

    def kinetic_ratio(self, r):
        r = np.asarray(r, dtype=float)
        return 3.0 * self.width - 2.0 * self.width**2 * r * r


def test_gaussian_inversion_gives_harmonic_potential():
    table = potential_from_wavefunction(GaussianWavefunction(0.5), energy=1.5)
    assert np.max(np.abs(table.values - 0.5 * table.radii**2)) <= 1e-10


def test_node_encountered():
    with pytest.raises(NodeEncountered):
        potential_from_wavefunction(ExponentialWavefunction(1.0, amplitude=-1.0), energy=-0.5)


# --- audit_pair ----------------------------------------------------------------------

def test_audit_z1_z2_full_table():
    report = audit_pair(OneElectronSystem(1.0), OneElectronSystem(2.0))
    assert report.e1 == pytest.approx(-0.5, abs=1e-12)
    assert report.e2 == pytest.approx(-2.0, abs=1e-12)
    assert report.cross12 == pytest.approx(0.0, abs=1e-8)
    assert report.cross21 == pytest.approx(-1.5, abs=1e-8)
    assert report.diff_integral_rho2 == pytest.approx(2.0, abs=1e-8)
    assert report.diff_integral_rho1 == pytest.approx(1.0, abs=1e-8)
    assert report.strict1 and report.strict2
    assert report.identity_residual_1 <= 1e-8
    assert report.identity_residual_2 <= 1e-8
    assert report.case == "II"
    assert not report.densities_equal


@pytest.mark.parametrize("za,zb", [(1.0, 2.0), (1.0, 3.0), (2.0, 3.0)])
def test_identity_residuals_all_pairs(za, zb):
    report = audit_pair(OneElectronSystem(za), OneElectronSystem(zb))
    assert report.identity_residual_1 <= 1e-8
    assert report.identity_residual_2 <= 1e-8


def test_audit_identical_systems():
    report = audit_pair(OneElectronSystem(1.5), OneElectronSystem(1.5))
    assert report.case == "I"
    assert report.cross12 == pytest.approx(report.e1, abs=1e-10)
    assert report.cross21 == pytest.approx(report.e2, abs=1e-10)
    assert report.diff_integral_rho1 == pytest.approx(0.0, abs=1e-10)
    assert not report.strict1 and not report.strict2


def test_audit_constant_shift_gauge():
    c = 0.25
    report = audit_pair(OneElectronSystem(1.0), OneElectronSystem(1.0, offset=c))
    assert report.case == "I"
    assert report.e2 - report.e1 == pytest.approx(c, abs=1e-12)
    assert report.diff_integral_rho1 == pytest.approx(-c, abs=1e-10)
    assert any("constant" in n for n in report.notes)


def test_equal_densities_under_different_potentials_is_case_iv_whatever_psi_says():
    # at tol 1e-3 the wavefunctions of Z = 0.5 and 0.5015 pass as equal as well
    report = audit_pair(OneElectronSystem(0.5), OneElectronSystem(0.5015), tol=1e-3)
    assert report.wavefunctions_equal and report.densities_equal
    assert not report.potentials_equal_mod_const
    assert report.case == "IV"
    assert any("cross-check attached" in n for n in report.notes)
    # the cross-check compares the densities at its own, tighter gate
    assert report.cusp_verdict.case == "II" and not report.cusp_verdict.densities_equal


def test_case_iv_cross_check_reads_equal_frames():
    report = audit_pair(OneElectronSystem(0.5), OneElectronSystem(0.5 + 3e-9))
    assert report.case == "IV"
    assert not report.wavefunctions_equal and report.densities_equal
    verdict = report.cusp_verdict
    assert verdict.case == "IV" and verdict.densities_equal
    charges = [verdict.report1.charges[m.estimated_index] for m in verdict.center_agreement]
    assert charges == pytest.approx([0.5], abs=1e-6)


def test_equal_wavefunctions_carry_equal_densities():
    # at Z = 3 the density gap is about 6 times the wavefunction gap; at one
    # absolute tol for both this pair read as case III, "structurally impossible"
    report = audit_pair(OneElectronSystem(3.0), OneElectronSystem(3.0002), tol=1e-3)
    assert report.wavefunctions_equal and report.densities_equal
    assert report.case == "I" and not report.notes


@settings(max_examples=30, deadline=None)
@given(
    z=st.floats(0.3, 3.0),
    gap=st.integers(-10, -1),
    tol=st.integers(-10, -2),
    offset=st.sampled_from([0.0, 0.25]),
)
def test_case_label_agrees_with_flags_notes_and_cross_check(z, gap, tol, offset):
    r = audit_pair(OneElectronSystem(z), OneElectronSystem(z + 10.0**gap, offset=offset), tol=10.0**tol)
    if r.densities_equal:
        expected = "I" if r.potentials_equal_mod_const else "IV"
    else:
        expected = "III" if r.wavefunctions_equal else "II"
    assert r.case == expected
    assert (r.cusp_verdict is not None) == (r.case == "IV")
    notes = " ".join(r.notes)
    assert ("cross-check attached" in notes) == (r.case == "IV")
    assert ("structurally impossible" in notes) == (r.case == "III")
    assert ("sign artifact" in notes) == (r.case == "I" and not r.wavefunctions_equal)
    assert ("pure constant" in notes) == (r.case == "I" and r.wavefunctions_equal and offset != 0.0)
    assert r.case != "II" or not notes


def test_n1_consistency_equal_densities_equal_wavefunctions():
    # with equal densities on the radial grid the positive wavefunctions
    # sqrt(rho) must also agree
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 128)])
    s1, s2 = OneElectronSystem(2.0), OneElectronSystem(2.0)
    rho1 = s1.wavefunction.value(grid) ** 2
    rho2 = s2.wavefunction.value(grid) ** 2
    assert np.max(np.abs(rho1 - rho2)) <= 1e-10
    assert np.max(np.abs(np.sqrt(rho1) - np.sqrt(rho2))) <= 1e-9
    report = audit_pair(s1, s2)
    assert report.wavefunctions_equal and report.densities_equal


def test_audit_pair_takes_each_density_frame_and_integral_once(monkeypatch):
    calls = {}

    def counted(name):
        f = getattr(audit, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return f(*args, **kwargs)

        monkeypatch.setattr(audit, name, wrapper)

    for name in ("hydrogenic_model", "NuclearFrame", "total_integral", "frame_attraction"):
        counted(name)
    audit_pair(OneElectronSystem(1.0, offset=0.2), OneElectronSystem(2.0, center=(0.0, 0.0, 1.5)))
    assert calls == {"hydrogenic_model": 2, "NuclearFrame": 2, "total_integral": 2, "frame_attraction": 4}
