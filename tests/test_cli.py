"""End-to-end CLI behavior: spec parsing, reports, exit codes, cube export."""

import dataclasses
import hashlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rho2v import cli
from rho2v.audit import CUSP_CHECK_SEEDS
from rho2v.cli import main
from rho2v.cube import CUBE_BLOCK, _cube_text
from rho2v.density import DensityModel, NuclearFrame, PrimitiveKind, RadialPrimitive, evaluate_many, model_from_frame
from rho2v.errors import (
    EmptyResult,
    MassMismatch,
    NonMonotoneCumulative,
    OptionError,
    OutOfScope,
    SpecError,
)
from rho2v.inversion import DENSITY_TOL, IDENTICAL_CHARGE_TOL, IDENTICAL_POSITION_TOL, MATCH_GATE
from rho2v.scaling import Q_RESIDUAL_TARGET
from rho2v.specio import load_spec, render_report
from rho2v.spherical import radial_derivative_at_center
from rho2v.topology import classify, find_critical_points

HYDROGEN = {
    "electron_count": 1,
    "frame": [{"position": [0.0, 0.0, 0.0], "charge": 1.0}],
    "terms": [
        {
            "kind": "slater_s",
            "center": [0.0, 0.0, 0.0],
            "coefficient": 1.0 / math.pi,
            "exponent": 1.0,
            "power": 0,
        }
    ],
}


def z_spec(z, center=(0.0, 0.0, 0.0), offset=None, electrons=1):
    spec = {
        "electron_count": electrons,
        "frame": [{"position": list(center), "charge": z}],
        "terms": [
            {
                "kind": "slater_s",
                "center": list(center),
                "coefficient": electrons * z**3 / math.pi,
                "exponent": z,
                "power": 0,
            }
        ],
    }
    if offset is not None:
        spec["potential_offset"] = offset
    return spec


def write_spec(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(args):
    return main(args)


# --- invert -----------------------------------------------------------------

def test_invert_hydrogen(tmp_path, capsys):
    spec = write_spec(tmp_path, "h.json", HYDROGEN)
    out = tmp_path / "report.json"
    code = run(["invert", spec, "--seeds", "5", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["tool"] == "rho2v"
    assert report["command"] == "invert"
    centers = report["result"]["estimated_centers"]
    assert len(centers) == 1
    assert centers[0]["charge"] == pytest.approx(1.0, abs=1e-6)
    assert report["result"]["match"]["centers"][0]["charge_error"] < 1e-6
    assert report["inputs"][0]["sha256"]
    assert set(report["tolerances"]) == {"radial_derivative", "topology"}
    assert report["tolerances"]["topology"]["seeds_per_axis"] == 5


def test_invert_reruns_bit_identical(tmp_path):
    spec = write_spec(tmp_path, "h.json", HYDROGEN)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["invert", spec, "--seeds", "5", "--output", str(out1)]) == 0
    assert run(["invert", spec, "--seeds", "5", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_invert_gaussian_exit_2(tmp_path):
    spec = write_spec(
        tmp_path,
        "g.json",
        {
            "electron_count": 1,
            "terms": [
                {"kind": "gaussian", "center": [0, 0, 0], "coefficient": 1.0, "exponent": 0.8}
            ],
        },
    )
    out = tmp_path / "report.json"
    code = run(["invert", spec, "--seeds", "5", "--output", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["result"]["status"] == "no_cusps_found"
    assert len(report["result"]["smooth_critical_points"]) >= 1


def spec_of(model):
    """The spec document of a model whose terms sit at its frame's nuclei."""
    return {
        "electron_count": model.electron_count,
        "frame": [
            {"position": pos.tolist(), "charge": float(z)}
            for pos, z in zip(model.frame.positions, model.frame.charges)
        ],
        "terms": [
            {
                "kind": prim.kind.value,
                "center": center.tolist(),
                "coefficient": prim.coefficient,
                "exponent": prim.exponent,
                "power": prim.power,
            }
            for center, prim in model.terms
        ],
    }


def test_invert_reports_each_skipped_point_with_its_reason(tmp_path):
    frame = NuclearFrame(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]]), np.array([3.0, 1.0]))
    spec = write_spec(tmp_path, "lih.json", spec_of(model_from_frame(frame)))
    out = tmp_path / "report.json"
    assert run(["invert", spec, "--seeds", "5", "--output", str(out)]) == 0
    skipped = json.loads(out.read_text())["result"]["skipped_points"]
    model, _ = load_spec(spec)
    saddles = [p for p in find_critical_points(model, 5) if not p.is_cusp]
    assert len(skipped) == len(saddles) == 1
    assert skipped[0]["position"] == saddles[0].position.tolist()
    assert skipped[0]["reason"] == (
        "smooth critical point (rank 3, signature -1): vanishing one-sided slope, not a nuclear cusp"
    )


def test_invert_snap_charges(tmp_path):
    spec = write_spec(tmp_path, "z3.json", z_spec(3.0))
    out = tmp_path / "report.json"
    assert run(["invert", spec, "--seeds", "5", "--snap-charges", "--output", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["snapped_charges"] == [3.0]
    assert len(result["snap_distances"]) == 1 and result["snap_distances"][0] <= 1e-6


def test_invert_missing_exponent_names_field(tmp_path, capsys):
    bad = {
        "electron_count": 1,
        "terms": [{"kind": "slater_s", "center": [0, 0, 0], "coefficient": 1.0}],
    }
    spec = write_spec(tmp_path, "bad.json", bad)
    code = run(["invert", spec])
    assert code == 1
    err = capsys.readouterr().err
    assert "terms[0].exponent" in err


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda s: s["terms"][0].update(coefficient=-1.0), "terms[0].coefficient"),
        (lambda s: s["terms"][0].update(exponent=0.0), "terms[0].exponent"),
        (lambda s: s["terms"][0].update(center=[0.0, float("nan"), 0.0]), "terms[0].center"),
        (lambda s: s.update(electron_count=0), "electron_count"),
    ],
)
def test_spec_validation_messages(tmp_path, capsys, mutate, field):
    spec_data = json.loads(json.dumps(HYDROGEN))
    mutate(spec_data)
    spec = write_spec(tmp_path, "bad.json", spec_data)
    assert run(["invert", spec]) == 1
    assert field in capsys.readouterr().err


def _without(entry: dict, key: str) -> dict:
    return {k: v for k, v in entry.items() if k != key}


@pytest.mark.parametrize(
    "document,field",
    [
        (lambda s: s | {"potential_offset": "x"}, "potential_offset"),
        (lambda s: s | {"electron_count": True}, "electron_count"),
        (lambda s: s | {"electron_count": 1.5}, "electron_count"),
        (lambda s: s | {"terms": {"kind": "slater_s"}}, "terms"),
        (lambda s: s | {"terms": [1.0]}, "terms[0]"),
        (lambda s: s | {"terms": [s["terms"][0] | {"kind": "lorentzian"}]}, "terms[0].kind"),
        (lambda s: s | {"terms": [s["terms"][0] | {"center": [0.0, 0.0]}]}, "terms[0].center"),
        (lambda s: s | {"terms": [_without(s["terms"][0], "center")]}, "terms[0].center"),
        (lambda s: s | {"terms": [_without(s["terms"][0], "coefficient")]}, "terms[0].coefficient"),
        (lambda s: s | {"terms": [s["terms"][0] | {"power": -1}]}, "terms[0].power"),
        (lambda s: s | {"terms": [s["terms"][0] | {"power": True}]}, "terms[0].power"),
        (lambda s: s | {"frame": []}, "frame"),
        (lambda s: s | {"frame": {"position": [0, 0, 0], "charge": 1.0}}, "frame"),
        (lambda s: s | {"frame": [[0.0, 0.0, 0.0]]}, "frame[0]"),
        (lambda s: s | {"frame": [_without(s["frame"][0], "position")]}, "frame[0].position"),
        (lambda s: s | {"frame": [_without(s["frame"][0], "charge")]}, "frame[0].charge"),
        (lambda s: s | {"frame": s["frame"] * 2}, "frame"),
        (lambda s: s | {"normalize": 1}, "normalize"),
    ],
    ids=[
        "offset-not-a-number",
        "electron-count-bool",
        "electron-count-float",
        "terms-not-a-list",
        "term-not-an-object",
        "unknown-kind",
        "center-not-a-triple",
        "missing-center",
        "missing-coefficient",
        "negative-power",
        "bool-power",
        "empty-frame",
        "frame-not-a-list",
        "frame-entry-not-an-object",
        "missing-position",
        "missing-charge",
        "coalesced-centers",
        "normalize-not-a-bool",
    ],
)
def test_spec_validation_names_the_field(tmp_path, capsys, document, field):
    spec = write_spec(tmp_path, "bad.json", document(json.loads(json.dumps(HYDROGEN))))
    assert run(["invert", spec]) == 1
    assert capsys.readouterr().err.startswith(f"rho2v invert: {field}: ")


@pytest.mark.parametrize(
    "text,message",
    [(None, "cannot read spec file"), ("{\n  nope", ":2: invalid JSON"), ("[]", ": top level must be a JSON object")],
    ids=["missing-file", "invalid-json", "top-level-not-an-object"],
)
def test_spec_load_errors_name_the_path(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert run(["invert", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"rho2v invert: {path}") and message in err and err.count("\n") == 1


# --- verify-cusp ---------------------------------------------------------------

def test_verify_cusp_pass(tmp_path):
    spec = write_spec(tmp_path, "h.json", HYDROGEN)
    out = tmp_path / "v.json"
    assert run(["verify-cusp", spec, "--tol", "0.05", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["all_passed"] is True
    assert set(report["tolerances"]) == {"radial_derivative", "cusp_verification"}
    assert report["tolerances"]["cusp_verification"]["tol"] == 0.05


def test_verify_cusp_missing_frame(tmp_path, capsys):
    data = {k: v for k, v in HYDROGEN.items() if k != "frame"}
    spec = write_spec(tmp_path, "nf.json", data)
    assert run(["verify-cusp", spec]) == 1
    assert "frame" in capsys.readouterr().err


def test_verify_cusp_wrong_charge_fails(tmp_path):
    data = json.loads(json.dumps(HYDROGEN))
    data["frame"][0]["charge"] = 1.5
    spec = write_spec(tmp_path, "wrong.json", data)
    out = tmp_path / "v.json"
    assert run(["verify-cusp", spec, "--output", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["result"]["all_passed"] is False


def test_verify_cusp_claimed_nucleus_at_zero_density_fails_with_its_report(tmp_path, capsys):
    # rho = 5.7e-36 at z = 40 bohr, below the 1e-30 floor of the log-derivative
    data = json.loads(json.dumps(HYDROGEN))
    data["frame"].append({"position": [0.0, 0.0, 40.0], "charge": 1.0})
    spec = write_spec(tmp_path, "far.json", data)
    out = tmp_path / "v.json"
    assert run(["verify-cusp", spec, "--output", str(out)]) == 2
    assert capsys.readouterr().err == ""
    true_center, far = json.loads(out.read_text())["result"]["checks"]
    assert true_center["passed"] is True and true_center["residual"] < 1e-12
    assert far["passed"] is False and far["lhs_slope"] is None and far["residual"] is None
    assert far["rhs_slope"] == -2.0 * evaluate_many(load_spec(spec)[0], np.array([[0.0, 0.0, 40.0]]))[0]
    assert -1.2e-35 < far["rhs_slope"] < -1.1e-35


# --- audit -----------------------------------------------------------------------

def test_audit_z1_z2(tmp_path):
    s1 = write_spec(tmp_path, "z1.json", z_spec(1.0))
    s2 = write_spec(tmp_path, "z2.json", z_spec(2.0))
    out = tmp_path / "a.json"
    assert run(["audit", s1, s2, "--output", str(out)]) == 0
    r = json.loads(out.read_text())["result"]
    assert r["case"] == "II"
    assert r["E1"] == pytest.approx(-0.5, abs=1e-10)
    assert r["E2"] == pytest.approx(-2.0, abs=1e-10)
    assert r["cross12"] == pytest.approx(0.0, abs=1e-8)
    assert r["cross21"] == pytest.approx(-1.5, abs=1e-8)
    assert r["strict1"] and r["strict2"]
    tolerances = json.loads(out.read_text())["tolerances"]
    assert set(tolerances) == {"audit", "radial_derivative", "topology"}
    assert tolerances["audit"]["tol"] == 1e-9
    # the gates the case-IV cusp cross-check applies: equal densities, then
    # center matching and the per-center bounds for identical frames
    assert set(tolerances["audit"]) == {
        "tol",
        "cross_check_density_tol",
        "cross_check_match_gate",
        "cross_check_position_tol",
        "cross_check_charge_tol",
    }
    assert tolerances["audit"]["cross_check_density_tol"] == DENSITY_TOL == 1e-6
    assert tolerances["audit"]["cross_check_match_gate"] == MATCH_GATE == 0.5
    assert tolerances["audit"]["cross_check_position_tol"] == IDENTICAL_POSITION_TOL == 1e-3
    assert tolerances["audit"]["cross_check_charge_tol"] == IDENTICAL_CHARGE_TOL == 1e-2
    # the seed count the case-IV cusp cross-check runs with
    assert tolerances["topology"]["seeds_per_axis"] == CUSP_CHECK_SEEDS


def test_audit_identical_specs(tmp_path):
    s1 = write_spec(tmp_path, "a.json", z_spec(1.0))
    s2 = write_spec(tmp_path, "b.json", z_spec(1.0))
    out = tmp_path / "r.json"
    assert run(["audit", s1, s2, "--output", str(out)]) == 0
    r = json.loads(out.read_text())["result"]
    assert r["case"] == "I"


def test_audit_constant_offset(tmp_path):
    s1 = write_spec(tmp_path, "a.json", z_spec(1.0))
    s2 = write_spec(tmp_path, "b.json", z_spec(1.0, offset=0.25))
    out = tmp_path / "r.json"
    assert run(["audit", s1, s2, "--output", str(out)]) == 0
    r = json.loads(out.read_text())["result"]
    assert r["case"] == "I"
    assert r["E2"] - r["E1"] == pytest.approx(0.25, abs=1e-12)


def test_audit_equal_densities_unequal_potentials_is_case_iv(tmp_path):
    # at --tol 1e-3 both wavefunctions and densities of Z = 0.5 and 0.5015
    # pass as equal while the charges do not
    s1 = write_spec(tmp_path, "a.json", z_spec(0.5))
    s2 = write_spec(tmp_path, "b.json", z_spec(0.5015))
    out = tmp_path / "r.json"
    assert run(["audit", s1, s2, "--tol", "1e-3", "--output", str(out)]) == 0
    r = json.loads(out.read_text())["result"]
    assert r["wavefunctions_equal"] and r["densities_equal"]
    assert not r["potentials_equal_mod_const"]
    assert r["case"] == "IV"
    assert r["notes"] and "cusp_cross_check" in r


def test_audit_case_iv_cusp_cross_check(tmp_path):
    s1 = write_spec(tmp_path, "a.json", z_spec(0.5))
    s2 = write_spec(tmp_path, "b.json", z_spec(0.5 + 3e-9))
    out = tmp_path / "r.json"
    assert run(["audit", s1, s2, "--tol", "1e-9", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    r = doc["result"]
    assert r["case"] == "IV"
    check = r["cusp_cross_check"]
    assert set(check) == {"case", "densities_equal", "message"}
    assert check["case"] == "IV" and check["densities_equal"] is True
    assert doc["tolerances"]["topology"]["seeds_per_axis"] == 5


def test_audit_requires_the_hydrogenic_density_of_the_frame(tmp_path):
    # a Gaussian density audited as if it were the Z = 2 hydrogenic state
    gaussian = {
        "electron_count": 1,
        "frame": [{"position": [0.0, 0.0, 0.0], "charge": 1.0}],
        "terms": [{"kind": "gaussian", "center": [0.0, 0.0, 0.0], "coefficient": 1.0, "exponent": 0.5}],
    }
    normalized = z_spec(1.5)
    normalized["terms"][0]["coefficient"] = 1.0
    normalized["normalize"] = True
    s_gauss = write_spec(tmp_path, "g.json", gaussian)
    s_norm = write_spec(tmp_path, "n.json", normalized)
    s_z2 = write_spec(tmp_path, "z2.json", z_spec(2.0))
    assert run(["audit", s_gauss, s_z2]) == 3
    # the hydrogenic term twice is twice the density
    doubled = z_spec(2.0)
    doubled["terms"] *= 2
    assert run(["audit", write_spec(tmp_path, "d.json", doubled), s_z2]) == 3
    assert run(["audit", s_norm, s_z2, "--output", str(tmp_path / "r.json")]) == 0
    assert run(["audit", s_z2, s_z2, "--output", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize(
    "change",
    [
        {"power": 1},
        {"exponent": 2.0 * (1.0 + 1e-11)},
        {"coefficient": 8.0 / math.pi * (1.0 + 1e-11)},
        {"center": [0.0, 0.0, 1e-9]},
    ],
    ids=["power", "exponent", "coefficient", "center"],
)
def test_audit_rejects_a_term_off_the_hydrogenic_density(tmp_path, capsys, change):
    spec = z_spec(2.0)
    spec["terms"][0].update(change)
    bad = write_spec(tmp_path, "bad.json", spec)
    assert run(["audit", bad, write_spec(tmp_path, "z2.json", z_spec(2.0))]) == 3
    assert "audit requires the hydrogenic density of the frame" in capsys.readouterr().err


def test_audit_multicenter_exit_3(tmp_path, capsys):
    data = json.loads(json.dumps(HYDROGEN))
    data["frame"].append({"position": [0.0, 0.0, 2.0], "charge": 1.0})
    s1 = write_spec(tmp_path, "multi.json", data)
    s2 = write_spec(tmp_path, "z1.json", z_spec(1.0))
    assert run(["audit", s1, s2]) == 3


def test_audit_two_electron_spec_exit_3(tmp_path, capsys):
    s1 = write_spec(tmp_path, "n2.json", z_spec(1.0, electrons=2))
    s2 = write_spec(tmp_path, "z1.json", z_spec(1.0))
    assert run(["audit", s1, s2]) == 3
    assert "electron_count" in capsys.readouterr().err


# --- lst ----------------------------------------------------------------------------

def test_lst_z1_to_z2(tmp_path):
    s1 = write_spec(tmp_path, "z1.json", z_spec(1.0))
    s2 = write_spec(tmp_path, "z2.json", z_spec(2.0))
    out = tmp_path / "m.json"
    table = tmp_path / "map.txt"
    code = run(
        [
            "lst", s1, s2,
            "--grid-min", "0.5", "--grid-max", "2.0", "--grid-points", "3",
            "--output", str(out), "--table", str(table),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report["tolerances"]) == {"local_scaling"}
    assert report["tolerances"]["local_scaling"]["q_residual"] == Q_RESIDUAL_TARGET
    rows = report["result"]["table"]
    by_r = {round(row["r"], 10): row for row in rows}
    assert by_r[1.0]["f"] == pytest.approx(0.5, abs=1e-10)
    assert by_r[1.0]["f_prime"] == pytest.approx(0.5, abs=1e-8)
    assert by_r[1.0]["q_residual"] <= 1e-12
    assert len(table.read_text().strip().splitlines()) == 3


def test_lst_identity(tmp_path):
    s1 = write_spec(tmp_path, "a.json", z_spec(1.0))
    s2 = write_spec(tmp_path, "b.json", z_spec(1.0))
    out = tmp_path / "m.json"
    assert run(["lst", s1, s2, "--grid-points", "16", "--output", str(out)]) == 0
    rows = json.loads(out.read_text())["result"]["table"]
    for row in rows:
        assert row["f"] == pytest.approx(row["r"], abs=1e-10)


@pytest.mark.parametrize("power", [0, 2])
def test_lst_gaussian_exponent_ratio(tmp_path, power):
    # normalized Gaussians: Q depends on r only through alpha*r^2
    def gaussian(alpha):
        term = {"kind": "gaussian", "center": [0, 0, 0], "coefficient": 1.0, "exponent": alpha, "power": power}
        return {"electron_count": 1, "terms": [term], "normalize": True}

    s1 = write_spec(tmp_path, "g1.json", gaussian(0.3))
    s2 = write_spec(tmp_path, "g2.json", gaussian(0.75))
    out = tmp_path / "m.json"
    assert run(["lst", s1, s2, "--output", str(out)]) == 0
    rows = json.loads(out.read_text())["result"]["table"]
    r = np.array([row["r"] for row in rows])
    f = np.array([row["f"] for row in rows])
    assert np.max(np.abs(f / (r * math.sqrt(0.3 / 0.75)) - 1.0)) <= 1e-10


def test_lst_mass_mismatch_exit_4(tmp_path, capsys):
    s1 = write_spec(tmp_path, "n1.json", z_spec(1.0))
    s2 = write_spec(tmp_path, "n2.json", z_spec(1.0, electrons=2))
    assert run(["lst", s1, s2]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rho2v lst: electron counts differ")


@pytest.mark.parametrize("target", ["zero", "hydrogen"])
def test_lst_refuses_a_source_with_no_electrons(tmp_path, capsys, target):
    # all coefficients 0: no grid places the map, so no --grid-min remedy is named,
    # and the empty source is named before the counts are compared
    empty = json.loads(json.dumps(HYDROGEN))
    empty["terms"][0]["coefficient"] = 0.0
    source = write_spec(tmp_path, "zero.json", empty)
    paths = {"zero": source, "hydrogen": write_spec(tmp_path, "h.json", HYDROGEN)}
    assert run(["lst", source, paths[target]]) == cli.EXIT_MASS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rho2v lst: source electron count 0.0 is not positive; there is no charge to map\n"


def test_lst_nonspherical_exit_3(tmp_path):
    data = json.loads(json.dumps(HYDROGEN))
    data["terms"].append(
        {"kind": "slater_s", "center": [0, 0, 2.0], "coefficient": 0.1, "exponent": 1.0}
    )
    s1 = write_spec(tmp_path, "two.json", data)
    s2 = write_spec(tmp_path, "z1.json", z_spec(1.0))
    assert run(["lst", s1, s2]) == 3


def one_term(kind, power):
    term = {"kind": kind, "center": [0, 0, 0], "coefficient": 1.0, "exponent": 1.0, "power": power}
    return {"electron_count": 1, "terms": [term], "normalize": True}


def test_lst_on_a_term_past_the_gamma_overflow_exits_with_a_code(tmp_path):
    # Gamma(172) of the normalized power-169 Slater term is beyond the float range
    spec = write_spec(tmp_path, "s169.json", one_term("slater_s", 169))
    assert main(["lst", spec, spec]) in cli.EXIT_CODES.values()


@pytest.mark.parametrize(
    "documents, flags, message",
    [
        # the normalized power-169 term peaks near 85 bohr: its charge within 1e-3 bohr is below 1e-308
        ([one_term("slater_s", 169)] * 2, [], "source charge within r = 0.001 underflows to 0; raise --grid-min"),
        # hydrogen's charge beyond 377 bohr, e^-754 (1 + 2r + 2r^2), is below the float range
        ([HYDROGEN] * 2, ["--grid-max", "1000"], "source charge beyond r = 377.112 underflows to 0; lower --grid-max"),
        # hydrogen's charge within 1e-120 bohr, 4 r^3 / 3, is 0 although the Z = 2
        # target's density at the origin is positive
        (
            [HYDROGEN, z_spec(2.0)],
            ["--grid-min", "1e-120", "--grid-max", "20", "--grid-points", "8"],
            "source charge within r = 1e-120 underflows to 0; raise --grid-min",
        ),
    ],
)
def test_lst_names_an_underflowed_source_charge_not_a_density_hole(tmp_path, capsys, documents, flags, message):
    paths = [write_spec(tmp_path, f"{i}.json", document) for i, document in enumerate(documents)]
    assert main(["lst", *paths, *flags]) == cli.EXIT_MASS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rho2v lst: {message}\n"


def test_lst_solves_a_map_with_roots_far_below_the_grid(tmp_path):
    # the power-169 term's charge (9e-307 and up from r = 0.54 bohr) is matched
    # where a power-2 target's Q grows as x^5, near 8e-62 bohr: far below the
    # grid, in brackets from the table grown below its first radius
    documents = (one_term("slater_s", 169), one_term("slater_s", 2))
    paths = [write_spec(tmp_path, f"{i}.json", d) for i, d in enumerate(documents)]
    out = tmp_path / "report.json"
    assert main(["lst", *paths, "--grid-min", "0.54", "--output", str(out)]) == cli.EXIT_OK
    table = json.loads(out.read_text())["result"]["table"]
    assert table[0]["f"] < 1e-61
    assert all(row["q_residual"] <= Q_RESIDUAL_TARGET for row in table)


def test_lst_refuses_a_map_that_misses_the_q_residual_target(tmp_path, capsys, monkeypatch):
    # no map is known that the solver misses, so the solved map's residuals are
    # replaced: a NaN residual misses the target as well, and the first miss is named
    from rho2v import scaling

    solve = scaling.solve_scaling_map
    spec = write_spec(tmp_path, "h.json", HYDROGEN)
    argv = ["lst", spec, spec, "--grid-min", "1", "--grid-max", "8", "--grid-points", "4"]
    for residuals, message in (
        ([0.0, math.nan, 2e-12, 0.0], "q_residual nan at r = 2"),
        ([0.0, 0.0, 2e-12, math.nan], "q_residual 2e-12 at r = 4"),
    ):
        def replaced(*args, residuals=np.array(residuals)):
            return dataclasses.replace(solve(*args), q_residuals=residuals)

        monkeypatch.setattr(scaling, "solve_scaling_map", replaced)
        assert main(argv) == cli.EXIT_MASS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rho2v lst: {message} misses the target 1e-12\n"


def test_normalize_with_a_total_integral_beyond_the_float_range_exits_1(tmp_path, capsys):
    # Gamma(201.5) ~ 1e375: the integral of the term itself overflows
    spec = write_spec(tmp_path, "g400.json", one_term("gaussian", 400))
    assert main(["lst", spec, spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("rho2v lst: normalize: ")


# --- grid-export --------------------------------------------------------------------

def test_grid_export_cube(tmp_path):
    spec = write_spec(tmp_path, "h.json", HYDROGEN)
    cube = tmp_path / "d.cube"
    code = run(
        ["grid-export", spec, "--counts", "2", "2", "2", "--step", "1", "1", "1", "--output", str(cube)]
    )
    assert code == 0
    lines = cube.read_text().splitlines()
    natoms, ox, oy, oz = lines[2].split()
    assert int(natoms) == 1 and float(ox) == 0.0
    assert [int(lines[i].split()[0]) for i in (3, 4, 5)] == [2, 2, 2]
    # one atom line, then 8 values in z-fastest order, 6 per line
    values = [float(v) for line in lines[7:] for v in line.split()]
    assert len(values) == 8
    assert values[0] == pytest.approx(0.31831, abs=1e-5)
    # value at (0,0,1) is the second entry (z fastest)
    assert values[1] == pytest.approx(math.exp(-2.0) / math.pi, abs=1e-5)


def test_grid_export_zero_density(tmp_path):
    spec = write_spec(tmp_path, "empty.json", {"electron_count": 1, "terms": []})
    cube = tmp_path / "e.cube"
    assert run(["grid-export", spec, "--counts", "2", "2", "2", "--output", str(cube)]) == 0
    lines = cube.read_text().splitlines()
    values = [float(v) for line in lines[6:] for v in line.split()]
    assert values == [0.0] * 8


@pytest.mark.parametrize("counts", [(2, 2, 5), (17, 23, 21)])
def test_grid_export_matches_per_value_formatting(tmp_path, counts):
    # 20 values end in a partial row; 8211 cross a CUBE_BLOCK boundary and end in one
    spec = write_spec(tmp_path, "h.json", z_spec(1.3, center=(0.2, -0.1, 0.4)))
    cube = tmp_path / "m.cube"
    origin, step = (-1.0, -1.5, -2.0), (0.25, 0.125, 0.2)
    argv = ["grid-export", spec, "--counts", *map(str, counts), "--output", str(cube)]
    assert run(argv + ["--origin", *map(str, origin), "--step", *map(str, step)]) == 0
    idx = np.indices(counts).reshape(3, -1).T  # z fastest
    values = evaluate_many(load_spec(spec)[0], np.asarray(origin) + idx * np.asarray(step))
    rows = ["".join(f"{v:13.5E}" for v in values[i : i + 6]) for i in range(0, len(values), 6)]
    text = cube.read_text()
    assert text.splitlines()[7:] == rows
    assert text.endswith(rows[-1] + "\n")


def _per_value_rows(values):
    return "".join("".join(f"{v:13.5E}" for v in values[i : i + 6]) + "\n" for i in range(0, len(values), 6))


def test_cube_text_matches_per_value_formatting_byte_for_byte():
    rng = np.random.default_rng(13)
    spread = rng.uniform(1.0, 10.0, 60000) * 10.0 ** rng.integers(-110, 11, 60000).astype(float)
    # decimal ties d.ddddd5 x 10^e and powers of ten, with their float neighbours
    ties = (rng.integers(100000, 1000000, 4000) + 0.5) * 10.0 ** rng.integers(-105, 6, 4000).astype(float)
    powers = 10.0 ** np.arange(-110.0, 11.0)
    edges = np.concatenate([ties, powers, [9.999995, 9.999995e-99, 9.999995e97, 1e-98, 1e98, 1e-99, 1e99, 1e-100]])
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    special = np.array([0.0, -0.0, -1.0, -2.5e-7, np.nan, np.inf, -np.inf, 5e-324, 2.2e-308, 1e-310, 1.7e308])
    values = rng.permutation(np.concatenate([spread, near, special]))
    assert _cube_text("", values) == _per_value_rows(values)
    # an all-zero block, then a run of zeros with a -0.0 in it across a block boundary
    block = CUBE_BLOCK
    zeros = values[: 3 * block].copy()
    zeros[:block] = 0.0
    zeros[2 * block - 9 : 2 * block + 14] = 0.0
    zeros[2 * block + 3] = -0.0
    assert _cube_text("", zeros) == _per_value_rows(zeros)
    # every partial last row, also after one and two whole blocks
    for n in (1, 2, 3, 4, 5, 7, 11, CUBE_BLOCK - 1, CUBE_BLOCK + 5, 2 * CUBE_BLOCK + 1):
        assert _cube_text("", values[:n]) == _per_value_rows(values[:n]), n
    assert _cube_text("", np.empty(0)) == ""


def test_grid_export_far_field_takes_the_exact_fallback(tmp_path):
    # along x the density falls from 1/pi through 1e-99 (three-digit exponents)
    # to 0 past about 354 bohr, where exp(-2 r) underflows; the header names a
    # spec file whose name is not ASCII
    spec = write_spec(tmp_path, "h-\u03c1.json", HYDROGEN)
    cube = tmp_path / "far.cube"
    counts, step = (9, 2, 3), (50.0, 0.5, 0.25)
    argv = ["grid-export", spec, "--counts", *map(str, counts), "--step", *map(str, step), "--output", str(cube)]
    assert run(argv) == 0
    values = evaluate_many(load_spec(spec)[0], np.indices(counts).reshape(3, -1).T * np.asarray(step))
    assert np.any((values > 0.0) & (values < 1e-99)) and np.any(values == 0.0)
    lines = cube.read_text(encoding="utf-8").split("\n", 7)
    assert lines[1] == "source: h-\u03c1.json" and lines[7] == _per_value_rows(values)


def test_grid_export_counts_too_small(tmp_path):
    spec = write_spec(tmp_path, "h.json", HYDROGEN)
    assert run(["grid-export", spec, "--counts", "1", "2", "2"]) == 1


@pytest.mark.parametrize("n", [100000, 3000000])
def test_grid_export_oversized_grid_exits_1_with_one_line(tmp_path, capsys, n):
    # numpy refuses both (points,) arrays before touching memory: 7.11 PiB
    # cannot be mapped, and 2.7e19 points exceed its index type
    spec = write_spec(tmp_path, "h.json", HYDROGEN)
    cube = tmp_path / "big.cube"
    assert run(["grid-export", spec, "--counts", str(n), str(n), str(n), "--output", str(cube)]) == 1
    err = capsys.readouterr().err
    assert err == f"rho2v grid-export: --counts asks for {n**3} grid points, more than memory can hold\n"
    assert not cube.exists()


# --- errors and usage ------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["invert", "{z1}", "--seeds", "3"],
        ["lst", "{z1}", "{z2}", "--grid-points", "2"],
        ["lst", "{z1}", "{z2}", "--grid-min", "0"],
        ["lst", "{z1}", "{z2}", "--grid-min", "5", "--grid-max", "1"],
        ["lst", "{z1}", "{z2}", "--grid-max", "inf"],
        # float flags are checked before any spec is read
        ["verify-cusp", "{missing}", "--tol", "nan"],
        ["verify-cusp", "{missing}", "--tol", "inf"],
        ["verify-cusp", "{missing}", "--tol", "-0.001"],
        ["audit", "{missing}", "{missing}", "--tol", "nan"],
        ["audit", "{missing}", "{missing}", "--tol", "inf"],
        ["audit", "{missing}", "{missing}", "--tol", "-1"],
        ["grid-export", "{missing}", "--counts", "2", "2", "2", "--origin", "nan", "0", "0"],
        ["grid-export", "{missing}", "--counts", "2", "2", "2", "--origin", "0", "0", "inf"],
        ["grid-export", "{missing}", "--counts", "2", "2", "2", "--step", "1", "nan", "1"],
        ["grid-export", "{missing}", "--counts", "2", "2", "2", "--step", "inf", "1", "1"],
    ],
)
def test_out_of_range_flag_values_exit_1(tmp_path, capsys, argv):
    paths = {
        "z1": write_spec(tmp_path, "z1.json", z_spec(1.0)),
        "z2": write_spec(tmp_path, "z2.json", z_spec(2.0)),
        "missing": str(tmp_path / "missing.json"),
    }
    assert run([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"rho2v {argv[0]}: --") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["invert"],
        ["invert", "x.json", "--bogus"],
        ["invert", "x.json", "--lebedev-order", "7"],
        # flags a command does not read are not accepted either
        ["invert", "x.json", "--tol", "0.1"],
        ["lst", "a.json", "b.json", "--seeds", "5"],
        ["grid-export", "x.json", "--counts", "2", "2", "2", "--json-indent", "2"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    assert f"rho2v {argv[0]}: error: " in capsys.readouterr().err


def test_no_command_prints_help_and_exits_1(capsys):
    assert run([]) == 1
    assert capsys.readouterr().out.startswith("usage: rho2v")


@pytest.mark.parametrize(
    "error,code",
    [
        (SpecError, 1),
        (OptionError, 1),
        (EmptyResult, 1),
        (OSError, 1),
        (OutOfScope, 3),
        (MassMismatch, 4),
        (NonMonotoneCumulative, 4),
    ],
)
def test_error_exit_code_table(monkeypatch, capsys, error, code):
    def fail(path):
        raise error("boom")

    monkeypatch.setattr(cli, "load_spec", fail)
    assert run(["verify-cusp", "x.json"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rho2v verify-cusp: boom\n"


# --- misc ----------------------------------------------------------------------------

def test_tolerances_dump(capsys):
    assert run(["--tolerances"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {
        "radial_derivative",
        "topology",
        "cusp_verification",
        "audit",
        "local_scaling",
        "supported_lebedev_orders",
    }
    assert data["topology"]["seeds_per_axis"] == 8


def test_report_round_trips(tmp_path):
    spec = write_spec(tmp_path, "h.json", HYDROGEN)
    out = tmp_path / "r.json"
    assert run(["verify-cusp", spec, "--output", str(out)]) == 0
    text = out.read_text()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


GAUSSIAN = {
    "electron_count": 1,
    "terms": [{"kind": "gaussian", "center": [0, 0, 0], "coefficient": 1.0, "exponent": 0.8}],
}
MIXTURE = {
    "electron_count": 1,
    "normalize": True,
    "terms": [
        {"kind": "slater_s", "center": [0, 0, 0], "coefficient": 0.7, "exponent": 1.3},
        {"kind": "gaussian", "center": [0, 0, 0], "coefficient": 0.2, "exponent": 0.6, "power": 2},
    ],
}


@pytest.mark.parametrize("indent", [0, 2, 4])
@pytest.mark.parametrize(
    "command",
    [
        ("invert", "h", "--seeds", "5"),
        ("invert", "g", "--seeds", "5"),
        ("verify-cusp", "h"),
        ("audit", "h", "z2"),
        ("lst", "h", "z2", "--grid-points", "64"),
        ("lst", "mix", "h", "--grid-points", "64"),
    ],
)
def test_reports_are_json_dumps_byte_for_byte(tmp_path, command, indent):
    specs = {"h": HYDROGEN, "g": GAUSSIAN, "z2": z_spec(2.0), "mix": MIXTURE}
    argv = [write_spec(tmp_path, f"{a}.json", specs[a]) if a in specs else a for a in command]
    out = tmp_path / "report.json"
    assert run([*argv, "--json-indent", str(indent), "--output", str(out)]) in (0, 2)
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=indent, sort_keys=True) + "\n"


# SHA-256 of the "result" section of the rendered report, recorded with the
# terms-batched radial kernel; paths and input hashes vary and are left out.
# lst re-recorded when the solver's brackets came from a table of the target's
# charges: f moved by at most 2.2e-16 relative; and again when the solver lost
# its Newton polish and its 1e-15 bohr step floor: f moved by at most 2.6e-16
# relative and f_prime by at most 6.8e-15 relative
RESULT_DIGESTS = {
    "lst": "cde020c08bb4a65d908de4626ec86daafd913164e5c3fa3e8180f46b51692653",
    "audit": "71a901cc8bebcca7231d1a1ecac907c2a3a468fda6a4f23320e76cfe8377a56a",
}
TWO_ELECTRONS = {
    "electron_count": 2,
    "normalize": True,
    "terms": [
        {"kind": "slater_s", "center": [0, 0, 0], "coefficient": 0.8, "exponent": 1.7},
        {"kind": "slater_s", "center": [0, 0, 0], "coefficient": 0.3, "exponent": 0.9, "power": 1},
        {"kind": "gaussian", "center": [0, 0, 0], "coefficient": 0.2, "exponent": 1.1, "power": 2},
    ],
}


# SHA-256 of whole lst outputs on a 2048-point pair of concentric mixtures shaped
# as perfbench's (Slater powers 0 and 1-2, a Gaussian of power 0-2, two electrons,
# normalized), with spec paths relative to the working directory: the report at
# --json-indent 2, 0 and 4 and the --table file, recorded while cmd_lst still
# built one dict per table row; the reports re-recorded when the solver's
# brackets came from a table of the target's charges (f moved by at most
# 3.1e-16 relative, the 12-digit table not at all), and again when the solver
# lost its Newton polish and its 1e-15 bohr step floor (f moved by at most
# 4.1e-16 relative and f_prime by at most 7.1e-15 relative, the table not at all)
LST_OUTPUT_DIGESTS = {
    "2": "a01d62195eb8389667cf88ea796d7066921200a48f603900b518c4d6efb34e0b",
    "0": "f174250bbd8e2f7065602b5aefe8ad152df52c7b84317debd7558c173a1f204d",
    "4": "0b3ca1821209f42d3e2de8eb93e0a2038dba378f44fae33af74c6efca41174ef",
    "table": "d3e22f66766967a7139bc10f74d6cb303184d8cae0238f88918660a35acd9e04",
}


def concentric_mixture(slater0, slater_n, gaussian_n):
    """Two electrons in three normalized terms at one off-origin center; each
    argument is (coefficient, exponent, power)."""
    kinds = ("slater_s", "slater_s", "gaussian")
    terms = [
        {"kind": kind, "center": [0.4, -1.1, 0.7], "coefficient": c, "exponent": e, "power": n}
        for kind, (c, e, n) in zip(kinds, (slater0, slater_n, gaussian_n))
    ]
    return {"electron_count": 2, "normalize": True, "terms": terms}


@pytest.mark.parametrize("indent", ["2", "0", "4"])
def test_lst_outputs_are_pinned(tmp_path, monkeypatch, indent):
    monkeypatch.chdir(tmp_path)
    write_spec(tmp_path, "source.json", concentric_mixture((0.74, 1.62, 0), (0.31, 0.97, 2), (0.27, 1.15, 1)))
    write_spec(tmp_path, "target.json", concentric_mixture((0.58, 2.21, 0), (0.44, 0.63, 1), (0.12, 0.41, 2)))
    argv = ["lst", "source.json", "target.json", "--grid-points", "2048", "--json-indent", indent]
    assert run([*argv, "--output", "report.json", "--table", "table.txt"]) == 0
    for name, path in ((indent, "report.json"), ("table", "table.txt")):
        assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == LST_OUTPUT_DIGESTS[name]


@pytest.mark.parametrize("command", ["lst", "audit"])
def test_report_result_bytes_are_pinned(tmp_path, command):
    specs = {
        "lst": (MIXTURE | {"electron_count": 2}, TWO_ELECTRONS),
        "audit": (z_spec(1.3, offset=0.2), z_spec(2.1, offset=-0.4)),
    }
    paths = [write_spec(tmp_path, f"{i}.json", spec) for i, spec in enumerate(specs[command])]
    out = tmp_path / "report.json"
    assert run([command, *paths, "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    result = text[text.index('\n  "result": ') : text.index('\n  "tolerances": ')]
    assert hashlib.sha256(result.encode()).hexdigest() == RESULT_DIGESTS[command]


# SHA-256 of the "result" section of invert reports: z30 and 3center at --seeds 5,
# h at the default 8 seeds per axis and a power-0 Gaussian with no cusp (exit 2) at
# --seeds 5; the search must land on the same points bit for bit.  Re-recorded when
# the reports gained each reading's ladder fields and the ascent stepped back to
# the peak of a crossed kink: 3center and h moved by at most 1.4e-14 bohr and
# 9.3e-12 in charge, z30 and gaussian only by the new fields; and again when a
# downhill trial that had passed the peak stepped to it instead of halving:
# 3center and h moved by at most 1.3e-14 bohr and 2.5e-11 in charge; and again
# when the ascent took a V in ln rho at a kink: 3center and h moved by at most
# 8.5e-15 bohr and 2.0e-11 in charge; and 3center again when Newton started each
# pair of extrema at the lowest sample of its segment: one skipped point's x went
# 0.03873837694408491 -> 0.038738376944084885, nothing else moved; and 3center and
# gaussian again when the ascent took the peak of a parabola of ln rho where the
# four data of a trial fit one: two 3center nuclei moved by 2.0e-14 and 1.7e-14
# bohr and 1.1e-11 in charge, and the Gaussian peak by 1.0e-15 bohr, where the
# ascent now ends and Newton leaves it, with its gradient_norm_floor in the 11th digit
INVERT_DIGESTS = {
    "z30": "df53c8a3f970ee6308497fa713eb9a56e32c40ff654ca951535afcd51747a2ed",
    "3center": "86209973af27b90579a69fee4ac4c0eb5a418f91ec6fad7068de71409427ce6f",
    "h": "b9134e4ed92e44b48eca6ba688774c9301f9585a7b6083e458505ea2bccd65aa",
    "gaussian": "2c090fb1eb01112c08ebe83f56f469c34b35974e7ddd5e395470ac175ceab209",
}
INVERT_SPECS = {
    "z30": (spec_of(model_from_frame(NuclearFrame([[0.31, -0.17, 0.05]], [30.0]))), ["--seeds", "5"], 0),
    "3center": (
        spec_of(model_from_frame(NuclearFrame([[0, 0, 0], [0, 0.2, 2.4], [2.1, -0.3, 0.6]], [2.0, 1.0, 1.5]))),
        ["--seeds", "5"],
        0,
    ),
    "h": (spec_of(model_from_frame(NuclearFrame([[0.4, -0.7, 1.1]], [1.0]))), [], 0),
    "gaussian": (
        {
            "electron_count": 1,
            "terms": [{"kind": "gaussian", "center": [0.7, -1.2, 0.4], "coefficient": 1.0, "exponent": 0.8}],
        },
        ["--seeds", "5"],
        2,
    ),
}


@pytest.mark.parametrize("name", sorted(INVERT_SPECS))
def test_invert_result_bytes_are_pinned(tmp_path, name):
    document, flags, code = INVERT_SPECS[name]
    spec = write_spec(tmp_path, "spec.json", document)
    out = tmp_path / "report.json"
    assert run(["invert", spec, *flags, "--output", str(out)]) == code
    text = out.read_text(encoding="utf-8")
    result = text[text.index('\n  "result": ') : text.index('\n  "tolerances": ')]
    assert hashlib.sha256(result.encode()).hexdigest() == INVERT_DIGESTS[name]


def test_invert_reports_each_charges_ladder(tmp_path):
    spec = write_spec(tmp_path, "h.json", HYDROGEN)
    out = tmp_path / "report.json"
    assert run(["invert", spec, "--seeds", "5", "--output", str(out)]) == 0
    (center,) = json.loads(out.read_text(encoding="utf-8"))["result"]["estimated_centers"]
    estimate = radial_derivative_at_center(load_spec(spec)[0], center["position"])
    assert center["log_derivative"] == estimate.log_derivative
    assert center["charge_uncertainty_estimate"] == 0.5 * estimate.uncertainty
    assert (center["ladder_converged"], center["ladder_levels_used"]) == (True, estimate.levels_used)


def test_a_cusp_reading_that_did_not_converge_is_skipped_with_its_uncertainty():
    # 1e-8 bohr from a power-2 slater_s center the ladder reads about -4 unconverged
    prim = RadialPrimitive(PrimitiveKind.SLATER_S, 1.0, 1.0, 2)
    point = classify(DensityModel(terms=((np.zeros(3), prim),)), (1e-8, 0.0, 0.0))
    reason = cli._skip_reason(point)
    assert reason.startswith("cusp reading did not converge: log-derivative -3.99")
    assert f"uncertainty estimate {point.log_derivative_uncertainty_estimate:.3g}" in reason
    gaussian = RadialPrimitive(PrimitiveKind.GAUSSIAN, 1.0, 0.8, 0)
    smooth = classify(DensityModel(terms=((np.zeros(3), gaussian),)), np.zeros(3))
    assert cli._skip_reason(smooth).startswith("smooth critical point (rank 3, signature -3)")


Z3Z1_1BOHR = spec_of(model_from_frame(NuclearFrame([[0, 0, 0], [0, 0, 1]], [3.0, 1.0])))
# the Z3/Z1 density under a declared frame whose second center sits 4 bohr from
# the Z=1 cusp: one match, one spurious estimate, one missed center
MISSED_CENTER = Z3Z1_1BOHR | {"frame": [{"position": [0, 0, 0], "charge": 2.0}, {"position": [0, 0, 5], "charge": 1.0}]}
# SHA-256 of the "result" section of each report branch that holds library
# records (critical points, center matches, cusp checks, a cross-check verdict),
# recorded while the CLI still copied every record field by field; verify-cusp-fails
# re-recorded when a claimed nucleus had to be a cusp to pass, which fails the
# second center, 4 bohr from any nucleus, as well, and again when each cusp check
# gained its ladder_converged flag, and then its ladder_levels_used and
# log_derivative_uncertainty_estimate (the one change each time: deleting those
# keys gives the earlier digest back); the three invert branches
# re-recorded when the reports gained each reading's ladder fields and the ascent
# stepped back to the peak of a crossed kink (snap-charges and missed-center moved
# by at most 8.5e-15 bohr and 7.4e-11 in charge, two-smooth-maxima only by the new
# fields), and snap-charges and missed-center again when a downhill trial that had
# passed the peak stepped to it instead of halving (at most 8.5e-15 bohr and
# 2.7e-11 in charge), and once more when the ascent took a V in ln rho at a kink
# (at most 1.6e-14 bohr and 3.9e-11 in charge).  The three invert branches again
# when Newton started each pair of extrema at the lowest sample of its segment:
# the saddle of snap-charges and missed-center went (7.0e-46, 7.0e-46,
# 0.9366326804175686) -> (0.0, 0.0, 0.9366326804175685); in two-smooth-maxima the
# saddle went to z = 1.25 exactly with gradient_norm 0.0, and the maximum's z, its
# gradient_norm (2.8e-17 -> 0.0) and both floors moved in their last digits.
# snap-charges and missed-center again when the ascent took the peak of a parabola
# of ln rho where the four data of a trial fit one: the Z=1 nucleus moved by 1.4e-14
# bohr and 1.8e-11 in charge
BRANCH_DIGESTS = {
    "invert-snap-charges": "2317e060a55c0498ee2c122e022c60af72f75fe9268f7142f5ff80f78318c5eb",
    "invert-missed-center": "79e5b1a5c6266e566ea6b83be3bfe8fddd0f86effb97f1be5f2374ffe81f87c6",
    "verify-cusp-fails": "993226f113ff8995cacee6d718d9b82f9a2ed3573782ab5a67e2cf464ae65dcb",
    "audit-cusp-cross-check": "b2c1e2392be88301b46902a88f754c8089dd576f18fb3e5de1f278b93bded069",
    "invert-two-smooth-maxima": "97e612954b044e2ad718f84e9ae0f61d6cf4da926394678605486be89eadfb47",
}
# name: (command, spec documents, flags, exit code, the result key of the branch)
BRANCH_CASES = {
    "invert-snap-charges": ("invert", [Z3Z1_1BOHR], ["--seeds", "5", "--snap-charges"], 0, "snapped_charges"),
    "invert-missed-center": ("invert", [MISSED_CENTER], ["--seeds", "5"], 0, "match"),
    "verify-cusp-fails": ("verify-cusp", [MISSED_CENTER], [], 2, "checks"),
    "audit-cusp-cross-check": ("audit", [z_spec(1.0), z_spec(1.0011)], ["--tol", "1e-3"], 0, "cusp_cross_check"),
    "invert-two-smooth-maxima": (
        "invert",
        [
            {
                "electron_count": 1,
                "terms": [
                    {"kind": "gaussian", "center": [0, 0, z], "coefficient": 1.0, "exponent": 0.8}
                    for z in (0.0, 2.5)
                ],
            }
        ],
        ["--seeds", "5"],
        2,
        "smooth_critical_points",
    ),
}


@pytest.mark.parametrize("name", sorted(BRANCH_CASES))
def test_report_branch_result_bytes_are_pinned(tmp_path, name):
    command, documents, flags, code, key = BRANCH_CASES[name]
    paths = [write_spec(tmp_path, f"{i}.json", document) for i, document in enumerate(documents)]
    out = tmp_path / "report.json"
    assert run([command, *paths, *flags, "--output", str(out)]) == code
    text = out.read_text(encoding="utf-8")
    assert key in json.loads(text)["result"]
    result = text[text.index('\n  "result": ') : text.index('\n  "tolerances": ')]
    assert hashlib.sha256(result.encode()).hexdigest() == BRANCH_DIGESTS[name]


# SHA-256 of stdout, a NUL byte and stderr, with the exit code, of rho2v's help
# and usage output in an 80-column terminal under Python 3.11's argparse,
# recorded while every call built the parser of every command
HELP_DIGESTS = {
    "--help": (0, "48d6ab85f84721d760026f06acba7cf2b4480a1e36c76ae90e1f2d15ffd23e84"),
    "": (1, "48d6ab85f84721d760026f06acba7cf2b4480a1e36c76ae90e1f2d15ffd23e84"),
    "bogus": (1, "24189a5d76ae2d05e645a8e6f3d81f79274d08a364290120bdd7fddba5f0d94a"),
    "invert --help": (0, "4a9965391e2b9fb457dd20d1fdd61bc132efac4a2c8bec755018fac6ac0064ef"),
    "verify-cusp --help": (0, "2f5fc6c46b52eaa43f6cea82170c27eb7f9f03b633f4e5fe5563997200c4b5a1"),
    "audit --help": (0, "3878fd0d578b8688032baa37ba49306d904bce1af6475dab159147aa3d9a926d"),
    "lst --help": (0, "f91972fea4bedde92b730e561537b2296fe615e4e0b578e25d5c9daa82f33d04"),
    "grid-export --help": (0, "017d366d9192ed3ba13fdb79f3c16511cf6a028ee7e2d184fbc63e4810ebf98f"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse words its help differently in other versions")
@pytest.mark.parametrize("argv", sorted(HELP_DIGESTS))
def test_help_and_usage_bytes_are_pinned(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    digest = hashlib.sha256((captured.out + "\0" + captured.err).encode()).hexdigest()
    assert (code, digest) == HELP_DIGESTS[argv]


# the same digests of the outputs that no argparse wording enters, recorded
# while the cli imported every library module up front
OUTPUT_DIGESTS = {
    "--tolerances": (0, "265c36ce83e12755d64dfc69a236c9efc679f150eee9224d66c76cf79f04408d"),
    "--version": (0, "ba86b9346c8e7cb6c098c7fb6c0c566ddf58d90b3ccc6ad4010c9504eb347bfd"),
}


@pytest.mark.parametrize("argv", sorted(OUTPUT_DIGESTS))
def test_tolerances_and_version_bytes_are_pinned(argv, capsys):
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    digest = hashlib.sha256((captured.out + "\0" + captured.err).encode()).hexdigest()
    assert (code, digest) == OUTPUT_DIGESTS[argv]


@pytest.mark.parametrize(
    "argv",
    [
        ["invert", "s.json", "--seeds", "5", "--snap-charges"],
        ["verify-cusp", "s.json", "--tol", "1e-3", "--lebedev-order", "50"],
        ["audit", "a.json", "b.json", "--json-indent", "0"],
        ["lst", "a.json", "b.json", "--grid-points", "64", "--table", "t.txt"],
        ["grid-export", "s.json", "--counts", "2", "3", "4"],
    ],
)
def test_the_parser_of_one_command_reads_what_the_full_parser_reads(argv):
    one = vars(cli.build_parser(argv[0]).parse_args(argv[1:]))
    assert one == vars(cli.build_parser().parse_args(argv))
    if argv[0] == "grid-export":  # defaults are tuples, never a list shared across calls
        assert one["origin"] == (0.0, 0.0, 0.0) and one["step"] == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_a_named_command_builds_one_parser(command, tmp_path, monkeypatch, capsys):
    # neither the rho2v parser nor a subparsers action: the command's own parser alone
    built = []

    class Counted(cli._ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_ArgumentParser", Counted)
    missing = str(tmp_path / "missing.json")
    operands = {"audit": [missing, missing], "lst": [missing, missing], "grid-export": [missing, "--counts", "2", "2", "2"]}
    assert run([command, *operands.get(command, [missing])]) == 1
    assert "missing.json" in capsys.readouterr().err
    assert built == [f"rho2v {command}"]


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_the_help_of_a_named_command_is_its_subparser_help(command, capsys):
    subparsers = cli.build_parser()._subparsers._group_actions[0]
    with pytest.raises(SystemExit) as exc:
        run([command, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == subparsers.choices[command].format_help()


# ten terms on three sites, in interleaved order; frame charges from the exact cusp slopes
SITES = ([0.3, -0.2, 0.1], [1.9, 0.4, -0.6], [-0.8, 1.7, 0.9])
SHARED_SITES = {
    "electron_count": 1,
    "frame": [
        {"position": p, "charge": z}
        for p, z in zip(SITES, [1.5519070559102681, 1.1612485937257069, 1.4489675542723086])
    ],
    "terms": [
        {"kind": kind, "center": SITES[site], "coefficient": c, "exponent": e, "power": n}
        for kind, site, c, e, n in [
            ("slater_s", 0, 0.8, 1.7, 0),
            ("slater_s", 1, 0.6, 1.3, 0),
            ("slater_s", 2, 0.5, 2.1, 0),
            ("slater_s", 0, 0.05, 1.2, 1),
            ("gaussian", 2, 0.2, 1.4, 0),
            ("gaussian", 1, 0.04, 0.7, 1),
            ("gaussian", 0, 0.3, 0.9, 2),
            ("slater_s", 2, 0.03, 0.9, 1),
            ("slater_s", 1, 0.2, 1.1, 2),
            ("gaussian", 2, 0.1, 0.5, 2),
        ]
    ],
}
# SHA-256 of the 24^3 cube text and of the verify-cusp "result" section of
# SHARED_SITES, recorded before the kernel took separations once per site; the
# verify-cusp one re-recorded when each cusp check gained its ladder_converged
# flag, and again when it gained ladder_levels_used and
# log_derivative_uncertainty_estimate (deleting those keys gives the earlier
# digest back each time)
SHARED_SITES_DIGESTS = {
    "grid-export": "14aa151d5ce21a8b2187784d15d5baa530954bbcb9244a78f49cf8562d1023a2",
    "verify-cusp": "ce4b56432f884be2fd3b29b4fd1f2c050e1c58469f1074eca6279e986d185d1b",
}


def test_shared_site_outputs_are_pinned(tmp_path):
    spec = write_spec(tmp_path, "spec.json", SHARED_SITES)
    cube, out = tmp_path / "d.cube", tmp_path / "report.json"
    grid = ["--counts", "24", "24", "24", "--origin", "-3", "-3", "-3", "--step", "0.25", "0.25", "0.25"]
    assert run(["grid-export", spec, *grid, "--output", str(cube)]) == 0
    assert hashlib.sha256(cube.read_bytes()).hexdigest() == SHARED_SITES_DIGESTS["grid-export"]
    assert run(["verify-cusp", spec, "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    result = text[text.index('\n  "result": ') : text.index('\n  "tolerances": ')]
    assert hashlib.sha256(result.encode()).hexdigest() == SHARED_SITES_DIGESTS["verify-cusp"]


# ten terms on three sites in grid-verify's pattern: a Slater term of power 0
# on each site and seven shells of Slater powers 0-2 and Gaussian powers 0-2;
# frame charges from the exact cusp slopes
GRID_SITES = ([-1.1, 0.6, 1.3], [0.7, -1.4, -0.5], [1.6, 1.2, -1.0])
GRID_MIXTURE = {
    "electron_count": 1,
    "frame": [
        {"position": p, "charge": z}
        for p, z in zip(GRID_SITES, [1.3902273220030898, 1.159168318925718, 2.152754301098178])
    ],
    "terms": [
        {"kind": kind, "center": GRID_SITES[site], "coefficient": c, "exponent": e, "power": n}
        for kind, site, c, e, n in [
            ("slater_s", 0, 0.7, 1.9, 0),
            ("slater_s", 1, 0.45, 1.2, 0),
            ("slater_s", 2, 0.9, 2.3, 0),
            ("gaussian", 1, 0.3, 0.6, 2),
            ("slater_s", 2, 0.08, 1.5, 1),
            ("gaussian", 0, 0.25, 1.8, 0),
            ("slater_s", 0, 0.35, 0.9, 2),
            ("gaussian", 2, 0.06, 0.45, 1),
            ("slater_s", 1, 0.2, 2.4, 2),
            ("gaussian", 0, 0.15, 1.1, 2),
        ]
    ],
}
# counts -> (origin, step, SHA-256 of the cube text), recorded while grid-export
# still evaluated a (P, 3) array of the grid points; the second grid steps
# backwards along x, and its 8815 values cross one kernel chunk boundary
GRID_CUBES = {
    (24, 24, 24): (
        (-5.1, -5.4, -5.0),
        (0.469565, 0.469565, 0.443478),
        "60bcda866062b2911ad5279876b1bf9b59b5465e1c69ba4db135cb9fae0af8d8",
    ),
    (5, 41, 43): (
        (5.6, -5.4, -5.0),
        (-2.7, 0.27, 0.2452381),
        "a6b137a9a58d2b8e3e9f54196f25cc73b0d874caf35f84faddcab5d86542060b",
    ),
}


@pytest.mark.parametrize("counts", sorted(GRID_CUBES))
def test_grid_mixture_cubes_are_pinned(tmp_path, counts):
    spec = write_spec(tmp_path, "mix.json", GRID_MIXTURE)
    origin, step, digest = GRID_CUBES[counts]
    cube = tmp_path / "m.cube"
    argv = ["grid-export", spec, "--counts", *map(str, counts), "--output", str(cube)]
    assert run(argv + ["--origin", *map(repr, origin), "--step", *map(repr, step)]) == 0
    assert hashlib.sha256(cube.read_bytes()).hexdigest() == digest


def lst_report(columns):
    return {"tool": "rho2v", "command": "lst", "result": {"electron_count": 1.0, "table": columns}}


def as_rows(columns):
    """The table of a column mapping as json writes it: a list of row objects."""
    return [dict(zip(columns, row)) for row in zip(*(np.asarray(c).tolist() for c in columns.values()))]


def test_lst_table_rendering_spells_non_finite_values_as_json():
    r = np.array([0.1, 0.2, 0.3, 0.4])
    columns = {"r": r, "f": 0.5 * r, "f_prime": np.array([0.5, math.inf, -math.inf, math.nan]), "q_residual": 1e-16 * r}
    for indent in (0, 2, 4):
        text = render_report(lst_report(columns), indent)
        assert text == json.dumps(lst_report(as_rows(columns)), indent=indent, sort_keys=True) + "\n"
        assert "Infinity" in text and "NaN" in text
    # a list table goes through json as it is, whatever its rows hold
    rows = as_rows(columns)
    rows[1] = {"r": 1, "f": 0.5}
    assert render_report(lst_report(rows)) == json.dumps(lst_report(rows), indent=2, sort_keys=True) + "\n"


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e-300, 1.7976931348623157e308, 5e-324]
CELLS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.floats(1e295, 1e305), st.floats(-1e-295, -1e-305))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    keys=st.lists(st.text(max_size=4), min_size=0, max_size=3, unique=True),
    odd_key=st.sampled_from(['%', '%s', '"', 'q"%d']),
    rows=st.integers(1, 12),
    indent=st.sampled_from([0, 2, 4]),
)
def test_column_table_renders_as_json_dumps_of_its_rows(data, keys, odd_key, rows, indent):
    names = list(dict.fromkeys([*keys, odd_key]))
    columns = {k: np.array(data.draw(st.lists(CELLS, min_size=rows, max_size=rows)), dtype=float) for k in names}
    expected = json.dumps(lst_report(as_rows(columns)), indent=indent, sort_keys=True) + "\n"
    assert render_report(lst_report(columns), indent) == expected


def test_importing_the_cli_loads_no_scipy(fresh_python):
    done = fresh_python("-c", "import sys, rho2v.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert (done.returncode, done.stdout.strip()) == (0, "[]")


# the rho2v modules that `python -m rho2v <command>` loads: the cli's own
# imports (numpy, errors, density with radial, lebedev for the --lebedev-order
# choices, specio) and those of the library code the command runs
CLI_MODULES = {
    "rho2v",
    "rho2v.cli",
    "rho2v.density",
    "rho2v.errors",
    "rho2v.lebedev",
    "rho2v.radial",
    "rho2v.specio",
}
SEARCH_MODULES = {"rho2v.inversion", "rho2v.spherical", "rho2v.topology"}
COMMAND_MODULES = {
    "invert": SEARCH_MODULES,
    "verify-cusp": SEARCH_MODULES,
    "audit": SEARCH_MODULES | {"rho2v.audit"},
    "lst": {"rho2v.scaling"},
    "grid-export": {"rho2v.cube"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(command, tmp_path, capsys, fresh_python):
    # in a new interpreter, since in this one the other tests have loaded every
    # module, which would hide an import that a command misses
    h = write_spec(tmp_path, "h.json", HYDROGEN)
    z2 = write_spec(tmp_path, "z2.json", z_spec(2.0))
    argv = {
        "invert": ["invert", h, "--seeds", "5"],
        "verify-cusp": ["verify-cusp", h],
        "audit": ["audit", h, z2],
        "lst": ["lst", h, z2, "--grid-points", "64"],
        "grid-export": ["grid-export", h, "--counts", "3", "4", "5"],
    }[command]
    done = fresh_python("-X", "importtime", "-m", "rho2v", *argv)
    lines = done.stderr.splitlines(keepends=True)
    timed = [line.rpartition("|")[2].strip() for line in lines if line.startswith("import time:")]
    assert {name for name in timed if name.split(".")[0] == "rho2v"} == CLI_MODULES | COMMAND_MODULES[command]
    stderr = "".join(line for line in lines if not line.startswith("import time:"))
    code = main(argv)
    captured = capsys.readouterr()
    assert (done.returncode, done.stdout, stderr) == (code, captured.out, captured.err)
    assert code == 0 and done.stdout
