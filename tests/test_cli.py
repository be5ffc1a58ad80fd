"""End-to-end CLI behavior: spec parsing, reports, exit codes, cube export."""

import json
import math

import numpy as np
import pytest

from rho2v import cli
from rho2v.audit import CUSP_CHECK_SEEDS
from rho2v.cli import main
from rho2v.errors import (
    EmptyResult,
    MassMismatch,
    NonMonotoneCumulative,
    OptionError,
    OutOfScope,
    QuadratureNotConverged,
    SpecError,
)
from rho2v.scaling import Q_RESIDUAL_TARGET

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


def test_audit_multicenter_exit_3(tmp_path, capsys):
    data = json.loads(json.dumps(HYDROGEN))
    data["frame"].append({"position": [0.0, 0.0, 2.0], "charge": 1.0})
    s1 = write_spec(tmp_path, "multi.json", data)
    s2 = write_spec(tmp_path, "z1.json", z_spec(1.0))
    assert run(["audit", s1, s2]) == 3


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


def test_lst_mass_mismatch_exit_4(tmp_path, capsys):
    s1 = write_spec(tmp_path, "n1.json", z_spec(1.0))
    s2 = write_spec(tmp_path, "n2.json", z_spec(1.0, electrons=2))
    assert run(["lst", s1, s2]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rho2v lst: electron counts differ")


def test_lst_nonspherical_exit_3(tmp_path):
    data = json.loads(json.dumps(HYDROGEN))
    data["terms"].append(
        {"kind": "slater_s", "center": [0, 0, 2.0], "coefficient": 0.1, "exponent": 1.0}
    )
    s1 = write_spec(tmp_path, "two.json", data)
    s2 = write_spec(tmp_path, "z1.json", z_spec(1.0))
    assert run(["lst", s1, s2]) == 3


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


def test_grid_export_counts_too_small(tmp_path):
    spec = write_spec(tmp_path, "h.json", HYDROGEN)
    assert run(["grid-export", spec, "--counts", "1", "2", "2"]) == 1


# --- errors and usage ------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["invert", "{z1}", "--seeds", "3"],
        ["lst", "{z1}", "{z2}", "--grid-points", "2"],
        ["lst", "{z1}", "{z2}", "--grid-min", "0"],
        ["lst", "{z1}", "{z2}", "--grid-min", "5", "--grid-max", "1"],
        ["lst", "{z1}", "{z2}", "--grid-max", "inf"],
    ],
)
def test_out_of_range_flag_values_exit_1(tmp_path, capsys, argv):
    paths = {
        "z1": write_spec(tmp_path, "z1.json", z_spec(1.0)),
        "z2": write_spec(tmp_path, "z2.json", z_spec(2.0)),
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


@pytest.mark.parametrize(
    "error,code",
    [
        (SpecError, 1),
        (OptionError, 1),
        (EmptyResult, 1),
        (QuadratureNotConverged, 1),
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
