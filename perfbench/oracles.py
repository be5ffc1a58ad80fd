"""Analytic oracles for the outputs of the rho2v CLI.

Each ``check_*`` factory returns a checker ``(exit_code, stdout, stderr) ->
list of problems``; an empty list means the output is correct.  The
oracles use closed forms and their own density evaluation, never rho2v
code, so a defect in a layer cannot hide by also corrupting its check.
"""

from __future__ import annotations

import json
import math

import numpy as np


def density(terms, points) -> np.ndarray:
    """Density of spec terms at points (M, 3), evaluated independently."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(len(pts))
    for t in terms:
        r = np.linalg.norm(pts - np.asarray(t["center"], dtype=float), axis=1)
        if t["kind"] == "slater_s":
            env = np.exp(-2.0 * t["exponent"] * r)
        else:
            env = np.exp(-t["exponent"] * r * r)
        out += t["coefficient"] * r ** t.get("power", 0) * env
    return out


def cusp_slope(terms, center) -> float:
    """One-sided slope of the spherical average at a term center.

    Slater power 0 contributes -2*zeta*c, Slater and Gaussian power 1
    contribute c; every other term is smooth there and contributes 0.
    """
    slope = 0.0
    for t in terms:
        if np.linalg.norm(np.asarray(t["center"]) - np.asarray(center)) > 1e-12:
            continue
        power = t.get("power", 0)
        if t["kind"] == "slater_s" and power == 0:
            slope -= 2.0 * t["exponent"] * t["coefficient"]
        elif power == 1:
            slope += t["coefficient"]
    return slope


def _report(stdout: str, problems: list):
    try:
        return json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError) as err:
        problems.append(f"stdout is not a rho2v report: {err}")
        return None


def _expect_code(code: int, expected: int, problems: list) -> bool:
    if code != expected:
        problems.append(f"exit code {code}, expected {expected}")
        return False
    return True


def check_invert(positions, charges, pos_tol: float, charge_tol: float):
    """Every true center found once, within the gates; nothing spurious."""
    positions = np.asarray(positions, dtype=float)
    charges = np.asarray(charges, dtype=float)

    def check(code, stdout, stderr):
        problems: list = []
        if not _expect_code(code, 0, problems):
            return problems
        result = _report(stdout, problems)
        if result is None:
            return problems
        if result.get("status") != "ok":
            return problems + [f"status {result.get('status')!r}, expected 'ok'"]
        found = result["estimated_centers"]
        unmatched = list(range(len(found)))
        for j, (true_pos, true_z) in enumerate(zip(positions, charges)):
            dists = [np.linalg.norm(np.asarray(found[i]["position"]) - true_pos) for i in unmatched]
            if not dists or min(dists) > pos_tol:
                problems.append(f"missed center {j} (Z={true_z:g}) at {true_pos.tolist()}")
                continue
            i = unmatched.pop(int(np.argmin(dists)))
            if abs(found[i]["charge"] - true_z) > charge_tol:
                problems.append(f"center {j}: charge {found[i]['charge']!r}, expected {true_z:g}")
        if unmatched:
            problems.append(f"{len(unmatched)} spurious centers")
        match = result.get("match", {})
        if match.get("missed_true_indices") or match.get("spurious_estimated_indices"):
            problems.append(f"report lists missed/spurious centers: {match}")
        return problems

    return check


def check_no_cusps(center):
    """Cusp-free density: exit 2, smooth maximum at the center, zero slope."""
    center = np.asarray(center, dtype=float)

    def check(code, stdout, stderr):
        problems: list = []
        if not _expect_code(code, 2, problems):
            return problems
        result = _report(stdout, problems)
        if result is None:
            return problems
        if result.get("status") != "no_cusps_found":
            return problems + [f"status {result.get('status')!r}, expected 'no_cusps_found'"]
        points = result.get("smooth_critical_points") or []
        if not any(np.linalg.norm(np.asarray(p["position"]) - center) <= 1e-4 for p in points):
            problems.append("no smooth critical point at the Gaussian center")
        if any(abs(p["log_derivative"]) > 1e-6 for p in points):
            problems.append("a smooth point has |log_derivative| > 1e-6")
        return problems

    return check


def check_verify_cusp(terms, frame):
    """All cusp relations pass and each slope matches its closed form."""

    def check(code, stdout, stderr):
        problems: list = []
        if not _expect_code(code, 0, problems):
            return problems
        result = _report(stdout, problems)
        if result is None:
            return problems
        if not result.get("all_passed"):
            problems.append("all_passed is false")
        checks = result.get("checks", [])
        if len(checks) != len(frame):
            return problems + [f"{len(checks)} checks for {len(frame)} centers"]
        for c, entry in zip(checks, frame):
            exact = cusp_slope(terms, entry["position"])
            if abs(c["lhs_slope"] - exact) > 1e-6 * abs(exact):
                problems.append(f"slope {c['lhs_slope']!r} at {entry['position']}, exact {exact!r}")
        return problems

    return check


def cube_header(spec, spec_name: str, origin, step, counts) -> list:
    """Header and atom lines of a Gaussian cube file, by the cube format."""
    frame = spec.get("frame") or []
    lines = ["rho2v density export", f"source: {spec_name}"]
    lines.append(f"{len(frame):5d} " + " ".join(f"{x:12.6f}" for x in origin))
    for i, n in enumerate(counts):
        axis = [step[i] if k == i else 0.0 for k in range(3)]
        lines.append(f"{n:5d} " + " ".join(f"{x:12.6f}" for x in axis))
    for atom in frame:
        z = atom["charge"]
        lines.append(f"{int(round(z)):5d} {z:12.6f} " + " ".join(f"{x:12.6f}" for x in atom["position"]))
    return lines


def check_grid_export(spec, spec_name: str, origin, step, counts, samples: int, seed: int):
    """Header exact; sampled values equal an independent evaluation as printed."""
    header = cube_header(spec, spec_name, origin, step, counts)
    total = int(np.prod(counts))

    def check(code, stdout, stderr):
        problems: list = []
        if not _expect_code(code, 0, problems):
            return problems
        lines = stdout.split("\n")
        if lines[: len(header)] != header:
            return problems + ["cube header or atom lines differ"]
        body = lines[len(header) :]
        if body[-1] != "" or len(body) - 1 != math.ceil(total / 6):
            return problems + ["cube has the wrong number of value lines"]
        values = np.array(" ".join(body).split(), dtype=float)
        if len(values) != total:
            return problems + [f"{len(values)} values, expected {total}"]
        idx = np.random.default_rng(seed).choice(total, size=min(samples, total), replace=False)
        ijk = np.stack(np.unravel_index(idx, counts), axis=1)  # z fastest
        exact = density(spec["terms"], np.asarray(origin) + ijk * np.asarray(step))
        # 13.5E prints 5 decimals of the mantissa: allow half a unit of the last
        printed = values[idx]
        with np.errstate(divide="ignore"):
            ulp = 1e-5 * 10.0 ** np.floor(np.log10(np.abs(printed)) + 1e-9)
        bad = np.abs(printed - exact) > 0.5 * (1.0 + 1e-9) * ulp + 1e-300
        if np.any(bad):
            problems.append(f"{int(bad.sum())} sampled cube values differ from the density")
        return problems

    return check


def check_audit(z1: float, o1: float, z2: float, o2: float):
    """Concentric hydrogenic pair: every energy equals its closed form to 1e-8."""
    exact = {
        "E1": -0.5 * z1 * z1 + o1,
        "E2": -0.5 * z2 * z2 + o2,
        "cross12": 0.5 * z2 * z2 - z1 * z2 + o1,
        "cross21": 0.5 * z1 * z1 - z1 * z2 + o2,
        "diff_integral_rho2": (z2 - z1) * z2 + o1 - o2,
        "diff_integral_rho1": (z2 - z1) * z1 + o1 - o2,
    }
    case = "I" if z1 == z2 else "II"

    def check(code, stdout, stderr):
        problems: list = []
        if not _expect_code(code, 0, problems):
            return problems
        result = _report(stdout, problems)
        if result is None:
            return problems
        for key, value in exact.items():
            if abs(result[key] - value) > 1e-8:
                problems.append(f"{key} = {result[key]!r}, exact {value!r}")
        if result["case"] != case:
            problems.append(f"case {result['case']!r}, expected {case!r}")
        if result["strict1"] != (z1 != z2) or result["strict2"] != (z1 != z2):
            problems.append("strict inequality flags wrong")
        return problems

    return check


def _lst_table(code, stdout, problems):
    if not _expect_code(code, 0, problems):
        return None, None
    doc = None
    try:
        doc = json.loads(stdout)
    except ValueError as err:
        problems.append(f"stdout is not JSON: {err}")
        return None, None
    table = doc["result"]["table"]
    r = np.array([row["r"] for row in table])
    f = np.array([row["f"] for row in table])
    q = np.array([row["q_residual"] for row in table])
    target = doc["tolerances"]["local_scaling"]["q_residual"]
    if not np.all(q <= target):
        problems.append(f"max q_residual {q.max()!r} above the library target {target!r}")
    if not np.all(np.diff(f) > 0.0):
        problems.append("map f is not strictly increasing")
    return r, f


def check_lst_hydrogenic(z_source: float, z_target: float, points: int):
    """Hydrogenic to hydrogenic: f(r) = r * Z_source / Z_target to 1e-10."""

    def check(code, stdout, stderr):
        problems: list = []
        r, f = _lst_table(code, stdout, problems)
        if r is None:
            return problems
        if len(r) != points:
            return problems + [f"{len(r)} grid points, expected {points}"]
        exact = r * z_source / z_target
        err = np.abs(f - exact) / np.maximum(1.0, exact)
        if np.max(err) > 1e-10:
            problems.append(f"f deviates from r*Za/Zb by {np.max(err):.3e}")
        return problems

    return check


def check_lst_mixture(points: int):
    """Mixture to mixture: q_residual within target, monotone map."""

    def check(code, stdout, stderr):
        problems: list = []
        r, f = _lst_table(code, stdout, problems)
        if r is not None and len(r) != points:
            problems.append(f"{len(r)} grid points, expected {points}")
        return problems

    return check


def check_mass_mismatch():
    """Different electron counts: exit 4, nothing on stdout."""

    def check(code, stdout, stderr):
        problems: list = []
        _expect_code(code, 4, problems)
        if stdout:
            problems.append("a report was written despite the mismatch")
        if "electron counts differ" not in stderr:
            problems.append(f"stderr does not name the mismatch: {stderr!r}")
        return problems

    return check
