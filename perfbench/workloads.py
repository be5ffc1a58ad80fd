"""Seeded inputs and jobs for the perfbench workloads.

A workload is a list of Jobs: an argv for ``rho2v.cli.main`` plus the oracle
that checks its output.  Every input is derived from the workload seed and
written as a spec file; the program sees only those files.

invert-frames
    ``invert`` on a fixture corpus of nuclear frames, each under its own
    seeded rigid rotation and translation.  Its cost is the per-seed ascent
    in ``topology``, which calls the ``density`` kernel one point at a time.
grid-verify
    ``grid-export`` cubes and ``verify-cusp`` across Lebedev orders on seeded
    multi-center mixtures of Slater (powers 0-2) and Gaussian terms.  It
    calls the kernel in large batches and never enters ``topology``.
audit-lst
    ``audit`` on seeded concentric (Z1, Z2, offset) pairs and ``lst`` between
    concentric mixtures with equal electron counts, plus one mass mismatch.
    ``radial``, ``audit``, ``scaling`` and report rendering do the work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    check: object  # (exit_code, stdout, stderr) -> list of problems
    known_defect: str | None = None


# Z3/Z1 at 1 bohr: the Z=1 nucleus is a density maximum that the default
# search does not find (an open correctness item); kept so that it shows
MISSED_1BOHR = "invert misses the Z=1 center of Z3/Z1 at 1 bohr"


def _rotation(rng) -> np.ndarray:
    """Uniformly random rotation matrix from a unit quaternion."""
    a, b, c, d = (q := rng.normal(size=4)) / np.linalg.norm(q)
    return np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
    )


def _rigid(rng, positions) -> np.ndarray:
    return np.asarray(positions, dtype=float) @ _rotation(rng).T + rng.uniform(-2.0, 2.0, 3)


def _slater(center, coefficient, exponent, power=0) -> dict:
    return {
        "kind": "slater_s",
        "center": [float(x) for x in center],
        "coefficient": float(coefficient),
        "exponent": float(exponent),
        "power": int(power),
    }


def _gaussian(center, coefficient, exponent, power=0) -> dict:
    return dict(_slater(center, coefficient, exponent, power), kind="gaussian")


def _frame(positions, charges) -> list:
    return [{"position": [float(x) for x in p], "charge": float(z)} for p, z in zip(positions, charges)]


def _write(workdir: Path, name: str, spec: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
    return str(path)


# name, positions (bohr), charges, --seeds (None keeps the CLI default of 8)
FRAMES = (
    ("h", [[0, 0, 0]], [1.0], None),
    ("z10", [[0, 0, 0]], [10.0], 5),
    ("z30", [[0, 0, 0]], [30.0], 5),
    ("z3z1-3bohr", [[0, 0, 0], [0, 0, 3]], [3.0, 1.0], 5),
    ("z3z1-6bohr", [[0, 0, 0], [0, 0, 6]], [3.0, 1.0], 5),
    ("3center", [[0, 0, 0], [0, 0.2, 2.4], [2.1, -0.3, 0.6]], [2.0, 1.0, 1.5], 5),
    ("h2-20bohr", [[0, 0, 0], [0, 0, 20]], [1.0, 1.0], 5),
    ("z3z1-1bohr", [[0, 0, 0], [0, 0, 1]], [3.0, 1.0], 5),
)


def invert_frames(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for name, positions, charges, seeds in FRAMES:
        pos = _rigid(rng, positions)
        # superposed hydrogen-like clouds: every cusp encodes its own charge
        spec = {
            "electron_count": max(1, round(sum(charges))),
            "frame": _frame(pos, charges),
            "terms": [_slater(p, z**4 / math.pi, z) for p, z in zip(pos, charges)],
        }
        argv = ["invert", _write(workdir, name, spec)]
        if seeds is not None:
            argv += ["--seeds", str(seeds)]
        single = len(charges) == 1
        check = oracles.check_invert(pos, charges, 1e-6 if single else 1e-4, 1e-6 if single else 1e-2)
        defect = MISSED_1BOHR if name == "z3z1-1bohr" else None
        jobs.append(Job(f"invert-{name}", tuple(argv), check, defect))

    center = rng.uniform(-2.0, 2.0, 3)
    spec = {"electron_count": 1, "terms": [_gaussian(center, 1.0, 0.8)]}
    argv = ("invert", _write(workdir, "gaussian", spec), "--seeds", "5")
    jobs.append(Job("invert-gaussian", argv, oracles.check_no_cusps(center)))
    return jobs


def _mixture(rng) -> dict:
    """Three centers, ten terms; frame charges from the exact cusp slopes."""
    while True:
        centers = rng.uniform(-2.0, 2.0, (3, 3))
        if min(np.linalg.norm(centers[i] - centers[j]) for i in range(3) for j in range(i)) >= 1.5:
            break
    terms = [_slater(c, rng.uniform(0.3, 1.0), rng.uniform(0.8, 2.5)) for c in centers]
    extra = (
        lambda c: _slater(c, rng.uniform(0.01, 0.1), rng.uniform(0.8, 2.5), 1),
        lambda c: _slater(c, rng.uniform(0.05, 0.5), rng.uniform(0.8, 2.5), 2),
        lambda c: _gaussian(c, rng.uniform(0.05, 0.5), rng.uniform(0.3, 2.0), 0),
        lambda c: _gaussian(c, rng.uniform(0.01, 0.1), rng.uniform(0.3, 2.0), 1),
        lambda c: _gaussian(c, rng.uniform(0.05, 0.5), rng.uniform(0.3, 2.0), 2),
    )
    for _ in range(7):
        terms.append(extra[rng.integers(len(extra))](centers[rng.integers(3)]))
    # power-1 coefficients are small enough that every slope stays negative
    slopes = [oracles.cusp_slope(terms, c) for c in centers]
    charges = -np.asarray(slopes) / (2.0 * oracles.density(terms, centers))
    return {"electron_count": 1, "frame": _frame(centers, charges), "terms": terms}


def grid_verify(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng([seed, 2])
    mixtures = [_mixture(rng), _mixture(rng)]
    paths = [_write(workdir, f"mixture{i}", m) for i, m in enumerate(mixtures)]
    jobs = []
    for i, n in enumerate((24, 40, 64)):
        spec, path = mixtures[i % 2], paths[i % 2]
        lo = np.min([t["center"] for t in spec["terms"]], axis=0) - 4.0
        hi = np.max([t["center"] for t in spec["terms"]], axis=0) + 4.0
        origin = [round(float(x), 6) for x in lo]
        step = [round(float(x), 6) for x in (hi - lo) / (n - 1)]
        counts = [n, n, n]
        argv = ["grid-export", path, "--counts", *map(str, counts)]
        argv += ["--origin", *map(repr, origin), "--step", *map(repr, step)]
        check = oracles.check_grid_export(spec, Path(path).name, origin, step, counts, 2000, seed)
        jobs.append(Job(f"grid-export-{n}", tuple(argv), check))
    for i, order in enumerate((26, 50, 110, 194)):
        spec = mixtures[i % 2]
        argv = ("verify-cusp", paths[i % 2], "--lebedev-order", str(order))
        jobs.append(Job(f"verify-cusp-{order}", argv, oracles.check_verify_cusp(spec["terms"], spec["frame"])))
    return jobs


def _hydrogenic(center, z, offset=None) -> dict:
    spec = {"electron_count": 1, "frame": _frame([center], [z]), "terms": [_slater(center, z**3 / math.pi, z)]}
    if offset is not None:
        spec["potential_offset"] = float(offset)
    return spec


def _concentric_mixture(rng, center, electrons: int) -> dict:
    terms = [
        _slater(center, rng.uniform(0.5, 1.0), rng.uniform(0.8, 2.5)),
        _slater(center, rng.uniform(0.1, 0.5), rng.uniform(0.5, 1.5), rng.integers(1, 3)),
        _gaussian(center, rng.uniform(0.1, 0.5), rng.uniform(0.3, 2.0), rng.integers(0, 3)),
    ]
    return {"electron_count": electrons, "terms": terms, "normalize": True}


def audit_lst(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng([seed, 3])
    center = rng.uniform(-2.0, 2.0, 3)
    jobs = []
    for i in range(6):
        z1, z2 = rng.uniform(0.5, 4.0, 2)
        if i == 0:
            z2 = z1  # same state, shifted potential: case I
        o1, o2 = rng.uniform(-1.0, 1.0, 2)
        argv = (
            "audit",
            _write(workdir, f"audit{i}a", _hydrogenic(center, z1, o1)),
            _write(workdir, f"audit{i}b", _hydrogenic(center, z2, o2)),
        )
        jobs.append(Job(f"audit-{i}", argv, oracles.check_audit(z1, o1, z2, o2)))

    for points in (256, 2048):
        za, zb = rng.uniform(0.5, 4.0, 2)
        argv = (
            "lst",
            _write(workdir, f"lst-h{points}a", _hydrogenic(center, za)),
            _write(workdir, f"lst-h{points}b", _hydrogenic(center, zb)),
            "--grid-points",
            str(points),
        )
        jobs.append(Job(f"lst-hydrogenic-{points}", argv, oracles.check_lst_hydrogenic(za, zb, points)))
        argv = (
            "lst",
            _write(workdir, f"lst-m{points}a", _concentric_mixture(rng, center, 2)),
            _write(workdir, f"lst-m{points}b", _concentric_mixture(rng, center, 2)),
            "--grid-points",
            str(points),
        )
        jobs.append(Job(f"lst-mixture-{points}", argv, oracles.check_lst_mixture(points)))

    argv = (
        "lst",
        _write(workdir, "lst-mass-a", _hydrogenic(center, 1.0)),
        _write(workdir, "lst-mass-b", _concentric_mixture(rng, center, 2)),
    )
    jobs.append(Job("lst-mass-mismatch", argv, oracles.check_mass_mismatch()))
    return jobs


WORKLOADS = {"invert-frames": invert_frames, "grid-verify": grid_verify, "audit-lst": audit_lst}
