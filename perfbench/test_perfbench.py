"""Self-tests of the benchmark: oracles, tracer and run contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import rho2v.cli as cli  # noqa: E402
import rho2v.density  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# cheap jobs covering every command and oracle kind
CHEAP = ("audit-0", "lst-hydrogenic-256", "lst-mixture-256", "lst-mass-mismatch",
         "grid-export-24", "verify-cusp-26", "invert-z10", "invert-gaussian")  # fmt: skip


def cheap_jobs(workdir: Path, seed: int = 3) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = [job for build in workloads.WORKLOADS.values() for job in build(seed, workdir)]
    return {job.name: job for job in jobs if job.name in CHEAP}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    jobs = cheap_jobs(tmp_path_factory.mktemp("specs"))
    return {name: (job, run.run_job(cli, job.argv)[:3]) for name, job in jobs.items()}


def _bump_json_number(key):
    def corrupt(code, stdout, stderr):
        doc = json.loads(stdout)
        doc["result"][key] = doc["result"][key] * (1.0 + 1e-5) + 1e-5
        return code, json.dumps(doc), stderr

    return corrupt


def _bump_first_charge(code, stdout, stderr):
    doc = json.loads(stdout)
    doc["result"]["estimated_centers"][0]["charge"] += 1e-5
    return code, json.dumps(doc), stderr


def _bump_map(code, stdout, stderr):
    doc = json.loads(stdout)
    for row in doc["result"]["table"]:
        row["f"] *= 1.0 + 1e-9
    return code, json.dumps(doc), stderr


def _bump_cube_values(code, stdout, stderr):
    # add one unit in the last printed digit of every value
    return code, re.sub(r"(\d)E", lambda m: f"{(int(m.group(1)) + 1) % 10}E", stdout), stderr


def _rename_cube_source(code, stdout, stderr):
    return code, stdout.replace("source: ", "source: x", 1), stderr


def _fail_cusp(code, stdout, stderr):
    doc = json.loads(stdout)
    doc["result"]["all_passed"] = False
    return code, json.dumps(doc), stderr


CORRUPTIONS = [
    ("audit-0", _bump_json_number("cross12")),
    ("audit-0", _bump_json_number("diff_integral_rho1")),
    ("lst-hydrogenic-256", _bump_map),
    ("lst-mass-mismatch", lambda code, out, err: (0, out, err)),
    ("grid-export-24", _bump_cube_values),
    ("grid-export-24", _rename_cube_source),
    ("verify-cusp-26", _fail_cusp),
    ("invert-z10", _bump_first_charge),
    ("invert-gaussian", lambda code, out, err: (0, out, err)),
]


@pytest.mark.parametrize("name", CHEAP)
def test_real_outputs_pass(outputs, name):
    job, output = outputs[name]
    assert job.check(*output) == []


@pytest.mark.parametrize("name,corrupt", CORRUPTIONS)
def test_corrupted_output_is_flagged(outputs, name, corrupt):
    job, output = outputs[name]
    assert job.check(*corrupt(*output))


def test_known_defect_job_fails_its_oracle(tmp_path):
    (job,) = [j for j in workloads.invert_frames(0, tmp_path) if j.known_defect]
    problems = job.check(*run.run_job(cli, job.argv)[:3])
    assert any("missed center" in p for p in problems)


def test_traced_outputs_are_byte_identical(outputs):
    original = rho2v.density.evaluate
    t = tracer.Tracer()
    for name, (job, output) in outputs.items():
        with t.installed():
            assert rho2v.density.evaluate is not original
            traced = run.run_job(cli, job.argv)[:3]
        assert traced == output, name
    assert rho2v.density.evaluate is original
    layers = t.take_round()["self_s"]
    assert {"cli", "density", "topology", "spherical", "radial", "scaling"} <= set(layers)


def test_counts_repeat_at_same_seed(tmp_path):
    rounds = []
    for attempt in ("a", "b"):
        jobs = cheap_jobs(tmp_path / attempt)
        t = tracer.Tracer()
        with t.installed():
            for job in jobs.values():
                run.run_job(cli, job.argv)
        rounds.append(t.take_round()["counts"])
    assert rounds[0] == rounds[1]
    counts = rounds[0]
    assert counts["density.points"] > 0 and counts["topology.seeds"] == 2 * 5**3
    assert all(counts[f"{name}.calls"] > 0 for name in ("density.evaluate_many", "radial.converged"))


def test_memo_caches_are_found_generically():
    caches = run.memo_caches(tracer.rho2v_modules())
    assert {"rho2v.lebedev.lebedev_grid", "rho2v.radial._genlaguerre", "rho2v.radial._legendre"} <= set(caches)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "audit-lst", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv + ["--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
