#!/usr/bin/env python3
"""Benchmark of the rho2v CLI: one closed-loop client, jobs run in-process.

Run from the repository root:

    python3 perfbench/run.py --workload invert-frames --seed 1 --seconds 36 --trace 0

The workload's jobs (workloads.py) run through ``rho2v.cli.main`` in this
process, round-robin, so that drift in host speed hits every job alike.
Every rho2v memo cache is cleared before each job, so each job pays the
cold cost that a fresh CLI process pays; interpreter start plus ``import
rho2v.cli`` is timed separately in fresh interpreters as ``setup_s``.  A
new round starts only while it is expected to end within ``--seconds``.
Each job's first output is checked by an analytic oracle (oracles.py) and
every repeat must be byte-identical to it.

On a shared host the speed drifts by 20-80 % over tens of seconds (seen on
a 2-vCPU Xeon VM), which raw times cannot average out within a run.  So a fixed reference computation (the
probe, independent of rho2v) runs before the first job and after every
job, and each timed sample is scaled to a reference host speed by the mean
of the two probes around it: ``t * REFERENCE_PROBE_S / probe``.  All times
reported as metrics are scaled this way; the detail line also gives the
raw sums and the raw probe times.  The process, and the interpreters it
starts, stay on one CPU, so that the probes see the CPU the work runs on.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced rounds (tracer.py) and reports
the per-layer metrics.  The line before the result holds host information
and per-job statistics; failures go to stderr with their argv.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS pools would run kernels on extra threads and make cpu_s exceed wall_s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
# probe time that defines the reference host speed; an unloaded 2-vCPU
# Xeon VM takes about this long, so scaled times stay close to seconds there
REFERENCE_PROBE_S = 2e-3
IMPORTTIME_RUNS = 3
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> list | None:
    """[p, value] for the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return [p, cuts[round(p * 10) - 1]]
    return None


def summary(values) -> dict:
    return {"n": len(values), "median": median(values), "tail": tail(values)}


def probe() -> float:
    """Seconds taken by a fixed reference computation: tiny numpy calls and
    pure-Python arithmetic, the mix that dominates the rho2v CLI's time."""
    import numpy as np

    start = time.perf_counter()
    center = np.array([0.3, -0.2, 0.1])
    total = 0.0
    for i in range(120):
        r = np.linalg.norm(np.array([[i * 1e-3, 0.2, 0.3]]) - center, axis=1)
        total += float(np.exp(-2.0 * r)[0])
    table = {}
    for i in range(12000):
        total += i * 0.5
        table[i & 63] = total
    return time.perf_counter() - start


class Probes:
    """Probe times; each new probe yields the scale for the interval before it."""

    def __init__(self):
        self.times = [probe()]

    def scale(self) -> float:
        self.times.append(probe())
        return REFERENCE_PROBE_S / (0.5 * (self.times[-2] + self.times[-1]))


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout at root, read without leaving root."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_info() -> dict:
    import numpy
    import scipy

    model = None
    with suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        model = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), None)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": git_commit(ROOT),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_times(probes: Probes) -> tuple:
    """(scaled, raw) wall times of fresh interpreters that import rho2v.cli."""
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rho2v.cli"], env=child_env(), cwd=ROOT, check=True)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * probes.scale())
    return scaled, raw


def import_times() -> tuple:
    """(import rho2v.cli, scipy's own modules) in seconds, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import rho2v.cli"],
        env=child_env(),
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    )
    rho2v_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:") :].split("|")
        name = name.strip()
        if name == "rho2v.cli" and cumulative_us.strip():
            rho2v_us = int(cumulative_us)
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += int(self_us)
    return rho2v_us / 1e6, scipy_us / 1e6


def memo_caches(modules) -> dict:
    """name -> cache_clear of every memo cache found on a rho2v module."""
    caches = {}
    for module in modules:
        for attr, value in vars(module).items():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                caches.setdefault(f"{value.__module__}.{value.__qualname__}", clear)
    return dict(sorted(caches.items()))


def run_job(cli, argv) -> tuple:
    """(exit code, stdout, stderr, wall s, cpu s) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed job, not the end of the run
            code = None
            traceback.print_exc()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return code, out.getvalue(), err.getvalue(), wall, cpu


class JobRecord:
    """Samples and verdicts of one job across rounds."""

    def __init__(self, job):
        self.job = job
        self.wall, self.cpu, self.traced_wall, self.raw_wall = [], [], [], []
        self.first = None
        self.first_ok = False
        self.problems: list = []
        self.attempted = self.failed = 0
        self.crashed = self.diverged = False

    def add(self, code, stdout, stderr, wall, cpu, scale: float, traced: bool) -> None:
        if traced:
            self.traced_wall.append(wall * scale)
        else:
            self.wall.append(wall * scale)
            self.cpu.append(cpu * scale)
            self.raw_wall.append(wall)
        self.attempted += 1
        output = (code, stdout, stderr)
        if self.first is None:
            self.first = output
            self.crashed = code is None
            try:
                self.problems = list(self.job.check(*output))
            except Exception as exc:  # a malformed output can break a checker
                self.problems = [f"checker raised {exc!r}"]
            self.first_ok = not self.problems
        elif output != self.first and not self.diverged:
            self.diverged = True
            self.problems.append("output differs from the job's first run" + (" (traced)" if traced else ""))
        if not (self.first_ok and output == self.first):
            self.failed += 1

    @property
    def tolerated(self) -> bool:
        """Failing only as its documented known defect does."""
        return self.job.known_defect is not None and not (self.crashed or self.diverged)


def measure(cli, jobs, caches, seconds: float, probes: Probes, tracer=None) -> tuple:
    """Run rounds over the jobs; returns (records, traced rounds)."""
    records = [JobRecord(job) for job in jobs]
    round_times, traced_rounds = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(round_times) % 2 == 1
        round_start = time.perf_counter()
        scales = []
        for record in records:
            for clear in caches.values():
                clear()
            if traced:
                with tracer.installed():
                    result = run_job(cli, record.job.argv)
            else:
                result = run_job(cli, record.job.argv)
            scales.append(probes.scale())
            record.add(*result, scale=scales[-1], traced=traced)
        if traced:
            traced_rounds.append(dict(tracer.take_round(), scale=median(scales)))
        round_times.append(time.perf_counter() - round_start)
        if len(round_times) >= (2 if tracer else 1):
            if time.perf_counter() - start + median(round_times) > seconds:
                return records, traced_rounds


def report_failures(records) -> None:
    for record in records:
        if record.problems:
            note = f" [known defect: {record.job.known_defect}]" if record.job.known_defect else ""
            print(
                f"FAILED {record.job.name}{note}: rho2v {' '.join(record.job.argv)}: "
                + "; ".join(record.problems),
                file=sys.stderr,
            )


def end_to_end(records, setup) -> dict:
    attempted = sum(r.attempted for r in records)
    return {
        "wall_s": sum(median(r.wall) for r in records),
        "cpu_s": sum(median(r.cpu) for r in records),
        "setup_s": median(setup[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_frac": sum(r.attempted - r.failed for r in records) / attempted,
    }


def per_layer(records, probes: Probes, rounds, imports) -> tuple:
    """Per-layer metrics of one batch, and whether counts repeated exactly."""
    counts = rounds[0]["counts"]
    repeat = all(r["counts"] == counts for r in rounds[1:])

    def timed(key, name):
        return median([r[key].get(name, 0.0) * r["scale"] for r in rounds])

    def calls(name):
        return counts.get(f"{name}.calls", 0)

    metrics = {}
    for layer in ("density", "topology", "spherical", "lebedev", "inversion", "radial", "audit", "scaling", "cli"):
        metrics[f"{layer}.self_s"] = timed("self_s", layer)
    for name in (
        "density.evaluate", "density.evaluate_many", "density.gradient", "density.hessian",
        "topology.find_critical_points", "topology.classify",
        "spherical.radial_derivative_at_center", "spherical.spherical_average", "lebedev.lebedev_grid",
        "inversion.reconstruct_potential", "inversion.verify_cusp_conditions",
        "radial.converged", "radial.frame_attraction", "audit.audit_pair", "scaling.solve_scaling_map",
    ):  # fmt: skip
        metrics[f"{name}.calls"] = calls(name)
    for name in (
        "density.points", "topology.seeds", "topology.points_found", "inversion.charge_err_max",
        "inversion.position_err_max", "inversion.missed_centers", "inversion.spurious_centers",
        "scaling.grid_points", "specio.report_bytes",
    ):  # fmt: skip
        metrics[name] = counts.get(name, 0)
    density_s = metrics["density.self_s"]
    metrics["density.points_per_s"] = metrics["density.points"] / density_s if density_s > 0 else 0.0
    seeds = metrics["topology.seeds"]
    metrics["topology.evals_per_seed"] = counts.get("density.points.from.topology", 0) / seeds if seeds else 0.0
    derivatives = metrics["spherical.radial_derivative_at_center.calls"]
    averages = metrics["spherical.spherical_average.calls"]
    metrics["spherical.averages_per_derivative"] = averages / derivatives if derivatives else 0.0
    metrics["specio.load_spec_s"] = timed("span_s", "specio.load_spec")
    metrics["specio.render_report_s"] = timed("span_s", "specio.render_report")
    metrics["cli.output_bytes"] = sum(len(r.first[1].encode("utf-8")) for r in records)
    metrics["setup.import_rho2v_s"] = median([t[0] for t in imports])
    metrics["setup.import_scipy_s"] = median([t[1] for t in imports])
    untraced = sum(median(r.wall) for r in records)
    metrics["trace.overhead_frac"] = sum(median(r.traced_wall) for r in records) / untraced - 1.0
    metrics["host.probe_s"] = median(probes.times)
    return metrics, repeat


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rho2v" / "cli.py").is_file():
        print(f"perfbench: no rho2v sources under {SRC}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import rho2v.cli as cli
    import tracer
    import workloads

    modules = tracer.rho2v_modules()
    caches = memo_caches(modules)
    # relative spec paths, fixed per seed, keep report bytes identical across runs
    os.chdir(ROOT)
    workdir = Path(".perfbench_work") / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        jobs = workloads.WORKLOADS[args.workload](args.seed, workdir)
        probes = Probes()
        if args.trace:
            imports = [import_times() for _ in range(IMPORTTIME_RUNS)]
            records, rounds = measure(cli, jobs, caches, args.seconds, probes, tracer.Tracer())
            metrics, repeat = per_layer(records, probes, rounds, imports)
            declared = bench["per_layer"]
            raw_setup = None
        else:
            setup = setup_times(probes)
            records, _ = measure(cli, jobs, caches, args.seconds, probes)
            metrics, repeat = end_to_end(records, setup), None
            declared = bench["end_to_end"]
            raw_setup = median(setup[1])
    finally:
        shutil.rmtree(workdir)
        with suppress(OSError):
            workdir.parent.rmdir()

    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    report_failures(records)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host_info(),
        "memo_caches": list(caches),
        "host_probe_s": summary(probes.times),
        "batch_wall_s": summary([sum(w) for w in zip(*(r.wall for r in records))]),
        "raw": {
            "wall_s": sum(median(r.raw_wall) for r in records),
            "setup_s": raw_setup,
        },
        "jobs": {
            r.job.name: {"wall_s": summary(r.wall), "cpu_s": summary(r.cpu), "failed": r.failed, "attempted": r.attempted}
            for r in records
        },
    }
    if repeat is not None:
        detail["counts_repeat_across_rounds"] = repeat
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": all(r.tolerated for r in records if r.problems),
        "attempted": sum(r.attempted for r in records),
        "failed": sum(r.failed for r in records),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
