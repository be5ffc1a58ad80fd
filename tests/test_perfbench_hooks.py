"""Program names that the perfbench harness reaches by name.

perfbench/tracer.py wraps every public function a module lists in __all__,
binds each find_critical_points call to count the seeds it ran, reads the
center matches of each reconstruction and the grid of each scaling map,
counts radial.frame_attraction calls and observes specio.render_report by
name, and perfbench clears the Lebedev grid cache between jobs.  A rename
here breaks the benchmark, so it fails this suite first.
"""

import importlib
import inspect
import pkgutil

import rho2v
from rho2v import lebedev, radial, specio
from rho2v.density import DensityModel, NuclearFrame, hydrogenic_model, model_from_frame
from rho2v.inversion import reconstruct_potential
from rho2v.scaling import RadialDensity, default_grid, solve_scaling_map
from rho2v.topology import DEFAULT_SEEDS, find_critical_points


def test_find_critical_points_binds_seeds_per_axis():
    signature = inspect.signature(find_critical_points)
    assert "seeds_per_axis" in signature.parameters
    bound = signature.bind(hydrogenic_model(1.0))
    bound.apply_defaults()
    assert bound.arguments["seeds_per_axis"] == DEFAULT_SEEDS
    assert signature.bind(hydrogenic_model(1.0), 5).arguments["seeds_per_axis"] == 5


def test_radial_names_the_benchmark_traces_exist():
    # the tracer wraps the public functions a module lists in __all__
    assert "frame_attraction" in radial.__all__
    assert callable(radial.frame_attraction)


def test_report_and_grid_names_the_benchmark_reaches_exist():
    assert "render_report" in specio.__all__
    assert callable(lebedev.lebedev_grid.cache_clear)


def test_every_name_in_a_module_all_exists():
    # the tracer takes getattr(module, name) of each name; a stale one stops --trace
    for info in pkgutil.iter_modules(rho2v.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"rho2v.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"rho2v.{info.name}.__all__ names {missing}"


def test_reconstruction_and_scaling_results_carry_what_the_tracer_reads():
    # the declared second center sits 4 bohr off the Z=1 cusp: one missed, one spurious
    frame = NuclearFrame([[0.0, 0.0, 0.0], [0.0, 0.0, 5.0]], [3.0, 1.0])
    model = model_from_frame(NuclearFrame([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [3.0, 1.0]))
    report = reconstruct_potential(DensityModel(model.terms, model.electron_count, frame), 5)
    assert [(m.estimated_index, m.true_index) for m in report.matches] == [(0, 0)]
    assert all(m.charge_error >= 0.0 and m.position_error >= 0.0 for m in report.matches)
    assert report.missed_true_indices == (1,) and report.spurious_indices == (1,)
    grid = default_grid(0.01, 10.0, 16)
    mapping = solve_scaling_map(
        RadialDensity.from_model(hydrogenic_model(1.0)), RadialDensity.from_model(hydrogenic_model(2.0)), grid
    )
    assert len(mapping.grid) == 16


def test_importing_the_cli_loads_every_memo_cache(fresh_python):
    # perfbench/run.py finds the memo caches that it clears before every job
    # by walking sys.modules once, right after `import rho2v.cli`; a cache that
    # only a command's own import brought in would stay warm from job to job
    code = """
import importlib, pkgutil, sys
import rho2v.cli


def caches():
    return sorted({
        f"{value.__module__}.{value.__qualname__}"
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "rho2v"
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    })


print(caches())
for info in pkgutil.iter_modules(rho2v.__path__):
    if info.name != "__main__":
        importlib.import_module(f"rho2v.{info.name}")
print(caches())
"""
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    after_cli, after_all = done.stdout.splitlines()
    assert after_cli == after_all == "['rho2v.lebedev.lebedev_grid']"
