"""Program names that the perfbench harness reaches by name.

perfbench/tracer.py binds each find_critical_points call to count the seeds
it ran, counts radial.frame_attraction calls and observes
specio.render_report by name, and perfbench clears the Lebedev grid cache
between jobs.  A rename here breaks the benchmark, so it fails this suite
first.
"""

import inspect

from rho2v import lebedev, radial, specio
from rho2v.density import hydrogenic_model
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
