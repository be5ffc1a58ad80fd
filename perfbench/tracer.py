"""Outside-in tracer for the rho2v layers.

The tracer wraps the public functions of each rho2v module from outside the
program.  A module's public functions are the ones in its ``__all__`` (all
names without a leading underscore when it has none) that it defines
itself.  The wrapper is bound under every name that holds the original, in
every rho2v module, so a name imported with ``from .density import
evaluate`` is traced as well.

Counting rules:

* ``<layer>.<function>.calls`` counts every call, including calls from
  inside the same layer: each ``density.evaluate`` also makes one
  ``density.evaluate_many`` call, and ``radial_derivative_at_center``
  makes one ``spherical_average`` call per ladder level.
* A span (name, start, end, parent) opens only where a layer is entered
  from another layer or from the benchmark.  A layer's self time is the
  time of its spans minus the time of their child spans.
* ``density.points`` counts the points other layers asked the kernel for.

Spans stay in memory until ``take_round`` folds them into per-layer sums.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "specio", "inversion", "topology", "spherical", "lebedev", "density", "audit", "radial", "scaling")

_NAME, _LAYER, _PARENT, _START, _END = range(5)


def _kernel_points(count):
    def observe(counts, args, kwargs, result, caller):
        if caller is not None:
            n = count(args, kwargs)
            counts["density.points"] += n
            counts[f"density.points.from.{caller}"] += n

    return observe


def _seeds(counts, args, kwargs, result, caller):
    from rho2v.topology import find_critical_points

    bound = inspect.signature(find_critical_points).bind(*args, **kwargs)
    bound.apply_defaults()
    counts["topology.seeds"] += bound.arguments["seeds_per_axis"] ** 3
    if result is not None:
        counts["topology.points_found"] += len(result)


def _reconstruction(counts, args, kwargs, result, caller):
    if result is None:
        return
    for m in result.matches:
        counts["inversion.charge_err_max"] = max(counts["inversion.charge_err_max"], m.charge_error)
        counts["inversion.position_err_max"] = max(counts["inversion.position_err_max"], m.position_error)
    counts["inversion.missed_centers"] += len(result.missed_true_indices)
    counts["inversion.spurious_centers"] += len(result.spurious_indices)


def _scaling_grid(counts, args, kwargs, result, caller):
    if result is not None:
        counts["scaling.grid_points"] += len(result.grid)


def _report_bytes(counts, args, kwargs, result, caller):
    if result is not None:
        counts["specio.report_bytes"] += len(result.encode("utf-8"))


def _points_arg(args, kwargs):
    return len(np.atleast_2d(args[1] if len(args) > 1 else kwargs["points"]))


OBSERVERS = {
    "density.evaluate": _kernel_points(lambda a, k: 1),
    "density.gradient": _kernel_points(lambda a, k: 1),
    "density.hessian": _kernel_points(lambda a, k: 1),
    "density.evaluate_many": _kernel_points(_points_arg),
    "topology.find_critical_points": _seeds,
    "inversion.reconstruct_potential": _reconstruction,
    "scaling.solve_scaling_map": _scaling_grid,
    "specio.render_report": _report_bytes,
}


def rho2v_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "rho2v" or n.startswith("rho2v.")]


def public_functions(module):
    """(name, function) for each public function the module defines."""
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, layer: str, qualname: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(qualname)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            counts[f"{qualname}.calls"] += 1
            caller = spans[stack[-1]][_LAYER] if stack else "bench"
            if caller == layer:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(counts, args, kwargs, result, None)
                return result
            span = [qualname, layer, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[_END] = clock()
                stack.pop()
                if observe is not None:
                    observe(counts, args, kwargs, result, caller)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Bind the traced wrappers for the duration of the block."""
        modules = rho2v_modules()
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer in LAYERS:
                for name, fn in public_functions(module):
                    wrappers[id(fn)] = (fn, self._wrap(layer, f"{layer}.{name}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        try:
            yield self
        finally:
            while self._patched:
                module, attr, value = self._patched.pop()
                setattr(module, attr, value)

    def take_round(self) -> dict:
        """Per-layer self time, per-function span time and the counters
        recorded since the last call; clears them."""
        self_s: dict = defaultdict(float)
        span_s: dict = defaultdict(float)
        for span in self.spans:
            duration = span[_END] - span[_START]
            self_s[span[_LAYER]] += duration
            span_s[span[_NAME]] += duration
            if span[_PARENT] >= 0:
                self_s[self.spans[span[_PARENT]][_LAYER]] -= duration
        out = {"self_s": dict(self_s), "span_s": dict(span_s), "counts": dict(self.counts)}
        self.spans.clear()
        self.counts.clear()
        return out
