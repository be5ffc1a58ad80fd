"""Guard sweep of the critical-point search over random nuclear frames.

Runs find_critical_points on random_maxima_frame 0-119 and 1000-1399 (from
test_topology) at 5 and 8 seeds per axis, and prints one JSON line per run:
the frame, the seeds per axis and every point found, with its kind, rank,
signature and position as float.hex.  A summary line per seed count follows:
the frames that miss a nucleus (no cusp within 1e-6 bohr of it), the frames
whose Poincare-Hopf sum n - b + r - c is not 1 (or is undefined, a point being
degenerate), and the kernel passes of each search phase (count_search_passes)
summed over the runs.

Run from the repository root (about 10 s):

    PYTHONPATH=src python3 tests/guard_sweep.py > sweep.jsonl

Comparing two trees is a diff of their outputs.  The name has no test_ prefix,
so pytest does not collect it.
"""

import json

import numpy as np
import pytest
from test_topology import count_search_passes, random_maxima_frame

from rho2v.topology import _poincare_hopf_sum, find_critical_points

FRAMES = [*range(120), *range(1000, 1400)]
SEEDS_PER_AXIS = (5, 8)
# a nucleus is found when a cusp lies this close to it (bohr)
MISS_RADIUS = 1e-6


def sweep(seeds_per_axis: int) -> dict:
    missed, broken, passes = [], [], {}
    for frame in FRAMES:
        model = random_maxima_frame(frame)
        with pytest.MonkeyPatch.context() as monkeypatch:
            counted = count_search_passes(monkeypatch)
            points = find_critical_points(model, seeds_per_axis=seeds_per_axis)
        for key, value in counted.items():
            if isinstance(value, int):
                passes[key] = passes.get(key, 0) + value
        cusps = np.reshape([p.position for p in points if p.is_cusp], (-1, 1, 3))
        if np.any(np.all(np.linalg.norm(cusps - model.frame.positions, axis=2) > MISS_RADIUS, axis=0)):
            missed.append(frame)
        if _poincare_hopf_sum(points) != 1:
            broken.append(frame)
        run = {
            "frame": frame,
            "seeds": seeds_per_axis,
            "points": [
                {
                    "kind": p.kind.value,
                    "rank": p.rank,
                    "signature": p.signature,
                    "position": [float(v).hex() for v in p.position],
                }
                for p in points
            ],
        }
        print(json.dumps(run))
    return {"seeds": seeds_per_axis, "missed": missed, "poincare_hopf_breaks": broken, "passes": passes}


def main():
    summaries = [sweep(seeds_per_axis) for seeds_per_axis in SEEDS_PER_AXIS]
    for summary in summaries:
        print(json.dumps({"summary": summary}))


if __name__ == "__main__":
    main()
