"""Lebedev angular quadrature grids on the unit sphere.

Grids are generated from the classic Lebedev-Laikov parameters (Lebedev &
Laikov, Doklady Math. 59 (1999) 477).  Every orbit of the octahedral group is
the distinct signed permutations of one generator (x, y, z):

    vertex   (1, 0, 0)                              6 points
    edge     (a, a, 0), a = sqrt(1/2)              12 points
    corner   (a, a, a), a = sqrt(1/3)               8 points
    aab      (a, a, b), b = sqrt(1 - 2a^2)         24 points
    ab0      (a, b, 0), b = sqrt(1 - a^2)          24 points
    abc      (a, b, c), c = sqrt(1 - a^2 - b^2)    48 points

Weights are normalized to sum to 1, so sum_i w_i f(u_i) is directly the
average of f over the sphere.  Each grid integrates spherical polynomials
exactly up to its Lebedev-Laikov algebraic degree (3 for 6 points, 23 for 194).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import UnsupportedOrder

__all__ = ["SUPPORTED_ORDERS", "lebedev_grid"]

_VERTEX = (1.0, 0.0, 0.0)
_EDGE = (math.sqrt(0.5), math.sqrt(0.5), 0.0)
_CORNER = (math.sqrt(1.0 / 3.0),) * 3


def _aab(a):
    return (a, a, math.sqrt(max(1.0 - 2.0 * a * a, 0.0)))


def _ab0(a):
    return (a, math.sqrt(max(1.0 - a * a, 0.0)), 0.0)


def _abc(a, b):
    return (a, b, math.sqrt(max(1.0 - a * a - b * b, 0.0)))


# the index permutations and the sign patterns, in itertools order
_PERMUTATIONS = np.array(list(itertools.permutations(range(3))))
_SIGNS = np.array(list(itertools.product((1.0, -1.0), repeat=3)))


def _orbits(generators: np.ndarray) -> tuple:
    """(points (n, 3), orbit (n,)): the distinct signed permutations of each
    generator of (K, 3), orbit after orbit, and the generator of each point.

    Each point stands where it first occurs, with the signs running fastest
    within each permutation, as in itertools.product((1.0, -1.0), repeat=3).
    -0.0 == 0.0, and a point first occurs with every zero signed +0.0.
    Distinct orbits share no point, so the points are compared across orbits
    at once."""
    points = (generators[:, _PERMUTATIONS][:, :, None, :] * _SIGNS).reshape(-1, 3)
    # equal points sort into one run, in their order of occurrence (lexsort is stable)
    order = np.lexsort((points + 0.0).T[::-1])
    run = points[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(run[1:] != run[:-1], axis=1)
    kept = np.zeros(len(points), dtype=bool)
    kept[order[first]] = True
    return points[kept], np.flatnonzero(kept) // len(_PERMUTATIONS) // len(_SIGNS)


# Lebedev-Laikov orbits per grid size: (generator, weight).
_TABLES = {
    6: [(_VERTEX, 0.1666666666666667)],
    14: [
        (_VERTEX, 0.6666666666666667e-1),
        (_CORNER, 0.7500000000000000e-1),
    ],
    26: [
        (_VERTEX, 0.4761904761904762e-1),
        (_EDGE, 0.3809523809523810e-1),
        (_CORNER, 0.3214285714285714e-1),
    ],
    38: [
        (_VERTEX, 0.9523809523809524e-2),
        (_CORNER, 0.3214285714285714e-1),
        (_ab0(0.4597008433809831), 0.2857142857142857e-1),
    ],
    50: [
        (_VERTEX, 0.1269841269841270e-1),
        (_EDGE, 0.2257495590828924e-1),
        (_CORNER, 0.2109375000000000e-1),
        (_aab(0.3015113445777636), 0.2017333553791887e-1),
    ],
    86: [
        (_VERTEX, 0.1154401154401154e-1),
        (_CORNER, 0.1194390908585628e-1),
        (_aab(0.3696028464541502), 0.1111055571060340e-1),
        (_aab(0.6943540066026664), 0.1187650129453714e-1),
        (_ab0(0.3742430390903412), 0.1181230374690448e-1),
    ],
    110: [
        (_VERTEX, 0.3828270494937162e-2),
        (_CORNER, 0.9793737512487512e-2),
        (_aab(0.1851156353447362), 0.8211737283191111e-2),
        (_aab(0.6904210483822922), 0.9942814891178103e-2),
        (_aab(0.3956894730559419), 0.9595471336070963e-2),
        (_ab0(0.4783690288121502), 0.9694996361663028e-2),
    ],
    146: [
        (_VERTEX, 0.5996313688621381e-3),
        (_EDGE, 0.7372999718620756e-2),
        (_CORNER, 0.7210515360144488e-2),
        (_aab(0.6764410400114264), 0.7116355493117555e-2),
        (_aab(0.4174961227965453), 0.6753829486314477e-2),
        (_aab(0.1574676672039082), 0.7574394159054034e-2),
        (_abc(0.1403553811713183, 0.4493328323269557), 0.6991087353303262e-2),
    ],
    194: [
        (_VERTEX, 0.1782340447244611e-2),
        (_EDGE, 0.5716905949977102e-2),
        (_CORNER, 0.5573383178848738e-2),
        (_aab(0.6712973442695226), 0.5608704082587997e-2),
        (_aab(0.2892465627575439), 0.5158237711805383e-2),
        (_aab(0.4446933178717437), 0.5518771467273614e-2),
        (_aab(0.1299335447650067), 0.4106777028169394e-2),
        (_ab0(0.3457702197611283), 0.5051846064614808e-2),
        (_abc(0.1590417105383530, 0.8360360154824589), 0.5530248916233094e-2),
    ],
}

SUPPORTED_ORDERS = tuple(sorted(_TABLES))


@lru_cache(maxsize=None)
def lebedev_grid(order: int):
    """Unit vectors (order, 3) and weights (order,) summing to 1."""
    if order not in _TABLES:
        raise UnsupportedOrder(f"no Lebedev grid with {order} points; supported: {SUPPORTED_ORDERS}")
    generators, orbit_weights = zip(*_TABLES[order])
    points, orbit = _orbits(np.array(generators))
    weights = np.array(orbit_weights)[orbit]
    if len(points) != order:
        raise AssertionError(f"grid size mismatch: built {len(points)}, expected {order}")
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights
