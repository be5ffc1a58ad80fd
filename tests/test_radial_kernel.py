"""The radial kernel against an independent per-term form, and the layering
that keeps rho2v.radial the one owner of the radial integrals.

The reference below is the cumulative charge as it was written before the
kernel existed: one regularized incomplete gamma call per term, each term
with its own series length, summed by Python in term order.  The kernel
takes one incomplete gamma per term too, with its own code; it has to give
the same floats, bit for bit, so `lst` reports do not move.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import rho2v
from rho2v.density import DensityModel, PrimitiveKind, RadialPrimitive, total_integral
from rho2v.scaling import RadialDensity

_erfc = np.frompyfunc(math.erfc, 1, 1)


def _upper_sum(a, x):
    half = a != math.floor(a)
    s0 = 0.5 if half else 0.0
    x = np.minimum(x, 746.0)
    total = np.ones_like(x)
    for s in np.arange(a - 1.0, s0, -1.0):
        total *= x / s
        total += 1.0
    if not half:
        return np.exp(-x) * total
    root = np.sqrt(x)
    erfc = _erfc(root).astype(float)
    return erfc if a == s0 else erfc + np.exp(-x) * root * total / math.gamma(1.5)


def _lower_series(a, x):
    x_max, coefficients, term = float(x.max()), [1.0], 1.0
    while term > 1e-17:
        k = len(coefficients)
        coefficients.append(coefficients[-1] / (a + k))
        term *= x_max / (a + k)
    total = np.full_like(x, coefficients.pop())
    for c in reversed(coefficients):
        total *= x
        total += c
    return x**a * np.exp(-x) * total / math.gamma(a + 1.0)


def _regularized_gamma(a, x, complement):
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    low = flat < a
    out = np.empty_like(flat)
    if low.any():
        p = _lower_series(a, flat[low])
        out[low] = 1.0 - p if complement else p
    if not low.all():
        q = _upper_sum(a, flat[~low])
        out[~low] = q if complement else 1.0 - q
    return out.reshape(x.shape)


def _term_cumulative(prim, r, complement):
    r = np.asarray(r, dtype=float)
    c, n = prim.coefficient, prim.power
    if prim.kind is PrimitiveKind.SLATER_S:
        b = 2.0 * prim.exponent
        a = n + 3
        return 4.0 * math.pi * c * math.gamma(a) * _regularized_gamma(a, b * r, complement) / b**a
    alpha = prim.exponent
    a = 0.5 * (n + 3)
    return 4.0 * math.pi * c * math.gamma(a) * _regularized_gamma(a, alpha * r * r, complement) / (2.0 * alpha**a)


def _mixture(rng):
    prims = []
    for _ in range(rng.integers(1, 7)):
        kind = PrimitiveKind.SLATER_S if rng.random() < 0.5 else PrimitiveKind.GAUSSIAN
        prims.append(RadialPrimitive(kind, float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.2, 4.0)), int(rng.integers(0, 5))))
    return prims


def _radii(rng, prims):
    """r = 0, radii just below and above where each term's x = s r^k crosses
    its order A, spread radii, and a far tail where e^-x underflows."""
    radii = [0.0, 1e3, 1e5]
    for p in prims:
        if p.kind is PrimitiveKind.SLATER_S:
            order, to_r = p.power + 3, lambda x: x / (2.0 * p.exponent)
        else:
            order, to_r = 0.5 * (p.power + 3), lambda x: math.sqrt(x / p.exponent)
        radii += [to_r(order * f) for f in (0.5, 0.999, 1.0, 1.001, 2.0)]
    radii += list(rng.uniform(0.0, 1.0, 20) ** 2 * 30.0)
    return np.array(rng.permutation(radii))


@pytest.mark.parametrize("seed", range(40))
def test_kernel_matches_the_per_term_form_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    prims = _mixture(rng)
    r = _radii(rng, prims)
    density = RadialDensity.from_model(DensityModel(terms=tuple((np.zeros(3), p) for p in prims)))
    for complement, got in ((False, density.cumulative), (True, density.complement)):
        expected = sum(_term_cumulative(p, r, complement) for p in prims)
        assert np.array_equal(got(r), expected)
        # one radius at a time, as 0-d input
        assert all(got(x) == sum(_term_cumulative(p, x, complement) for p in prims) for x in r[:6])
    total = sum(_term_cumulative(p, 0.0, True) for p in prims)
    assert density.electron_count == total
    model = DensityModel(terms=tuple((rng.uniform(-1.0, 1.0, 3), p) for p in prims))
    assert total_integral(model) == total


def _imports(tree):
    """(node, inside an `if TYPE_CHECKING:` block) for every import."""
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            guarded.update(id(child) for stmt in node.body for child in ast.walk(stmt))
    return [(node, id(node) in guarded) for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_radial_is_a_leaf_and_the_one_owner_of_the_incomplete_gamma():
    package = Path(rho2v.__file__).parent
    radial = package / "radial.py"
    for node, type_checking in _imports(ast.parse(radial.read_text(encoding="utf-8"))):
        names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
        assert not (isinstance(node, ast.ImportFrom) and node.level), f"relative import at line {node.lineno}"
        assert type_checking or not any(n.split(".")[0] == "rho2v" for n in names), f"line {node.lineno}"
    for module in sorted(package.glob("*.py")):
        if module != radial:
            text = module.read_text(encoding="utf-8")
            assert "_regularized_gamma" not in text and "math.gamma" not in text, module.name
