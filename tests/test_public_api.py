"""Every public name of the package is used by the program or its documented faces.

A public function, method or class of src/rho2v must be referenced outside its
own body: elsewhere in src/rho2v, in the acceptance suite, in the README or in
the benchmark (perfbench/).  A name that only unit tests call is API kept alive
for its tests alone.  An import or an __all__ entry is not a use; an override
of an inherited method is exempt, since its base class calls it.  Every error
class of rho2v.errors is raised somewhere in src/rho2v.

The package itself re-exports the library's main names lazily: `import rho2v`
loads no submodule, and `rho2v.<name>` imports the name's home module.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import rho2v

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "rho2v").glob("*.py"))
# overrides of inherited methods: (class, method)
OVERRIDES = {("_ArgumentParser", "parse_known_args")}


def _used_names(tree, skip=None) -> set:
    """Names read as a variable or an attribute in tree, outside the node skip."""
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _public_definitions(tree):
    """(class name or None, def node) of every public module-level def and
    class, and of every public method of a module-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield None, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield node.name, sub


def test_every_public_name_is_used_outside_the_unit_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used_in = {path: _used_names(tree) for path, tree in trees.items()}
    external = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").rglob("*.py"))]:
        external |= _used_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = []
    for path, tree in trees.items():
        elsewhere = external.union(*(names for other, names in used_in.items() if other != path))
        for cls, node in _public_definitions(tree):
            if (cls, node.name) in OVERRIDES or node.name in elsewhere | _used_names(tree, skip=node):
                continue
            unused.append(f"{path.name}: {cls + '.' if cls else ''}{node.name}")
    assert unused == []


def _raised_names(tree) -> set:
    """Names of the classes a `raise` statement in tree raises: `raise X` or `raise X(...)`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised_somewhere():
    errors = ast.parse((ROOT / "src" / "rho2v" / "errors.py").read_text(encoding="utf-8"))
    subclasses = [
        node.name
        for node in errors.body
        if isinstance(node, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id == "Rho2vError" for b in node.bases)
    ]
    raised = set().union(*(_raised_names(ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES))
    assert subclasses and [name for name in subclasses if name not in raised] == []


# home module -> the names that rho2v/__init__ re-exports from it
REEXPORTS = {
    "density": (
        "DensityModel",
        "NuclearFrame",
        "PrimitiveKind",
        "RadialPrimitive",
        "evaluate",
        "gradient",
        "hessian",
        "hydrogenic_model",
        "model_from_frame",
        "normalize",
        "total_integral",
    ),
    "audit": ("OneElectronSystem", "audit_pair", "potential_from_wavefunction"),
    "inversion": ("incompatibility_check", "reconstruct_potential", "verify_cusp_conditions"),
    "scaling": ("RadialDensity", "solve_scaling_map", "transform_wavefunction"),
    "spherical": ("radial_derivative_at_center", "spherical_average"),
    "topology": ("CriticalKind", "CriticalPoint", "classify", "find_critical_points"),
}


def test_each_reexported_name_is_its_home_modules_object():
    for module, names in REEXPORTS.items():
        home = importlib.import_module(f"rho2v.{module}")
        for name in names:
            assert getattr(rho2v, name) is getattr(home, name), f"rho2v.{name}"
            assert name in dir(rho2v)


def test_an_unknown_package_attribute_raises_attribute_error():
    assert not hasattr(rho2v, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        rho2v.no_such_name


def test_importing_the_package_loads_no_submodule(fresh_python):
    done = fresh_python(
        "-c",
        "import sys, rho2v\n"
        "print(sorted(m for m in sys.modules if m.startswith('rho2v.')))\n"
        "from rho2v import cli, audit, lebedev\n"
        "print(cli.__name__, audit.__name__, lebedev.__name__, rho2v.audit is audit)",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "rho2v.cli rho2v.audit rho2v.lebedev True"]
