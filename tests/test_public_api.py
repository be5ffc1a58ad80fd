"""Every public name of the package is used by the program or its documented faces.

A public function, method or class of src/rho2v must be referenced outside its
own body: elsewhere in src/rho2v, in the acceptance suite, in the README or in
the benchmark (perfbench/).  A name that only unit tests call is API kept alive
for its tests alone.  An import or an __all__ entry is not a use; an override
of an inherited method is exempt, since its base class calls it.
"""

import ast
import re
from pathlib import Path

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
