"""The package holds only code that the CLI or the benchmark can reach.

Every function, method and class defined in ``src/ceformality`` must be
referenced by name outside its own body, in ``src/ceformality`` or in
``perfbench/*.py``.  A reference from the tests does not count: code that
only tests call belongs beside them (``tests/*_oracle.py``).  A name is a
reference wherever it is read as a variable or an attribute, so this is a
conservative guard: a dead method that shares its name with a live one
passes.

Every name imported in ``src/ceformality/*.py`` and ``tests/*.py`` must also
be read in its own file; ``from __future__`` imports and the package's
``__init__.py``, whose imports are its exports, are exempt."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# names called by Python or argparse rather than by the package
ALLOWED = {"main", "_Parser.error"}


def _trees(pattern):
    out = {}
    for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
        with open(path, encoding="utf-8") as fh:
            out[path] = ast.parse(fh.read(), path)
    return out


def _definitions(tree):
    """(qualified name, node) of every def and class, nested ones too."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                yield name, child
                yield from walk(child, name + ".")
            else:
                yield from walk(child, prefix)
    return walk(tree, "")


def unreferenced(src_trees, other_trees):
    """Qualified names of the definitions in ``src_trees`` that no code in
    either set of trees names outside their own body."""
    refs = {}
    for tree in [*src_trees.values(), *other_trees.values()]:
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                refs.setdefault(name, []).append(node)
    dead = []
    for path, tree in src_trees.items():
        module = os.path.splitext(os.path.basename(path))[0]
        for qual, node in _definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__") or \
                    qual in ALLOWED:
                continue
            own = {id(n) for n in ast.walk(node)}
            if all(id(n) in own for n in refs.get(node.name, [])):
                dead.append(f"{module}.{qual}")
    return dead


def test_every_definition_in_src_is_reached_outside_the_tests():
    src = _trees("src/ceformality/*.py")
    assert src
    assert unreferenced(src, _trees("perfbench/*.py")) == []


def test_the_guard_sees_a_helper_only_tests_call():
    src = {"mc.py": ast.parse(
        "def mc_check(x):\n    return x\n\n\n"
        "def gauge_act(a, x):\n    return gauge_act(a, mc_check(x))\n")}
    assert unreferenced(src, {}) == ["mc.gauge_act"]


def unread_imports(tree):
    """The names a module imports and never reads, sorted."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or \
                isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_every_import_is_read_in_its_own_file():
    trees = {**_trees("src/ceformality/*.py"), **_trees("tests/*.py")}
    unread = {os.path.relpath(path, ROOT): unread_imports(tree)
              for path, tree in trees.items()
              if os.path.basename(path) != "__init__.py"}
    assert {path: names for path, names in unread.items() if names} == {}


def test_the_import_guard_sees_an_unread_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import json\nimport os.path\n"
                     "from fractions import Fraction, gcd as g\n\n"
                     "print(os.sep, g)\n")
    assert unread_imports(tree) == ["Fraction", "json"]
