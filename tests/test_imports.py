"""Module layout: imports sit at module top and form no cycle, the
package imports exactly its declared dependencies, and no invariant is an
assert statement."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import soltes

PACKAGE = pathlib.Path(soltes.__file__).parent


def test_no_import_inside_a_function():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {fn.name}"
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, found


def test_no_assert_statement():
    # python -O strips asserts, so an invariant must raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_codec_does_not_import_cayley():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys, soltes.codec; "
            "sys.exit('soltes.cayley' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert done.returncode == 0


def test_every_private_helper_has_a_caller():
    # a private module-level function or method that nothing in the
    # package calls, outside its own body, is kept alive only by tests
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    helpers = []
    for name, tree in trees.items():
        for node in tree.body:
            scope = node.body if isinstance(node, ast.ClassDef) else [node]
            helpers += [(name, fn) for fn in scope
                        if isinstance(fn, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                        and fn.name.startswith("_")
                        and not (fn.name.startswith("__")
                                 and fn.name.endswith("__"))]
    uses = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((name, node))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((name, node))
    unused = []
    for name, fn in helpers:
        inside = {id(node) for node in ast.walk(fn)}
        if all(where == name and id(node) in inside
               for where, node in uses.get(fn.name, ())):
            unused.append(f"{name}:{fn.lineno} {fn.name}")
    assert not unused, unused


def test_package_imports_exactly_its_declared_dependencies():
    # every third-party module the package imports is a declared runtime
    # dependency, every declared one is imported, and no test-only extra
    # is a runtime import
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]

    def names(specs):
        return {re.match(r"[\w.-]+", spec)[0].lower().replace("-", "_")
                for spec in specs}

    declared = names(project["dependencies"])
    test_only = names(project["optional-dependencies"]["test"])
    assert {"networkx", "hypothesis", "pytest"} <= test_only
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"soltes"}
    assert not third_party & test_only, third_party & test_only
    assert third_party == declared
