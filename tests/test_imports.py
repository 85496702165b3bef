"""Module layout: imports sit at module top and form no cycle, and no
invariant is an assert statement."""

import ast
import os
import pathlib
import subprocess
import sys

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
