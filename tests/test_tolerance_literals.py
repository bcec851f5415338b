"""Tolerance policy: no small float literal inside a function body.

A tolerance is a rule, so it gets a module-level name (next to
``DEFAULT_TOL``, ``BALL_TOL``, ``CERT_TOL`` and the rest) that says what it
decides; a bare ``1e-12`` deep in a solver says nothing and drifts apart
from its siblings.  This test parses every module of the package and
fails, naming the file and line, on any float literal in ``(0, 1e-3)``
inside a function or lambda body.  Module-level constants are allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riskshare"
SMALL = 1e-3


def _small_literals(tree: ast.Module):
    """``(line, value)`` of each small float literal inside a function body."""
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bodies = node.body
        elif isinstance(node, ast.Lambda):
            bodies = [node.body]
        else:
            continue
        for stmt in bodies:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Constant)
                    and type(sub.value) is float
                    and 0.0 < sub.value < SMALL
                ):
                    seen.add((sub.lineno, sub.col_offset, sub.value))
    return sorted(seen)


def test_no_small_float_literal_in_a_function_body():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "infconv.py" in paths  # the scan is not vacuous
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, _, value in _small_literals(tree):
            offenders.append(f"{path.relative_to(PACKAGE.parent)}:{line}: {value!r}")
    assert not offenders, (
        "name these tolerances as module-level constants:\n" + "\n".join(offenders)
    )


def test_the_check_sees_function_and_lambda_bodies_only():
    src = (
        "TOL = 1e-9\n"
        "def f(x, tol=1e-8):\n"
        "    return x > 1e-12\n"
        "g = lambda y: y < -1e-6\n"
        "class C:\n"
        "    SLACK = 1e-7\n"
        "    def m(self):\n"
        "        return 0.5 + 2e-4\n"
    )
    lines = [line for line, _, _ in _small_literals(ast.parse(src))]
    assert lines == [3, 4, 8]
