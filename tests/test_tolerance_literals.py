"""Tolerance policy: no small float literal inside a function body, and
one name per rule.

A tolerance is a rule, so it gets a module-level name (next to
``DEFAULT_TOL``, ``BALL_TOL``, ``CERT_TOL`` and the rest) that says what it
decides; a bare ``1e-12`` deep in a solver says nothing and drifts apart
from its siblings.  This test parses every module of the package and
fails, naming the file and line, on any float literal in ``(0, 1e-3)``
inside a function or lambda body.  Module-level constants are allowed,
but two of them with the same value must be distinct rules, each with its
reason in ``DISTINCT_RULES``.
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


# Module-level tolerances that share a value with another one, each with the
# rule that keeps it apart.  A new constant whose value is already taken
# either reuses the rule's name or earns a line here.
DISTINCT_RULES = {
    # 1e-12
    "measures.MERGE_TOL": "absolute distance at which two atoms are one point",
    "measures.ROUNDING": "a difference within this fraction of its scale is rounding",
    "lp.ZERO_WEIGHT": "a primal value of a program is zero; lp imports only errors",
    # 1e-9
    "improve._DEDUP_RES": "snapping grid that identifies candidate points, not a slack",
    "improve.ZERO_GAP": "the statistic or J is zero; below its negative the solve broke",
    "infconv.CERT_TOL": "KKT slack: an affine piece counts as active",
    "lp.OPT_TOL": "a reduced cost counts as nonnegative",
    "measures.WEIGHT_SUM_TOL": "a weight sum this far from 1 is an input error",
    "measures.BALL_TOL": "relative slack of the ball rule",
    "qdescent._ZERO_TOL": "the induced marginals match the baseline",
    "qdescent._DUPLICATE_PIECE_TOL": "a cut duplicates an existing affine piece",
    # 1e-8
    "infconv.DEPENDENCE_RATIO": "sqrt(machine epsilon): slopes count as dependent",
    "lp.FEAS_TOL": "primal residual and phase-1 objective of a feasible program",
    "measures.DEFAULT_TOL": "the user-facing default tolerance of verdicts",
    # 1e-7
    "improve._VERIFY_TOL_FLOOR": "least tolerance of the re-verification of an improved law",
    "lp.CERTIFICATE_TOL": "residual a certified optimum may leave",
    "qdescent.MATCH_TOL": "resolution at which atoms of two marginals match",
}


def _module_tolerances(tree: ast.Module) -> dict:
    """``name: value`` of each module-level float constant in ``(0, SMALL)``;
    a name bound to another such name counts with its value."""
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        if isinstance(stmt.value, ast.Name):
            value = found.get(stmt.value.id)
        else:
            try:
                value = ast.literal_eval(stmt.value)
            except ValueError:
                continue
        if type(value) is float and 0.0 < value < SMALL:
            found.update((t.id, value) for t in targets if isinstance(t, ast.Name))
    return found


def test_no_two_tolerances_share_a_value_without_a_reason():
    by_value: dict = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, value in _module_tolerances(tree).items():
            by_value.setdefault(value, []).append(f"{path.stem}.{name}")
    named = {name for names in by_value.values() for name in names}
    assert "lp.ZERO_WEIGHT" in named  # the scan is not vacuous
    unexplained = [
        f"{value!r}: {', '.join(n for n in names if n not in DISTINCT_RULES)}"
        for value, names in sorted(by_value.items())
        if len(names) > 1 and not set(names) <= DISTINCT_RULES.keys()
    ]
    assert not unexplained, (
        "these tolerances share a value with another one; reuse that rule's "
        "name or give each a line in DISTINCT_RULES:\n" + "\n".join(unexplained)
    )
    stale = sorted(DISTINCT_RULES.keys() - named)
    assert not stale, f"DISTINCT_RULES names constants that are gone: {stale}"


def test_the_table_check_sees_module_level_constants_only():
    src = (
        "A = 1e-9\n"
        "B: float = 2e-4\n"
        "C = A\n"
        "D = -A\n"
        "E = 0.5\n"
        "F = 10\n"
        "def f(x=3e-9):\n"
        "    G = 1e-9\n"
        "class K:\n"
        "    H = 1e-9\n"
    )
    assert _module_tolerances(ast.parse(src)) == {"A": 1e-9, "B": 2e-4, "C": 1e-9}
