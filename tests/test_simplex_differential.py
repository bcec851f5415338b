"""The lean pivot loop takes the reference loop's pivots, one for one.

``loop_simplex`` keeps the pivot loop that ``riskshare.lp`` replaced: it
sorted every candidate list, refactorised the whole basis before every
verdict and updated whole rows of the inverse.  Both loops run inside the
same two-phase solve, with every entering column tried (each ``ftran``) and
every leaving slot taken (each rank-one update, ``lp._pivot`` or
``loop_simplex.pivot``) logged; the logs, the pivot counts and the outcomes
must agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings

import loop_simplex
import riskshare.lp as lp
from riskshare.errors import NumericalBreakdown
from riskshare.improve import build_improvement_problem, build_split_grid, default_step
from riskshare.lp import LinearProgram, LPStatus, solve
from riskshare.measures import BallConfig, validate_joint_law
from test_lp import GRID_LADDER, sparse_programs, started_programs


def _traced(loop, run):
    """The log of pivot steps of ``run()`` under the pivot loop ``loop``.

    Returns the log, the outcome (or the breakdown's message) and whether
    the loop switched to Bland's rule.
    """
    events, bland = [], []
    ftran, entering = lp._Columns.ftran, lp._entering

    def ftran_logged(self, invB, j):
        events.append(("enter", int(j)))
        return ftran(self, invB, j)

    def pivot_logged(pivot):
        def logged(invB, d, r):
            events.append(("leave", int(r)))
            return pivot(invB, d, r)

        return logged

    def entering_logged(z, n_enter, use_bland):
        bland.append(use_bland)
        return entering(z, n_enter, use_bland)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp._Columns, "ftran", ftran_logged)
        mp.setattr(lp, "_pivot", pivot_logged(lp._pivot))
        mp.setattr(loop_simplex, "pivot", pivot_logged(loop_simplex.pivot))
        mp.setattr(lp, "_entering", entering_logged)
        if loop is not None:
            mp.setattr(lp, "_simplex_iterations", loop)
        try:
            outcome = run()
        except NumericalBreakdown as exc:
            outcome = str(exc)
    return events, outcome, any(bland)


def assert_same_pivots(run) -> bool:
    """Run under both loops; returns whether the lean one switched to Bland's rule."""
    ref_events, ref, _ = _traced(loop_simplex.simplex_iterations, run)
    events, out, bland = _traced(None, run)
    assert events == ref_events
    if isinstance(ref, str):
        assert out == ref
        return bland
    assert out.status is ref.status
    assert out.pivots == ref.pivots
    if ref.status is LPStatus.OPTIMAL:
        # the verdict's values come from another factorisation: equal to rounding
        assert out.value == pytest.approx(ref.value, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(out.solution, ref.solution, rtol=0, atol=1e-9)
        np.testing.assert_allclose(out.duals, ref.duals, rtol=0, atol=1e-9)
    return bland


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sparse_programs)
def test_sparse_programs(program):
    assert_same_pivots(lambda: solve(program))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(started_programs)
def test_started_programs(case):
    program, x0 = case
    assert_same_pivots(lambda: solve(program, start=x0))


def test_feasibility_programs():
    rng = np.random.RandomState(22)
    for _ in range(20):
        m = rng.randint(1, 5)
        A = np.round(rng.randn(m, m + rng.randint(1, 7)), 3)
        b = np.round(rng.randn(m), 3) * 10.0
        assert_same_pivots(lambda: lp.feasible(A, b))


#: Chvátal's cycling example: Dantzig's rule, with these loops'
#: tie-breaking, gives way to Bland's after 21 pivots cold, 20 started.
CHVATAL = LinearProgram(
    c=[-10.0, 57.0, 9.0, 24.0, 0.0, 0.0, 0.0],
    A=[
        [0.5, -5.5, -2.5, 9.0, 1.0, 0.0, 0.0],
        [0.5, -1.5, -0.5, 1.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    ],
    b=[0.0, 0.0, 1.0],
)
#: Beale's cycling example: these loops' tie-breaking solves it under
#: Dantzig's rule.
BEALE = LinearProgram(
    c=[0.0, 0.0, 0.0, -0.75, 150.0, -0.02, 6.0],
    A=[
        [1.0, 0.0, 0.0, 0.25, -60.0, -0.04, 9.0],
        [0.0, 1.0, 0.0, 0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
    ],
    b=[0.0, 0.0, 1.0],
)


@pytest.mark.parametrize("start", [None, np.eye(7)[6]], ids=["cold", "started"])
def test_degenerate_program_reaches_blands_rule(start):
    assert assert_same_pivots(lambda: solve(CHVATAL, start=start))


def test_beales_program():
    assert not assert_same_pivots(lambda: solve(BEALE))


def test_stalled_first_candidate():
    # the cheapest column's only entry, 5e-12, is too small to pivot on, so
    # the second candidate enters; afterwards the first stalls alone and the
    # run breaks down, in both loops alike
    program = LinearProgram(c=[0.0, -10.0, -1.0], A=[[1.0, 5e-12, 1.0]], b=[1.0])
    events, outcome, _ = _traced(None, lambda: solve(program, start=[1.0, 0.0, 0.0]))
    assert ("enter", 1) in events and ("enter", 2) in events
    assert "all usable pivot entries below" in outcome
    assert_same_pivots(lambda: solve(program, start=[1.0, 0.0, 0.0]))


def test_refactorisations_mid_run(monkeypatch):
    # refactorise every 3 pivots, so both loops pass many refactorisations
    monkeypatch.setattr(lp, "REFACTOR_INTERVAL", 3)
    gamma0 = validate_joint_law(list(zip(*GRID_LADDER[0][:2])))
    problem = build_improvement_problem(
        gamma0, build_split_grid(gamma0, 0.25, BallConfig(radius=2.5)), [1.0, 1.0]
    )
    assert_same_pivots(lambda: solve(problem.program, start=problem.baseline))


def _improvement_run(gamma0, h, ball):
    problem = build_improvement_problem(gamma0, build_split_grid(gamma0, h, ball), [1.0, 1.0])
    return lambda: solve(problem.program, start=problem.baseline)


@pytest.mark.parametrize(
    "law, weights, radius, steps",
    GRID_LADDER,
    ids=["improvable-1d", "efficient-1d", "improvable-2d", "efficient-2d"],
)
def test_grid_ladder_programs(law, weights, radius, steps):
    gamma0 = validate_joint_law(list(zip(law, weights)))
    for h in steps:
        assert_same_pivots(_improvement_run(gamma0, h, BallConfig(radius=radius)))


def _sandwich_laws():
    """The 20 two-agent 1-D laws of acceptance criterion 4."""
    rng = np.random.RandomState(404)
    laws = []
    for _ in range(17):
        n = rng.randint(2, 6)
        pts = rng.randint(-2, 3, size=(n, 2, 1)).astype(float)
        w = rng.rand(n) + 0.2
        w /= w.sum()
        laws.append(validate_joint_law([(tuple(map(tuple, pts[i])), w[i]) for i in range(n)]))
    return laws + [
        validate_joint_law([(((1.0,), (-1.0,)), 0.5), (((0.0,), (2.0,)), 0.5)]),
        validate_joint_law([(((0.0,), (0.0,)), 0.5), (((1.0,), (1.0,)), 0.5)]),
        validate_joint_law(
            [(((0.0,), (0.0,)), 0.3), (((0.5,), (0.5,)), 0.3), (((1.0,), (1.0,)), 0.4)]
        ),
    ]


@pytest.mark.parametrize("k", range(20))
def test_sandwich_programs(k):
    # each sandwich instance solves the program at h = 0.5, and the dual
    # step's program at the default step
    gamma0, ball = _sandwich_laws()[k], BallConfig(radius=6.0)
    for h in (0.5, default_step(gamma0, ball)):
        assert_same_pivots(_improvement_run(gamma0, h, ball))
