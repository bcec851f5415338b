"""Malformed input is refused with a ``RiskShareError`` that names it.

The README promises that every failure raises a subclass of
``RiskShareError``; non-numeric values and empty or missing parts must not
escape as a bare ``ValueError``, ``TypeError`` or ``IndexError`` from the
conversion that meets them.
"""

import numpy as np
import pytest

from riskshare.errors import DimensionMismatch, InputError
from riskshare.improve import (
    build_improvement_problem,
    build_split_grid,
    dual_potential,
    efficiency_statistic,
    solve_problem,
)
from riskshare.infconv import (
    AgentProfile,
    StrictlyConvexProfile,
    quadratic_profile,
    quadratic_sharing_matrix,
    share_point,
    share_points,
)
from riskshare.lp import LinearProgram, feasible
from riskshare.measures import (
    BallConfig,
    dirac,
    joint_law_from_obj,
    marginal,
    measure_from_json,
    validate_joint_law,
    validate_measure,
)
from riskshare.qdescent import minimize_q

PROFILE = quadratic_profile([np.eye(2), 2.0 * np.eye(2)])
BALL = BallConfig(radius=5.0)
LAW = validate_joint_law([(((1.0,), (-1.0,)), 0.5), (((0.0,), (2.0,)), 0.5)])
LAW_2D = validate_joint_law([(((1.0, 0.0), (0.0, 1.0)), 0.5), (((0.0, 1.0), (1.0, 0.0)), 0.5)])
RAGGED = [[1.0, 0.0], [1.0]]


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: measure_from_json('{"dim":1,"atoms":[{"x":["a"],"w":1}]}'), "['a']"),
        (lambda: validate_measure([((1.0,), "w")]), "'w'"),
        (lambda: validate_joint_law([((1.0, 0.0), 1.0)]), "point 1.0"),
        (lambda: dirac(("a",)), "('a',)"),
        (lambda: BallConfig(radius="x"), "'x'"),
        (lambda: BallConfig(radius=1.0, center=("a",)), "('a',)"),
        (lambda: share_point(PROFILE, ("a", 0.0), BALL), "('a', 0.0)"),
        (lambda: share_points(PROFILE, [[1.0, 2.0], [1.0]], BALL), "[[1.0, 2.0], [1.0]]"),
        (lambda: quadratic_profile([]), "at least one matrix"),
        (lambda: LinearProgram(c=["a"], A=np.zeros((1, 1)), b=np.zeros(1)), "['a']"),
        (lambda: LinearProgram(c=np.zeros(2), A=RAGGED, b=np.zeros(2)), repr(RAGGED)),
        (lambda: feasible(RAGGED, np.zeros(2)), repr(RAGGED)),
        (
            lambda: StrictlyConvexProfile(dim=1, agents=(AgentProfile(eps="a"),)),
            "'a'",
        ),
        (
            lambda: StrictlyConvexProfile(dim=1, agents=(AgentProfile(pieces=((("a",), 0.0),)),)),
            "('a',)",
        ),
        (
            lambda: StrictlyConvexProfile(dim=2, agents=(AgentProfile(quad=RAGGED),)),
            repr(RAGGED),
        ),
        (lambda: minimize_q(LAW, eps=["a", 1.0]), "['a', 1.0]"),
        (lambda: efficiency_statistic(LAW, eps=["a", 1.0]), "['a', 1.0]"),
        (lambda: minimize_q(LAW, target="a"), "'a'"),
        (lambda: minimize_q(LAW, target=float("nan")), "nan"),
        (lambda: minimize_q(LAW, max_iters="3"), "'3'"),
        (lambda: minimize_q(LAW_2D, max_iters=2.5), "2.5"),
        (lambda: minimize_q(LAW, max_iters=-1), "-1"),
        (lambda: build_split_grid(LAW, "a", BALL), "'a'"),
        (lambda: efficiency_statistic(LAW, tol="a"), "'a'"),
        (lambda: efficiency_statistic(LAW, tol=float("nan")), "nan"),
    ],
    ids=[
        "measure-json-coordinate",
        "measure-weight",
        "joint-law-point",
        "dirac",
        "ball-radius",
        "ball-center",
        "share-point-x",
        "share-points-ragged",
        "quadratic-profile-empty",
        "lp-cost",
        "lp-ragged-matrix",
        "feasible-ragged-matrix",
        "profile-eps",
        "profile-piece-slope",
        "profile-ragged-quad",
        "minimize-q-eps",
        "efficiency-statistic-eps",
        "minimize-q-target",
        "minimize-q-target-nan",
        "minimize-q-max-iters-string",
        "minimize-q-max-iters-fraction-2d",
        "minimize-q-max-iters-negative",
        "split-grid-step",
        "efficiency-statistic-tol",
        "efficiency-statistic-tol-nan",
    ],
)
def test_non_numeric_input_is_an_input_error(call, named):
    with pytest.raises(InputError) as info:
        call()
    assert named in str(info.value)


def test_ball_radius_is_kept_as_a_float():
    assert type(BallConfig(radius=2).radius) is float


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: StrictlyConvexProfile(dim=0, agents=(AgentProfile(),)),
            DimensionMismatch,
            "profile dimension must be >= 1",
        ),
        (
            lambda: StrictlyConvexProfile(dim=1, agents=()),
            InputError,
            "profile needs at least one agent",
        ),
        (lambda: quadratic_sharing_matrix([]), InputError, "need at least one matrix"),
        (
            lambda: LinearProgram(c=np.zeros(0), A=np.zeros((2, 0)), b=np.zeros(2)),
            InputError,
            "program needs at least one variable",
        ),
        (lambda: joint_law_from_obj({"agents": 1}), InputError, "malformed joint-law object"),
    ],
    ids=["profile-dim-0", "profile-no-agents", "sharing-matrix-empty", "lp-no-column", "joint-law-no-dim"],
)
def test_empty_or_missing_parts_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_dual_potential_needs_every_marginal():
    gamma0 = validate_joint_law([(((1.0,), (-1.0,)), 0.5), (((0.0,), (2.0,)), 0.5)])
    problem = build_improvement_problem(
        gamma0, build_split_grid(gamma0, 0.5, BallConfig(radius=4.0)), [1.0, 1.0]
    )
    with pytest.raises(DimensionMismatch, match="2 agents, got 1 marginals"):
        dual_potential(problem, solve_problem(problem), [marginal(gamma0, 0)], [1.0])
