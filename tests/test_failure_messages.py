"""Solver failures name the instance they failed on.

Each failure here cannot happen on a working solver, so it is forced by
replacing one step of the solve; the message must still give the sizes a
reproduction needs.
"""

import dataclasses
import functools
import re

import pytest

import riskshare.improve
import riskshare.infconv
import riskshare.lp
import riskshare.qdescent
from riskshare.convex_order import AllocationVerdict, DominanceVerdict
from riskshare.errors import NoConvergence, NumericalBreakdown, SolverFailure
from riskshare.improve import build_split_grid, solve_improvement_lp
from riskshare.infconv import AgentProfile, StrictlyConvexProfile, share_point
from riskshare.maxcorr import max_correlation
from riskshare.measures import BallConfig, validate_joint_law, validate_measure
from riskshare.qdescent import j_value, minimize_q

ANTI = [(((1.0,), (-1.0,)), 0.5), (((0.0,), (2.0,)), 0.5)]
BALL = BallConfig(radius=2.0)


def _improvement_case():
    gamma0 = validate_joint_law(ANTI)
    return gamma0, build_split_grid(gamma0, h=1.0, ball=BALL)


def _spy_on_solve(monkeypatch, change):
    """Make ``lp.solve`` return ``change(outcome)``; each program it solved
    is listed with the outcome it returned."""
    real, seen = riskshare.lp.solve, []

    def solve(program, start=None):
        out = change(real(program, start=start))
        seen.append((program, out))
        return out

    monkeypatch.setattr(riskshare.lp, "solve", solve)
    return seen


def _size(seen) -> str:
    [(program, out)] = seen
    return f"({program.n_rows} x {program.n_vars} program, {out.pivots} pivots taken)"


def test_improvement_status_failure_names_the_program(monkeypatch):
    seen = _spy_on_solve(
        monkeypatch,
        lambda out: dataclasses.replace(
            out, status=riskshare.lp.LPStatus.INFEASIBLE, solution=None, pivots=7
        ),
    )
    with pytest.raises(SolverFailure, match="status infeasible") as info:
        solve_improvement_lp(*_improvement_case())
    assert _size(seen) in str(info.value)
    assert "7 pivots taken" in str(info.value)


def test_improvement_optimum_above_the_baseline_names_the_program(monkeypatch):
    seen = _spy_on_solve(monkeypatch, lambda out: dataclasses.replace(out, value=100.0))
    with pytest.raises(SolverFailure, match="optimum exceeds the baseline") as info:
        solve_improvement_lp(*_improvement_case())
    assert _size(seen) in str(info.value)


def test_failed_verification_names_the_failing_agents(monkeypatch):
    verdicts = (
        DominanceVerdict(True, False, None, 0.0),
        DominanceVerdict(False, False, None, 0.25),
    )
    monkeypatch.setattr(
        riskshare.improve,
        "allocation_dominates",
        lambda *args: AllocationVerdict(verdicts, False, False),
    )
    with pytest.raises(SolverFailure, match="independent dominance verification") as info:
        solve_improvement_lp(*_improvement_case())
    message = str(info.value)
    assert "agent 1 worst violation 2.500e-01" in message
    assert "agent 0" not in message


def test_dual_step_status_failure_names_the_program(monkeypatch):
    seen = _spy_on_solve(
        monkeypatch,
        lambda out: dataclasses.replace(
            out, status=riskshare.lp.LPStatus.UNBOUNDED, solution=None, duals=None, pivots=5
        ),
    )
    with pytest.raises(SolverFailure, match="status unbounded") as info:
        minimize_q(validate_joint_law(ANTI), ball=BALL)
    assert _size(seen) in str(info.value)
    assert "5 pivots taken" in str(info.value)


def test_coupling_failure_names_the_atom_counts(monkeypatch):
    _spy_on_solve(
        monkeypatch,
        lambda out: dataclasses.replace(out, status=riskshare.lp.LPStatus.UNBOUNDED),
    )
    xi = validate_measure([((0.0, 1.0), 0.5), ((1.0, 0.0), 0.5)])
    mu = validate_measure([((0.0, 0.0), 0.25), ((1.0, 1.0), 0.25), ((2.0, 0.0), 0.5)])
    with pytest.raises(SolverFailure, match="coupling program of 2 x 3 atoms reported unbounded"):
        max_correlation(xi, mu)


def test_negative_objective_names_the_instance(monkeypatch):
    real = riskshare.qdescent.share_points
    # splits far from the optimal ones cost more than the baseline
    monkeypatch.setattr(
        riskshare.qdescent, "share_points", lambda *args: real(*args) + 1.0
    )
    profile = StrictlyConvexProfile(
        dim=1,
        agents=(
            AgentProfile(eps=1.0),
            AgentProfile(eps=1.0, pieces=(((0.0,), 0.0), ((1.0,), -0.25))),
        ),
    )
    law = validate_joint_law(ANTI)
    with pytest.raises(NumericalBreakdown, match="objective evaluated to") as info:
        j_value(profile, law, BallConfig(radius=4.0))
    assert "(2 agents, 2 aggregate atoms, pieces per agent [1, 2])" in str(info.value)


#: A 2-D profile whose split at X takes five Newton steps.
PIECEWISE_2D = StrictlyConvexProfile(
    dim=2,
    agents=(
        AgentProfile(eps=1.0, pieces=(((0.0, 0.0), 0.0), ((1.0, 0.5), -0.5))),
        AgentProfile(
            eps=1.5,
            pieces=(((0.0, 0.0), 0.0), ((-0.5, 1.0), -0.25), ((0.5, 0.5), -0.75)),
        ),
    ),
)
X = (1.5, 0.5)
BALL_2D = BallConfig(radius=4.0)


def test_sharing_step_cap_names_the_instance(monkeypatch):
    assert share_point(PIECEWISE_2D, X, BALL_2D).iterations > 1
    monkeypatch.setattr(riskshare.infconv, "MAX_OUTER_ITER", 1)
    with pytest.raises(NoConvergence, match="not reached in 1 iterations") as info:
        share_point(PIECEWISE_2D, X, BALL_2D)
    message = str(info.value)
    assert "2-D sharing of x = (1.5, 0.5) among 2 agents with [2, 3] pieces" in message
    assert re.search(r"residual \d\.\d{3}e[-+]\d+ at iteration 1$", message), message


def test_inner_failure_is_wrapped_with_the_instance(monkeypatch):
    monkeypatch.setattr(
        riskshare.infconv,
        "_simplex_qp",
        functools.partial(riskshare.infconv._simplex_qp, max_passes=0),
    )
    with pytest.raises(NoConvergence) as info:
        share_point(PIECEWISE_2D, X, BALL_2D)
    message = str(info.value)
    assert message.startswith(
        "2-D sharing of x = (1.5, 0.5) among 2 agents with [2, 3] pieces: "
        "active-set QP hit its pass cap of 0"
    )
    assert message.endswith("residual inf at iteration 0")
    assert isinstance(info.value.__cause__, NoConvergence)
