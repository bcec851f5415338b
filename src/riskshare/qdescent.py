"""Dual potential evaluation, and the upper bound J on the improvement gap.

For a profile of agent costs ``psi`` and a baseline allocation law, the
objective

    J(psi) = E[ sum_i psi_i(X_i) ] - E[ (box)psi(sum_i X_i) ]

is nonnegative and vanishes exactly when the baseline already splits every
aggregate state optimally.  By weak duality every convex profile gives a J
at least the gap, so J is an upper companion bound to the improvement
statistic computed by :mod:`riskshare.improve`.  :func:`minimize_q` starts
from the pure quadratics and then, in every dimension, takes one exact
dual step: the potential that the improvement program's own duals give
(``improve.dual_potential``), from the finest grid step of the doubling
ladder from ``default_step`` whose program fits the builders' caps and
solves, unless the caller hands it an ``EfficiencyReport``'s program and
optimum.  The grid enumerates each agent's marginal box, so a program is
over the caps only when the agents' boxes are wide against the step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import lp
from .errors import DimensionMismatch, InputError, NumericalBreakdown, ProblemTooLarge
from .improve import (
    ZERO_GAP,
    ImprovementProblem,
    _cost_weights,
    build_improvement_problem,
    build_split_grid,
    default_radius,
    default_step,
    dual_potential,
    solve_problem,
)
from .infconv import AgentProfile, StrictlyConvexProfile, _expected_cost, _split_law, share_points
from .measures import (
    ROUNDING,
    BallConfig,
    Coords,
    DiscreteMeasure,
    JointLaw,
    _checked_number,
    _merge_weighted,
    marginal,
    require_shares_in_ball,
    sum_pushforward,
)

MATCH_TOL = 1e-7  # atom-matching resolution for marginal discrepancies
DEFAULT_MAX_ITERS = 500
_TARGET_SLACK = 1e-6

SignedAtoms = tuple[tuple[Coords, float], ...]


@dataclass(frozen=True)
class QState:
    """A descent iterate: the potential, its objective, and diagnostics."""

    profile: StrictlyConvexProfile
    j: float
    gamma_psi: JointLaw
    marginal_discrepancies: tuple[SignedAtoms, ...]
    iterations: int
    hit_cap: bool
    j_history: tuple[float, ...]


def _check_shapes(profile: StrictlyConvexProfile, gamma0: JointLaw) -> None:
    if profile.dim != gamma0.dim:
        raise DimensionMismatch(
            f"profile dimension {profile.dim} != law dimension {gamma0.dim}"
        )
    if profile.n_agents != gamma0.agents:
        raise DimensionMismatch(
            f"profile has {profile.n_agents} agents, law has {gamma0.agents}"
        )


def _atom_arrays(law) -> tuple[np.ndarray, list[float]]:
    """The support points of a measure ``(n, d)`` or joint law ``(n, p, d)``
    as one array, and the weights."""
    points = law.component_array() if isinstance(law, JointLaw) else law.support_array()
    return points, law.weights_array().tolist()


def _evaluate(
    profile: StrictlyConvexProfile,
    baseline: tuple[np.ndarray, list[float]],
    aggregate: tuple[np.ndarray, list[float]],
    ball: BallConfig,
) -> tuple[float, np.ndarray]:
    """J(profile) together with the shares ``(n, p, d)`` of the optimal splits
    of the aggregate atoms, from the atom arrays of the baseline law and of
    its aggregate; only the iterates that are kept need their law."""
    xs, weights = aggregate
    shares = share_points(profile, xs, ball)
    j = _expected_cost(profile, *baseline) - _expected_cost(profile, shares, weights)
    if j < -ZERO_GAP:
        pieces = [len(ag.pieces) for ag in profile.agents]
        raise NumericalBreakdown(
            f"objective evaluated to {j:.3e} ({profile.n_agents} agents, {len(weights)} "
            f"aggregate atoms, pieces per agent {pieces}); an optimal split was overestimated"
        )
    return j, shares


def j_value(
    profile: StrictlyConvexProfile,
    gamma0: JointLaw,
    ball: Optional[BallConfig] = None,
) -> float:
    """Excess cost of the baseline over the optimal sharing of its aggregate."""
    _check_shapes(profile, gamma0)
    ball = ball if ball is not None else BallConfig(radius=default_radius(gamma0))
    require_shares_in_ball(gamma0, ball)
    aggregate = _atom_arrays(sum_pushforward(gamma0))
    j, _ = _evaluate(profile, _atom_arrays(gamma0), aggregate, ball)
    return j


def _signed_diff(a: DiscreteMeasure, b: DiscreteMeasure) -> SignedAtoms:
    """Atoms of the signed measure ``a - b``; points within MATCH_TOL merge."""
    entries = [(x, w) for x, w in a.atoms] + [(x, -w) for x, w in b.atoms]
    merged = _merge_weighted(entries, MATCH_TOL)
    return tuple((x, float(w)) for x, w in merged if abs(w) > ROUNDING)


def _discrepancies(baseline: list[DiscreteMeasure], law: JointLaw) -> tuple[SignedAtoms, ...]:
    return tuple(_signed_diff(m, marginal(law, i)) for i, m in enumerate(baseline))


def _dual_step(
    gamma0: JointLaw,
    es: Sequence[float],
    ball: BallConfig,
    marginals: Sequence[DiscreteMeasure],
    optimum: Optional[tuple[ImprovementProblem, lp.LPOutcome]],
) -> StrictlyConvexProfile:
    """The dual step's potential, from ``optimum`` when given.

    Otherwise it comes from the improvement program at the grid step
    ``default_step``, 2x, 4x, ...: the first that the builders admit under
    their caps and that the simplex solves.  Any convex potential bounds
    the gap, so a coarser program's still does.  Once the step exceeds the
    ball's diameter, where the lattice has at most one point per axis, the
    last ``ProblemTooLarge`` or ``NumericalBreakdown`` is raised.
    """
    h = default_step(gamma0, ball) if optimum is None else None
    while optimum is None:
        try:
            problem = build_improvement_problem(gamma0, build_split_grid(gamma0, h, ball), es)
            optimum = (problem, solve_problem(problem))
        except (ProblemTooLarge, NumericalBreakdown):
            if h > 2.0 * ball.radius:
                raise
            h *= 2.0
    return dual_potential(*optimum, marginals, es)


def minimize_q(
    gamma0: JointLaw,
    *,
    ball: Optional[BallConfig] = None,
    eps: Optional[Sequence[float]] = None,
    max_iters: int = DEFAULT_MAX_ITERS,
    target: Optional[float] = None,
    optimum: Optional[tuple[ImprovementProblem, lp.LPOutcome]] = None,
) -> QState:
    """Lower J from the pure quadratic costs ``(eps_i / 2) |y|^2``
    (``eps`` defaults to all ones).

    The search stops once J is within 1e-6 of ``target`` when one is given
    (e.g. the improvement statistic of the same instance), and at
    J <= ``ZERO_GAP`` otherwise.  It takes one step, and none at
    ``max_iters == 0``: the potential of ``improve.dual_potential``, kept
    only when its J is lower, so the history is non-increasing.  Its duals
    come from ``optimum``, an optimum of ``gamma0``'s improvement program
    that the caller has solved under the same ``eps``, or else from the
    program at the finest step of ``_dual_step``'s ladder.  ``iterations``
    is 1 when the step was taken and 0 otherwise; stopping at
    ``max_iters == 0`` with J above the stop sets ``hit_cap`` on the
    returned state rather than raising.
    """
    p = gamma0.agents
    es = _cost_weights(eps, p)
    if target is not None:
        target = _checked_number(target, math.isfinite, "target must be finite or None")
    if not (isinstance(max_iters, numbers.Integral) and max_iters >= 0):
        raise InputError(f"max_iters must be a non-negative integer, got {max_iters!r}")
    profile = StrictlyConvexProfile(
        dim=gamma0.dim, agents=tuple(AgentProfile(eps=e) for e in es)
    )
    ball = ball if ball is not None else BallConfig(radius=default_radius(gamma0))
    require_shares_in_ball(gamma0, ball)
    baseline, aggregate = _atom_arrays(gamma0), _atom_arrays(sum_pushforward(gamma0))
    marginals = [marginal(gamma0, i) for i in range(p)]

    j_cur, shares = _evaluate(profile, baseline, aggregate, ball)
    history = [j_cur]
    stop_at = ZERO_GAP if target is None else max(target, 0.0) + _TARGET_SLACK
    iterations = 0
    if max_iters > 0 and j_cur > stop_at:
        iterations = 1
        dual = _dual_step(gamma0, es, ball, marginals, optimum)
        j_dual, shares_dual = _evaluate(dual, baseline, aggregate, ball)
        if j_dual < j_cur:
            j_cur, shares, profile = j_dual, shares_dual, dual
            history.append(j_cur)
    law_cur = _split_law(shares, aggregate[1])
    return QState(
        profile=profile,
        j=j_cur,
        gamma_psi=law_cur,
        marginal_discrepancies=_discrepancies(marginals, law_cur),
        iterations=iterations,
        hit_cap=max_iters == 0 and j_cur > stop_at,
        j_history=tuple(history),
    )
