"""Dual potential evaluation, and the upper bound J on the improvement gap.

For a profile of agent costs ``psi`` and a baseline allocation law, the
objective

    J(psi) = E[ sum_i psi_i(X_i) ] - E[ (box)psi(sum_i X_i) ]

is nonnegative and vanishes exactly when the baseline already splits every
aggregate state optimally.  By weak duality every convex profile gives a J
at least the gap, so J is an upper companion bound to the improvement
statistic computed by :mod:`riskshare.improve`.  :func:`minimize_q` starts
from the pure quadratics; in one dimension it then takes one exact dual
step, the potential that the improvement program's own duals give
(``improve.dual_potential``), from the finest grid step of the doubling
ladder from ``default_step`` whose program fits the builders' caps and
solves, unless the caller hands it an ``EfficiencyReport``'s program and
optimum.  In ``d >= 2`` it descends J inside the quadratic-plus-max-affine
family by adding affine cutting pieces.
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
_STEP_GRID = tuple(2.0**k for k in range(-6, 7))
_ZERO_TOL = 1e-9  # induced marginals match the baseline: no discrepancy weight above it
_TARGET_SLACK = 1e-6
_DUPLICATE_PIECE_TOL = 1e-9

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


def _best_cut_atoms(
    profile: StrictlyConvexProfile, disc: tuple[SignedAtoms, ...]
) -> list[tuple[int, Coords, float]]:
    """Per agent, the tangent cut with the best first-order decrease.

    Candidate cuts are tangents of the quadratic growth at atoms of the
    signed discrepancy; the decrease estimate integrates the cut's pointwise
    increase of psi_i against that discrepancy (the directional derivative
    of J).  Agents with no descending candidate are left out.
    """
    cuts = []
    for i, entries in enumerate(disc):
        eps = profile.agents[i].eps
        A, b = profile.piece_arrays(i)
        X = np.array([x for x, _ in entries], dtype=float).reshape(-1, profile.dim)
        tops = (X @ A.T + b).max(axis=1).tolist()
        best = None
        for z, _ in entries:
            if all(c == 0.0 for c in z):
                continue
            half_nz = 0.5 * sum(c * c for c in z)
            der = 0.0
            for (x, w), top in zip(entries, tops):
                lin = eps * (sum(zc * xc for zc, xc in zip(z, x)) - half_nz)
                inc = lin - top
                if inc > 0.0:
                    der += w * inc
            if der < -ROUNDING and (best is None or der < best[0]):
                best = (der, z)
        if best is not None:
            cuts.append((i, best[1], -best[0]))
    return cuts


def _with_cuts(
    profile: StrictlyConvexProfile,
    cuts: Sequence[tuple[int, Coords, float]],
    sigma: float,
) -> Optional[StrictlyConvexProfile]:
    """Add, per listed agent, the step-scaled tangent piece at its surplus atom.

    The piece sigma*eps_i*(z.y - |z|^2/2) is the tangent line of the
    quadratic growth at z with its slope scaled by sigma; it raises the cost
    beyond z (where the induced law over-allocates) more than at z itself.
    Returns None when every cut duplicates an existing piece.
    """
    agents, added = list(profile.agents), False
    for i, z, _ in cuts:
        ag = agents[i]
        a = tuple(sigma * ag.eps * zk for zk in z)
        b = -sigma * ag.eps * 0.5 * sum(zk * zk for zk in z)
        duplicate = any(
            all(
                abs(old - v) <= _DUPLICATE_PIECE_TOL * (1.0 + abs(v))
                for old, v in zip((*pa, pb), (*a, b))
            )
            for pa, pb in ag.pieces
        )
        if not duplicate:
            agents[i] = AgentProfile(eps=ag.eps, pieces=ag.pieces + ((a, b),), quad=ag.quad)
            added = True
    return StrictlyConvexProfile(dim=profile.dim, agents=tuple(agents)) if added else None


def _dual_step(
    gamma0: JointLaw,
    es: Sequence[float],
    ball: BallConfig,
    marginals: Sequence[DiscreteMeasure],
    optimum: Optional[tuple[ImprovementProblem, lp.LPOutcome]],
) -> StrictlyConvexProfile:
    """The 1-D dual step's potential, from ``optimum`` when given.

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
    J <= ``ZERO_GAP`` otherwise.  In one dimension it takes one step, and
    none at ``max_iters == 0``: the potential of ``improve.dual_potential``,
    kept only when its J is lower.  Its duals come from ``optimum``, an
    optimum of ``gamma0``'s improvement program that the caller has solved
    under the same ``eps``, or else from the program at the finest step of
    ``_dual_step``'s ladder.  In ``d >= 2`` (where ``optimum`` is not used)
    each of at most ``max_iters`` iterations adds one tangent cutting piece
    per agent at that agent's most over-weighted baseline atom, with the
    scale chosen by a doubling line search, and is accepted only when J
    strictly decreases.  Either way the history is non-increasing, and
    stopping at ``max_iters`` with J above the stop sets ``hit_cap`` on the
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
    hit_cap = False
    if gamma0.dim == 1 and max_iters > 0 and j_cur > stop_at:
        iterations = 1
        dual = _dual_step(gamma0, es, ball, marginals, optimum)
        j_dual, shares_dual = _evaluate(dual, baseline, aggregate, ball)
        if j_dual < j_cur:
            j_cur, shares, profile = j_dual, shares_dual, dual
            history.append(j_cur)
    law_cur = _split_law(shares, aggregate[1])
    if gamma0.dim == 1:
        hit_cap = max_iters <= 0 and j_cur > stop_at
    else:
        for _ in range(max_iters):
            if j_cur <= stop_at:
                break
            disc = _discrepancies(marginals, law_cur)
            if max((abs(w) for d in disc for _, w in d), default=0.0) <= _ZERO_TOL:
                break  # induced law matches the baseline: no descent direction
            cuts = _best_cut_atoms(profile, disc)
            if not cuts:
                break
            accept_below = j_cur - ROUNDING * (1.0 + abs(j_cur))
            best = None
            cut_sets = [cuts]
            if len(cuts) > 1:
                # fall back to one agent at a time, strongest estimate first
                for single in sorted(cuts, key=lambda c: -c[2]):
                    cut_sets.append([single])
            for cut_set in cut_sets:
                for sigma in _STEP_GRID:
                    trial = _with_cuts(profile, cut_set, sigma)
                    if trial is None:
                        continue
                    j_t, shares_t = _evaluate(trial, baseline, aggregate, ball)
                    # a later trial must lower J beyond rounding to replace the best one
                    if best is None or j_t < best[0] - ROUNDING * (1.0 + abs(best[0])):
                        best = (j_t, shares_t, trial)
                if best is not None and best[0] < accept_below:
                    break  # the joint cut already improves; skip the fallback
            iterations += 1
            if best is None or best[0] >= accept_below:
                break  # no step-scaled cut improves: local stall
            j_cur, shares, profile = best
            law_cur = _split_law(shares, aggregate[1])
            history.append(j_cur)
        else:
            hit_cap = j_cur > stop_at

    return QState(
        profile=profile,
        j=j_cur,
        gamma_psi=law_cur,
        marginal_discrepancies=_discrepancies(marginals, law_cur),
        iterations=iterations,
        hit_cap=hit_cap,
        j_history=tuple(history),
    )
