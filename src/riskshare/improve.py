"""Constructive improvement of an allocation and the efficiency statistic.

Given a baseline allocation law ``gamma0``, search the set of allocations
that (a) share the same aggregate law and (b) dominate ``gamma0`` agent by
agent, for the one with the smallest total strictly-convex floor cost
``sum_i (eps_i/2)|y_i|^2``.  The search space is discretized: every
aggregate atom may be split along a lattice of candidate tuples (the
baseline's own splits always included), and the agent-wise dominance
constraints become linear through mean-preserving transition kernels
linking the unknown marginals to the baseline marginals.

A kernel sends the mass at a candidate point only to atoms whose
barycenter is that point, so a point beyond every atom of its agent's
baseline marginal along some axis can carry no mass; the program leaves it
out, with every split that uses it.

The baseline itself is always a feasible point of that program: each of
its atoms is a candidate split of the aggregate atom it sums to, and each
agent's identity kernel links its marginal to itself.  The program keeps
that point (``ImprovementProblem.baseline``) and the simplex starts from
its vertex, so phase 1 takes no pivot.

The drop from the baseline's cost to the optimal cost is the efficiency
statistic: zero (at tolerance) certifies that the baseline is already
undominated on the grid, while a positive value comes with a concrete
improving allocation, re-verified by the dominance checker before being
returned.

In one dimension the optimum's duals on each agent's baseline-marginal rows
also give a potential ``psi`` (``dual_potential``) whose dual objective J
bounds the gap from above; see :mod:`riskshare.qdescent`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import lp
from .convex_order import AllocationVerdict, allocation_dominates, plan_rows
from .errors import DimensionMismatch, InputError, ProblemTooLarge, SolverFailure
from .infconv import AgentProfile, StrictlyConvexProfile
from .measures import (
    DEFAULT_TOL,
    ROUNDING,
    BallConfig,
    Coords,
    DiscreteMeasure,
    JointLaw,
    _merge_targets,
    _tuple_sum,
    marginal,
    require_shares_in_ball,
    sum_pushforward,
    validate_joint_law,
)

#: Resolution for deduplicating candidate points (coordinates are snapped
#: to this grid only for identity purposes, never for arithmetic).
_DEDUP_RES = 1e-9
#: The zero of the sandwich statistic <= gap <= J: a nonnegative gap, the
#: statistic or J, is 0 within this, and below its negative the solve broke.
ZERO_GAP = 1e-9
#: Least tolerance of the independent dominance check of an improved law.
_VERIFY_TOL_FLOOR = 1e-7
#: Cap on the lattice splits ``build_split_grid`` may enumerate: the lattice
#: points of the ball's bounding box raised to ``agents - 1`` (at least 1),
#: times the aggregate atoms.
MAX_GRID_SPLITS = 100_000
#: Cap on the entries (rows times columns) of the dense improvement program
#: ``build_improvement_problem`` assembles: 40 MB as float64, about 65 times
#: the largest program the tests or ``perfbench`` build (201 x 385).
MAX_LP_ENTRIES = 5_000_000
#: How much steeper than the envelope's end edges the walls of
#: ``dual_potential`` rise beyond the baseline marginal's range.
WALL_SLOPE = 100.0

Split = tuple[Coords, ...]


def _keys(values: np.ndarray) -> np.ndarray:
    """Identity keys of coordinates: each divided by ``_DEDUP_RES`` and
    rounded half to even, kept as floats (exact integers).  A coordinate
    whose key would not be finite is refused with ``InputError``."""
    with np.errstate(over="ignore"):
        keys = np.rint(values / _DEDUP_RES)
    if not np.isfinite(keys).all():
        bad = float(values.flat[int(np.argmin(np.isfinite(keys)))])
        raise InputError(
            f"coordinate {bad!r} is too large to tell apart from its neighbours "
            f"at the resolution _DEDUP_RES = {_DEDUP_RES}"
        )
    return keys


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``keys``, numbered in order of first appearance.

    Returns the index of each distinct row's first occurrence, in that
    order, and for every row the number of its distinct row.
    """
    order = np.lexsort(keys.T)  # stable: equal rows adjacent, in row order
    ranked = keys[order]
    head = np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)])
    first = order[head]  # per distinct row, in key order
    number = np.empty_like(first)
    number[first.argsort()] = np.arange(first.size)
    inverse = np.empty_like(order)
    inverse[order] = number[head.cumsum() - 1]
    first.sort()
    return first, inverse


@dataclass(frozen=True, eq=False)
class SplitGrid:
    """Candidate splits of every aggregate atom, baseline splits included.

    ``baseline_splits`` gives, for each baseline atom, the aggregate atom
    that ``sum_pushforward`` merged it into and the index of its own split
    among that atom's candidates.
    """

    aggregate: DiscreteMeasure
    candidates: tuple[tuple[Split, ...], ...]
    h: float
    ball: BallConfig
    baseline_splits: tuple[tuple[int, int], ...]

    @property
    def total_candidates(self) -> int:
        return sum(len(c) for c in self.candidates)


def _lattice_points(h: float, ball: BallConfig, bounds) -> np.ndarray:
    """The points ``m * h`` of the ball, one per row, in lexicographic order of ``m``."""
    axes = [
        np.array([m * h for m in range(math.ceil(lo), math.floor(hi) + 1)], dtype=float)
        for lo, hi in bounds
    ]
    index = np.indices([len(axis) for axis in axes]).reshape(len(axes), -1)
    box = np.stack([axis[i] for axis, i in zip(axes, index)], axis=1)
    return box[ball.contains_rows(box)]


def build_split_grid(
    gamma0: JointLaw, h: float, ball: BallConfig, max_splits: Optional[int] = None
) -> SplitGrid:
    """Lattice splits of each aggregate atom, plus the baseline's own splits;
    ``ProblemTooLarge`` when they could number more than ``max_splits``
    (default ``MAX_GRID_SPLITS``).

    An atom's candidates are, in this order and each kept at its first
    appearance by identity key: the lattice points of the first ``p - 1``
    agents in lexicographic order, each completed by the last agent's share
    when that share lies in the ball, then the baseline's own splits of it.
    """
    if not (math.isfinite(h) and h > 0):
        raise InputError(f"grid step must be positive and finite, got {h!r}")
    d, p = gamma0.dim, gamma0.agents
    c = ball.center_for(d)
    require_shares_in_ball(gamma0, ball)
    m0 = sum_pushforward(gamma0)
    # lattice index bounds per axis, a step's rounding wider so that a point
    # on the ball's bounding box is kept; counted in floats before anything
    # is built, so that a step fine enough to overflow is refused too
    bounds = [
        (
            (ck - ball.radius) / h - ROUNDING,
            (ck + ball.radius) / h + ROUNDING,
        )
        for ck in c.tolist()
    ]
    box = math.prod(hi - lo + 1.0 for lo, hi in bounds)
    log_splits = max(p - 1, 1) * math.log(box) + math.log(m0.size)
    max_splits = MAX_GRID_SPLITS if max_splits is None else max_splits
    if not log_splits <= math.log(max_splits):
        raise ProblemTooLarge(
            f"grid step {h!r} is too fine for a ball of radius {ball.radius}: "
            f"the lattice splits of {m0.size} aggregate atoms among {p} agents "
            f"exceed the limit of {max_splits}"
        )
    lattice = _lattice_points(h, ball, bounds)
    # every (p-1)-tuple of lattice points, the first agent's point slowest,
    # completed for each aggregate atom by the last share when that is in the ball
    n_combos = len(lattice) ** (p - 1)
    combos = lattice[np.indices((len(lattice),) * (p - 1)).reshape(p - 1, n_combos).T]
    last = m0.support_array()[:, None, :] - np.sum(combos, axis=1)[None, :, :]
    inside = ball.contains_rows(last.reshape(-1, d)).reshape(m0.size, n_combos)
    heads = combos.reshape(1, n_combos, (p - 1) * d).repeat(m0.size, axis=0)
    lattice_splits = np.concatenate([heads, last], axis=2)[inside]
    # each baseline split is a candidate of the atom it sums to, and of
    # no other: a split of an atom 1e-11 away would change the sum law
    _, atom_of = _merge_targets([_tuple_sum(tup, d) for tup, _ in gamma0.atoms])
    own_splits = gamma0.component_array().reshape(gamma0.size, p * d)
    # rows by atom, each atom's lattice splits before its baseline splits
    atom = np.concatenate([np.nonzero(inside)[0], atom_of])
    order = np.argsort(atom, kind="stable")
    rows, atom = np.concatenate([lattice_splits, own_splits])[order], atom[order]
    first, number = _first_appearance(np.concatenate([atom[:, None], _keys(rows)], axis=1))
    starts = np.searchsorted(atom[first], np.arange(m0.size + 1)).tolist()
    moved_to = np.argsort(order)[len(lattice_splits) :]  # the baseline rows' places
    own = number[moved_to] - np.array(starts)[atom_of]
    splits = [tuple(map(tuple, split)) for split in rows[first].reshape(-1, p, d).tolist()]
    return SplitGrid(
        aggregate=m0,
        candidates=tuple(tuple(splits[lo:hi]) for lo, hi in zip(starts, starts[1:])),
        h=float(h),
        ball=ball,
        baseline_splits=tuple(zip(atom_of, own.tolist())),
    )


@dataclass(frozen=True, eq=False)
class ImprovementProblem:
    """Assembled equality-form program; column layout is gamma then kernels.

    ``baseline`` is the baseline law embedded in the program, a feasible
    point of it: each baseline atom's weight on its own split, and each
    agent's identity kernel.  Agent ``i``'s baseline-marginal rows start at
    ``marginal_rows[i]``, one per atom of its baseline marginal, in that
    marginal's order.
    """

    program: lp.LinearProgram
    grid: SplitGrid
    gamma_cols: tuple[tuple[int, ...], ...]  # per aggregate atom, per candidate; -1 if omitted
    baseline: np.ndarray
    marginal_rows: tuple[int, ...]


def _floor_cost(split: Split, eps: Sequence[float]) -> float:
    return sum(
        0.5 * e * float(np.dot(y, y)) for e, y in zip(eps, split)
    )


def _reachable(
    Z: np.ndarray, Y: np.ndarray, weighted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel entries from the points ``Z`` to the atoms ``Y`` that can carry mass.

    Entry ``(z, j)`` has coefficient ``Y_jk - z_k`` on the barycenter row
    ``(z, k)``.  A row whose nonzero coefficients on the open entries have
    one sign, all above ``lp.PIVOT_TOL`` in absolute value and none on a
    ``weighted`` entry, holds them at 0 and goes; this repeats until no row
    qualifies.  Returns the open entries and the kept rows.
    """
    D = Y[None, :, :] - Z[:, None, :]
    keeps = (np.abs(D) <= lp.PIVOT_TOL) | weighted[:, :, None]
    entries = np.ones(D.shape[:2], dtype=bool)
    rows = np.ones(Z.shape, dtype=bool)
    while True:
        on = (D != 0) & entries[:, :, None]
        two_sided = (on & (D > 0)).any(axis=1) & (on & (D < 0)).any(axis=1)
        forcing = rows & ~two_sided & ~(on & keeps).any(axis=1)
        if not forcing.any():
            return entries, rows
        entries &= ~(on & forcing[:, None, :]).any(axis=2)
        rows &= ~forcing


def build_improvement_problem(
    gamma0: JointLaw,
    grid: SplitGrid,
    eps: Sequence[float],
    max_entries: Optional[int] = None,
) -> ImprovementProblem:
    """The improvement program over the splits a mean-preserving kernel can reach.

    Columns: one weight per split kept, in candidate order, then per agent
    a kernel entry per kept point ``z`` and marginal atom ``j`` it reaches.
    Rows: one per aggregate atom, then per agent a link row per kept point,
    a marginal row per atom and the barycenter rows ``(z, k)`` kept.  A
    kernel sends the mass at ``z`` only to atoms with barycenter ``z``, so
    the program omits the entries and barycenter rows ``_reachable`` rules
    out, every split one of whose points then reaches no atom, and every
    point no kept split uses, with its rows and entries.  The baseline's
    splits always stay.  A program of more than ``max_entries`` entries
    (rows times columns, default ``MAX_LP_ENTRIES``) is refused with
    ``ProblemTooLarge``.
    """
    p, d, m0 = gamma0.agents, gamma0.dim, grid.aggregate
    sizes = [len(cands) for cands in grid.candidates]
    starts = np.cumsum([0] + sizes)
    own = np.array([int(starts[t]) + u for t, u in grid.baseline_splits])
    splits = np.array([split for cands in grid.candidates for split in cands], dtype=float)
    splits = splits.reshape(len(splits), p, d)
    margs = [marginal(gamma0, i) for i in range(p)]
    share_of = [_merge_targets([tup[i] for tup, _ in gamma0.atoms])[1] for i in range(p)]

    # per agent: the distinct candidate points in order of first appearance,
    # the point of each split, and what each point reaches, given that the
    # baseline weighs each share (as a point) on itself (as a marginal atom)
    agents = []
    for i in range(p):
        first, point_of = _first_appearance(_keys(splits[:, i, :]))
        weighted = np.zeros((first.size, margs[i].size), dtype=bool)
        weighted[point_of[own], share_of[i]] = True
        Z = splits[first, i, :]
        agents.append((Z, point_of, *_reachable(Z, margs[i].support_array(), weighted)))
    # a split stays when each of its points reaches an atom, and a point
    # when a split that stays uses it; points are renumbered among those kept
    kept = np.all([reach.any(axis=1)[point_of] for _, point_of, reach, _ in agents], axis=0)
    for i, (Z, point_of, reach, bary_rows) in enumerate(agents):
        used = np.zeros(len(Z), dtype=bool)
        used[point_of[kept]] = True
        agents[i] = (Z[used], (np.cumsum(used) - 1)[point_of], reach[used], bary_rows[used])

    n_gamma = int(np.count_nonzero(kept))
    n_vars = n_gamma + sum(int(reach.sum()) for _, _, reach, _ in agents)
    n_rows = m0.size + sum(
        len(Z) + m.size + int(r.sum()) for (Z, _, _, r), m in zip(agents, margs)
    )
    max_entries = MAX_LP_ENTRIES if max_entries is None else max_entries
    if n_rows * n_vars > max_entries:
        raise ProblemTooLarge(
            f"the improvement program would have {n_rows} rows and {n_vars} columns, "
            f"more than the limit of {max_entries} entries; use a coarser grid step"
        )

    gamma_col = np.where(kept, np.cumsum(kept) - 1, -1)
    gamma_cols = tuple(tuple(gamma_col[lo:hi].tolist()) for lo, hi in zip(starts, starts[1:]))
    A, b = np.zeros((n_rows, n_vars)), np.zeros(n_rows)
    # aggregate rows: candidate masses of atom t sum to the atom's weight
    A[np.repeat(np.arange(m0.size), sizes)[kept], np.arange(n_gamma)] = 1.0
    b[: m0.size] = m0.weights_array()
    row, col = m0.size, n_gamma
    kernel_col = []  # per agent, the column of each entry a point reaches
    marginal_rows = []
    for (Z, point_of, reach, bary_rows), margin in zip(agents, margs):
        n_z, n_j, on = len(Z), margin.size, np.flatnonzero(reach)
        kernel = slice(col, col + on.size)
        link, marg, bary = plan_rows(Z, margin.support_array())
        # marginal-link rows: the mass of gamma's marginal at z minus the
        # kernel's row mass at z
        A[row + point_of[kept], np.arange(n_gamma)] = 1.0
        A[row : row + n_z, kernel] -= link[:, on]
        row += n_z
        # baseline-marginal rows: kernel columns reproduce gamma0's marginal
        marginal_rows.append(row)
        A[row : row + n_j, kernel] = marg[:, on]
        b[row : row + n_j] = margin.weights_array()
        row += n_j
        # conditional-barycenter rows: each kernel row averages back to z
        kept_rows = np.flatnonzero(bary_rows)
        A[row : row + kept_rows.size, kernel] = bary[np.ix_(kept_rows, on)]
        row += kept_rows.size
        kernel_col.append(col - 1 + np.cumsum(reach).reshape(reach.shape))
        col += on.size

    # the floor cost of each split, summed over agents in order as
    # ``_floor_cost`` does; a stacked row-by-column matmul takes each |y|^2
    # from the same dot kernel as ``np.dot``
    cost = 0.0
    for e, y in zip(eps, np.moveaxis(splits, 1, 0)):
        cost = cost + 0.5 * e * np.matmul(y[:, None, :], y[:, :, None])[:, 0, 0]
    c = np.zeros(n_vars)
    c[:n_gamma] = cost[kept]

    # the baseline embedding: atom a's weight goes on its own split, and on
    # agent i's kernel entry from its share (as a candidate point z) to the
    # same share (as the atom j of the marginal that merged it); each entry
    # adds its atoms' weights in atom order
    cols = [gamma_col[own]] + [
        kcol[point_of[own], share]
        for (_, point_of, _, _), kcol, share in zip(agents, kernel_col, share_of)
    ]
    baseline = np.zeros(n_vars)
    np.add.at(baseline, np.concatenate(cols), np.concatenate([gamma0.weights_array()] * (p + 1)))
    return ImprovementProblem(
        lp.LinearProgram(c=c, A=A, b=b), grid, gamma_cols, baseline, tuple(marginal_rows)
    )


def _instance(problem: ImprovementProblem, out: lp.LPOutcome) -> str:
    program = problem.program
    return f"{program.n_rows} x {program.n_vars} program, {out.pivots} pivots taken"


def solve_problem(problem: ImprovementProblem) -> lp.LPOutcome:
    """The program's optimum, from the baseline's vertex; any other status
    is a ``SolverFailure`` naming the instance."""
    out = lp.solve(problem.program, start=problem.baseline)
    if out.status is not lp.LPStatus.OPTIMAL:
        raise SolverFailure(
            f"improvement program ended with status {out.status.value} "
            f"({_instance(problem, out)}); the baseline itself is always feasible, "
            "so this signals an encoding or conditioning problem"
        )
    return out


def _envelope_pieces(ys: np.ndarray, values: np.ndarray) -> tuple[tuple[Coords, float], ...]:
    """The lower convex envelope of the points ``(ys, values)`` (``ys``
    increasing) as affine pieces, one per edge, and a wall through each end
    point ``WALL_SLOPE`` steeper than the edge next to it (slopes
    ``-WALL_SLOPE`` and ``WALL_SLOPE`` for a single point)."""
    hull: list[tuple[float, float]] = []
    for y, v in zip(ys.tolist(), values.tolist()):
        # drop the last vertex while it lies on or above the chord to (y, v)
        while len(hull) >= 2:
            (y0, v0), (y1, v1) = hull[-2:]
            if (v1 - v0) * (y - y0) < (v - v0) * (y1 - y0):
                break
            hull.pop()
        hull.append((y, v))
    slopes = [(v1 - v0) / (y1 - y0) for (y0, v0), (y1, v1) in zip(hull, hull[1:])]
    lines = [(s, v0 - s * y0) for s, (y0, v0) in zip(slopes, hull)]
    (y_lo, v_lo), (y_hi, v_hi) = hull[0], hull[-1]
    s_lo = (slopes[0] if slopes else 0.0) - WALL_SLOPE
    s_hi = (slopes[-1] if slopes else 0.0) + WALL_SLOPE
    lines += [(s_lo, v_lo - s_lo * y_lo), (s_hi, v_hi - s_hi * y_hi)]
    return tuple(((s,), b) for s, b in lines)


def dual_potential(
    problem: ImprovementProblem,
    outcome: lp.LPOutcome,
    marginals: Sequence[DiscreteMeasure],
    eps: Sequence[float],
) -> StrictlyConvexProfile:
    """The 1-D potential ``psi_i(y) = (eps_i/2) y^2 + phi_i(y)`` read off the
    duals of an optimum of ``problem``, the program of a law whose agents
    have the baseline ``marginals`` (``marginal(gamma0, i)``).

    With ``delta_j`` the dual of agent ``i``'s marginal row of atom ``Y_j``
    (``lp``'s sign convention, ``c - A^T y >= 0``), ``phi_i`` is the lower
    convex envelope of the points ``(Y_j, -delta_j)`` with a steep wall
    beyond each end (see ``_envelope_pieces``).  Any convex ``phi`` gives a
    J at least the gap, so the duals only choose the potential; J itself is
    evaluated apart from them.
    """
    dim = problem.grid.aggregate.dim
    if dim != 1:
        raise DimensionMismatch(f"the dual potential is built in one dimension, not {dim}")
    if len(marginals) != len(problem.marginal_rows) or len(eps) != len(marginals):
        raise DimensionMismatch(
            f"the program has {len(problem.marginal_rows)} agents, got "
            f"{len(marginals)} marginals and {len(eps)} cost weights"
        )
    agents = []
    for e, margin, row in zip(eps, marginals, problem.marginal_rows):
        delta = outcome.duals[row : row + margin.size]
        agents.append(
            AgentProfile(eps=e, pieces=_envelope_pieces(margin.support_array()[:, 0], -delta))
        )
    return StrictlyConvexProfile(dim=1, agents=tuple(agents))


@dataclass(frozen=True, eq=False)
class EfficiencyReport:
    """Outcome of the improvement program on one baseline allocation."""

    statistic: float
    improved: JointLaw
    per_agent: tuple
    comonotone_at_tol: bool
    objective_at_input: float
    objective_at_optimum: float
    tol: float


def _baseline_objective(gamma0: JointLaw, eps: Sequence[float]) -> float:
    return float(
        sum(w * _floor_cost(tup, eps) for tup, w in gamma0.atoms)
    )


def _extract_law(
    gamma0: JointLaw, grid: SplitGrid, problem: ImprovementProblem, x: np.ndarray
) -> JointLaw:
    """Read the optimal weights back into a law, conserving the aggregate.

    Weights at or below ``lp.ZERO_WEIGHT`` are dropped, and so are the
    splits the program omits; the rest are rescaled per aggregate atom so
    each atom's mass matches the baseline aggregate exactly (the solver
    residual is at machine scale, so the rescale is a no-op up to rounding).
    """
    atoms = []
    for t, (s, w_atom) in enumerate(grid.aggregate.atoms):
        cols = np.array(problem.gamma_cols[t])
        weights = np.where(cols >= 0, x[cols], 0.0)
        keep = weights > lp.ZERO_WEIGHT
        if not np.any(keep):
            raise SolverFailure(f"optimal law lost all mass on aggregate atom {s!r}")
        weights = weights * (w_atom / weights[keep].sum())
        for u in np.flatnonzero(keep):
            atoms.append((grid.candidates[t][u], float(weights[u])))
    return validate_joint_law(atoms, agents=gamma0.agents, dim=gamma0.dim)


def _cost_weights(eps: Optional[Sequence[float]], agents: int) -> list[float]:
    """One positive, finite cost weight per agent; None means all ones."""
    eps = [1.0] * agents if eps is None else [float(e) for e in eps]
    if len(eps) != agents:
        raise InputError(f"need one cost weight per agent ({agents}), got {len(eps)}")
    if not all(math.isfinite(e) and e > 0 for e in eps):
        raise InputError(f"cost weights must be positive and finite, got {eps}")
    return eps


def solve_improvement_lp(
    gamma0: JointLaw,
    grid: SplitGrid,
    eps: Optional[Sequence[float]] = None,
    tol: float = DEFAULT_TOL,
) -> EfficiencyReport:
    """Minimize the floor cost over grid allocations dominating the baseline."""
    eps = _cost_weights(eps, gamma0.agents)
    problem = build_improvement_problem(gamma0, grid, eps)
    return improvement_report(gamma0, problem, solve_problem(problem), eps, tol)


def improvement_report(
    gamma0: JointLaw,
    problem: ImprovementProblem,
    out: lp.LPOutcome,
    eps: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> EfficiencyReport:
    """The report of ``solve_improvement_lp`` from an optimum ``out`` of
    ``problem``, the program of ``gamma0`` under the cost weights ``eps``:
    the statistic, and the improved law, verified independently."""
    grid = problem.grid
    objective_at_input = _baseline_objective(gamma0, eps)
    statistic = objective_at_input - float(out.value)
    if statistic < -ZERO_GAP:
        raise SolverFailure(
            f"optimum exceeds the baseline objective by {-statistic:.3e} "
            f"({_instance(problem, out)}); "
            "the baseline embedding must be broken"
        )
    improved = _extract_law(gamma0, grid, problem, out.solution)
    verdict: AllocationVerdict = allocation_dominates(
        improved, gamma0, max(tol, _VERIFY_TOL_FLOOR)
    )
    if not verdict.dominates:
        failing = ", ".join(
            f"agent {i} worst violation {v.worst_violation:.3e}"
            for i, v in enumerate(verdict.per_agent)
            if not v.dominates
        )
        raise SolverFailure(
            f"improved law failed the independent dominance verification ({failing}); "
            "the kernel constraints must be mis-encoded"
        )
    return EfficiencyReport(
        statistic=float(statistic),
        improved=improved,
        per_agent=verdict.per_agent,
        comonotone_at_tol=statistic <= tol,
        objective_at_input=objective_at_input,
        objective_at_optimum=float(out.value),
        tol=tol,
    )


def default_radius(gamma0: JointLaw) -> float:
    """1.25 x the largest component norm in the baseline (1.0 if all zero).

    ``math.hypot`` takes the norm without overflow, and in 1-D it is ``|y|``.
    """
    worst = max(math.hypot(*pt) for tup, _ in gamma0.atoms for pt in tup)
    return 1.25 * worst if worst > 0 else 1.0


def default_step(gamma0: JointLaw, ball: BallConfig) -> float:
    """An eighth of the largest aggregate coordinate spread (radius-based
    fallback when the aggregate is a single point)."""
    m0 = sum_pushforward(gamma0)
    pts = m0.support_array()
    spread = float(np.max(pts.max(axis=0) - pts.min(axis=0))) if m0.size > 1 else 0.0
    if spread > 0:
        return spread / 8.0
    return ball.radius / 2.0


def efficiency_statistic(
    gamma0: JointLaw,
    eps: Optional[Sequence[float]] = None,
    h: Optional[float] = None,
    ball: Optional[BallConfig] = None,
    tol: float = DEFAULT_TOL,
) -> float:
    """Grid statistic with defaulted geometry; see solve_improvement_lp."""
    if ball is None:
        ball = BallConfig(radius=default_radius(gamma0))
    if h is None:
        h = default_step(gamma0, ball)
    grid = build_split_grid(gamma0, h, ball)
    return solve_improvement_lp(gamma0, grid, eps=eps, tol=tol).statistic
