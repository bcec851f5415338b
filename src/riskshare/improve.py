"""Constructive improvement of an allocation and the efficiency statistic.

Given a baseline allocation law ``gamma0``, search the set of allocations
that (a) share the same aggregate law and (b) dominate ``gamma0`` agent by
agent, for the one with the smallest total strictly-convex floor cost
``sum_i (eps_i/2)|y_i|^2``.  The search space is discretized: every
aggregate atom may be split along a lattice of candidate tuples (the
baseline's own splits always included).  A law that dominates an agent's
baseline marginal is less spread than it, so it lies in the convex hull of
that marginal's atoms: the grid holds only the splits whose every share
lies in its agent's box, the marginal's bounding box (on the line, its
range).  The agent-wise dominance
constraints then become linear, by the rule ``convex_order.dominates``
follows:

- on the line, through stop-loss values: an agent's law dominates its
  baseline marginal when the two have the same mean, it puts no mass
  outside the marginal's range, and its stop-loss value at each interior
  atom of the marginal is at most the marginal's;
- in ``d >= 2``, through mean-preserving transition kernels linking the
  unknown marginals to the baseline marginals.  A kernel sends the mass at
  a candidate point only to atoms whose barycenter is that point, so a
  point in the box but outside the hull can carry no mass; the program
  leaves it out, with every split that uses it.

The builders work on arrays.  ``SplitGrid`` holds every candidate split in
one read-only ``(N, p, d)`` array with per-atom offsets, and gives the
nested-tuple view ``candidates`` only when asked.  The program builders
read that array and the law's cached marginals; the kernel program's
builder writes each kernel entry's link, marginal and barycenter
coefficients straight from the entries a point reaches.

The baseline itself is always a feasible point of either program: each of
its atoms is a candidate split of the aggregate atom it sums to; in one
dimension the program's right-hand side is its own rows at the baseline,
and in ``d >= 2`` each agent's identity kernel links its marginal to
itself.  The program keeps that point (``ImprovementProblem.baseline``)
and the simplex starts from its vertex, so phase 1 takes no pivot.

The drop from the baseline's cost to the optimal cost is the efficiency
statistic: zero (at tolerance) certifies that the baseline is already
undominated on the grid, while a positive value comes with a concrete
improving allocation, re-verified by the dominance checker before being
returned.  ``solve_improvement_lp`` is the one path from a grid to that
report, which keeps the program and its optimum; one rule,
``_floor_costs``, prices both the program's splits and the baseline.

The optimum's duals on each agent's rows also give a potential ``psi``
(``dual_potential``), in one dimension from the mean and stop-loss rows
and in ``d >= 2`` from the baseline-marginal rows, whose dual objective J
bounds the gap from above; see :mod:`riskshare.qdescent`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import lp
from .convex_order import AllocationVerdict, allocation_dominates
from .errors import DimensionMismatch, InputError, ProblemTooLarge, SolverFailure
from .infconv import AgentProfile, StrictlyConvexProfile
from .measures import (
    DEFAULT_TOL,
    ROUNDING,
    BallConfig,
    Coords,
    DiscreteMeasure,
    JointLaw,
    _atom_targets,
    _checked_number,
    _read_only,
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
#: Cap on the lattice splits ``build_split_grid`` may enumerate: the product,
#: over every agent but the last, of the lattice points of its box (its
#: marginal's bounding box within the ball's, an index wider on each side),
#: times the aggregate atoms.
MAX_GRID_SPLITS = 100_000
#: Cap on the entries (rows times columns) of the dense improvement program
#: ``build_improvement_problem`` assembles: 40 MB as float64, about 60 times
#: the largest it builds in the tests (258 x 308, a drawn 2-D law) and 8,000
#: times the benchmark's largest (6 x 101, improvable-1d at h = 1/16).
MAX_LP_ENTRIES = 5_000_000
#: How steeply the walls of ``dual_potential`` rise beyond the baseline
#: marginal's hull: on the line, this much steeper than the envelope's end
#: edges; in ``d >= 2``, this slope along each outward normal.
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

    ``splits`` holds every candidate as one read-only ``(N, p, d)`` array,
    atom by atom: aggregate atom ``t``'s candidates are its rows
    ``offsets[t]`` to ``offsets[t + 1]``.  ``candidates`` gives the same
    splits as nested tuples, per atom, built on first access.
    ``baseline_splits`` gives, for each baseline atom, the aggregate atom
    that ``sum_pushforward`` merged it into and the index of its own split
    among that atom's candidates.
    """

    aggregate: DiscreteMeasure
    splits: np.ndarray
    offsets: tuple[int, ...]
    h: float
    ball: BallConfig
    baseline_splits: tuple[tuple[int, int], ...]

    @functools.cached_property
    def candidates(self) -> tuple[tuple[Split, ...], ...]:
        splits = [tuple(map(tuple, split)) for split in self.splits.tolist()]
        return tuple(tuple(splits[lo:hi]) for lo, hi in zip(self.offsets, self.offsets[1:]))

    @property
    def total_candidates(self) -> int:
        return len(self.splits)


def build_split_grid(gamma0: JointLaw, h: float, ball: BallConfig) -> SplitGrid:
    """Lattice splits of each aggregate atom, plus the baseline's own splits;
    ``ProblemTooLarge`` when they could number more than ``MAX_GRID_SPLITS``.

    A law that dominates an agent's baseline marginal in the concave order
    lies in the convex hull of that marginal's atoms, so every share of a
    split lies in its agent's box: the marginal's bounding box, widened by
    ``lp.PIVOT_TOL``, within the ball.  An atom's candidates are, in this
    order and each kept at its first appearance by identity key: the
    lattice points of the first ``p - 1`` agents' boxes in lexicographic
    order, each completed by the last agent's share when that share lies in
    its own box, then the baseline's own splits of it.
    """
    h = _checked_number(
        h, lambda v: math.isfinite(v) and v > 0, "grid step must be positive and finite"
    )
    d, p = gamma0.dim, gamma0.agents
    c = ball.center_for(d)
    require_shares_in_ball(gamma0, ball)
    m0 = sum_pushforward(gamma0)
    supports = [marginal(gamma0, i).support_array() for i in range(p)]
    lo = np.array([Y.min(axis=0) for Y in supports]) - lp.PIVOT_TOL
    hi = np.array([Y.max(axis=0) for Y in supports]) + lp.PIVOT_TOL
    # lattice index bounds per agent and axis: the ball's, a step's rounding
    # wider so that a point on its bounding box is kept, within the box's,
    # an index wider so that the points are tested against the box itself;
    # counted before anything is built: a step fine enough to overflow the
    # floats is refused, and finite counts are multiplied as exact integers
    with np.errstate(over="ignore", invalid="ignore"):
        m_lo = np.ceil(np.maximum((c - ball.radius) / h - ROUNDING, lo / h - 1.0))
        m_hi = np.floor(np.minimum((c + ball.radius) / h + ROUNDING, hi / h + 1.0))
        counts = np.maximum(m_hi - m_lo + 1.0, 0.0)[: p - 1]
    if not (
        np.isfinite(counts).all()
        and math.prod(int(n) for n in counts.flat) * m0.size <= MAX_GRID_SPLITS
    ):
        raise ProblemTooLarge(
            f"grid step {h!r} is too fine: the lattice splits of {m0.size} aggregate "
            f"atoms among {p} agents, each share in its marginal's box and the ball "
            f"of radius {ball.radius}, exceed the limit of {MAX_GRID_SPLITS}"
        )
    # every tuple of lattice points of the first p - 1 agents' boxes, the
    # first agent's index slowest, completed for each aggregate atom by the
    # last share; a split stays when each share lies in the ball and its box
    axes = [np.arange(int(a), int(b) + 1) * h for a, b in zip(m_lo[:-1].flat, m_hi[:-1].flat)]
    n_combos = math.prod(len(axis) for axis in axes)
    index = np.indices([len(axis) for axis in axes]).reshape(len(axes), n_combos)
    heads = np.array([axis[i] for axis, i in zip(axes, index)]).reshape(len(axes), n_combos).T
    last = m0.support_array()[:, None, :] - np.sum(heads.reshape(n_combos, p - 1, d), axis=1)
    splits = np.concatenate([np.broadcast_to(heads, (m0.size, *heads.shape)), last], axis=2)
    shares = splits.reshape(m0.size, n_combos, p, d)
    inside = np.all((shares >= lo) & (shares <= hi), axis=(2, 3))
    inside &= ball.contains_rows(shares.reshape(-1, d)).reshape(shares.shape[:3]).all(axis=2)
    lattice_splits = splits[inside]
    # each baseline split is a candidate of the atom it sums to, and of
    # no other: a split of an atom 1e-11 away would change the sum law
    atom_of = np.array(_atom_targets(gamma0), dtype=np.intp)
    own_splits = gamma0.component_array().reshape(gamma0.size, p * d)
    # rows by atom, each atom's lattice splits before its baseline splits
    atom = np.concatenate([np.nonzero(inside)[0], atom_of])
    order = np.argsort(atom, kind="stable")
    rows, atom = np.concatenate([lattice_splits, own_splits])[order], atom[order]
    first, number = _first_appearance(np.concatenate([atom[:, None], _keys(rows)], axis=1))
    starts = np.searchsorted(atom[first], np.arange(m0.size + 1)).tolist()
    moved_to = np.argsort(order)[len(lattice_splits) :]  # the baseline rows' places
    own = number[moved_to] - np.array(starts)[atom_of]
    return SplitGrid(
        aggregate=m0,
        splits=_read_only(rows[first].reshape(-1, p, d)),
        offsets=tuple(starts),
        h=h,
        ball=ball,
        baseline_splits=tuple(zip(atom_of.tolist(), own.tolist())),
    )


@dataclass(frozen=True, eq=False)
class ImprovementProblem:
    """Assembled equality-form program; the split weights are its first columns.

    ``baseline`` is the baseline law embedded in the program, a feasible
    point of it: each baseline atom's weight on its own split, and in
    ``d >= 2`` each agent's identity kernel.  Agent ``i``'s rows start at
    ``marginal_rows[i]``: in one dimension its mean row (every agent but
    the last), then one stop-loss row per interior atom of its baseline
    marginal; in ``d >= 2`` one baseline-marginal row per atom.  Both are
    in that marginal's order.
    """

    program: lp.LinearProgram
    grid: SplitGrid
    gamma_cols: tuple[tuple[int, ...], ...]  # per aggregate atom, per candidate; -1 if omitted
    baseline: np.ndarray
    marginal_rows: tuple[int, ...]


def _floor_costs(splits: np.ndarray, eps: Sequence[float]) -> np.ndarray:
    """The floor cost ``sum_i (eps_i/2)|y_i|^2`` of each split of ``(N, p, d)``
    ``splits``, agents summed in order, each ``|y_i|^2`` from a stacked matmul,
    the dot kernel of ``np.dot``; an overflowing cost is ``inf``."""
    cost = 0.0
    with np.errstate(over="ignore"):
        for e, y in zip(eps, np.moveaxis(splits, 1, 0)):
            cost = cost + 0.5 * e * np.matmul(y[:, None, :], y[:, :, None])[:, 0, 0]
    return cost


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


def _checked_size(n_rows: int, n_vars: int) -> None:
    """``ProblemTooLarge`` for a program of more than ``MAX_LP_ENTRIES`` entries."""
    if n_rows * n_vars > MAX_LP_ENTRIES:
        raise ProblemTooLarge(
            f"the improvement program would have {n_rows} rows and {n_vars} columns, "
            f"more than the limit of {MAX_LP_ENTRIES} entries; use a coarser grid step"
        )


def _checked_costs(
    splits: np.ndarray, eps: Sequence[float], kept: np.ndarray, own: np.ndarray
) -> np.ndarray:
    """The floor cost of every split; ``InputError`` when a kept one overflows."""
    cost = _floor_costs(splits, eps)
    overflow = kept & ~np.isfinite(cost)
    if overflow.any():
        # name one of the law's own shares when its split overflows, else a
        # kept grid point's, no larger: kept points lie in the hull of the law's
        k = own[overflow[own]][0] if overflow[own].any() else np.flatnonzero(overflow)[0]
        i = int(np.argmax(np.max(np.abs(splits[k]), axis=1)))
        raise InputError(
            f"share {tuple(splits[k, i].tolist())!r} of agent {i} is too large: "
            f"its floor cost (eps/2) |y|^2 overflows"
        )
    return cost


def _hinges(Y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The stop-loss functions of the increasing atoms ``Y`` at the points
    ``z``: one column per interior atom ``Y_j``, the put
    ``(Y_j - z)_+ / (Y_j - Y_min)`` on the lower half of the range and the
    call ``(z - Y_j)_+ / (Y_max - Y_j)`` on the upper half."""
    inner, lo, hi = Y[1:-1], Y[:1], Y[-1:]
    put = inner - lo <= hi - inner
    gap = np.where(put, inner - z[:, None], z[:, None] - inner)
    return np.maximum(gap, 0.0) / np.where(put, inner - lo, hi - inner)


def build_improvement_problem(
    gamma0: JointLaw, grid: SplitGrid, eps: Sequence[float]
) -> ImprovementProblem:
    """The improvement program over the grid's splits: the stop-loss program
    in one dimension, the kernel program in ``d >= 2``.

    A program of more than ``MAX_LP_ENTRIES`` entries (rows times columns)
    is refused with ``ProblemTooLarge``, and one whose kept split's floor
    cost overflows with ``InputError``.
    """
    if gamma0.dim == 1:
        return _stop_loss_problem(gamma0, grid, eps)
    return _kernel_problem(gamma0, grid, eps)


def _stop_loss_problem(
    gamma0: JointLaw, grid: SplitGrid, eps: Sequence[float]
) -> ImprovementProblem:
    """The 1-D program: dominance as equal means and ordered stop-loss values.

    Columns: one weight per candidate split, in candidate order (the grid
    holds only splits whose shares lie in their agents' ranges), then per
    agent a slack per interior atom of its baseline marginal.  Rows: one
    per aggregate atom, then per agent a mean row (all agents but the last,
    whose mean the aggregate rows fix) and a ``<=`` row per interior atom,
    with its slack, on the stop-loss function of ``_hinges``.  The rows at
    the two end atoms follow from the range and the mean.  ``b`` is the
    program's rows at the baseline, so the baseline, with every slack at 0,
    is feasible.
    """
    p, m0, splits, starts = gamma0.agents, grid.aggregate, grid.splits, grid.offsets
    own = np.array([starts[t] + u for t, u in grid.baseline_splits])
    Ys = [marginal(gamma0, i).support_array()[:, 0] for i in range(p)]
    z = splits[:, :, 0]

    n_gamma = len(z)
    n_slack = [max(Y.size - 2, 0) for Y in Ys]
    n_vars = n_gamma + sum(n_slack)
    n_rows = m0.size + p - 1 + sum(n_slack)
    _checked_size(n_rows, n_vars)
    cost = _checked_costs(splits, eps, np.ones(n_gamma, dtype=bool), own)

    gamma_cols = tuple(tuple(range(j, k)) for j, k in zip(starts, starts[1:]))
    A = np.zeros((n_rows, n_vars))
    # aggregate rows: candidate masses of atom t sum to the atom's weight
    A[np.repeat(np.arange(m0.size), np.diff(starts)), np.arange(n_gamma)] = 1.0
    row, col = m0.size, n_gamma
    marginal_rows = []
    for i, (Y, k) in enumerate(zip(Ys, n_slack)):
        marginal_rows.append(row)
        if i < p - 1:
            A[row, :n_gamma] = z[:, i]
            row += 1
        A[row : row + k, :n_gamma] = _hinges(Y, z[:, i]).T
        A[np.arange(row, row + k), np.arange(col, col + k)] = 1.0
        row, col = row + k, col + k

    c = np.zeros(n_vars)
    c[:n_gamma] = cost
    # the baseline: each atom's weight on its own split, every slack at 0;
    # b is A times it, summed over its own columns by NumPy's row sum
    baseline = np.zeros(n_vars)
    np.add.at(baseline, own, gamma0.weights_array())
    on = np.flatnonzero(baseline)
    b = np.sum(A[:, on] * baseline[on], axis=1)
    return ImprovementProblem(
        lp.LinearProgram(c=c, A=A, b=b), grid, gamma_cols, baseline, tuple(marginal_rows)
    )


def _kernel_problem(
    gamma0: JointLaw, grid: SplitGrid, eps: Sequence[float]
) -> ImprovementProblem:
    """The ``d >= 2`` program over the splits a mean-preserving kernel can reach.

    Columns: one weight per split kept, in candidate order, then per agent
    a kernel entry per kept point ``z`` and marginal atom ``j`` it reaches.
    Rows: one per aggregate atom, then per agent a link row per kept point,
    a marginal row per atom and the barycenter rows ``(z, k)`` kept.  A
    kernel sends the mass at ``z`` only to atoms with barycenter ``z``, so
    the program omits the entries and barycenter rows ``_reachable`` rules
    out, every split one of whose points then reaches no atom, and every
    point no kept split uses, with its rows and entries.  The baseline's
    splits always stay.
    """
    p, m0, splits, starts = gamma0.agents, grid.aggregate, grid.splits, grid.offsets
    own = np.array([starts[t] + u for t, u in grid.baseline_splits])
    margs = [marginal(gamma0, i) for i in range(p)]
    share_of = [np.array(_atom_targets(gamma0, i), dtype=np.intp) for i in range(p)]

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
    _checked_size(n_rows, n_vars)
    cost = _checked_costs(splits, eps, kept, own)

    gamma_col = np.where(kept, np.cumsum(kept) - 1, -1)
    gamma_cols = tuple(tuple(gamma_col[lo:hi].tolist()) for lo, hi in zip(starts, starts[1:]))
    A, b = np.zeros((n_rows, n_vars)), np.zeros(n_rows)
    # aggregate rows: candidate masses of atom t sum to the atom's weight
    A[np.repeat(np.arange(m0.size), np.diff(starts))[kept], np.arange(n_gamma)] = 1.0
    b[: m0.size] = m0.weights_array()
    row, col = m0.size, n_gamma
    kernel_col = []  # per agent, the column of each entry a point reaches
    marginal_rows = []
    for (Z, point_of, reach, bary_rows), margin in zip(agents, margs):
        # the kernel entries (z, j) a point reaches, one column each in
        # row-major order, written straight into their rows
        z, j = np.nonzero(reach)
        entry = col + np.arange(z.size)
        # marginal-link rows: the mass of gamma's marginal at z minus the
        # kernel's row mass at z
        A[row + point_of[kept], np.arange(n_gamma)] = 1.0
        A[row + z, entry] = -1.0
        row += len(Z)
        # baseline-marginal rows: kernel columns reproduce gamma0's marginal
        marginal_rows.append(row)
        A[row + j, entry] = 1.0
        b[row : row + margin.size] = margin.weights_array()
        row += margin.size
        # conditional-barycenter rows: each kernel row averages back to z, so
        # entry (z, j) has Y_jk - z_k on the kept row (z, k)
        bary_row = (np.cumsum(bary_rows) - 1).reshape(bary_rows.shape)[z]
        on = bary_rows[z]
        coeff = margin.support_array()[j] - Z[z]
        A[row + bary_row[on], np.broadcast_to(entry[:, None], on.shape)[on]] = coeff[on]
        row += int(bary_rows.sum())
        kernel_col.append(col - 1 + np.cumsum(reach).reshape(reach.shape))
        col += z.size

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


def _rank(s: np.ndarray) -> np.ndarray:
    """How many of the singular values ``s`` (descending, along the last
    axis) are not rounding against the largest."""
    return np.count_nonzero(s > ROUNDING * (1.0 + s[..., :1]), axis=-1)


def _facet_normals(P: np.ndarray) -> np.ndarray:
    """The outward unit normals of the facets of the convex hull of the rows
    of ``P``, points of ``R^k`` that span it affinely (``k >= 1``).

    On the line these are -1 and 1.  For ``k >= 2`` a facet is the
    hyperplane through ``k`` affinely independent points with every point on
    one side of it; the normals of one facet found through several such
    subsets are kept once, at ``_DEDUP_RES``.
    """
    m, k = P.shape
    if k == 1:
        return np.array([[1.0], [-1.0]])
    subsets = np.array(list(itertools.combinations(range(m), k)))
    _, s, Vt = np.linalg.svd(P[subsets[:, 1:]] - P[subsets[:, :1]])
    spans = _rank(s) == k - 1
    n = Vt[spans, -1]
    side = n @ P.T - np.sum(n * P[subsets[spans, 0]], axis=1)[:, None]
    tol = ROUNDING * (1.0 + float(np.abs(P).max()))
    normals = np.concatenate([n[side.max(axis=1) <= tol], -n[side.min(axis=1) >= -tol]])
    return normals[_first_appearance(_keys(normals))[0]]


def _hull_pieces(Y: np.ndarray, v: np.ndarray) -> tuple[tuple[Coords, float], ...]:
    """The lower convex envelope of the points ``(Y_j, v_j)`` (``Y`` of shape
    ``(m, d)``) as affine pieces, and walls beyond the atoms' convex hull:
    the ``d``-dimensional form of ``_envelope_pieces``.

    One SVD of ``Y - Y_0`` gives the dimension ``k`` of the atoms' affine
    hull, an orthonormal basis ``V`` of it and ``d - k`` normals ``N``;
    ``P = (Y - Y_0) V^T`` holds the atoms' coordinates in it.  Atom ``j``'s
    piece comes from the program ``min v.lam`` subject to
    ``sum_l lam_l (P_l, 1) = (P_j, 1)``, ``lam >= 0``, started at
    ``lam = e_j``: its duals ``(a, b)`` are an affine minorant of every
    point that meets the envelope at ``Y_j``, with slope ``V^T a``.  A
    single atom has the one piece ``v_0``.  A wall has slope
    ``WALL_SLOPE * u`` and the largest intercept under every point, for
    each outward unit normal ``u`` of a facet of the hull (lifted by
    ``V^T``) and each of ``N`` and ``-N``.  Exact duplicates are dropped.
    """
    m, d = Y.shape
    _, s, Vt = np.linalg.svd(Y - Y[0])
    k = int(_rank(s))
    V, N = Vt[:k], Vt[k:]
    P = (Y - Y[0]) @ V.T
    normals = [N, -N]
    if k == 0:
        pieces = [np.append(np.zeros(d), v[0])]
    else:
        rows = np.vstack([P.T, np.ones(m)])
        pieces = []
        for j, start in enumerate(np.eye(m)):
            program = lp.LinearProgram(c=v, A=rows, b=rows[:, j])
            duals = lp.solve(program, start=start).duals
            slope = duals[:k] @ V
            pieces.append(np.append(slope, duals[k] - slope @ Y[0]))
        normals.append(_facet_normals(P) @ V)
    slopes = WALL_SLOPE * np.concatenate(normals)
    walls = np.column_stack([slopes, np.min(v - slopes @ Y.T, axis=1)])
    lines = np.concatenate([pieces, walls])
    return tuple((tuple(r[:d]), r[d]) for r in lines[_first_appearance(lines)[0]].tolist())


def dual_potential(
    problem: ImprovementProblem,
    outcome: lp.LPOutcome,
    marginals: Sequence[DiscreteMeasure],
    eps: Sequence[float],
) -> StrictlyConvexProfile:
    """The potential ``psi_i(y) = (eps_i/2)|y|^2 + phi_i(y)`` read off the
    duals of an optimum of ``problem``, the program of a law whose agents
    have the baseline ``marginals`` (``marginal(gamma0, i)``).  The duals
    follow ``lp``'s sign convention, ``c - A^T y >= 0``.

    In one dimension, with ``beta_i`` the dual of agent ``i``'s mean row (0
    for the last agent, which has none) and ``lambda_ik`` those of its
    stop-loss rows (so ``lambda <= 0``), ``phi_i`` is the lower convex
    envelope of the points ``(Y_j, -beta_i Y_j - sum_k lambda_ik
    hinge_k(Y_j))`` over the marginal's atoms, with a steep wall beyond each
    end (see ``_envelope_pieces``).  In ``d >= 2``, with ``delta_ij`` the
    dual of agent ``i``'s marginal row of atom ``Y_j``, ``phi_i`` is the
    lower convex envelope of the points ``(Y_j, -delta_ij)``, with walls
    beyond the atoms' hull (see ``_hull_pieces``): the least link-row dual
    that keeps a point's kernel entries dual feasible is the upper concave
    envelope of ``delta_i``.  Any convex ``phi`` gives a J at least the
    gap, so the duals only choose the potential; J itself is evaluated
    apart from them.
    """
    p = len(problem.marginal_rows)
    if len(marginals) != p or len(eps) != p:
        raise DimensionMismatch(
            f"the program has {p} agents, got "
            f"{len(marginals)} marginals and {len(eps)} cost weights"
        )
    dim = problem.grid.aggregate.dim
    agents = []
    for i, (e, margin, row) in enumerate(zip(eps, marginals, problem.marginal_rows)):
        Y = margin.support_array()
        if dim == 1:
            Y, has_mean = Y[:, 0], i < p - 1
            beta = outcome.duals[row] if has_mean else 0.0
            start = row + has_mean
            lam = outcome.duals[start : start + max(Y.size - 2, 0)]
            pieces = _envelope_pieces(Y, -beta * Y - _hinges(Y, Y) @ lam)
        else:
            pieces = _hull_pieces(Y, -outcome.duals[row : row + len(Y)])
        agents.append(AgentProfile(eps=e, pieces=pieces))
    return StrictlyConvexProfile(dim=dim, agents=tuple(agents))


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
    problem: ImprovementProblem
    outcome: lp.LPOutcome


def _extract_law(
    gamma0: JointLaw, grid: SplitGrid, problem: ImprovementProblem, x: np.ndarray
) -> JointLaw:
    """Read the optimal weights back into a law, conserving the aggregate.

    Weights at or below ``lp.ZERO_WEIGHT`` are dropped, and so are the
    splits the program omits; the rest are rescaled per aggregate atom so
    each atom's mass matches the baseline aggregate exactly (the solver
    residual is at machine scale, so the rescale is a no-op up to rounding).
    """
    atoms: list = []
    for t, (s, w_atom) in enumerate(grid.aggregate.atoms):
        cols = np.array(problem.gamma_cols[t])
        weights = np.where(cols >= 0, x[cols], 0.0)
        keep = weights > lp.ZERO_WEIGHT
        if not np.any(keep):
            raise SolverFailure(f"optimal law lost all mass on aggregate atom {s!r}")
        weights = weights * (w_atom / weights[keep].sum())
        u = np.flatnonzero(keep)
        atoms += zip(grid.splits[grid.offsets[t] + u].tolist(), weights[u].tolist())
    return validate_joint_law(atoms, agents=gamma0.agents, dim=gamma0.dim)


def _cost_weights(eps: Optional[Sequence[float]], agents: int) -> list[float]:
    """One positive, finite cost weight per agent; None means all ones."""
    try:
        eps = [1.0] * agents if eps is None else [float(e) for e in eps]
    except (TypeError, ValueError) as exc:
        raise InputError(f"cost weights {eps!r} are not all numbers") from exc
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
    """Minimize the floor cost over grid allocations dominating the baseline;
    the report keeps the program and its optimum."""
    eps = _cost_weights(eps, gamma0.agents)
    tol = _checked_number(
        tol, lambda v: math.isfinite(v) and v >= 0, "tol must be finite and nonnegative"
    )
    problem = build_improvement_problem(gamma0, grid, eps)
    out = solve_problem(problem)
    costs = _floor_costs(gamma0.component_array(), eps).tolist()
    objective_at_input = float(sum(w * c for w, c in zip(gamma0.weights_array().tolist(), costs)))
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
        problem=problem,
        outcome=out,
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
