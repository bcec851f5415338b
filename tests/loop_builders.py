"""Reference builders: the split grid and the improvement program, one split
at a time.

These are the per-split loops that ``riskshare.improve`` replaced by array
passes.  They are kept here, unchanged in arithmetic, so that the
differential tests can require the array builders to give the same
``SplitGrid`` and ``ImprovementProblem`` bit for bit.  The loop grid
collects each atom's splits as nested tuples, as the loop always did, and
hands ``SplitGrid`` the array of them; it tests each share against its
agent's box one share at a time, among the lattice points of the ball.
``build_improvement_problem`` follows the package's rule: the stop-loss
program in one dimension, the kernel program in ``d >= 2``.  The loop
kernel program takes its kernel blocks from ``plan_rows``'s dense plan
rows, and builds the 1-D kernel program too, so that the stop-loss
program's optimum can be checked against it.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from riskshare import lp
from riskshare.convex_order import plan_rows
from riskshare.improve import (
    MAX_GRID_SPLITS,
    ImprovementProblem,
    SplitGrid,
    _DEDUP_RES,
    _reachable,
)
from riskshare.measures import (
    ROUNDING,
    BallConfig,
    JointLaw,
    _merge_targets,
    _tuple_sum,
    marginal,
    sum_pushforward,
)


def _key(values) -> tuple[int, ...]:
    return tuple(int(round(float(v) / _DEDUP_RES)) for v in values)


def _floor_cost(split, eps: Sequence[float]) -> float:
    return sum(0.5 * e * float(np.dot(y, y)) for e, y in zip(eps, split))


def _lattice_points(h: float, ball: BallConfig, bounds) -> list:
    axes = [
        [m * h for m in range(math.ceil(lo), math.floor(hi) + 1)] for lo, hi in bounds
    ]
    pts = []
    for combo in itertools.product(*axes):
        if ball.contains(combo):
            pts.append(tuple(float(v) for v in combo))
    return pts


def _in_box(pt, box) -> bool:
    """Whether every coordinate of ``pt`` lies in its agent's marginal range,
    widened by ``lp.PIVOT_TOL``."""
    return all(lo - lp.PIVOT_TOL <= v <= hi + lp.PIVOT_TOL for v, (lo, hi) in zip(pt, box))


def build_split_grid(gamma0: JointLaw, h: float, ball: BallConfig) -> SplitGrid:
    d, p = gamma0.dim, gamma0.agents
    c = ball.center_for(d)
    for tup, _ in gamma0.atoms:
        for pt in tup:
            assert ball.contains(pt)
    m0 = sum_pushforward(gamma0)
    bounds = [
        ((ck - ball.radius) / h - ROUNDING, (ck + ball.radius) / h + ROUNDING)
        for ck in c.tolist()
    ]
    boxes = []
    for i in range(p):
        pts = [pt for pt, _ in marginal(gamma0, i).atoms]
        boxes.append([(min(axis), max(axis)) for axis in zip(*pts)])
    lattice = _lattice_points(h, ball, bounds)
    lattices = [[pt for pt in lattice if _in_box(pt, box)] for box in boxes[:-1]]
    assert math.prod(len(pts) for pts in lattices) * m0.size <= MAX_GRID_SPLITS
    _, atom_of = _merge_targets([_tuple_sum(tup, d) for tup, _ in gamma0.atoms])
    baseline_splits = [(0, 0)] * gamma0.size
    per_atom = []
    for t, (s, _) in enumerate(m0.atoms):
        seen: dict = {}
        s_arr = np.asarray(s)
        for combo in itertools.product(*lattices):
            y_last = s_arr - np.sum(np.asarray(combo).reshape(p - 1, d), axis=0)
            if not ball.contains(y_last) or not _in_box(y_last.tolist(), boxes[-1]):
                continue
            split = tuple(combo) + (tuple(float(v) for v in y_last),)
            seen.setdefault(_key([v for pt in split for v in pt]), split)
        own = {
            a: _key([v for pt in tup for v in pt])
            for a, (tup, _) in enumerate(gamma0.atoms)
            if atom_of[a] == t
        }
        for a, k in own.items():
            seen.setdefault(k, gamma0.atoms[a][0])
        index = {k: u for u, k in enumerate(seen)}
        for a, k in own.items():
            baseline_splits[a] = (t, index[k])
        per_atom.append(tuple(seen.values()))
    splits = np.array([split for cands in per_atom for split in cands], dtype=float)
    return SplitGrid(
        aggregate=m0,
        splits=splits.reshape(len(splits), p, d),
        offsets=tuple(np.cumsum([0] + [len(cands) for cands in per_atom]).tolist()),
        h=float(h),
        ball=ball,
        baseline_splits=tuple(baseline_splits),
    )


def build_improvement_problem(
    gamma0: JointLaw, grid: SplitGrid, eps: Sequence[float]
) -> ImprovementProblem:
    if gamma0.dim == 1:
        return build_stop_loss_problem(gamma0, grid, eps)
    return build_kernel_problem(gamma0, grid, eps)


def _hinge(Y: list, j: int, z: float) -> float:
    """Stop-loss function of the interior atom ``Y[j]`` at ``z``: the scaled
    put on the lower half of the range, the scaled call on the upper."""
    lo, y, hi = Y[0], Y[j], Y[-1]
    if y - lo <= hi - y:
        return max(y - z, 0.0) / (y - lo)
    return max(z - y, 0.0) / (hi - y)


def build_stop_loss_problem(
    gamma0: JointLaw, grid: SplitGrid, eps: Sequence[float]
) -> ImprovementProblem:
    p, m0 = gamma0.agents, grid.aggregate
    splits = [split for cands in grid.candidates for split in cands]
    sizes = [len(cands) for cands in grid.candidates]
    starts = np.cumsum([0] + sizes)
    own = [int(starts[t]) + u for t, u in grid.baseline_splits]
    Ys = [[y for (y,), _ in marginal(gamma0, i).atoms] for i in range(p)]

    n_gamma = len(splits)
    interior = [list(range(1, len(Y) - 1)) for Y in Ys]
    n_vars = n_gamma + sum(len(js) for js in interior)
    n_rows = m0.size + p - 1 + sum(len(js) for js in interior)
    gamma_cols = tuple(tuple(range(lo, hi)) for lo, hi in zip(starts, starts[1:]))

    A = np.zeros((n_rows, n_vars))
    c = np.zeros(n_vars)
    atom_of = np.repeat(np.arange(m0.size), sizes)
    for col, split in enumerate(splits):
        c[col] = _floor_cost(split, eps)
        A[atom_of[col], col] = 1.0
        row = m0.size
        for i, ((y,), Y) in enumerate(zip(split, Ys)):
            if i < p - 1:
                A[row, col] = y
                row += 1
            for j in interior[i]:
                A[row, col] = _hinge(Y, j, y)
                row += 1
    marginal_rows = []
    row, col = m0.size, n_gamma
    for i, js in enumerate(interior):
        marginal_rows.append(row)
        row += i < p - 1
        for _ in js:
            A[row, col] = 1.0
            row, col = row + 1, col + 1

    baseline = np.zeros(n_vars)
    for a, (_, w) in enumerate(gamma0.atoms):
        baseline[own[a]] += w
    on = np.flatnonzero(baseline)
    b = np.array([np.sum(A[r, on] * baseline[on]) for r in range(n_rows)])
    return ImprovementProblem(
        lp.LinearProgram(c=c, A=A, b=b), grid, gamma_cols, baseline, tuple(marginal_rows)
    )


def build_kernel_problem(
    gamma0: JointLaw, grid: SplitGrid, eps: Sequence[float]
) -> ImprovementProblem:
    p, m0 = gamma0.agents, grid.aggregate
    splits = [split for cands in grid.candidates for split in cands]
    sizes = [len(cands) for cands in grid.candidates]
    starts = np.cumsum([0] + sizes)
    own = [int(starts[t]) + u for t, u in grid.baseline_splits]
    margs = [marginal(gamma0, i) for i in range(p)]
    share_of = [_merge_targets([tup[i] for tup, _ in gamma0.atoms])[1] for i in range(p)]

    agents = []
    for i in range(p):
        seen: dict = {}
        for split in splits:
            seen.setdefault(_key(split[i]), split[i])
        index = {k: z for z, k in enumerate(seen)}
        point_of = np.array([index[_key(split[i])] for split in splits])
        weighted = np.zeros((len(seen), margs[i].size), dtype=bool)
        weighted[point_of[own], share_of[i]] = True
        Z = np.array(list(seen.values()))
        agents.append((Z, point_of, *_reachable(Z, margs[i].support_array(), weighted)))
    kept = np.all([reach.any(axis=1)[point_of] for _, point_of, reach, _ in agents], axis=0)
    for i, (Z, point_of, reach, bary_rows) in enumerate(agents):
        used = np.isin(np.arange(len(Z)), point_of[kept])
        agents[i] = (Z[used], (np.cumsum(used) - 1)[point_of], reach[used], bary_rows[used])

    n_gamma = int(np.count_nonzero(kept))
    n_vars = n_gamma + sum(int(reach.sum()) for _, _, reach, _ in agents)
    n_rows = m0.size + sum(
        len(Z) + m.size + int(r.sum()) for (Z, _, _, r), m in zip(agents, margs)
    )
    gamma_col = np.where(kept, np.cumsum(kept) - 1, -1)
    gamma_cols = tuple(tuple(gamma_col[lo:hi].tolist()) for lo, hi in zip(starts, starts[1:]))
    A, b = np.zeros((n_rows, n_vars)), np.zeros(n_rows)
    A[np.repeat(np.arange(m0.size), sizes)[kept], np.arange(n_gamma)] = 1.0
    b[: m0.size] = m0.weights_array()
    row, col = m0.size, n_gamma
    kernel_col = []
    marginal_rows = []
    for (Z, point_of, reach, bary_rows), margin in zip(agents, margs):
        n_z, n_j, on = len(Z), margin.size, np.flatnonzero(reach)
        kernel = slice(col, col + on.size)
        link, marg, bary = plan_rows(Z, margin.support_array())
        A[row + point_of[kept], np.arange(n_gamma)] = 1.0
        A[row : row + n_z, kernel] -= link[:, on]
        row += n_z
        marginal_rows.append(row)
        A[row : row + n_j, kernel] = marg[:, on]
        b[row : row + n_j] = margin.weights_array()
        row += n_j
        kept_rows = np.flatnonzero(bary_rows)
        A[row : row + kept_rows.size, kernel] = bary[np.ix_(kept_rows, on)]
        row += kept_rows.size
        kernel_col.append(col - 1 + np.cumsum(reach).reshape(reach.shape))
        col += on.size

    c = np.zeros(n_vars)
    c[:n_gamma] = [_floor_cost(split, eps) for split in itertools.compress(splits, kept)]
    baseline = np.zeros(n_vars)
    for a, (_, w) in enumerate(gamma0.atoms):
        baseline[gamma_col[own[a]]] += w
        for (_, point_of, _, _), cols, share in zip(agents, kernel_col, share_of):
            baseline[cols[point_of[own[a]], share[a]]] += w
    return ImprovementProblem(
        lp.LinearProgram(c=c, A=A, b=b), grid, gamma_cols, baseline, tuple(marginal_rows)
    )
