"""Maximal correlation against a baseline law and the comonotonicity gap.

``rho(X) = max E[X · Y~]`` over all couplings of ``L(X)`` with the baseline
``mu``.  On the line the maximum is attained by pairing quantiles in the
same order (comonotone rearrangement), so a sorted merge of the two atom
lists computes it exactly.  In higher dimension the coupling is found by
linear programming, from a greedy basic plan.

``rho`` is subadditive over components of an allocation; the nonnegative
defect ``sum_i rho(X_i) - rho(sum_i X_i)`` (the gap) vanishes exactly on
allocations whose components are simultaneously rearrangeable against
``mu``.  With an atomic baseline a zero gap is a consistency certificate,
not a proof, and is reported as such.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lp
from .convex_order import plan_rows
from .errors import DimensionMismatch, SolverFailure
from .measures import (
    DEFAULT_TOL,
    BallConfig,
    Coords,
    DiscreteMeasure,
    JointLaw,
    marginal,
    sum_pushforward,
    validate_measure,
)

#: Points per axis in the default baseline lattice.
_LATTICE_SIDE = 5
#: Quantile mass at or below this is rounding's leftover: the sorted merge
#: pairs none of it and moves on to the next atom.
_MERGE_MASS_TOL = 1e-15


@dataclass(frozen=True, eq=False)
class CorrelationResult:
    """Optimal value together with a coupling attaining it."""

    value: float
    coupling: tuple[tuple[tuple[Coords, Coords], float], ...]

    def max_violation(self, xi: DiscreteMeasure, mu: DiscreteMeasure) -> float:
        """Defect of the result against its invariants, for auditing."""
        got = sum(
            w * float(np.dot(x, y)) for (x, y), w in self.coupling
        )
        worst = abs(got - self.value)
        left = validate_measure([(x, w) for (x, _), w in self.coupling], dim=xi.dim)
        right = validate_measure([(y, w) for (_, y), w in self.coupling], dim=mu.dim)
        for a, b in ((left, xi), (right, mu)):
            if a.size != b.size:
                return float("inf")
            for (ca, wa), (cb, wb) in zip(a.atoms, b.atoms):
                worst = max(worst, float(np.max(np.abs(np.subtract(ca, cb)))), abs(wa - wb))
        return worst


@dataclass(frozen=True, eq=False)
class GapReport:
    """Per-component maximal correlations against their joint counterpart."""

    rho_sum: float
    rho_total: float
    gap: float
    per_agent: tuple[float, ...]

    def comonotone_at(self, tol: float = DEFAULT_TOL) -> bool:
        """True when the gap is consistent with simultaneous rearrangeability."""
        return self.gap <= tol


def _sorted_merge(xi: DiscreteMeasure, mu: DiscreteMeasure):
    """Pair quantiles of the two laws in increasing order."""
    xs = sorted(((x[0], w) for x, w in xi.atoms))
    ys = sorted(((y[0], w) for y, w in mu.atoms))
    nx, ny = len(xs), len(ys)
    i = j = 0
    a, b = xs[0][1], ys[0][1]
    value = 0.0
    pairs: list[tuple[tuple[Coords, Coords], float]] = []
    while i < nx and j < ny:
        t = min(a, b)
        if t > _MERGE_MASS_TOL:
            value += t * xs[i][0] * ys[j][0]
            pairs.append((((xs[i][0],), (ys[j][0],)), t))
        a -= t
        b -= t
        if a <= _MERGE_MASS_TOL:
            i += 1
            a = xs[i][1] if i < nx else 0.0
        if b <= _MERGE_MASS_TOL:
            j += 1
            b = ys[j][1] if j < ny else 0.0
    return value, tuple(pairs)


def _greedy_plan(c: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """A basic coupling of ``supply`` (rows) and ``demand`` (columns), flattened
    row-major: the cells are visited by increasing cost ``c``, ties by index,
    and each takes the smaller of its row's and its column's remaining mass.

    Each cell that takes mass uses up its row or its column, so the cells
    with mass form a forest: the plan is a vertex of the transport polytope
    (Dantzig's initial basic plan of the transportation problem).
    """
    m = demand.size
    rows, cols = supply.tolist(), demand.tolist()
    plan = np.zeros(c.size)
    for k in np.argsort(c, kind="stable").tolist():
        i, j = divmod(k, m)
        t = min(rows[i], cols[j])
        if t > 0.0:
            plan[k] = t
            rows[i] -= t
            cols[j] -= t
    return plan


def _lp_coupling(xi: DiscreteMeasure, mu: DiscreteMeasure):
    """Maximize sum pi_ij <x_i, y_j> over couplings, by linear programming.

    The simplex starts at ``_greedy_plan``, the vertex that fills the cells
    of largest ``<x_i, y_j>`` first, so phase 1 takes no pivot.
    """
    n, m = xi.size, mu.size
    X, Y = xi.support_array(), mu.support_array()
    c = -(X @ Y.T).reshape(n * m)
    row_sums, col_sums, _ = plan_rows(X, Y)
    A = np.vstack([row_sums, col_sums])
    supply, demand = xi.weights_array(), mu.weights_array()
    b = np.concatenate([supply, demand])
    out = lp.solve(lp.LinearProgram(c=c, A=A, b=b), start=_greedy_plan(c, supply, demand))
    if out.status is not lp.LPStatus.OPTIMAL:
        raise SolverFailure(
            f"coupling program of {n} x {m} atoms reported {out.status.value}; "
            "couplings always exist"
        )
    pi = out.solution
    pairs = tuple(
        ((tuple(X[k // m]), tuple(Y[k % m])), float(pi[k]))
        for k in np.flatnonzero(pi > lp.ZERO_WEIGHT).tolist()
    )
    return -out.value, pairs


def max_correlation(xi: DiscreteMeasure, mu: DiscreteMeasure) -> CorrelationResult:
    """Largest E[X · Y~] over couplings of ``xi`` with the baseline ``mu``."""
    if xi.dim != mu.dim:
        raise DimensionMismatch(f"dimension mismatch: {xi.dim} vs {mu.dim}")
    if xi.dim == 1:
        value, pairs = _sorted_merge(xi, mu)
    else:
        value, pairs = _lp_coupling(xi, mu)
    return CorrelationResult(value=float(value), coupling=pairs)


def default_baseline(dim: int, ball: Optional[BallConfig] = None) -> DiscreteMeasure:
    """Uniform law on a centered lattice of 5^dim points inside the ball.

    The per-axis extent is radius/sqrt(dim) so the lattice corners sit on
    the sphere; the result is a fixed, reproducible, non-degenerate
    baseline for gap computations.
    """
    ball = ball or BallConfig(radius=1.0)
    axis = np.linspace(-1.0, 1.0, _LATTICE_SIDE) * (ball.radius / np.sqrt(dim))
    center = ball.center_for(dim)
    atoms = [
        (tuple(center + np.array(pt)), 1.0 / _LATTICE_SIDE**dim)
        for pt in itertools.product(axis, repeat=dim)
    ]
    return validate_measure(atoms, dim=dim)


def comonotonicity_gap(
    gamma: JointLaw,
    mu: Optional[DiscreteMeasure] = None,
    ball: Optional[BallConfig] = None,
) -> GapReport:
    """Subadditivity defect of the maximal correlation across agents.

    A strictly positive gap refutes simultaneous comonotonicity relative to
    ``mu``; a gap within a tolerance of zero (``GapReport.comonotone_at``)
    is consistent with it.
    """
    if mu is None:
        mu = default_baseline(gamma.dim, ball)
    if mu.dim != gamma.dim:
        raise DimensionMismatch(f"dimension mismatch: {mu.dim} vs {gamma.dim}")
    per_agent = tuple(
        max_correlation(marginal(gamma, i), mu).value for i in range(gamma.agents)
    )
    rho_total = max_correlation(sum_pushforward(gamma), mu).value
    rho_sum = float(sum(per_agent))
    return GapReport(
        rho_sum=rho_sum,
        rho_total=rho_total,
        gap=rho_sum - rho_total,
        per_agent=per_agent,
    )
