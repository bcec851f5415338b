"""Concave-order dominance between discrete laws, with couplings as proof.

``mu`` dominates ``nu`` when every risk-averse expected utility prefers
``mu``; equivalently ``nu`` spreads ``mu`` without moving its mean.  On the
line this reduces to equal means plus pointwise stop-loss comparison on the
union of supports.  In higher dimension the criterion is the existence of a
mean-preserving transition kernel from ``mu`` to ``nu``, found (or refuted)
as a feasibility linear program; the kernel doubles as a checkable
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import lp
from .errors import DimensionMismatch, InputError, NonPositiveWeight, SumLawMismatch
from .measures import (
    DEFAULT_TOL,
    Coords,
    DiscreteMeasure,
    JointLaw,
    marginal,
    measures_equal,
    sum_pushforward,
)


@dataclass(frozen=True, eq=False)
class MartingaleCoupling:
    """Transition plan pi(x, x0) from the dominating to the dominated law.

    Row i holds the mass sent from atom x_i of mu to the atoms of nu; the
    conditional law of each row averages back to x_i.
    """

    rows: tuple[tuple[Coords, float], ...]
    cols: tuple[tuple[Coords, float], ...]
    entries: np.ndarray

    def max_violation(self) -> float:
        """Largest defect among row sums, column sums and row barycenters."""
        pi = self.entries
        mu_w = np.array([w for _, w in self.rows])
        nu_w = np.array([w for _, w in self.cols])
        mu_x = np.array([x for x, _ in self.rows], dtype=float)
        nu_x = np.array([x for x, _ in self.cols], dtype=float)
        worst = float(np.max(np.abs(pi.sum(axis=1) - mu_w), initial=0.0))
        worst = max(worst, float(np.max(np.abs(pi.sum(axis=0) - nu_w), initial=0.0)))
        bary = pi @ nu_x - pi.sum(axis=1)[:, None] * mu_x
        worst = max(worst, float(np.max(np.abs(bary), initial=0.0)))
        worst = max(worst, float(-np.min(pi, initial=0.0)))
        return worst

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        v = self.max_violation()
        if v > tol:
            raise InputError(f"coupling violates its invariants by {v:.3e} > {tol}")


@dataclass(frozen=True, eq=False)
class DominanceVerdict:
    dominates: bool
    strict: bool
    certificate: Optional[MartingaleCoupling]
    worst_violation: float


def stop_loss(m: DiscreteMeasure, t: float) -> float:
    """E (X - t)_+ for a univariate measure."""
    if m.dim != 1:
        raise DimensionMismatch("stop-loss is defined for univariate measures")
    x = m.support_array()[:, 0]
    return float(m.weights_array() @ np.maximum(x - t, 0.0))


def dominates_1d(
    mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = DEFAULT_TOL
) -> DominanceVerdict:
    """Univariate dominance by stop-loss comparison on the union of supports."""
    if mu.dim != 1 or nu.dim != 1:
        raise DimensionMismatch("dominates_1d needs univariate measures")
    worst = abs(float(mu.mean()[0]) - float(nu.mean()[0]))
    grid = sorted({x for x, _ in mu.atoms} | {x for x, _ in nu.atoms})
    for (t,) in grid:
        worst = max(worst, stop_loss(mu, t) - stop_loss(nu, t))
    dom = worst <= tol
    strict = dom and not measures_equal(mu, nu, tol)
    return DominanceVerdict(dom, strict, None, worst)


def plan_rows(
    X: np.ndarray, Y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constraint rows of a plan pi from the points ``X`` (n, d) to ``Y`` (m, d).

    The plan is flattened row-major: pi_ij is column ``i * m + j``.  Returns
    the row sums (n rows), the column sums (m rows) and the barycenter
    defects ``sum_j pi_ij (Y_j - X_i)``, one row per ``(i, k)`` in that
    order (n * d rows).
    """
    n, m, d = X.shape[0], Y.shape[0], X.shape[1]
    row_sums = np.repeat(np.eye(n), m, axis=1)
    col_sums = np.tile(np.eye(m), n)
    bary = np.zeros((n, d, n, m))
    i = np.arange(n)
    bary[i, :, i, :] = (Y[None, :, :] - X[:, None, :]).transpose(0, 2, 1)
    return row_sums, col_sums, bary.reshape(n * d, n * m)


def dominates_md(
    mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = DEFAULT_TOL
) -> DominanceVerdict:
    """Dominance in any dimension via mean-preserving-kernel feasibility."""
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    # pi >= 0 with marginals mu and nu, each row averaging back to its atom
    A = np.vstack(plan_rows(mu.support_array(), nu.support_array()))
    b = np.concatenate([mu.weights_array(), nu.weights_array(), np.zeros(mu.size * mu.dim)])
    out = lp.feasible(A, b)
    cert = None
    worst = float(out.value)  # phase 1's residual when there is no kernel
    if out.status is lp.LPStatus.OPTIMAL:
        cert = MartingaleCoupling(
            rows=mu.atoms,
            cols=nu.atoms,
            entries=out.solution.reshape(mu.size, nu.size),
        )
        worst = cert.max_violation()
    dom = worst <= tol
    strict = dom and not measures_equal(mu, nu, tol)
    return DominanceVerdict(dom, strict, cert if dom else None, worst)


def dominates(
    mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = DEFAULT_TOL
) -> DominanceVerdict:
    """Dispatch: stop-loss route in 1D, kernel feasibility otherwise."""
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.dim == 1:
        return dominates_1d(mu, nu, tol)
    return dominates_md(mu, nu, tol)


@dataclass(frozen=True, eq=False)
class AllocationVerdict:
    per_agent: tuple[DominanceVerdict, ...]
    dominates: bool
    strict: bool


def allocation_dominates(
    gamma: JointLaw, gamma0: JointLaw, tol: float = DEFAULT_TOL
) -> AllocationVerdict:
    """Agent-by-agent dominance between allocations of the same total risk."""
    if gamma.agents != gamma0.agents or gamma.dim != gamma0.dim:
        raise DimensionMismatch(
            f"allocations disagree in shape: {gamma.agents}x{gamma.dim} vs "
            f"{gamma0.agents}x{gamma0.dim}"
        )
    if not measures_equal(sum_pushforward(gamma), sum_pushforward(gamma0), tol):
        raise SumLawMismatch("the two allocations share risk of different laws")
    verdicts = tuple(
        dominates(marginal(gamma, i), marginal(gamma0, i), tol)
        for i in range(gamma.agents)
    )
    dom = all(v.dominates for v in verdicts)
    strict = dom and any(v.strict for v in verdicts)
    return AllocationVerdict(verdicts, dom, strict)


Samples = Sequence[tuple[Sequence[float], float]]


def is_comonotone_pairwise(
    samples: Union[JointLaw, Samples], tol: float = DEFAULT_TOL
) -> bool:
    """All pairs of components move weakly together across all state pairs.

    Components must be scalar; for every two states with positive weight and
    every component pair (i, j) the product of increments must be >= -tol.
    """
    if isinstance(samples, JointLaw):
        if samples.dim != 1:
            raise DimensionMismatch("pairwise comonotonicity is univariate only")
        X = samples.component_array()[:, :, 0]
    else:
        rows = []
        for values, w in samples:
            w = float(w)
            if not (w >= 0 and math.isfinite(w)):
                raise NonPositiveWeight(f"sample weight {w!r} is negative or not finite")
            if w == 0.0:
                continue
            row = []
            for v in values:
                if isinstance(v, (list, tuple, np.ndarray)):
                    if len(v) != 1:
                        raise DimensionMismatch(
                            "pairwise comonotonicity is univariate only"
                        )
                    v = v[0]
                row.append(float(v))
            if not all(math.isfinite(v) for v in row):
                raise InputError(f"sample values {row!r} are not all finite")
            rows.append(row)
        if not rows:
            return True
        if len({len(r) for r in rows}) != 1:
            raise DimensionMismatch("samples disagree on the number of components")
        X = np.array(rows)
    n = X.shape[0]
    for a in range(n):
        diffs = X[a + 1 :] - X[a]  # all later states against state a
        if diffs.size == 0:
            continue
        lo = diffs.min(axis=1)
        hi = diffs.max(axis=1)
        if np.any(lo * hi < -tol):
            return False
    return True
