"""Linear programming in standard form with certified outcomes.

Solves ``minimize c·v  subject to  A v = b, v >= 0`` with a two-phase
revised simplex method on the system ``[A | I]``, the program's columns
followed by one artificial per row, built once per solve.

Phase 1 starts from the basis of a feasible point's support when the
caller knows one (``solve(lp, start=x0)``), completed by artificials on the
rows that support does not cover; without one it starts from the
all-artificial basis, the empty support's.  The support is pivoted into
the identity basis column by column, each on the artificial row where its
entry is largest.  A support column with no usable entry there is a
combination of the columns already in, and the point is moved along that
dependency until a weight reaches zero (purification), so the basis holds
the whole support and its basic solution is the point itself.  The
artificials then sum to at most ``FEAS_TOL``, and phase 1 takes no pivot.

Phase 2 runs on the same system from phase 1's basis and inverse, with no
new inversion.  Artificial columns never enter it, and an artificial still
basic is a variable fixed at 0: when the entering column's entry on its
row exceeds ``PIVOT_TOL`` in absolute value, with either sign, it blocks at
step 0 and leaves (the largest such entry, among several).  An artificial
on a redundant row never leaves, and its row's dual is exactly 0; no row
is dropped.  The pivot count includes the pivots that take an artificial
out.

Programs are passed in as dense arrays and stay
at desk scale (a few hundred rows, at most a few thousand variables), but
the ones built elsewhere in the package are about 99% zeros.  Each solve
therefore takes a column-compressed copy of its system once, and every
product with a column of it costs its nonzeros, not its rows: pricing
``c - Aᵀy`` and the entering column ``B⁻¹a`` (FTRAN).

The working basis is held as an explicit dense inverse.  A simplex run
inverts its start basis once, unless it is handed one; every pivot then
updates the inverse by a rank-one (eta) step on the rows where ``B⁻¹a`` is
nonzero, and moves the basic values and the duals along with it, instead
of re-inverting in O(m³).  The inverse, the basic values and the duals are recomputed from
scratch every ``REFACTOR_INTERVAL`` pivots to stop rounding from building
up.  No verdict is read off an updated inverse: before a run reports
optimal or unbounded it refactorises, so the final basic values and duals
come from a fresh inverse.

Every ``Optimal`` outcome is certified before it is returned: primal
residual, complementary slackness and the duality gap are all checked
against the *original* data, and a violation raises
``NumericalBreakdown`` instead of returning a wrong answer.  So does an
artificial left basic above ``FEAS_TOL`` at the end of phase 2.

Anti-cycling: pivoting starts under Dantzig's rule and switches to
Bland's rule permanently once ``3 * n_columns`` consecutive degenerate
steps have been taken, counted over the columns that may enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import InputError, NumericalBreakdown

#: Entries smaller than this never serve as pivots.
PIVOT_TOL = 1e-11
#: Phase-1 objective above this means the system is infeasible.
FEAS_TOL = 1e-8
#: Reduced costs above -OPT_TOL count as nonnegative (optimality).
OPT_TOL = 1e-9
#: A column whose entries are all <= this is an unbounded ray.
UNBOUNDED_TOL = 1e-13
#: A simplex step of length <= this counts as degenerate.
DEGENERATE_STEP_TOL = 1e-12
#: Complementary-slackness residual allowed on certified outcomes.
COMP_SLACK_TOL = 1e-7
#: Relative duality gap allowed on certified outcomes.
GAP_TOL = 1e-7
#: Rank-one updates of the basis inverse between two refactorisations.
REFACTOR_INTERVAL = 128


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """minimize c·v subject to A v = b, v >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2:
            raise InputError("A must be a 2-d array")
        m, n = A.shape
        if c.shape != (n,) or b.shape != (m,):
            raise InputError(
                f"inconsistent shapes: A is {A.shape}, c is {c.shape}, b is {b.shape}"
            )
        if n < 1:
            raise InputError("program needs at least one variable")
        for name, arr in (("c", c), ("A", A), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise InputError(f"non-finite entry in {name}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def n_vars(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class LPOutcome:
    """Result of a solve; ``duals`` follow the original row order and signs."""

    status: LPStatus
    value: float
    solution: Optional[np.ndarray]
    duals: Optional[np.ndarray]
    pivots: int


class _Breakdown(Exception):
    """Internal signal, converted to NumericalBreakdown at the boundary.

    ``pivots`` counts the pivots of the simplex run that broke down (0
    outside one); the boundary adds the pivots of the runs before it.
    """

    def __init__(self, why: str, pivots: int = 0):
        super().__init__(why)
        self.pivots = pivots


def _numerical_breakdown(lp: LinearProgram, exc: _Breakdown, pivots: int):
    m, n = lp.A.shape
    return NumericalBreakdown(f"{exc} ({m} x {n} program, {exc.pivots + pivots} pivots taken)")


def _inverse(B: np.ndarray, why: str, pivots: int) -> np.ndarray:
    """Invert a basis from scratch; singularity becomes a ``_Breakdown``."""
    try:
        return np.linalg.inv(B) if B.size else np.zeros(B.shape)
    except np.linalg.LinAlgError as exc:
        raise _Breakdown(f"{why}: {exc}", pivots) from exc


class _Columns:
    """Column-compressed copy of a dense matrix.

    The nonzeros of column ``j`` are ``vals[ptr[j]:ptr[j + 1]]``, in rows
    ``rows[ptr[j]:ptr[j + 1]]``; ``cols`` holds each nonzero's column.
    """

    def __init__(self, A: np.ndarray):
        self.n = A.shape[1]
        self.cols, self.rows = np.nonzero(A.T)  # column-major order
        self.vals = A[self.rows, self.cols]
        self.ptr = np.searchsorted(self.cols, np.arange(self.n + 1)).tolist()

    def row_times(self, y: np.ndarray) -> np.ndarray:
        """``y @ A``, by summing each column's nonzeros."""
        return np.bincount(self.cols, weights=y[self.rows] * self.vals, minlength=self.n)

    def ftran(self, invB: np.ndarray, j: int) -> np.ndarray:
        """``invB @ A[:, j]``, from the columns of ``invB`` on column j's nonzero rows."""
        lo, hi = self.ptr[j], self.ptr[j + 1]
        return invB[:, self.rows[lo:hi]] @ self.vals[lo:hi]


def _pivot(invB: np.ndarray, d: np.ndarray, r: int) -> None:
    """Update ``invB`` in place after a column with ``d = invB @ a`` enters slot ``r``.

    Rows where ``d`` is zero are unchanged by the rank-one step, so only
    the others are touched.
    """
    row = invB[r] / d[r]
    nz = d.nonzero()[0]
    invB[nz] -= np.multiply.outer(d[nz], row)
    invB[r] = row


def _simplex_iterations(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: list[int],
    columns: _Columns,
    n_enter: int,
    invB: Optional[np.ndarray] = None,
    updates: int = 0,
) -> tuple[str, list[int], np.ndarray, np.ndarray, np.ndarray, int]:
    """Run simplex to optimality/unboundedness from a feasible basis.

    ``A`` is the system ``[A | I]`` and ``columns`` its compressed copy.
    Only the first ``n_enter`` columns may enter; a basic column past them
    is a variable fixed at 0.  It blocks any entering column whose entry on
    its row exceeds ``PIVOT_TOL`` in absolute value, with either sign, at
    step 0, and among several the one with the largest entry leaves.
    ``invB``, when given, is the start basis's inverse, ``updates`` rank-one
    steps since it was fresh; otherwise the run inverts the start basis.

    Returns (status, basis, basic values, duals, basis inverse, pivot
    count) with status "optimal" or "unbounded"; the inverse, the basic
    values and the duals are fresh.  Between refactorisations the basic
    values and the duals are moved along with each pivot.
    """
    m = A.shape[0]
    held = np.flatnonzero(np.array(basis) >= n_enter)  # slots of variables fixed at 0
    pivots = 0
    refactor = invB is None
    if invB is not None:
        xB = invB @ b
        y = invB.T @ c[basis]
    degen_run = 0
    bland = False
    max_iter = 200 * (m + n_enter) + 5000
    while True:
        if pivots > max_iter:
            raise _Breakdown(f"iteration limit {max_iter} exceeded", pivots)
        if refactor or updates >= REFACTOR_INTERVAL:
            invB = _inverse(A[:, basis], "singular working basis", pivots)
            xB = invB @ b
            y = invB.T @ c[basis]
            updates, refactor = 0, False
        z = c - columns.row_times(y)
        z[basis] = 0.0

        negative = (z[:n_enter] < -OPT_TOL).nonzero()[0]
        if bland:
            candidates = negative  # already in ascending index order
        else:
            candidates = negative[np.argsort(z[negative], kind="stable")]

        verdict: Optional[str] = "optimal"
        for j in candidates:
            d = columns.ftran(invB, j)
            # a variable fixed at 0 blocks at step 0; of several, the one
            # with the largest entry leaves
            k = int(np.argmax(np.abs(d[held]))) if held.size else -1
            if k >= 0 and abs(d[held[k]]) > PIVOT_TOL:
                r, theta, step = int(held[k]), 0.0, 0.0
                held = held[held != r]
            else:
                eligible = (d > PIVOT_TOL).nonzero()[0]
                if eligible.size == 0:
                    if np.max(np.delete(d, held), initial=-np.inf) <= UNBOUNDED_TOL:
                        verdict = "unbounded"
                        break
                    verdict = "stalled"  # positive entries exist but all < PIVOT_TOL
                    continue
                ratios = xB[eligible] / d[eligible]
                theta = np.min(ratios)
                ties = eligible[ratios <= theta + DEGENERATE_STEP_TOL]
                # leave on the smallest variable index (Bland-compatible, deterministic)
                r = min(ties, key=lambda i: basis[i])
                step = xB[r] / d[r]
            if theta <= DEGENERATE_STEP_TOL:
                degen_run += 1
            else:
                degen_run = 0
            if not bland and degen_run >= 3 * n_enter:
                bland = True
            _pivot(invB, d, r)
            xB -= step * d
            xB[r] = step
            # y moves by z_j times the new row r of B⁻¹: a_j·y becomes c_j,
            # and a·y is unchanged for every other basic column a
            y += z[j] * invB[r]
            basis[r] = int(j)
            pivots += 1
            updates += 1
            verdict = None
            break
        if verdict is None:
            continue
        if updates:
            refactor = True  # read no verdict off an updated inverse
            continue
        if verdict == "stalled":
            raise _Breakdown(
                f"all usable pivot entries below {PIVOT_TOL} and no alternative column",
                pivots,
            )
        return verdict, basis, xB, y, invB, pivots


def _crash(
    A: np.ndarray, columns: _Columns, x: np.ndarray, basis: list[int], invB: np.ndarray
) -> int:
    """Pivot the support of a feasible point ``x`` into the all-artificial basis.

    ``x`` (``A x = b``, ``x >= 0``), ``basis`` and ``invB`` are updated in
    place.  Each support column enters on the row, still held by an
    artificial, where its entry of ``B⁻¹a`` is largest.  A column with no
    entry above ``PIVOT_TOL`` on those rows is the combination ``d`` of the
    columns already in, so ``x`` can move along that dependency, the column
    down and the basic columns by ``d``, until a weight reaches zero
    (purification).  If the column's own weight does, it stays out;
    otherwise it takes the slot of the basic column whose weight did.  The
    basis then holds the whole support, so its basic solution is ``x``.
    ``A`` is the system ``[A | I]``, whose first ``len(x)`` columns are the
    program's, and ``columns`` its compressed copy.

    Returns the rank-one updates made to ``invB`` since it was last fresh.
    """
    m = A.shape[0]
    held = np.ones(m, dtype=bool)  # slots still held by artificials
    updates = 0
    for j in np.flatnonzero(x > 0).tolist():
        if updates >= REFACTOR_INTERVAL:
            invB[:] = _inverse(A[:, basis], "singular basis while crashing the start", 0)
            updates = 0
        d = columns.ftran(invB, j)
        on_held = np.where(held, np.abs(d), 0.0)
        r = int(np.argmax(on_held))
        if on_held[r] <= PIVOT_TOL:
            slots = (~held).nonzero()[0]
            falling = slots[d[slots] < -PIVOT_TOL]
            ratios = x[[basis[k] for k in falling]] / -d[falling]
            step = float(np.min(ratios, initial=np.inf))
            stays_out = x[j] <= step + DEGENERATE_STEP_TOL
            if stays_out:
                step = x[j]
            cols = [basis[k] for k in slots]
            x[cols] = np.maximum(x[cols] + step * d[slots], 0.0)
            x[j] -= step
            if stays_out:
                continue
            ties = falling[ratios <= step + DEGENERATE_STEP_TOL]
            r = int(ties[np.argmax(np.abs(d[ties]))])
            x[basis[r]] = 0.0
        _pivot(invB, d, r)
        basis[r] = j
        held[r] = False
        updates += 1
    return updates


def _phase_one(
    A: np.ndarray, b: np.ndarray, columns: _Columns, start: Optional[np.ndarray] = None
) -> tuple[float, list[int], np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Minimize the sum of artificial variables from the basis of ``start``'s support.

    ``A`` is the system ``[A | I]`` and ``columns`` its compressed copy.
    ``start`` (purified in place) is a feasible point, or None for the
    empty support, which leaves the all-artificial basis.  When the start
    basis's artificials already sum to at most ``FEAS_TOL``, it is phase 1's
    answer and no pivot is taken.  Returns value, basis, x, y, invB, pivots
    and the rank-one updates of invB since it was fresh.
    """
    m = A.shape[0]
    n = A.shape[1] - m
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    invB = np.eye(m)
    updates = 0
    if start is not None:
        updates = _crash(A, columns, start, basis, invB)
    xB = invB @ b
    if float(np.sum(np.abs(xB[c1[basis] > 0]))) <= FEAS_TOL:
        y, pivots = invB.T @ c1[basis], 0
    else:
        status, basis, xB, y, invB, pivots = _simplex_iterations(A, b, c1, basis, columns, n + m)
        if status != "optimal":
            raise _Breakdown("phase 1 reported unbounded; objective is bounded below", pivots)
        updates = 0
    x = np.zeros(n + m)
    x[basis] = xB
    value = float(c1 @ x)
    return value, basis, x, y, invB, pivots, updates


def _with_artificials(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The system ``[A | I]`` with each row signed so that ``b >= 0``.

    Returns the system, the signed ``b`` and the row signs, which turn the
    system's duals back into the program's.
    """
    signs = np.where(lp.b < 0, -1.0, 1.0)
    A = np.hstack([lp.A * signs[:, None], np.eye(lp.n_rows)])
    return A, lp.b * signs, signs


def _certify(lp: LinearProgram, x: np.ndarray, y: np.ndarray, value: float) -> None:
    primal = float(np.max(np.abs(lp.A @ x - lp.b), initial=0.0))
    z = lp.c - lp.A.T @ y
    comp = float(np.max(np.abs(x * z), initial=0.0))
    gap = abs(float(lp.c @ x) - float(y @ lp.b))
    if primal > FEAS_TOL:
        raise _Breakdown(f"primal residual {primal:.3e} exceeds {FEAS_TOL}")
    if comp > COMP_SLACK_TOL:
        raise _Breakdown(f"complementary slackness residual {comp:.3e} exceeds {COMP_SLACK_TOL}")
    if gap > GAP_TOL * (1.0 + abs(value)):
        raise _Breakdown(f"duality gap {gap:.3e} exceeds tolerance")


def _checked_start(lp: LinearProgram, start) -> np.ndarray:
    """``start`` as a float vector, or ``InputError`` unless it is feasible."""
    try:
        x0 = np.array(start, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"start is not a vector of numbers: {exc}") from exc
    if x0.shape != (lp.n_vars,):
        raise InputError(f"start has shape {x0.shape}, expected ({lp.n_vars},)")
    if not np.all(np.isfinite(x0)):
        raise InputError("non-finite entry in start")
    if np.any(x0 < 0.0):
        raise InputError(f"start has a negative entry {float(np.min(x0)):.3e}")
    residual = float(np.max(np.abs(lp.A @ x0 - lp.b), initial=0.0))
    if residual > FEAS_TOL:
        raise InputError(f"start misses A x = b by {residual:.3e}, more than {FEAS_TOL}")
    return x0


def solve(lp: LinearProgram, start: Optional[np.ndarray] = None) -> LPOutcome:
    """Solve the program; Optimal outcomes are certified, or an error is raised.

    ``start``, when given, is a point with ``A x = b`` and ``x >= 0`` to
    within ``FEAS_TOL`` (``InputError`` otherwise); phase 1 starts from the
    basis of its support instead of the all-artificial one.
    """
    m, n = lp.A.shape
    x0 = None if start is None else _checked_start(lp, start)
    A, b, signs = _with_artificials(lp)
    columns = _Columns(A)
    pivots = 0
    try:
        p1_value, basis, _, y1, invB, pivots, updates = _phase_one(A, b, columns, x0)
        if p1_value > FEAS_TOL:
            return LPOutcome(LPStatus.INFEASIBLE, p1_value, None, y1 * signs, pivots)

        # phase 2 keeps phase 1's basis and inverse; the artificials still
        # basic are fixed at 0 and leave as soon as a column's entry allows
        c = np.concatenate([lp.c, np.zeros(m)])
        status, basis, xB, y, _, pivots2 = _simplex_iterations(
            A, b, c, basis, columns, n, invB, updates
        )
        pivots += pivots2
        if status == "unbounded":
            return LPOutcome(LPStatus.UNBOUNDED, float("-inf"), None, None, pivots)

        x = np.zeros(n + m)
        x[basis] = xB
        artificial = float(np.max(np.abs(x[n:]), initial=0.0))
        if artificial > FEAS_TOL:
            raise _Breakdown(f"artificial basic value {artificial:.3e} after phase 2")
        x = x[:n]
        if float(np.min(x, initial=0.0)) < -FEAS_TOL:
            raise _Breakdown(f"negative basic value {np.min(x):.3e} after phase 2")
        np.clip(x, 0.0, None, out=x)
        value = float(lp.c @ x)
        # a row whose artificial is still basic has dual 0 exactly, not the
        # rounding that the inverse leaves there
        y[[j - n for j in basis if j >= n]] = 0.0
        duals = y * signs
        _certify(lp, x, duals, value)
    except _Breakdown as exc:
        raise _numerical_breakdown(lp, exc, pivots) from exc
    return LPOutcome(LPStatus.OPTIMAL, value, x, duals, pivots)


def feasible(A: np.ndarray, b: np.ndarray) -> LPOutcome:
    """Phase-1 feasibility check of ``A v = b, v >= 0``.

    Returns Optimal with a feasible point when the residual objective comes
    out <= FEAS_TOL, otherwise Infeasible with the residual as the value.
    """
    lp = LinearProgram(c=np.zeros(np.asarray(A).shape[1]), A=A, b=b)
    A1, b1, signs = _with_artificials(lp)
    try:
        value, _, x1, y1, _, pivots, _ = _phase_one(A1, b1, _Columns(A1))
    except _Breakdown as exc:
        raise _numerical_breakdown(lp, exc, 0) from exc
    duals = y1 * signs
    if value > FEAS_TOL:
        return LPOutcome(LPStatus.INFEASIBLE, value, None, duals, pivots)
    x = np.clip(x1[: lp.n_vars], 0.0, None)
    return LPOutcome(LPStatus.OPTIMAL, value, x, duals, pivots)
