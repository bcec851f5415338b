"""Linear programming in standard form with certified outcomes.

Solves ``minimize c·v  subject to  A v = b, v >= 0`` with a two-phase
revised simplex method on the system ``[A | I]``, the program's columns
followed by one artificial per row.  That system is never built: each
solve signs the program's rows so that ``b >= 0`` (a program with no
negative entry of ``b`` is used as it is, with no copy), and the
artificials' unit columns are supplied where a product or a basis needs
them.

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
therefore takes a column-compressed copy of its system once, the
program's nonzeros followed by the unit columns, and every product with a
column of it costs its nonzeros, not its rows: pricing ``c - Aᵀy`` and the
entering column ``B⁻¹a`` (FTRAN).

The working basis is held as an explicit dense inverse.  A simplex run
inverts its start basis once, unless it is handed one (phase 1 from the
all-artificial basis is handed the identity); every pivot then updates the
inverse by a rank-one (eta) step, and moves the basic values and the duals
along with it, instead of re-inverting in O(m³).  The bases are
hypersparse, so the step touches only the block of rows where ``B⁻¹a`` is
nonzero and columns where the new pivot row is; a step of length 0 leaves
the basic values alone.  What is skipped would change at most the sign of
a zero, which no decision reads, and every verdict's values are solved
fresh.  The inverse, the basic values and the duals are recomputed from
scratch every ``REFACTOR_INTERVAL`` pivots to stop rounding from building
up.

No verdict is read off an updated inverse.  Phase 2 reads an optimal
verdict off basic values and duals solved fresh from the basis's
structural block: a basic artificial is the unit vector of its row, so
with k structural columns basic, one k x k solve per side gives them,
with no m x m inverse.  Phase 1, whose inverse phase 2 takes over, and an
unbounded verdict refactorise the whole basis instead.  The verdict is
then priced again from the fresh values; a column that enters after all
is pivoted on from a fresh inverse.

Every ``Optimal`` outcome is certified before it is returned: primal
residual, complementary slackness and the duality gap are all checked
against the *original* data, and a violation raises
``NumericalBreakdown`` instead of returning a wrong answer.  So does an
artificial left basic above ``FEAS_TOL`` at the end of phase 2.
``feasible(A, b)`` is the same run on the program at zero cost: phase 2
takes no pivot there, and phase 1's point is certified like any optimum.

Anti-cycling: pivoting starts under Dantzig's rule and switches to
Bland's rule permanently once ``3 * n_columns`` consecutive degenerate
steps have been taken, counted over the columns that may enter.
Dantzig's rule takes the entering column with one ``argmin`` over the
reduced costs (ties by index), Bland's the first index below ``-OPT_TOL``;
the other candidates are listed only when that column stalls, its entries
all positive but none above ``PIVOT_TOL``.
"""

from __future__ import annotations

import reprlib
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
#: A primal value at or below this is rounding: a step this long is
#: degenerate, ratios this close tie, and callers read a solution entry
#: this small as zero.
ZERO_WEIGHT = 1e-12
#: Residual a certified optimum may leave: each |x_j z_j| of complementary
#: slackness, and the duality gap relative to 1 + |value|.
CERTIFICATE_TOL = 1e-7
#: Rank-one updates of the basis inverse between two refactorisations.
REFACTOR_INTERVAL = 128


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _float_array(name: str, raw) -> np.ndarray:
    """``raw`` as a float array; anything else is an ``InputError`` naming it."""
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} = {reprlib.repr(raw)} is not an array of numbers") from exc


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """minimize c·v subject to A v = b, v >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        c, A, b = (_float_array(name, getattr(self, name)) for name in ("c", "A", "b"))
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


def _basis_matrix(A: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The columns ``basis`` of the system ``[A | I]``, as a dense array.

    Structural columns are read from ``A``; an artificial is the unit
    vector of its row.
    """
    m, n = A.shape
    B = np.zeros((m, len(basis)))
    art = basis >= n
    B[:, ~art] = A[:, basis[~art]]
    B[basis[art] - n, art.nonzero()[0]] = 1.0
    return B


class _Columns:
    """Column-compressed copy of the system ``[A | I]``, built from ``A`` alone.

    The nonzeros of column ``j`` are ``vals[ptr[j]:ptr[j + 1]]``, in rows
    ``rows[ptr[j]:ptr[j + 1]]``; ``cols`` holds each nonzero's column.  The
    program's nonzeros come first, then the m unit columns.
    """

    def __init__(self, A: np.ndarray):
        m, n = A.shape
        self.n = n + m
        # column-major order; the flat indices of a boolean array are far
        # quicker to find than np.nonzero's index pairs
        cols, rows = np.divmod(np.flatnonzero((A != 0).T), m)
        units = np.arange(m)
        self.cols = np.concatenate([cols, n + units])
        self.rows = np.concatenate([rows, units])
        self.vals = np.concatenate([A[rows, cols], np.ones(m)])
        self.ptr = np.searchsorted(self.cols, np.arange(self.n + 1)).tolist()

    def row_times(self, y: np.ndarray) -> np.ndarray:
        """``y @ [A | I]``, by summing each column's nonzeros."""
        return np.bincount(self.cols, weights=y[self.rows] * self.vals, minlength=self.n)

    def ftran(self, invB: np.ndarray, j: int) -> np.ndarray:
        """``invB @ [A | I][:, j]``, from the columns of ``invB`` on column j's nonzero rows."""
        lo, hi = self.ptr[j], self.ptr[j + 1]
        return invB[:, self.rows[lo:hi]] @ self.vals[lo:hi]


def _pivot(invB: np.ndarray, d: np.ndarray, r: int) -> None:
    """Update ``invB`` in place after a column with ``d = invB @ a`` enters slot ``r``.

    The rank-one step subtracts ``d`` times the new row ``r``, so only the
    block of rows where ``d`` is nonzero and columns where that row is
    nonzero is touched.  Everywhere else it would subtract an exact zero,
    which can change at most the sign of a zero, and no decision reads that.
    ``invB`` is C-contiguous, as every inverse here is, so the block is
    reached through flat indices of a view, quicker than an index pair.
    """
    row = invB[r] / d[r]
    nz = d.nonzero()[0]
    cols = row.nonzero()[0]
    block = np.add.outer(nz * invB.shape[1], cols)
    invB.reshape(-1)[block] -= np.multiply.outer(d[nz], row[cols])
    invB[r] = row


def _entering(z: np.ndarray, n_enter: int, bland: bool):
    """The columns ``j < n_enter`` with ``z_j < -OPT_TOL``, in the order they are tried.

    Under Bland's rule that is index order; under Dantzig's it is ascending
    reduced cost, ties by index.  Nearly every pivot takes the first
    candidate, found in one pass over ``z``, so the full order is built
    only when that one stalls.
    """
    z = z[:n_enter]
    first = int((z < -OPT_TOL).argmax() if bland else z.argmin())
    if not z[first] < -OPT_TOL:
        return
    yield first
    negative = (z < -OPT_TOL).nonzero()[0]
    if not bland:
        negative = negative[np.argsort(z[negative], kind="stable")]
    yield from negative[1:].tolist()


def _structural_solution(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: np.ndarray, pivots: int
) -> tuple[np.ndarray, np.ndarray]:
    """Basic values and duals of ``basis``, solved fresh from its structural block.

    ``A`` is the program, without its artificials.  A basic artificial is
    the unit vector of its row, so the k structural basic columns, on the k
    rows no basic artificial covers, form a k x k block ``B_s``:
    ``B_s x_s = b_s`` and ``B_sᵀ y_s = c_s - S_aᵀ c_a``, where ``S_a`` holds
    the structural columns' entries on the covered rows.  The artificial
    slots then take ``x_a = b_a - S_a x_s``, and their rows ``y_a = c_a``.
    A singular block becomes a ``_Breakdown``.
    """
    m, n = A.shape
    art = basis >= n
    rows = basis[art] - n  # the row of each artificial slot
    free = np.ones(m, dtype=bool)
    free[rows] = False
    B = A[:, basis[~art]]
    B_s, S_a = B[free], B[rows]
    xB, y = np.empty(m), np.empty(m)
    y[rows] = c[basis[art]]
    try:
        x_s = np.linalg.solve(B_s, b[free])
        y[free] = np.linalg.solve(B_s.T, c[basis[~art]] - S_a.T @ y[rows])
    except np.linalg.LinAlgError as exc:
        raise _Breakdown(f"singular working basis: {exc}", pivots) from exc
    xB[~art] = x_s
    xB[art] = b[rows] - S_a @ x_s
    return xB, y


def _simplex_iterations(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: np.ndarray,
    columns: _Columns,
    n_enter: int,
    invB: Optional[np.ndarray] = None,
    updates: int = 0,
) -> tuple[str, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray], int]:
    """Run simplex to optimality/unboundedness from a feasible basis.

    ``A`` is the program and ``columns`` the compressed system ``[A | I]``,
    whose column ``n + i`` is row i's artificial; ``basis`` (an int array,
    updated in place) holds a column per row.
    Only the first ``n_enter`` columns may enter; a basic column past them
    is a variable fixed at 0.  It blocks any entering column whose entry on
    its row exceeds ``PIVOT_TOL`` in absolute value, with either sign, at
    step 0, and among several the one with the largest entry leaves.
    ``invB``, when given, is the start basis's inverse, ``updates`` rank-one
    steps since it was fresh; otherwise the run inverts the start basis.

    Returns (status, basis, basic values, duals, basis inverse, pivot
    count) with status "optimal" or "unbounded".  Between refactorisations
    the basic values and the duals are moved along with each pivot; the
    ones returned are fresh.  When artificial columns may not enter (phase
    2), an optimal verdict reached after updates is read off
    ``_structural_solution`` and no inverse is returned.  Before any other
    verdict after updates, phase 1's included (phase 2 takes over its
    inverse), the whole basis is refactorised.  Either way the verdict is
    priced again from the fresh values, and a column that then enters is
    pivoted on from a fresh inverse.
    """
    m = A.shape[0]
    phase_two = n_enter < columns.n  # artificial columns may not enter
    held = basis >= n_enter  # the slots of variables fixed at 0, as a mask
    n_held = int(held.sum())  # none in phase 1, where every column may enter
    pivots = 0
    refactor = invB is None
    if invB is not None:
        xB = invB @ b
        y = invB.T @ c[basis]
    solved = False  # xB and y were just solved from the structural block
    degen_run = 0
    bland = False
    max_iter = 200 * (m + n_enter) + 5000
    while True:
        if pivots > max_iter:
            raise _Breakdown(f"iteration limit {max_iter} exceeded", pivots)
        if refactor or updates >= REFACTOR_INTERVAL:
            invB = _inverse(_basis_matrix(A, basis), "singular working basis", pivots)
            xB = invB @ b
            y = invB.T @ c[basis]
            updates, refactor = 0, False
        z = c - columns.row_times(y)
        z[basis] = 0.0

        if solved:
            if not (z[:n_enter] < -OPT_TOL).any():
                return "optimal", basis, xB, y, None, pivots
            solved, refactor = False, True
            continue

        verdict: Optional[str] = "optimal"
        for j in _entering(z, n_enter, bland):
            d = columns.ftran(invB, j)
            # a variable fixed at 0 blocks at step 0; of several, the one
            # with the largest entry leaves (only nonzero entries can block)
            k = -1
            if n_held:
                nz = d.nonzero()[0]
                blocking = nz[held[nz]]
                if blocking.size:
                    k = int(np.abs(d[blocking]).argmax())
            if k >= 0 and abs(d[blocking[k]]) > PIVOT_TOL:
                r, theta, step = int(blocking[k]), 0.0, 0.0
                held[r] = False
                n_held -= 1
            else:
                eligible = (d > PIVOT_TOL).nonzero()[0]
                if eligible.size == 0:
                    if np.max(d[~held], initial=-np.inf) <= UNBOUNDED_TOL:
                        verdict = "unbounded"
                        break
                    verdict = "stalled"  # positive entries exist but all < PIVOT_TOL
                    continue
                ratios = xB[eligible] / d[eligible]
                theta = ratios.min()
                ties = eligible[ratios <= theta + ZERO_WEIGHT]
                # leave on the smallest variable index (Bland-compatible, deterministic)
                r = int(ties[basis[ties].argmin()])
                step = xB[r] / d[r]
            if theta <= ZERO_WEIGHT:
                degen_run += 1
            else:
                degen_run = 0
            if not bland and degen_run >= 3 * n_enter:
                bland = True
            _pivot(invB, d, r)
            if step:  # a step of 0 could change only the sign of a zero
                xB -= step * d
            xB[r] = step
            # y moves by z_j times the new row r of B⁻¹: a_j·y becomes c_j,
            # and a·y is unchanged for every other basic column a
            y += z[j] * invB[r]
            basis[r] = j
            pivots += 1
            updates += 1
            verdict = None
            break
        if verdict is None:
            continue
        if updates:  # read no verdict off an updated inverse
            if verdict == "optimal" and phase_two:
                xB, y = _structural_solution(A, b, c, basis, pivots)
                solved = True
            else:
                refactor = True
            continue
        if verdict == "stalled":
            raise _Breakdown(
                f"all usable pivot entries below {PIVOT_TOL} and no alternative column",
                pivots,
            )
        return verdict, basis, xB, y, invB, pivots


def _crash(
    A: np.ndarray, columns: _Columns, x: np.ndarray, basis: np.ndarray, invB: np.ndarray
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
    ``A`` is the program and ``columns`` the compressed system ``[A | I]``.

    Returns the rank-one updates made to ``invB`` since it was last fresh.
    """
    m = A.shape[0]
    held = np.ones(m, dtype=bool)  # slots still held by artificials
    updates = 0
    for j in np.flatnonzero(x > 0).tolist():
        if updates >= REFACTOR_INTERVAL:
            B = _basis_matrix(A, basis)
            invB[:] = _inverse(B, "singular basis while crashing the start", 0)
            updates = 0
        d = columns.ftran(invB, j)
        on_held = np.where(held, np.abs(d), 0.0)
        r = int(np.argmax(on_held))
        if on_held[r] <= PIVOT_TOL:
            slots = (~held).nonzero()[0]
            falling = slots[d[slots] < -PIVOT_TOL]
            ratios = x[basis[falling]] / -d[falling]
            step = float(np.min(ratios, initial=np.inf))
            stays_out = x[j] <= step + ZERO_WEIGHT
            if stays_out:
                step = x[j]
            cols = basis[slots]
            x[cols] = np.maximum(x[cols] + step * d[slots], 0.0)
            x[j] -= step
            if stays_out:
                continue
            ties = falling[ratios <= step + ZERO_WEIGHT]
            r = int(ties[np.argmax(np.abs(d[ties]))])
            x[basis[r]] = 0.0
        _pivot(invB, d, r)
        basis[r] = j
        held[r] = False
        updates += 1
    return updates


def _phase_one(
    A: np.ndarray, b: np.ndarray, columns: _Columns, start: Optional[np.ndarray] = None
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Minimize the sum of artificial variables from the basis of ``start``'s support.

    ``A`` is the program and ``columns`` the compressed system ``[A | I]``.
    ``start`` (purified in place) is a feasible point, or None for the
    empty support, which leaves the all-artificial basis.  When the start
    basis's artificials already sum to at most ``FEAS_TOL``, it is phase 1's
    answer and no pivot is taken.  Returns value, basis, y, invB, pivots
    and the rank-one updates of invB since it was fresh.
    """
    m, n = A.shape
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = np.arange(n, n + m)
    invB = np.eye(m)  # the identity basis is its own inverse
    updates = 0
    if start is not None and m:  # with no rows every basis is empty
        updates = _crash(A, columns, start, basis, invB)
    xB = invB @ b
    if float(np.sum(np.abs(xB[c1[basis] > 0]))) <= FEAS_TOL:
        y, pivots = invB.T @ c1[basis], 0
    else:
        # a fresh inverse of the start basis serves as it is; after the
        # crash's rank-one updates the run inverts the basis again
        status, basis, xB, y, invB, pivots = _simplex_iterations(
            A, b, c1, basis, columns, n + m, None if updates else invB
        )
        if status != "optimal":
            raise _Breakdown("phase 1 reported unbounded; objective is bounded below", pivots)
        updates = 0
    return float(c1[basis] @ xB), basis, y, invB, pivots, updates


def _signed_rows(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The program with each row signed so that ``b >= 0``.

    Returns the signed ``A`` and ``b`` and the row signs, which turn the
    signed program's duals back into the original's.  When no entry of
    ``b`` is negative, these are the arrays passed in, not copies; the
    solver never writes into them.  Its artificials are never built:
    ``_Columns`` and ``_basis_matrix`` supply their unit columns.
    """
    negative = b < 0
    signs = np.where(negative, -1.0, 1.0)
    if not negative.any():  # no row to sign: the program is used as it is
        return A, b, signs
    return A * signs[:, None], b * signs, signs


def _primal_residual(lp: LinearProgram, x: np.ndarray) -> float:
    return float(np.max(np.abs(lp.A @ x - lp.b), initial=0.0))


def _certify(lp: LinearProgram, x: np.ndarray, y: np.ndarray, value: float) -> None:
    primal = _primal_residual(lp, x)
    z = lp.c - lp.A.T @ y
    comp = float(np.max(np.abs(x * z), initial=0.0))
    gap = abs(float(lp.c @ x) - float(y @ lp.b))
    if primal > FEAS_TOL:
        raise _Breakdown(f"primal residual {primal:.3e} exceeds {FEAS_TOL}")
    if comp > CERTIFICATE_TOL:
        raise _Breakdown(f"complementary slackness residual {comp:.3e} exceeds {CERTIFICATE_TOL}")
    if gap > CERTIFICATE_TOL * (1.0 + abs(value)):
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
    residual = _primal_residual(lp, x0)
    if residual > FEAS_TOL:
        raise InputError(f"start misses A x = b by {residual:.3e}, more than {FEAS_TOL}")
    return x0


def _two_phase(lp: LinearProgram, start: Optional[np.ndarray]) -> LPOutcome:
    """Both phases from ``start``'s basis, or the all-artificial one if None."""
    m, n = lp.A.shape
    A, b, signs = _signed_rows(lp.A, lp.b)
    columns = _Columns(A)
    pivots = 0
    try:
        p1_value, basis, y1, invB, pivots, updates = _phase_one(A, b, columns, start)
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
        y[basis[basis >= n] - n] = 0.0
        duals = y * signs
        _certify(lp, x, duals, value)
    except _Breakdown as exc:
        raise _numerical_breakdown(lp, exc, pivots) from exc
    return LPOutcome(LPStatus.OPTIMAL, value, x, duals, pivots)


def solve(lp: LinearProgram, start: Optional[np.ndarray] = None) -> LPOutcome:
    """Solve the program; Optimal outcomes are certified, or an error is raised.

    ``start``, when given, is a point with ``A x = b`` and ``x >= 0`` to
    within ``FEAS_TOL`` (``InputError`` otherwise); phase 1 starts from the
    basis of its support instead of the all-artificial one.
    """
    return _two_phase(lp, None if start is None else _checked_start(lp, start))


def feasible(A: np.ndarray, b: np.ndarray) -> LPOutcome:
    """Feasibility of ``A v = b, v >= 0``: the program at zero cost.

    Runs ``solve``'s two phases on ``c = 0``, so phase 2 takes no pivot.
    Optimal comes with a feasible point, value 0.0 and phase 2's duals,
    certified as ``solve``'s are; Infeasible has phase 1's residual as the
    value and its duals as a Farkas certificate.
    """
    # one cost per column; an A that is not 2-d gets a 0-d c and LinearProgram's error
    A = _float_array("A", A)
    return _two_phase(LinearProgram(c=np.zeros(A.shape[1:2]), A=A, b=b), None)
