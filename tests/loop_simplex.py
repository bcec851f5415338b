"""Reference pivot loop: the simplex run before it read its optimal verdict
off the structural block.

This is the ``_simplex_iterations`` that ``riskshare.lp`` replaced by a
leaner loop: it sorts every entering candidate on every pivot, breaks
ratio-test ties with ``min(..., key=...)`` over a list-like basis, and
refactorises the whole basis before every verdict.  It is kept here,
unchanged in arithmetic, so that the differential tests can require the
lean loop to take the same pivots.  Its rank-one update is its own, ``pivot``
below: the dense one the lean loop's ``_pivot`` replaced, which touches
every column of the rows where ``B⁻¹a`` is nonzero.  It looks up ``pivot``
on this module and ``_inverse``, ``_basis_matrix``, the tolerances and
``REFACTOR_INTERVAL`` on ``riskshare.lp`` at each call, so the tests'
patches reach it as they reach the lean loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from riskshare import lp


def pivot(invB: np.ndarray, d: np.ndarray, r: int) -> None:
    """Update ``invB`` in place after a column with ``d = invB @ a`` enters slot ``r``.

    Rows where ``d`` is zero are unchanged by the rank-one step, so only
    the others are touched.
    """
    row = invB[r] / d[r]
    nz = d.nonzero()[0]
    invB[nz] -= np.multiply.outer(d[nz], row)
    invB[r] = row


def simplex_iterations(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis,
    columns: lp._Columns,
    n_enter: int,
    invB: Optional[np.ndarray] = None,
    updates: int = 0,
):
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
            raise lp._Breakdown(f"iteration limit {max_iter} exceeded", pivots)
        if refactor or updates >= lp.REFACTOR_INTERVAL:
            invB = lp._inverse(lp._basis_matrix(A, basis), "singular working basis", pivots)
            xB = invB @ b
            y = invB.T @ c[basis]
            updates, refactor = 0, False
        z = c - columns.row_times(y)
        z[basis] = 0.0

        negative = (z[:n_enter] < -lp.OPT_TOL).nonzero()[0]
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
            if k >= 0 and abs(d[held[k]]) > lp.PIVOT_TOL:
                r, theta, step = int(held[k]), 0.0, 0.0
                held = held[held != r]
            else:
                eligible = (d > lp.PIVOT_TOL).nonzero()[0]
                if eligible.size == 0:
                    if np.max(np.delete(d, held), initial=-np.inf) <= lp.UNBOUNDED_TOL:
                        verdict = "unbounded"
                        break
                    verdict = "stalled"  # positive entries exist but all < PIVOT_TOL
                    continue
                ratios = xB[eligible] / d[eligible]
                theta = np.min(ratios)
                ties = eligible[ratios <= theta + lp.ZERO_WEIGHT]
                # leave on the smallest variable index (Bland-compatible, deterministic)
                r = min(ties, key=lambda i: basis[i])
                step = xB[r] / d[r]
            if theta <= lp.ZERO_WEIGHT:
                degen_run += 1
            else:
                degen_run = 0
            if not bland and degen_run >= 3 * n_enter:
                bland = True
            pivot(invB, d, r)
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
            raise lp._Breakdown(
                f"all usable pivot entries below {lp.PIVOT_TOL} and no alternative column",
                pivots,
            )
        return verdict, basis, xB, y, invB, pivots
