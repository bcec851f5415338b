"""Optimal risk sharing of a point and of a law across convex agent costs.

Each agent carries a cost ``psi_i(y) = quadratic_i(y) + max-affine_i(y)``:
a strictly convex quadratic floor plus finitely many affine pieces.  The
cost of sharing ``x`` is the infimal convolution

    (box psi)(x) = min { sum_i psi_i(y_i) : sum_i y_i = x, y_i in B },

whose unique minimizer defines the sharing map ``T(x) = (y_1, ..., y_p)``.
In one dimension the map is computed exactly: each agent's best response
``y_i(u)`` to a price ``u`` is nondecreasing and piecewise linear, with
knots read off the upper envelope of its affine pieces, so the price
equation ``sum_i y_i(u) = x`` is solved on the bracketing linear piece.
In higher dimension the solver maximizes the concave dual over the price
vector ``q`` by gradient ascent; each inner minimization over the ball B is
solved exactly by enumerating candidate active sets of affine pieces
(single pieces first, then small subsets located by a short
projected-subgradient run) and certifying global optimality through the
convex KKT conditions.

Pure-quadratic profiles enjoy the closed form ``y_i = S_i (sum_j S_j)^{-1} x``
with ``S_i`` the inverse quadratic; the same matrices generate the explicit
two-agent families whose sharing maps have unbounded norm and whose set is
not convex, reproduced by ``counterexample_family``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    NoConvergence,
    NotPositiveDefinite,
    ParameterOutOfRange,
    SingularSum,
    XOutsideDomain,
)
from .measures import (
    DEFAULT_TOL,
    BallConfig,
    Coords,
    DiscreteMeasure,
    JointLaw,
    validate_joint_law,
)

MAX_OUTER_ITER = 10_000
#: Slack for deciding that an affine piece is active / a candidate optimal.
CERT_TOL = 1e-9
#: Multiplier for a share counting as interior to the ball.
INTERIOR_SLACK = 1e-10


@dataclass(frozen=True, eq=False)
class AgentProfile:
    """One agent's cost: quadratic part plus a max of affine pieces.

    ``quad=None`` means the isotropic floor (eps/2)|y|^2; otherwise ``quad``
    is a symmetric positive-definite matrix Q and the floor is (1/2) y'Qy
    (``eps`` is then ignored for evaluation and kept as metadata).
    """

    eps: float = 1.0
    pieces: tuple[tuple[Coords, float], ...] = ()
    quad: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class StrictlyConvexProfile:
    """Costs for all agents in a fixed dimension, in normalized form."""

    dim: int
    agents: tuple[AgentProfile, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DimensionMismatch("profile dimension must be >= 1")
        if not self.agents:
            raise InputError("profile needs at least one agent")
        normalized = []
        for i, ag in enumerate(self.agents):
            quad = None
            if ag.quad is not None:
                quad = np.asarray(ag.quad, dtype=float)
                _check_spd(quad, self.dim, f"agent {i} quadratic")
            elif not (math.isfinite(ag.eps) and ag.eps > 0):
                raise InputError(f"agent {i}: eps must be > 0, got {ag.eps!r}")
            pieces = []
            for a, b in ag.pieces:
                a = tuple(float(v) for v in a)
                if len(a) != self.dim:
                    raise DimensionMismatch(
                        f"agent {i}: piece slope has dimension {len(a)}, expected {self.dim}"
                    )
                b = float(b)
                if not all(math.isfinite(v) for v in (*a, b)):
                    raise InputError(f"agent {i}: non-finite affine piece")
                pieces.append((a, b))
            if not pieces:
                pieces = [(tuple([0.0] * self.dim), 0.0)]  # the zero piece
            normalized.append(AgentProfile(eps=float(ag.eps), pieces=tuple(pieces), quad=quad))
        object.__setattr__(self, "agents", tuple(normalized))

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def quad_matrix(self, i: int) -> np.ndarray:
        ag = self.agents[i]
        if ag.quad is not None:
            return ag.quad
        return ag.eps * np.eye(self.dim)

    def piece_arrays(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        ag = self.agents[i]
        A = np.array([a for a, _ in ag.pieces], dtype=float)
        b = np.array([b for _, b in ag.pieces], dtype=float)
        return A, b

    def psi_value(self, i: int, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float)
        A, b = self.piece_arrays(i)
        return float(0.5 * y @ self.quad_matrix(i) @ y + np.max(A @ y + b))

    def psi_grad(self, i: int, y: np.ndarray) -> np.ndarray:
        """A subgradient; equals the gradient wherever a single piece leads."""
        y = np.asarray(y, dtype=float)
        A, b = self.piece_arrays(i)
        k = int(np.argmax(A @ y + b))
        return self.quad_matrix(i) @ y + A[k]

    def is_pure_quadratic(self) -> bool:
        """True when no agent has a sloped affine piece."""
        return all(
            all(all(v == 0.0 for v in a) for a, _ in ag.pieces) for ag in self.agents
        )


def _check_spd(S: np.ndarray, dim: int, what: str) -> None:
    if S.shape != (dim, dim):
        raise DimensionMismatch(f"{what}: expected {dim}x{dim}, got {S.shape}")
    if not np.all(np.isfinite(S)):
        raise NotPositiveDefinite(f"{what}: non-finite entries")
    scale = float(np.max(np.abs(S), initial=0.0))
    if float(np.max(np.abs(S - S.T), initial=0.0)) > 1e-12 * (1.0 + scale):
        raise NotPositiveDefinite(f"{what}: not symmetric")
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{what}: not positive definite") from exc
    if float(np.min(np.diag(L))) ** 2 <= 1e-12 * (1.0 + scale):
        raise NotPositiveDefinite(f"{what}: pivot below threshold")


@dataclass(frozen=True, eq=False)
class SharingPoint:
    """Optimal split of ``x`` with its supporting price and ball multipliers."""

    x: Coords
    shares: tuple[Coords, ...]
    price: Coords
    multipliers: tuple[float, ...]
    residual: float
    iterations: int


# ---------------------------------------------------------------------------
# inner problem: minimize (1/2) y'Qy + max_k(a_k.y + b_k) - u.y  over the ball
# ---------------------------------------------------------------------------


def _inner_value(Q, A, b, u, y) -> float:
    return float(0.5 * y @ Q @ y + np.max(A @ y + b) - u @ y)


def _secular_root(solve_y, center, radius) -> tuple[np.ndarray, float]:
    """Find nu >= 0 with |y(nu) - c| = R, where |y(nu) - c| decreases in nu."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        y = solve_y(hi)
        if y is None or np.linalg.norm(y - center) <= radius:
            break
        hi *= 4.0
    else:
        raise NoConvergence("ball multiplier bracket not found")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        y = solve_y(mid)
        if y is None:
            lo = mid  # treat failures as still-outside and move on
            continue
        if np.linalg.norm(y - center) > radius:
            lo = mid
        else:
            hi = mid
    y = solve_y(hi)
    return y, hi


def _single_piece_candidates(Q, A, b, u, ball):
    """Exact minimizers assuming one piece is active; certified afterwards."""
    c, R = ball.center_for(Q.shape[0]), ball.radius
    out = []
    for k in range(A.shape[0]):
        rhs = u - A[k]
        try:
            y = np.linalg.solve(Q, rhs)
        except np.linalg.LinAlgError:
            continue
        nu = 0.0
        if np.linalg.norm(y - c) > R:

            def solve_shifted(nu_val, _rhs=rhs):
                try:
                    return np.linalg.solve(Q + nu_val * np.eye(Q.shape[0]), _rhs + nu_val * c)
                except np.linalg.LinAlgError:
                    return None

            y, nu = _secular_root(solve_shifted, c, R)
            if y is None:
                continue
        out.append((y, nu, k))
    return out


def _subset_candidate(Q, A, b, u, ball, subset):
    """Stationary point with the given pieces exactly tied; None if absent."""
    d = Q.shape[0]
    c, R = ball.center_for(d), ball.radius
    ks = list(subset)
    m = len(ks)
    s0 = ks[0]

    def solve_for(nu_val):
        M = np.zeros((d + m, d + m))
        rhs = np.zeros(d + m)
        M[:d, :d] = Q + nu_val * np.eye(d)
        M[:d, d:] = A[ks].T
        rhs[:d] = u + nu_val * c
        for r, j in enumerate(ks[1:]):
            M[d + r, :d] = A[j] - A[s0]
            rhs[d + r] = b[s0] - b[j]
        M[d + m - 1, d:] = 1.0
        rhs[d + m - 1] = 1.0
        try:
            sol = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            return None
        return sol[:d], sol[d:]

    sol = solve_for(0.0)
    if sol is None:
        return None
    y, mu = sol
    nu = 0.0
    if np.linalg.norm(y - c) > R:

        def y_of_nu(nu_val):
            s = solve_for(nu_val)
            return None if s is None else s[0]

        try:
            y, nu = _secular_root(y_of_nu, c, R)
        except NoConvergence:
            return None
        if y is None:
            return None
        sol = solve_for(nu)
        if sol is None:
            return None
        y, mu = sol
    return y, mu, nu


def _certify(Q, A, b, u, ball, y, nu, active, mu=None) -> bool:
    """KKT check making the candidate a global minimizer of the convex inner."""
    d = Q.shape[0]
    c, R = ball.center_for(d), ball.radius
    vals = A @ y + b
    top = float(np.max(vals))
    sc = 1.0 + abs(top) + float(np.abs(u) @ np.abs(y)) + abs(float(y @ Q @ y))
    if np.linalg.norm(y - c) > R * (1.0 + 1e-10) + 1e-12:
        return False
    if nu < -1e-12:
        return False
    if mu is not None and float(np.min(mu)) < -1e-9:
        return False
    # every declared-active piece must actually attain the max
    for k in active:
        if top - vals[k] > CERT_TOL * sc:
            return False
    return True


def _minimize_inner(Q, A, b, u, ball):
    """Global minimum of the inner problem, with its ball multiplier.

    Tries single active pieces first (closed form), then ties between small
    subsets of near-active pieces located by a short projected-subgradient
    run.  Every accepted candidate is certified through the KKT conditions,
    so the returned point is exact up to linear-algebra roundoff.
    """
    d = Q.shape[0]
    certified = []
    fallback_best = None
    for y, nu, k in _single_piece_candidates(Q, A, b, u, ball):
        f = _inner_value(Q, A, b, u, y)
        if fallback_best is None or f < fallback_best[0]:
            fallback_best = (f, y)
        if _certify(Q, A, b, u, ball, y, nu, [k]):
            certified.append((f, y, nu))
    if certified:
        return min(certified, key=lambda t: t[0])
    if A.shape[0] == 1:
        raise NoConvergence("inner sharing problem failed to certify a single piece")

    # locate the kink: a few projected subgradient steps from the best point
    c, R = ball.center_for(d), ball.radius
    y = fallback_best[1] if fallback_best is not None else c.copy()
    over = np.linalg.norm(y - c)
    if over > R:
        y = c + (y - c) * (R / over)
    eps_floor = max(float(np.min(np.linalg.eigvalsh(Q))), 1e-12)
    for t in range(300):
        g = Q @ y + A[int(np.argmax(A @ y + b))] - u
        step = 1.0 / (eps_floor * (t + 1))
        y = y - step * g
        over = np.linalg.norm(y - c)
        if over > R:
            y = c + (y - c) * (R / over)
    vals = A @ y + b
    sc = 1.0 + float(np.max(np.abs(vals)))
    for widen in (1e-6 * sc, 1e-3 * sc, np.inf):
        near = np.flatnonzero(np.max(vals) - vals <= widen)
        if near.size > 8:
            near = near[np.argsort(vals[near])][-8:]
        for size in range(2, min(d + 1, near.size) + 1):
            for subset in itertools.combinations(sorted(int(k) for k in near), size):
                cand = _subset_candidate(Q, A, b, u, ball, subset)
                if cand is None:
                    continue
                yy, mu, nu = cand
                if _certify(Q, A, b, u, ball, yy, nu, subset, mu):
                    certified.append((_inner_value(Q, A, b, u, yy), yy, nu))
        if certified:
            return min(certified, key=lambda t: t[0])
    raise NoConvergence("inner sharing problem did not certify any active set")


# ---------------------------------------------------------------------------
# one dimension: the exact piecewise-linear sharing map
# ---------------------------------------------------------------------------


def _upper_envelope(slopes, intercepts):
    """Slopes of the lines on the upper envelope of ``s*y + b``, in increasing
    order, and the breakpoints where each takes over from the one before.

    A line is dropped when the next one overtakes it no later than it
    overtook its predecessor; testing the same quotients that are returned
    keeps the breakpoints strictly increasing in floating point.
    """
    lines: list[tuple[float, float]] = []
    knots: list[float] = []
    for k in np.lexsort((intercepts, slopes)):
        s, b = float(slopes[k]), float(intercepts[k])
        if lines and lines[-1][0] == s:  # equal slopes: this one is higher
            lines.pop()
            if knots:
                knots.pop()
        while lines:
            s0, b0 = lines[-1]
            t = (b0 - b) / (s - s0)
            if knots and t <= knots[-1]:
                lines.pop()
                knots.pop()
                continue
            knots.append(t)
            break
        lines.append((s, b))
    return np.array([s for s, _ in lines]), np.array(knots)


def _response_knots(q, slopes, knots, lo, hi):
    """Knots ``(u, y)`` of ``u -> argmin_{lo <= y <= hi} q y^2/2 + m(y) - u y``.

    ``m`` is the envelope ``(slopes, knots)``.  The minimizer is the clamp
    of the unconstrained one: ``(u - s_j)/q`` on piece j and flat at a kink
    ``t_j`` for ``u`` in ``[q t_j + s_j, q t_j + s_{j+1}]``.  It is linear
    between the knots and constant outside them.
    """
    i0 = int(np.searchsorted(knots, lo, side="right"))
    i1 = int(np.searchsorted(knots, hi, side="left"))
    inner = knots[i0:i1]
    u = np.empty(2 * inner.size + 2)
    u[0], u[-1] = q * lo + slopes[i0], q * hi + slopes[i1]
    u[1:-1:2] = q * inner + slopes[i0:i1]
    u[2:-1:2] = q * inner + slopes[i0 + 1 : i1 + 1]
    y = np.concatenate(([lo], np.repeat(inner, 2), [hi]))
    return u, y


def _share_point_1d(profile, x, ball, tol) -> SharingPoint:
    """Exact split of a scalar ``x``: solve ``sum_i y_i(u) = x`` for the price.

    Each ``y_i(u)`` is nondecreasing and piecewise linear, so their sum is
    too, on the union of the agents' knots; bracketing ``x`` between two
    knots and interpolating gives the price, and the shares follow.  Where
    the sum is flat the lowest price is taken; the shares are unique anyway.
    """
    c, R = float(ball.center_for(1)[0]), ball.radius
    lo, hi = c - R, c + R
    costs, responses = [], []
    for i in range(profile.n_agents):
        q = float(profile.quad_matrix(i)[0, 0])
        A, b = profile.piece_arrays(i)
        costs.append((q, A[:, 0], b))
        responses.append(_response_knots(q, *_upper_envelope(A[:, 0], b), lo, hi))
    U = np.unique(np.concatenate([uk for uk, _ in responses]))
    X = sum(np.interp(U, uk, yk) for uk, yk in responses)
    k = int(np.searchsorted(X, x))
    if k == 0:
        u = float(U[0])
    elif k == U.size:
        u = float(U[-1])
    else:
        u = float(U[k - 1] + (x - X[k - 1]) * (U[k] - U[k - 1]) / (X[k] - X[k - 1]))
    shares, nus = [], []
    for (q, slopes, b), (uk, yk) in zip(costs, responses):
        y = float(np.interp(u, uk, yk))
        nu = 0.0
        if abs(y - c) >= R * (1.0 - 1e-12):
            lead = float(slopes[int(np.argmax(slopes * y + b))])
            nu = max(0.0, (u - q * y - lead) / (y - c))
        shares.append(y)
        nus.append(nu)
    residual = abs(x - math.fsum(shares))
    outside = any(abs(y - c) > R * (1.0 + 1e-10) + 1e-12 for y in shares)
    if residual > tol * (1.0 + abs(x)) or outside:
        raise NoConvergence(
            f"1-D sharing of x = {x!r} among {len(costs)} agents with "
            f"{[s.size for _, s, _ in costs]} pieces left residual {residual:.3e}"
            + (" and a share outside the ball" if outside else "")
        )
    return SharingPoint(
        x=(x,),
        shares=tuple((y,) for y in shares),
        price=(u,),
        multipliers=tuple(nus),
        residual=residual,
        iterations=0,
    )


# ---------------------------------------------------------------------------
# outer problem: concave dual ascent over the price vector
# ---------------------------------------------------------------------------


def _check_domain(profile: StrictlyConvexProfile, x: np.ndarray, ball: BallConfig) -> None:
    p = profile.n_agents
    center = p * ball.center_for(profile.dim)
    if np.linalg.norm(x - center) > p * ball.radius * (1.0 + 1e-9) + 1e-12:
        raise XOutsideDomain(
            f"x = {tuple(x)} lies outside the sum of {p} copies of the ball"
        )


def _closed_form_quadratic(profile, x, ball):
    """Unconstrained optimum for pure quadratics; None when it leaves B."""
    S = [np.linalg.inv(profile.quad_matrix(i)) for i in range(profile.n_agents)]
    total = sum(S)
    try:
        price = np.linalg.solve(total, x)
    except np.linalg.LinAlgError:
        return None
    shares = [Si @ price for Si in S]
    c = ball.center_for(profile.dim)
    if any(np.linalg.norm(y - c) > ball.radius * (1.0 - 1e-12) for y in shares):
        return None
    residual = float(np.linalg.norm(sum(shares) - x))
    return SharingPoint(
        x=tuple(float(v) for v in x),
        shares=tuple(tuple(float(v) for v in y) for y in shares),
        price=tuple(float(v) for v in price),
        multipliers=tuple(0.0 for _ in shares),
        residual=residual,
        iterations=0,
    )


def share_point(
    profile: StrictlyConvexProfile,
    x: Sequence[float],
    ball: BallConfig,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_OUTER_ITER,
    method: str = "auto",
    q0: Optional[Sequence[float]] = None,
) -> SharingPoint:
    """Unique optimal split of ``x`` among the agents, subject to the ball.

    ``method="auto"`` uses the exact closed form when every cost is purely
    quadratic and the unconstrained optimum stays inside the ball.
    Otherwise, and always with ``method="dual"``, a one-dimensional profile
    is split by the exact piecewise-linear price solve (``q0`` and
    ``max_iter`` are ignored there), and ``d >= 2`` runs the dual ascent
    from ``q0`` with a Newton polish.  Either way the split is certified:
    ``|sum(shares) - x| <= tol (1 + |x|)`` with every share in the ball.
    """
    if method not in ("auto", "dual"):
        raise InputError(f"unknown method {method!r}")
    x = np.asarray([float(v) for v in x], dtype=float)
    if x.shape != (profile.dim,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({profile.dim},)")
    _check_domain(profile, x, ball)

    if method == "auto" and profile.is_pure_quadratic():
        closed = _closed_form_quadratic(profile, x, ball)
        if closed is not None:
            return closed
    if profile.dim == 1:
        return _share_point_1d(profile, float(x[0]), ball, tol)

    p, d = profile.n_agents, profile.dim
    data = [
        (profile.quad_matrix(i), *profile.piece_arrays(i)) for i in range(p)
    ]

    def dual_eval(q: np.ndarray):
        shares, nus, total = [], [], 0.0
        for Q, A, b in data:
            f, y, nu = _minimize_inner(Q, A, b, q, ball)
            shares.append(y)
            nus.append(nu)
            total += f
        return total + float(q @ x), shares, nus

    q = np.zeros(d) if q0 is None else np.asarray([float(v) for v in q0], dtype=float)
    if q.shape != (d,):
        raise DimensionMismatch(f"q0 has shape {q.shape}, expected ({d},)")
    g_val, shares, nus = dual_eval(q)
    threshold = tol * (1.0 + float(np.linalg.norm(x)))

    def finish(it: int) -> SharingPoint:
        return SharingPoint(
            x=tuple(float(v) for v in x),
            shares=tuple(tuple(float(v) for v in y) for y in shares),
            price=tuple(float(v) for v in q),
            multipliers=tuple(float(v) for v in nus),
            residual=float(np.linalg.norm(x - sum(shares))),
            iterations=it,
        )

    it = 0
    stalled = False
    for it in range(1, max_iter + 1):
        grad = x - sum(shares)
        residual = float(np.linalg.norm(grad))
        if residual <= threshold:
            return finish(it - 1)
        step = 1.0
        while True:
            q_try = q + step * grad
            g_try, shares_try, nus_try = dual_eval(q_try)
            if g_try > g_val:
                q, g_val, shares, nus = q_try, g_try, shares_try, nus_try
                break
            step *= 0.5
            if step < 1e-18:
                # the dual-increase test has saturated in double precision;
                # hand over to the Newton polish below
                stalled = True
                break
        if stalled:
            break

    q, shares, nus = _newton_polish(dual_eval, q, x, shares, nus, threshold)
    residual = float(np.linalg.norm(x - sum(shares)))
    if residual <= threshold:
        return finish(it)
    raise NoConvergence(
        f"dual ascent stopped at residual {residual:.3e} (target {threshold:.3e}) "
        f"after {it} iterations"
    )


def _newton_polish(dual_eval, q, x, shares, nus, threshold):
    """Finite-difference Newton on the residual map q -> x - sum_i y_i(q).

    Plain ascent cannot push the residual much below sqrt(machine epsilon)
    because the dual value stops increasing measurably; the residual itself
    remains well resolved, so a few damped Newton steps close the gap.
    """
    d = q.size

    def phi(qv):
        _, sh, nu = dual_eval(qv)
        return x - sum(sh), sh, nu

    r, shares, nus = phi(q)
    for _ in range(25):
        norm_r = float(np.linalg.norm(r))
        if norm_r <= threshold:
            break
        J = np.zeros((d, d))
        for j in range(d):
            h = 1e-7 * (1.0 + abs(float(q[j])))
            e = np.zeros(d)
            e[j] = h
            rp, _, _ = phi(q + e)
            rm, _, _ = phi(q - e)
            J[:, j] = (rp - rm) / (2.0 * h)
        try:
            delta = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            break
        improved = False
        for _ in range(30):
            r_try, sh_try, nu_try = phi(q + delta)
            if float(np.linalg.norm(r_try)) < norm_r * (1.0 - 1e-6):
                q = q + delta
                r, shares, nus = r_try, sh_try, nu_try
                improved = True
                break
            delta *= 0.5
        if not improved:
            break
    return q, shares, nus


def inf_convolution_value(
    profile: StrictlyConvexProfile,
    x: Sequence[float],
    ball: BallConfig,
    tol: float = DEFAULT_TOL,
) -> float:
    """Total cost of the optimal split of ``x``."""
    sp = share_point(profile, x, ball, tol=tol)
    return float(
        sum(profile.psi_value(i, np.asarray(y)) for i, y in enumerate(sp.shares))
    )


def sharing_law(
    profile: StrictlyConvexProfile,
    m0: DiscreteMeasure,
    ball: BallConfig,
    tol: float = DEFAULT_TOL,
) -> JointLaw:
    """Pushforward of ``m0`` through the sharing map."""
    if m0.dim != profile.dim:
        raise DimensionMismatch(f"measure dimension {m0.dim} != profile {profile.dim}")
    atoms = []
    for coords, w in m0.atoms:
        sp = share_point(profile, coords, ball, tol=tol)
        atoms.append((sp.shares, w))
    return validate_joint_law(atoms, agents=profile.n_agents, dim=profile.dim)


# ---------------------------------------------------------------------------
# closed-form quadratic maps and the explicit two-agent families
# ---------------------------------------------------------------------------


def quadratic_sharing_matrix(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Linear sharing maps T_i = S_i (sum_j S_j)^{-1} for quadratic costs."""
    if not mats:
        raise InputError("need at least one matrix")
    mats = [np.asarray(S, dtype=float) for S in mats]
    d = mats[0].shape[0]
    for i, S in enumerate(mats):
        _check_spd(S, d, f"S_{i + 1}")
    total = sum(mats)
    try:
        inv_total = np.linalg.inv(total)
    except np.linalg.LinAlgError as exc:
        raise SingularSum("sum of the matrices is singular") from exc
    ts = [S @ inv_total for S in mats]
    defect = float(np.max(np.abs(sum(ts) - np.eye(d))))
    if defect > 1e-12:
        raise SingularSum(
            f"sharing matrices do not sum to the identity (defect {defect:.3e}); "
            "the sum is too ill-conditioned"
        )
    return ts


@dataclass(frozen=True, eq=False)
class CounterexampleDiagnostics:
    """Two explicit two-agent families indexed by (n, eps).

    ``T1`` is the first sharing matrix of the family whose operator norm
    grows without bound in ``n``; the M-pairs witness that pairs of sharing
    matrices do not form a convex set, via ``det_sum < 0`` for large ``n``
    and small ``eps``.
    """

    n: int
    eps: float
    S1: np.ndarray
    S2: np.ndarray
    T1: np.ndarray
    T1_norm: float
    M1: np.ndarray
    M2: np.ndarray
    M1_prime: np.ndarray
    M2_prime: np.ndarray
    det_sum: float


def counterexample_family(n: int, eps: float) -> CounterexampleDiagnostics:
    """Diagnostics for the unbounded-norm and non-convexity families."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ParameterOutOfRange(f"n must be a positive integer, got {n!r}")
    eps = float(eps)
    if not (0.0 < eps < 1.0):
        raise ParameterOutOfRange(f"eps must lie strictly between 0 and 1, got {eps!r}")
    rn = math.sqrt(float(n))
    off = 1.0 / (8.0 * rn)
    S1 = np.array([[0.5, off], [off, 0.5 / n]])
    S2 = np.array([[0.5, -off], [-off, 0.5 / n]])
    T1 = quadratic_sharing_matrix([S1, S2])[0]
    t1_norm = float(np.linalg.norm(T1, 2))

    s = math.sqrt(1.0 - eps)
    t = math.sqrt(n - eps)
    A1 = np.array([[1.0, s], [s, 1.0]])
    A2 = np.array([[1.0, -s], [-s, 1.0]])
    B1 = np.array([[1.0, t], [t, float(n)]])
    B2 = np.array([[1.0, -t], [-t, float(n)]])
    M1, M2 = quadratic_sharing_matrix([A1, A2])
    M1p, M2p = quadratic_sharing_matrix([B1, B2])
    det_sum = float(np.linalg.det(M1 + M1p))
    return CounterexampleDiagnostics(
        n=int(n),
        eps=eps,
        S1=S1,
        S2=S2,
        T1=T1,
        T1_norm=t1_norm,
        M1=M1,
        M2=M2,
        M1_prime=M1p,
        M2_prime=M2p,
        det_sum=det_sum,
    )


# ---------------------------------------------------------------------------
# JSON wire format for profiles
# ---------------------------------------------------------------------------
# {"agents": p, "dim": d, "profiles": [{"eps": r, "pieces": [{"a": [...],
#  "b": r}], "quad": [[...], ...]?}, ...]}   ("quad" optional)


def profile_to_obj(profile: StrictlyConvexProfile) -> dict:
    out = []
    for ag in profile.agents:
        entry: dict = {
            "eps": ag.eps,
            "pieces": [{"a": list(a), "b": b} for a, b in ag.pieces],
        }
        if ag.quad is not None:
            entry["quad"] = [list(row) for row in ag.quad]
        out.append(entry)
    return {"agents": profile.n_agents, "dim": profile.dim, "profiles": out}


def profile_from_obj(obj: dict) -> StrictlyConvexProfile:
    try:
        dim = int(obj["dim"])
        agents_n = int(obj["agents"])
        entries = obj["profiles"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed profile object: {exc}") from exc
    if len(entries) != agents_n:
        raise InputError(
            f"profile count {len(entries)} does not match agents={agents_n}"
        )
    agents = []
    for entry in entries:
        try:
            eps = float(entry.get("eps", 1.0))
            pieces = tuple(
                (tuple(float(v) for v in piece["a"]), float(piece["b"]))
                for piece in entry.get("pieces", [])
            )
            quad = entry.get("quad")
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed agent profile: {exc}") from exc
        agents.append(
            AgentProfile(
                eps=eps,
                pieces=pieces,
                quad=None if quad is None else np.asarray(quad, dtype=float),
            )
        )
    return StrictlyConvexProfile(dim=dim, agents=tuple(agents))


def quadratic_profile(mats: Sequence[np.ndarray]) -> StrictlyConvexProfile:
    """Profile with costs psi_i(y) = (1/2) <S_i^{-1} y, y> from SPD matrices."""
    mats = [np.asarray(S, dtype=float) for S in mats]
    d = mats[0].shape[0]
    agents = []
    for i, S in enumerate(mats):
        _check_spd(S, d, f"S_{i + 1}")
        agents.append(AgentProfile(eps=1.0, pieces=(), quad=np.linalg.inv(S)))
    return StrictlyConvexProfile(dim=d, agents=tuple(agents))
