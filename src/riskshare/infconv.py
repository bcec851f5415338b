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
The knots are built afresh on each split; a profile keeps only its cost
arrays.
In higher dimension each best response ``y_i(q)`` to a price vector ``q``
solves a QP over the simplex of piece weights by a finite active set,
started from its support at the last accepted price, with the ball
multiplier found by regula falsi, and is certified by the KKT conditions.
The price equation is solved by Newton's method with the exact Jacobian of
the responses, from the zero price and safeguarded by dual ascent.  The first
step is undamped, and so is each step after one that kept every active set
with no ball binding: the responses are affine there, and the step is
exact.  Other steps are damped in proportion to |r| / R, so they do not
depend on the data's units.

In ``d >= 2`` a pure-quadratic profile whose split stays inside the ball is
thus split by one step, the closed form ``y_i = S_i (sum_j S_j)^{-1} x``
with ``S_i`` the inverse quadratic, which ``quadratic_sharing_matrix``
returns as matrices; the same matrices generate the explicit two-agent
families whose sharing maps have unbounded norm and whose set is not
convex, reproduced by ``counterexample_family``.

``_expected_cost`` is the one evaluator of a pooled cost:
``inf_convolution_value`` applies it to the split of one point, and
``riskshare.qdescent`` to both terms of J.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    NoConvergence,
    NotPositiveDefinite,
    ParameterOutOfRange,
    ProblemTooLarge,
    SingularSum,
    XOutsideDomain,
)
from .measures import (
    DEFAULT_TOL,
    ROUNDING,
    BallConfig,
    Coords,
    DiscreteMeasure,
    JointLaw,
    _read_only,
    validate_joint_law,
)

MAX_OUTER_ITER = 10_000
#: Slack for deciding that an affine piece is active / a candidate optimal.
CERT_TOL = 1e-9
#: Fraction of |r| a Newton step must remove to be taken over dual ascent.
SUFFICIENT = 1e-4
#: ``_affine_minimizer``'s normal equations square the condition number, so
#: slopes within sqrt(machine epsilon) of dependence count as dependent.
DEPENDENCE_RATIO = 1e-8
#: Cap on a profile's d x d entries, dim squared times agents: each agent
#: keeps Q and Q^-1, 80 MB in all as float64 at the cap (two agents in
#: dimension 1581).
MAX_PROFILE_ENTRIES = 5_000_000


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
    """Costs for all agents in a fixed dimension, in normalized form.

    The profile is immutable, so each agent's ``(Q, A, b)`` is built once,
    read-only, with the invariants the d >= 2 map reads on every response:
    ``Q^-1`` and ``1 / lambda_min(Q)``.  A profile of more than
    ``MAX_PROFILE_ENTRIES`` d x d entries over its agents is refused with
    ``ProblemTooLarge`` before any such array is built.
    """

    dim: int
    agents: tuple[AgentProfile, ...]
    _arrays: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DimensionMismatch("profile dimension must be >= 1")
        if not self.agents:
            raise InputError("profile needs at least one agent")
        # every shape is checked against dim before any array of that size exists
        checked = []
        for i, ag in enumerate(self.agents):
            try:
                eps = float(ag.eps)
            except (TypeError, ValueError) as exc:
                raise InputError(f"agent {i}: eps {ag.eps!r} is not a number") from exc
            quad = None
            if ag.quad is not None:
                try:
                    quad = _read_only(np.array(ag.quad, dtype=float))
                except (TypeError, ValueError) as exc:
                    raise InputError(
                        f"agent {i}: quadratic {reprlib.repr(ag.quad)} is not a matrix of numbers"
                    ) from exc
                _check_spd(quad, self.dim, f"agent {i} quadratic")
            elif not (math.isfinite(eps) and eps > 0):
                raise InputError(f"agent {i}: eps must be positive and finite, got {ag.eps!r}")
            checked.append((eps, quad, [_checked_piece(i, piece, self.dim) for piece in ag.pieces]))
        entries = self.dim * self.dim * len(self.agents)
        if entries > MAX_PROFILE_ENTRIES:
            raise ProblemTooLarge(
                f"a profile of {len(self.agents)} agents in dimension {self.dim} would hold "
                f"{entries} matrix entries, more than the limit of {MAX_PROFILE_ENTRIES}"
            )
        normalized, arrays = [], []
        for eps, quad, pieces in checked:
            if not pieces:
                pieces = [(tuple([0.0] * self.dim), 0.0)]  # the zero piece
            normalized.append(AgentProfile(eps=eps, pieces=tuple(pieces), quad=quad))
            if quad is None:
                Q, Qinv, inv_min = eps * np.eye(self.dim), np.eye(self.dim) / eps, 1.0 / eps
            else:
                Q, Qinv = quad, np.linalg.inv(quad)
                inv_min = 1.0 / float(np.linalg.eigvalsh(quad)[0])
            arrays.append(
                (
                    _read_only(Q),
                    _read_only(np.array([a for a, _ in pieces], dtype=float)),
                    _read_only(np.array([b for _, b in pieces], dtype=float)),
                    _read_only(Qinv),
                    inv_min,
                )
            )
        object.__setattr__(self, "agents", tuple(normalized))
        object.__setattr__(self, "_arrays", tuple(arrays))

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def quad_matrix(self, i: int) -> np.ndarray:
        """Agent ``i``'s quadratic Q, read-only."""
        return self._arrays[i][0]

    def piece_arrays(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Agent ``i``'s piece slopes (one per row) and intercepts, read-only."""
        return self._arrays[i][1:3]

    def psi_values(self, i: int, Y: np.ndarray) -> np.ndarray:
        """Agent ``i``'s cost at each row of the ``(n, d)`` array ``Y``."""
        Y = np.asarray(Y, dtype=float)
        Q, A, b = self._arrays[i][:3]
        return ((0.5 * Y) @ Q * Y).sum(axis=1) + (Y @ A.T + b).max(axis=1)

    def psi_value(self, i: int, y: np.ndarray) -> float:
        return float(self.psi_values(i, np.reshape(y, (1, self.dim)))[0])

    def psi_grad(self, i: int, y: np.ndarray) -> np.ndarray:
        """A subgradient; equals the gradient wherever a single piece leads."""
        y = np.asarray(y, dtype=float)
        Q, A, b = self._arrays[i][:3]
        k = int(np.argmax(A @ y + b))
        return Q @ y + A[k]


def _checked_piece(i: int, piece, dim: int) -> tuple[Coords, float]:
    """Agent ``i``'s affine piece ``(a, b)`` as floats, with its dimension and
    finiteness checked."""
    try:
        a, b = piece
        a, b = tuple(float(v) for v in a), float(b)
    except (TypeError, ValueError) as exc:
        raise InputError(
            f"agent {i}: affine piece {reprlib.repr(piece)} is not a slope and an "
            "intercept of numbers"
        ) from exc
    if len(a) != dim:
        raise DimensionMismatch(
            f"agent {i}: piece slope has dimension {len(a)}, expected {dim}"
        )
    if not all(math.isfinite(v) for v in (*a, b)):
        raise InputError(f"agent {i}: non-finite affine piece")
    return a, b


def _check_spd(S: np.ndarray, dim: int, what: str) -> None:
    if S.shape != (dim, dim):
        raise DimensionMismatch(f"{what}: expected {dim}x{dim}, got {S.shape}")
    if not np.all(np.isfinite(S)):
        raise NotPositiveDefinite(f"{what}: non-finite entries")
    scale = float(np.max(np.abs(S), initial=0.0))
    if float(np.max(np.abs(S - S.T), initial=0.0)) > ROUNDING * (1.0 + scale):
        raise NotPositiveDefinite(f"{what}: not symmetric")
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{what}: not positive definite") from exc
    if float(np.min(np.diag(L))) ** 2 <= ROUNDING * (1.0 + scale):
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


def _secular_root(solve, center, radius, dist0):
    """Find nu >= 0 with |y(nu) - c| = R, where |y(nu) - c| decreases in nu
    from ``dist0 > R`` at nu = 0.

    ``solve(nu)`` returns a tuple whose first entry is ``y(nu)``.  The root is
    bracketed by quadrupling, then found by Illinois regula falsi on
    ``phi(nu) = 1/|y(nu) - c| - 1/R``, which is close to linear in nu while
    the active pieces stay (Moré & Sorensen, 1983).  The bracket's inside end
    ``hi`` is kept, and its tuple is returned with it once ``|y(hi) - c|`` is
    within ``ROUNDING`` of R or the bracket's ends are adjacent doubles.
    """

    def phi(dist):
        return math.inf if dist == 0.0 else 1.0 / dist - 1.0 / radius

    lo, f_lo, hi = 0.0, phi(dist0), 1.0
    for _ in range(200):
        at_hi = solve(hi)
        dist = float(np.linalg.norm(at_hi[0] - center))
        if dist <= radius:
            break
        lo, f_lo, hi = hi, phi(dist), 4.0 * hi
    else:
        raise NoConvergence("ball multiplier bracket not found")
    f_hi, kept = phi(dist), 0
    for _ in range(200):
        if radius - dist <= ROUNDING * radius:
            break
        nu = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < nu < hi:  # the secant left the bracket: bisect
            nu = 0.5 * (lo + hi)
            if nu in (lo, hi):  # lo and hi are adjacent doubles
                break
        out = solve(nu)
        dist_nu = float(np.linalg.norm(out[0] - center))
        # Illinois: an end kept twice in a row has its phi halved
        if dist_nu <= radius:
            hi, f_hi, at_hi, dist = nu, phi(dist_nu), out, dist_nu
            f_lo, kept = (0.5 * f_lo if kept < 0 else f_lo), -1
        else:
            lo, f_lo = nu, phi(dist_nu)
            f_hi, kept = (0.5 * f_hi if kept > 0 else f_hi), 1
    return at_hi, hi


def _affine_minimizer(Minv, A, b, v, W):
    """Minimizer of the inner dual over the affine hull of the pieces ``W``.

    With ``D`` the slopes of ``W`` minus the first one, ``a0``, and ``e``
    the same for the intercepts, the pieces tie at ``y = M^-1 (v - a0 -
    D'lam)`` where ``(D M^-1 D') lam = D M^-1 (v - a0) + e``; the weights
    are ``(1 - sum(lam), lam)``.  Returns ``(weights, None)``, or ``(None,
    ray)`` when the slopes are affinely dependent: ``ray`` sums to zero, has
    ``A[W]' ray = 0`` and last entry 1, so the dual is linear along it.
    """
    if len(W) == 1:
        return np.ones(1), None
    a0, D = A[W[0]], A[W[1:]] - A[W[0]]
    _, s, Vt = np.linalg.svd(D.T)
    if D.shape[0] > s.size or s[-1] <= DEPENDENCE_RATIO * s[0]:
        ray = np.concatenate(([-Vt[-1].sum()], Vt[-1]))
        return None, ray / ray[-1]
    MD = Minv @ D.T
    lam = np.linalg.solve(D @ MD, MD.T @ (v - a0) + (b[W[1:]] - b[W[0]]))
    return np.concatenate(([1.0 - lam.sum()], lam)), None


def _simplex_qp(Minv, A, b, v, W=None, w=None, max_passes=None):
    """Solve the inner dual ``min (1/2)|v - A'w|^2_{M^-1} - b.w`` over the simplex.

    Primal active set from the pieces ``W`` with weights ``w`` (by default
    the best single piece): move toward the minimizer over the active
    pieces' affine hull, or along its ray, dropping the first piece whose
    weight reaches zero; then enter the piece highest above the active ones
    at ``y = M^-1 (v - A'w)``.  A step of positive length lowers the dual,
    but a zero-length step does not, so an active set can repeat: after
    ``max_passes`` entering pieces (default ``10 (K + d)``) it raises
    ``NoConvergence``.  Returns ``y``, the active pieces and their weights.
    """
    K, d = A.shape
    if max_passes is None:
        max_passes = 10 * (K + d)
    if W is None:
        G = v - A
        W = [int(np.argmin(np.einsum("kd,de,ke->k", G, Minv, G) / 2 - b))]
        w = np.ones(1)
    for _ in range(max_passes):
        while True:
            target, ray = _affine_minimizer(Minv, A, b, v, W)
            if ray is None and np.all(target > 0.0):
                w = target
                break
            step = target - w if ray is None else ray
            falling = np.flatnonzero(step < 0.0)
            ratios = w[falling] / -step[falling]
            w = w + float(np.min(ratios)) * step
            w[falling[np.argmin(ratios)]] = 0.0
            keep = np.flatnonzero(w > 0.0)
            W, w = [W[k] for k in keep], w[keep]
        y = Minv @ (v - A[W].T @ w)
        vals = A @ y + b
        j = int(np.argmax(vals))
        # a top piece that is already active leaves nothing to enter: the
        # active pieces tie up to the roundoff of their terms
        if j in W or vals[j] - w @ vals[W] <= ROUNDING * (1.0 + abs(float(vals[j]))):
            return y, W, w
        W, w = W + [j], np.append(w, 0.0)
    raise NoConvergence(
        f"active-set QP hit its pass cap of {max_passes} (K = {K} pieces, d = {d})"
    )


def _certify(Q, A, b, u, ball, y, active, mu) -> bool:
    """KKT check making the candidate a global minimizer of the convex inner.

    ``y`` solves the stationarity equation with weights ``mu`` on the
    pieces ``active`` by construction; it must lie in the ball, the weights
    must be nonnegative, and every active piece must attain the max.
    """
    vals = A @ y + b
    top = float(np.max(vals))
    sc = 1.0 + abs(top) + float(np.abs(u) @ np.abs(y)) + abs(float(y @ Q @ y))
    return (
        ball.contains(y)
        and float(np.min(mu)) >= -CERT_TOL
        and float(np.min(vals[active])) >= top - CERT_TOL * sc
    )


def _minimize_inner(agent, u, ball, W=None, w=None):
    """Certified minimizer ``y`` of the inner problem of ``agent``, one entry
    of a profile's ``_arrays``, with its ball multiplier ``nu``, its
    derivative ``J`` in the price ``u``, and the active pieces ``W`` with
    their weights ``w``, which may also be given as a warm start.

    ``nu`` is zero unless the unconstrained minimizer leaves the ball; then
    it is the root of ``|y(nu) - c| = R``, where ``y(nu)`` solves the inner
    dual with ``M = Q + nu I`` and price ``u + nu c``, each solve started
    from the last one's support.  With ``D`` the differences of the active
    slopes, ``M^-1 - M^-1 D'(D M^-1 D')^+ D M^-1`` is the inverse of ``M`` on
    the directions that keep the active pieces tied; ``J`` is that, with the
    direction ``z = y - c`` that would leave the sphere projected out too
    when the ball binds.
    """
    Q, A, b, Minv, _ = agent
    c, eye = ball.center_for(Q.shape[0]), np.eye(Q.shape[0])
    y, W, w = _simplex_qp(Minv, A, b, u, W, w)
    nu = 0.0
    dist = float(np.linalg.norm(y - c))
    if dist > ball.radius:

        def solve(s):
            nonlocal W, w
            y, W, w = _simplex_qp(np.linalg.inv(Q + s * eye), A, b, u + s * c, W, w)
            return y, W, w

        (y, W, w), nu = _secular_root(solve, c, ball.radius, dist)
        Minv = np.linalg.inv(Q + nu * eye)
    if not _certify(Q, A, b, u, ball, y, W, w):
        raise NoConvergence("the inner minimizer failed its KKT certificate")
    J = Minv
    if len(W) > 1:
        D = A[W[1:]] - A[W[0]]
        MD = Minv @ D.T
        J = Minv - MD @ np.linalg.pinv(D @ MD) @ MD.T
    if nu > 0.0:
        Jz = J @ (y - c)
        zJz = float((y - c) @ Jz)
        if zJz > 0.0:
            J = J - np.outer(Jz, Jz) / zJz
    return y, nu, J, W, w


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


def _response_table(profile, lo, hi):
    """Each agent's cost ``(q, slopes, b)`` with its response knots ``(u, y)``
    on ``[lo, hi]``, and the knots ``(U, X)`` of ``u -> sum_i y_i(u)``."""
    responses = []
    for i in range(profile.n_agents):
        q = float(profile.quad_matrix(i)[0, 0])
        A, b = profile.piece_arrays(i)
        uk, yk = _response_knots(q, *_upper_envelope(A[:, 0], b), lo, hi)
        responses.append((q, A[:, 0], b, uk, yk))
    U = np.unique(np.concatenate([uk for *_, uk, _ in responses]))
    X = sum(np.interp(U, uk, yk) for *_, uk, yk in responses)
    return responses, U, X


def _price_solve_1d(profile, xs, ball):
    """Exact split of each scalar of ``xs``: solve ``sum_i y_i(u) = x`` for the price.

    Each ``y_i(u)`` is nondecreasing and piecewise linear, so their sum is
    too, on the union of the agents' knots; bracketing ``x`` between two
    knots and interpolating gives the price, and the shares follow.  Where
    the sum is flat the lowest price is taken; the shares are unique anyway.
    Returns the prices, the shares ``(n, p)`` and the ball multipliers
    ``(n, p)``, uncertified.
    """
    c, R = float(ball.center_for(1)[0]), ball.radius
    responses, U, X = _response_table(profile, c - R, c + R)
    k = np.searchsorted(X, xs)
    u = U[np.minimum(k, U.size - 1)]  # U[0] below the knots, U[-1] above
    mid = (k > 0) & (k < U.size)
    km = k[mid]
    u[mid] = U[km - 1] + (xs[mid] - X[km - 1]) * (U[km] - U[km - 1]) / (X[km] - X[km - 1])
    shares, nus = np.empty((xs.size, len(responses))), np.zeros((xs.size, len(responses)))
    for i, (q, slopes, b, uk, yk) in enumerate(responses):
        y = shares[:, i] = np.interp(u, uk, yk)
        on = np.abs(y - c) >= R * (1.0 - ROUNDING)
        if on.any():
            yo = y[on]
            lead = slopes[np.argmax(slopes * yo[:, None] + b, axis=1)]
            nu = (u[on] - q * yo - lead) / (yo - c)
            nus[on, i] = np.where(nu > 0.0, nu, 0.0)
    return u, shares, nus


def _outside_domain(x: list[float], p: int, ball) -> Optional[XOutsideDomain]:
    """The error for an ``x`` outside the sum of ``p`` copies of the ball, else None."""
    # the sum of p copies of the convex ball B is pB: x is in it when x/p is in B
    if ball.contains([v / p for v in x]):
        return None
    return XOutsideDomain(f"x = {tuple(x)} lies outside the sum of {p} copies of the ball")


def _split_1d(profile, xs, ball, tol):
    """Exact splits of the scalars ``xs``, each certified as ``share_point``
    certifies one.

    The atoms are taken in order as if split one by one: the first that
    fails raises, ``XOutsideDomain`` or ``NoConvergence``.  Returns the
    prices, shares ``(n, p)``, multipliers ``(n, p)`` and residuals.
    """
    p, n, values = profile.n_agents, xs.size, xs.tolist()
    end, off_domain = n, None
    for k, x in enumerate(values):
        off_domain = _outside_domain([x], p, ball)
        if off_domain is not None:
            end = k
            break
    prices, shares, nus = _price_solve_1d(profile, xs[:end], ball)
    residuals = np.empty(end)
    for k, ys in enumerate(shares.tolist()):
        x = values[k]
        residuals[k] = residual = abs(x - math.fsum(ys))
        outside = not all(ball.contains((y,)) for y in ys)
        if residual > tol * (1.0 + abs(x)) or outside:
            raise NoConvergence(
                f"1-D sharing of x = {x!r} among {p} agents with "
                f"{[profile.piece_arrays(i)[1].size for i in range(p)]} pieces "
                f"left residual {residual:.3e}"
                + (" and a share outside the ball" if outside else "")
            )
    if off_domain is not None:
        raise off_domain
    return prices, shares, nus, residuals


# ---------------------------------------------------------------------------
# outer problem: semismooth Newton on the price equation sum_i y_i(q) = x
# ---------------------------------------------------------------------------


def share_point(
    profile: StrictlyConvexProfile,
    x: Sequence[float],
    ball: BallConfig,
    tol: float = DEFAULT_TOL,
) -> SharingPoint:
    """Unique optimal split of ``x`` among the agents, subject to the ball.

    A one-dimensional profile, pure quadratics included, is split by the
    exact piecewise-linear price solve, the array pass of ``share_points``
    on one row.  In ``d >= 2`` the price equation ``sum_i y_i(q) = x`` is
    solved by Newton steps with the exact Jacobian, from ``q = 0`` and for
    at most ``MAX_OUTER_ITER`` steps.  A step is regularized only after a
    step that changed an agent's active set or met a binding ball.  So the
    first step is undamped, and on a pure-quadratic profile whose split
    stays inside the ball it is the last step, the closed form
    ``y_i = S_i (sum_j S_j)^-1 x``.  Either way the split is certified:
    ``|sum(shares) - x| <= tol (1 + |x|)`` with every share in the ball.
    """
    try:
        x = np.array([float(v) for v in x])
    except (TypeError, ValueError) as exc:
        raise InputError(f"x = {x!r} is not a sequence of numbers") from exc
    if x.shape != (profile.dim,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({profile.dim},)")
    p, d = profile.n_agents, profile.dim
    outside = _outside_domain(x.tolist(), p, ball)
    if outside is not None:
        raise outside
    if d == 1:
        prices, shares, nus, residuals = _split_1d(profile, x, ball, tol)
        return SharingPoint(
            x=(float(x[0]),),
            shares=tuple((y,) for y in shares[0].tolist()),
            price=(float(prices[0]),),
            multipliers=tuple(nus[0].tolist()),
            residual=float(residuals[0]),
            iterations=0,
        )

    q = np.zeros(d)
    agents = profile._arrays
    # y_i is 1/lambda_min(Q_i)-Lipschitz in q, so r / L is a safe ascent step
    lipschitz = sum(inv_min for *_, inv_min in agents)
    threshold = tol * (1.0 + float(np.linalg.norm(x)))
    it, residual = 0, math.inf

    def failure(why: str) -> NoConvergence:
        return NoConvergence(
            f"{d}-D sharing of x = {tuple(x.tolist())} among {p} agents with "
            f"{[A.shape[0] for _, A, *_ in agents]} pieces: {why}; "
            f"residual {residual:.3e} at iteration {it}"
        )

    def respond(qv, start):
        # each best response starts from its support at the accepted price
        try:
            inner = [_minimize_inner(ag, qv, ball, *warm) for ag, warm in zip(agents, start)]
        except NoConvergence as exc:
            raise failure(str(exc)) from exc
        return inner, x - sum(y for y, *_ in inner)

    inner, r = respond(q, [()] * p)
    residual = float(np.linalg.norm(r))
    affine = True  # the first step is undamped
    while not residual <= threshold:
        if it == MAX_OUTER_ITER:
            raise failure(f"target {threshold:.3e} not reached in {MAX_OUTER_ITER} iterations")
        it += 1
        J = sum(Ji for _, _, Ji, _, _ in inner)
        low, lam = (float(v) for v in np.linalg.eigvalsh(J)[[0, -1]])
        if affine and low > ROUNDING * lam:
            # the last step (if any) kept every active set with no ball
            # binding, so the responses are affine there and the Newton step
            # is exact
            mu = 0.0
        else:
            # Levenberg-Marquardt, scale-free: mu = lambda_max(J) |r| / R, in
            # J's units; L stands in where J is 0 up to roundoff (agents at
            # vertices)
            mu = (lam if lam > ROUNDING * lipschitz else lipschitz) * residual / ball.radius
        start = [(W, w) for *_, W, w in inner]
        q_try = q + np.linalg.solve(J + mu * np.eye(d), r)
        inner_try, r_try = respond(q_try, start)
        if not np.linalg.norm(r_try) <= (1.0 - SUFFICIENT) * residual:
            # dual ascent: 1/L is safe, and doubling it while the dual rises
            # along r (r(q + s r).r > 0) crosses flat regions in a few trials
            s = 1.0 / lipschitz
            inner_try, r_try = respond(q + s * r, start)
            for _ in range(64):
                inner_next, r_next = respond(q + 2.0 * s * r, start)
                if not r_next @ r > 0.0:
                    break
                s, inner_try, r_try = 2.0 * s, inner_next, r_next
            q_try = q + s * r
        affine = all(
            nu == nu_try == 0.0 and set(W) == set(W_try)
            for (_, nu, _, W, _), (_, nu_try, _, W_try, _) in zip(inner, inner_try)
        )
        q, inner, r = q_try, inner_try, r_try
        residual = float(np.linalg.norm(r))
    return SharingPoint(
        x=tuple(float(v) for v in x),
        shares=tuple(tuple(float(v) for v in y) for y, *_ in inner),
        price=tuple(float(v) for v in q),
        multipliers=tuple(float(nu) for _, nu, *_ in inner),
        residual=residual,
        iterations=it,
    )


def share_points(
    profile: StrictlyConvexProfile,
    xs,
    ball: BallConfig,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Optimal splits of the rows of the ``(n, d)`` array ``xs``:
    ``shares[k, i]`` is agent ``i``'s share of ``xs[k]``.

    The splits, certificates and errors are those of ``share_point`` called
    on each row in turn.  A one-dimensional profile sends all rows through
    one array pass of the exact map; in ``d >= 2`` each row goes through
    ``share_point``.
    """
    try:
        xs = np.asarray(xs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"xs = {reprlib.repr(xs)} is not an array of numbers") from exc
    p, d = profile.n_agents, profile.dim
    if xs.ndim != 2 or xs.shape[1] != d:
        raise DimensionMismatch(f"xs has shape {xs.shape}, expected (n, {d})")
    if d == 1:
        return _split_1d(profile, xs[:, 0], ball, tol)[1][:, :, None]
    return np.array(
        [share_point(profile, x, ball, tol=tol).shares for x in xs], dtype=float
    ).reshape(len(xs), p, d)


def _expected_cost(profile: StrictlyConvexProfile, points: np.ndarray, weights) -> float:
    """``E[sum_i psi_i(X_i)]`` over the atoms ``points[k]`` (one row per agent)."""
    values = [profile.psi_values(i, points[:, i]).tolist() for i in range(profile.n_agents)]
    return math.fsum(w * math.fsum(row) for row, w in zip(zip(*values), weights))


def _split_law(shares: np.ndarray, weights) -> JointLaw:
    """The canonical joint law with the float weight ``weights[k]`` on the
    split ``shares[k]`` of the ``(n, p, d)`` array ``shares``."""
    p, d = shares.shape[1:]
    return validate_joint_law(zip(shares.tolist(), weights), agents=p, dim=d)


def inf_convolution_value(
    profile: StrictlyConvexProfile,
    x: Sequence[float],
    ball: BallConfig,
    tol: float = DEFAULT_TOL,
) -> float:
    """Total cost of the optimal split of ``x``."""
    sp = share_point(profile, x, ball, tol=tol)
    return _expected_cost(profile, np.array([sp.shares], dtype=float), [1.0])


def sharing_law(
    profile: StrictlyConvexProfile,
    m0: DiscreteMeasure,
    ball: BallConfig,
    tol: float = DEFAULT_TOL,
) -> JointLaw:
    """Pushforward of ``m0`` through the sharing map."""
    if m0.dim != profile.dim:
        raise DimensionMismatch(f"measure dimension {m0.dim} != profile {profile.dim}")
    shares = share_points(profile, m0.support_array(), ball, tol=tol)
    return _split_law(shares, m0.weights_array().tolist())


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
    if defect > ROUNDING:  # of the identity's unit entries
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
            if quad is not None:
                quad = np.asarray(quad, dtype=float)  # a ragged matrix raises here
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed agent profile: {exc}") from exc
        agents.append(AgentProfile(eps=eps, pieces=pieces, quad=quad))
    return StrictlyConvexProfile(dim=dim, agents=tuple(agents))


def quadratic_profile(mats: Sequence[np.ndarray]) -> StrictlyConvexProfile:
    """Profile with costs psi_i(y) = (1/2) <S_i^{-1} y, y> from SPD matrices."""
    mats = [np.asarray(S, dtype=float) for S in mats]
    if not mats:
        raise InputError("need at least one matrix")
    d = mats[0].shape[0]
    agents = []
    for i, S in enumerate(mats):
        _check_spd(S, d, f"S_{i + 1}")
        agents.append(AgentProfile(eps=1.0, pieces=(), quad=np.linalg.inv(S)))
    return StrictlyConvexProfile(dim=d, agents=tuple(agents))
