"""Properties of the two-dimensional sharing map, against an oracle.

The oracle minimizes the total cost over the feasible set itself: the last
agent takes ``x`` minus the others' shares, each max-affine part is written
in epigraph form, and SLSQP solves the resulting smooth convex program.  Its
cost is re-evaluated exactly at the shares it returns, which may lie
slightly outside the ball.

The profiles are tangent planes of quadratics, so many pieces are nearly
tied; slopes drawn from a lattice make equal and collinear slopes common.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, nnls

import riskshare.infconv as infconv
from riskshare.infconv import (
    AgentProfile,
    StrictlyConvexProfile,
    profile_from_obj,
    share_point,
)
from riskshare.measures import BallConfig

TOL = 1e-8
D = 2


def _tangent_agent(eps, G, points, noise):
    """Quadratic floor plus the tangent planes of ``z'Gz/2`` at ``points``."""
    pieces = []
    for z, e in zip(points, noise):
        z = np.asarray(z, dtype=float)
        pieces.append((tuple(G @ z), float(-0.5 * z @ G @ z + e)))
    return AgentProfile(eps=eps, pieces=tuple(pieces))


@st.composite
def _agents(draw):
    eps = draw(st.floats(0.2, 3.0))
    l1, l2 = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
    angle = draw(st.floats(0.0, math.pi))
    cos, sin = math.cos(angle), math.sin(angle)
    rot = np.array([[cos, -sin], [sin, cos]])
    G = rot @ np.diag([l1, l2]) @ rot.T
    coord = st.one_of(
        st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]), st.floats(-2.0, 2.0)
    )
    points = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=30))
    n = len(points)
    noise = draw(
        st.lists(st.sampled_from([0.0, 1e-9, -1e-9, 1e-6]), min_size=n, max_size=n)
    )
    return _tangent_agent(eps, G, points, noise)


@st.composite
def _cases(draw):
    agents = draw(st.lists(_agents(), min_size=2, max_size=3))
    p = len(agents)
    radius = draw(st.floats(0.2, 2.5))
    center = np.array([draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))])
    xs = []
    for _ in range(draw(st.integers(1, 3))):
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        reach = draw(st.floats(0.0, 0.999))
        direction = np.array([math.cos(angle), math.sin(angle)])
        xs.append(p * (center + reach * radius * direction))
    profile = StrictlyConvexProfile(dim=D, agents=tuple(agents))
    return profile, BallConfig(radius=radius, center=tuple(center)), xs


def _oracle_split(profile, x, ball):
    """Least-cost split of ``x`` found by SLSQP, one share per row."""
    p = profile.n_agents
    c, R = ball.center_for(D), ball.radius
    pieces = [profile.piece_arrays(i) for i in range(p)]
    quads = [profile.quad_matrix(i) for i in range(p)]

    def shares(v):
        ys = v[: (p - 1) * D].reshape(p - 1, D)
        return np.vstack([ys, x - ys.sum(axis=0)])

    def objective(v):
        ys, t = shares(v), v[(p - 1) * D :]
        return sum(0.5 * y @ Q @ y for Q, y in zip(quads, ys)) + t.sum()

    def epigraph(v, i):
        A, b = pieces[i]
        return v[(p - 1) * D + i] - (A @ shares(v)[i] + b)

    def in_ball(v, i):
        z = shares(v)[i] - c
        return R * R - float(z @ z)

    cons = [
        {"type": "ineq", "fun": f, "args": (i,)}
        for i in range(p)
        for f in (epigraph, in_ball)
    ]
    y0 = np.tile(x / p, p - 1)
    t0 = [float(np.max(A @ y + b)) for (A, b), y in zip(pieces, shares(y0))]
    res = minimize(
        objective,
        np.concatenate([y0, t0]),
        method="SLSQP",
        constraints=cons,
        options={"maxiter": 500, "ftol": 1e-15},
    )
    return shares(res.x)


def _check_subgradient(profile, sp, ball):
    """price - Q y - nu (y - c) lies in the hull of the active slopes."""
    c = ball.center_for(D)
    u = np.asarray(sp.price)
    for i, (y, nu) in enumerate(zip(sp.shares, sp.multipliers)):
        y = np.asarray(y)
        assert nu >= 0.0
        if nu > 0.0:
            gap = abs(np.linalg.norm(y - c) - ball.radius)
            assert gap <= 1e-9 * (1.0 + ball.radius)
        A, b = profile.piece_arrays(i)
        vals = A @ y + b
        top = float(np.max(vals))
        active = A[vals >= top - 1e-9 * (1.0 + abs(top))]
        g = u - profile.quad_matrix(i) @ y - nu * (y - c)
        # nonnegative weights summing to one with active' w = g
        weight = 1.0 + float(np.max(np.abs(active)))
        lhs = np.vstack([active.T, weight * np.ones(len(active))])
        _, miss = nnls(lhs, np.append(g, weight))
        assert miss <= 1e-7 * (1.0 + float(np.linalg.norm(u)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_cases())
def test_2d_sharing_map(case):
    profile, ball, xs = case
    c = ball.center_for(D)
    for x in xs:
        sp = share_point(profile, x, ball)
        ys = np.asarray(sp.shares)
        # certified: the shares split x and stay in the ball
        assert np.linalg.norm(ys.sum(axis=0) - x) <= TOL * (1.0 + np.linalg.norm(x))
        slack = ball.radius * (1.0 + 1e-10) + 1e-12
        assert all(np.linalg.norm(y - c) <= slack for y in ys)
        # optimal: the oracle's split is no cheaper.  The shares split x up to
        # the residual, which moves the cost by price . residual to first
        # order.  The oracle may end a little outside the ball; by weak
        # duality at the multipliers nu_i, such a split undercuts the optimum
        # by at most sum_i nu_i (|z_i - c|^2 - R^2) / 2.
        cost = sum(profile.psi_value(i, y) for i, y in enumerate(ys))
        cost -= float(np.asarray(sp.price) @ (ys.sum(axis=0) - x))
        z = _oracle_split(profile, x, ball)
        oracle = sum(profile.psi_value(i, zi) for i, zi in enumerate(z))
        excess = sum(
            nu * max(0.0, float((zi - c) @ (zi - c)) - ball.radius**2) / 2.0
            for nu, zi in zip(sp.multipliers, z)
        )
        assert cost <= oracle + excess + 1e-9
        _check_subgradient(profile, sp, ball)


def _tangent_profile(n, seed):
    """Two agents with tangent planes at an n-by-n grid, nearly tied."""
    rng = np.random.RandomState(seed)
    axis = np.linspace(-2.0, 2.0, n)
    grid = [(s, t) for s in axis for t in axis]
    agents = []
    for eps in (0.5, 1.5):
        B = rng.randn(D, D)
        noise = 1e-9 * rng.randn(len(grid))
        agents.append(_tangent_agent(eps, B @ B.T + 0.5 * np.eye(D), grid, noise))
    return StrictlyConvexProfile(dim=D, agents=tuple(agents))


def test_many_nearly_tied_pieces():
    profile = _tangent_profile(5, 0)
    ball = BallConfig(radius=3.0)
    rng = np.random.RandomState(1)
    t0 = time.process_time()
    points = [(x, share_point(profile, x, ball)) for x in rng.randn(20, D) * 1.5]
    assert time.process_time() - t0 < 10.0
    for x, sp in points:
        ys = np.asarray(sp.shares)
        assert np.linalg.norm(ys.sum(axis=0) - x) <= TOL * (1.0 + np.linalg.norm(x))
        _check_subgradient(profile, sp, ball)


def _scaled(profile, ball, k):
    """Every length times ``k``: pieces ``(k a, k^2 b)``, ball ``k B``."""
    agents = tuple(
        AgentProfile(
            eps=ag.eps,
            pieces=tuple((tuple(k * v for v in a), k * k * b) for a, b in ag.pieces),
        )
        for ag in profile.agents
    )
    center = tuple(k * ball.center_for(D))
    return StrictlyConvexProfile(dim=D, agents=agents), BallConfig(k * ball.radius, center)


def test_split_scales_with_lengths():
    # psi_k(y) = k^2 psi(y / k), so the split of k x is k times the split of
    # x, and a scale-free solver takes as many steps to find it
    rng = np.random.RandomState(2)
    angle, reach = rng.uniform(0.0, 2.0 * math.pi, 8), rng.uniform(0.0, 0.95, 8)
    xs = 2.0 * reach[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    # the ball binds for the first agent here, with multiplier 7.9 at (1.8, 0)
    binding = StrictlyConvexProfile(
        dim=D, agents=(AgentProfile(eps=0.1), AgentProfile(eps=10.0))
    )
    cases = [(_tangent_profile(5, 0), xs), (binding, [(1.8, 0.0), (0.3, 1.6)])]
    ball = BallConfig(radius=1.0)
    k = 1e3
    for profile, points in cases:
        profile_k, ball_k = _scaled(profile, ball, k)
        for x in np.asarray(points):
            sp = share_point(profile, x, ball)
            sp_k = share_point(profile_k, k * x, ball_k)
            shares = np.asarray(sp_k.shares) / k
            assert np.max(np.abs(shares - sp.shares)) <= TOL * (1.0 + np.linalg.norm(x))
            assert sp_k.iterations <= sp.iterations + 2


def _binding_profile():
    """Pure isotropic floors: at (1.8, 0) with R = 1 the first agent's ball
    binds with multiplier 7.9."""
    return StrictlyConvexProfile(
        dim=D, agents=(AgentProfile(eps=0.1), AgentProfile(eps=10.0))
    )


def test_ball_multiplier_root_takes_few_solves(monkeypatch):
    # phi(nu) = 1/|y(nu) - c| - 1/R is linear in nu here, so after the
    # bracket regula falsi lands on the root; bisecting to adjacent doubles
    # took 55 to 60 active-set solves per root
    solves, per_root = [0], []
    simplex_qp, secular_root = infconv._simplex_qp, infconv._secular_root

    def counted_qp(*args, **kwargs):
        solves[0] += 1
        return simplex_qp(*args, **kwargs)

    def counted_root(*args, **kwargs):
        before = solves[0]
        out = secular_root(*args, **kwargs)
        per_root.append(solves[0] - before)
        return out

    monkeypatch.setattr(infconv, "_simplex_qp", counted_qp)
    monkeypatch.setattr(infconv, "_secular_root", counted_root)
    ball = BallConfig(radius=1.0)
    for k in (1.0, 1e3):
        profile, ball_k = _scaled(_binding_profile(), ball, k)
        per_root.clear()
        sp = share_point(profile, (1.8 * k, 0.0), ball_k)
        assert sp.multipliers[0] == pytest.approx(7.9, rel=1e-8)
        assert per_root and max(per_root) <= 10, per_root


#: The 2-D profile and states of the benchmark's ``share`` request.
_REQUEST_PROFILE = {
    "agents": 2,
    "dim": 2,
    "profiles": [
        {"eps": 1.0, "pieces": [{"a": [0.0, 0.0], "b": 0.0}, {"a": [1.0, 0.5], "b": -0.5}]},
        {
            "eps": 1.5,
            "pieces": [
                {"a": [0.0, 0.0], "b": 0.0},
                {"a": [-0.5, 1.0], "b": -0.25},
                {"a": [0.5, 0.5], "b": -0.75},
            ],
        },
    ],
}
_REQUEST_STATES = [(1.5, 0.5), (-1.0, 1.0), (0.5, -1.5), (2.0, 2.0)]


@pytest.mark.parametrize(
    "x, steps", zip(_REQUEST_STATES, (5, 3, 2, 5)), ids=["s0", "s1", "s2", "s3"]
)
def test_affine_region_is_finished_by_an_exact_step(x, steps):
    # no ball binds at these states; once a step keeps every active set, the
    # responses are affine and the undamped Newton step lands on the split
    # up to rounding, in no more steps than the damped steps took
    profile = profile_from_obj(_REQUEST_PROFILE)
    ball = BallConfig(radius=1.25 * float(np.linalg.norm(_REQUEST_STATES[-1])))
    sp = share_point(profile, x, ball)
    assert max(sp.multipliers) == 0.0
    assert sp.residual <= 1e-14 * (1.0 + np.linalg.norm(x))
    assert sp.iterations <= steps
