"""The batched sharing map against the per-atom one, bit for bit.

``share_points`` splits every aggregate atom in one array pass, and the
descent's objective sums ``psi_values`` over arrays.  Both must give exactly
what the per-atom calls give: the same shares, the same J, and the same
error for the same inputs.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare.errors import NoConvergence, NumericalBreakdown, XOutsideDomain
from riskshare.infconv import (
    AgentProfile,
    StrictlyConvexProfile,
    _response_table,
    share_point,
    share_points,
)
from riskshare.measures import ROUNDING, BallConfig, sum_pushforward, validate_joint_law
from riskshare.qdescent import _atom_arrays, _evaluate

TOL = 1e-8

_SLOPE = st.one_of(st.sampled_from([-2.0, 0.0, 0.5, 1.0]), st.floats(-4.0, 4.0))
_PIECE = st.tuples(_SLOPE, st.floats(-10.0, 10.0))
_AGENT = st.builds(
    lambda eps, pieces: AgentProfile(eps=eps, pieces=tuple(((a,), b) for a, b in pieces)),
    st.floats(0.2, 3.0),
    st.lists(_PIECE, min_size=0, max_size=4),
)


@st.composite
def _cases(draw):
    """A 1-D profile, a ball with a non-zero centre, a baseline law with
    shares in the ball, and aggregates some of which lie outside the domain."""
    agents = draw(st.lists(_AGENT, min_size=1, max_size=3))
    p = len(agents)
    radius = draw(st.floats(0.5, 6.0))
    center = draw(st.floats(-2.0, 2.0).filter(lambda c: c != 0.0))
    share = st.floats(center - radius, center + radius)
    atoms = draw(
        st.lists(
            st.tuples(st.lists(share, min_size=p, max_size=p), st.floats(0.1, 1.0)),
            min_size=1,
            max_size=4,
        )
    )
    total = sum(w for _, w in atoms)
    law = validate_joint_law([([(y,) for y in ys], w / total) for ys, w in atoms])
    # fractions beyond [0, 1] put the aggregate outside p copies of the ball
    fractions = draw(st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=5))
    xs = [p * (center + radius * (2.0 * f - 1.0)) for f in fractions]
    tol = draw(st.sampled_from([TOL, 0.0]))
    profile = StrictlyConvexProfile(dim=1, agents=tuple(agents))
    return profile, BallConfig(radius=radius, center=(center,)), law, xs, tol


def _one_by_one(profile, xs, ball, tol):
    """The shares of ``share_point`` on each atom, or the first error raised."""
    try:
        return np.array([share_point(profile, x, ball, tol=tol).shares for x in xs])
    except (NoConvergence, XOutsideDomain) as exc:
        return type(exc), str(exc)


def _batched(profile, xs, ball, tol):
    try:
        return share_points(profile, xs, ball, tol=tol)
    except (NoConvergence, XOutsideDomain) as exc:
        return type(exc), str(exc)


def _same(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _scalar_split(profile, x, ball):
    """The exact 1-D map on one scalar in scalar arithmetic: the price, and
    each agent's share and ball multiplier."""
    c, R = float(ball.center_for(1)[0]), ball.radius
    responses, U, X = _response_table(profile, c - R, c + R)
    k = int(np.searchsorted(X, x))
    if k == 0:
        u = float(U[0])
    elif k == U.size:
        u = float(U[-1])
    else:
        u = float(U[k - 1] + (x - X[k - 1]) * (U[k] - U[k - 1]) / (X[k] - X[k - 1]))
    shares, nus = [], []
    for q, slopes, b, uk, yk in responses:
        y = float(np.interp(u, uk, yk))
        nu = 0.0
        if abs(y - c) >= R * (1.0 - ROUNDING):
            lead = float(slopes[int(np.argmax(slopes * y + b))])
            nu = max(0.0, (u - q * y - lead) / (y - c))
        shares.append(y)
        nus.append(nu)
    return u, shares, nus


def _psi_scalar(profile, i, y):
    """Agent i's cost at one point, by the scalar formula."""
    y = np.asarray(y, dtype=float)
    Q, (A, b) = profile.quad_matrix(i), profile.piece_arrays(i)
    return float(0.5 * y @ Q @ y + np.max(A @ y + b))


def _expected(profile, atoms):
    return math.fsum(
        w * math.fsum(_psi_scalar(profile, i, y) for i, y in enumerate(ys)) for ys, w in atoms
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_cases())
def test_share_points_match_share_point_bitwise(case):
    profile, ball, _, xs, tol = case
    points = [(x,) for x in xs]
    assert _same(_batched(profile, points, ball, tol), _one_by_one(profile, points, ball, tol))
    # each atom alone too, so that every atom's own outcome is compared
    for x in points:
        assert _same(_batched(profile, [x], ball, tol), _one_by_one(profile, [x], ball, tol))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_cases())
def test_array_pass_matches_scalar_arithmetic(case):
    profile, ball, _, xs, _ = case
    for x in xs:
        try:
            sp = share_point(profile, (x,), ball)
        except (NoConvergence, XOutsideDomain):
            continue
        u, shares, nus = _scalar_split(profile, x, ball)
        assert sp.price == (u,)
        assert sp.shares == tuple((y,) for y in shares)
        assert sp.multipliers == tuple(nus)
        assert sp.residual == abs(x - math.fsum(shares))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_cases())
def test_evaluate_matches_per_atom_sums_bitwise(case):
    profile, ball, law, _, _ = case
    m0 = sum_pushforward(law)
    try:
        split = [(share_point(profile, x, ball).shares, w) for x, w in m0.atoms]
    except NoConvergence as exc:
        with pytest.raises(NoConvergence) as raised:
            _evaluate(profile, _atom_arrays(law), _atom_arrays(m0), ball)
        assert str(raised.value) == str(exc)
        return
    j = _expected(profile, law.atoms) - _expected(profile, split)
    if j < -1e-9:
        with pytest.raises(NumericalBreakdown):
            _evaluate(profile, _atom_arrays(law), _atom_arrays(m0), ball)
        return
    got, shares = _evaluate(profile, _atom_arrays(law), _atom_arrays(m0), ball)
    assert got.hex() == j.hex()
    assert shares.tolist() == [[list(y) for y in ys] for ys, _ in split]
    for i in range(profile.n_agents):
        ys = shares[:, i]
        assert profile.psi_values(i, ys).tolist() == [_psi_scalar(profile, i, y) for y in ys]


def test_the_first_failing_atom_decides_the_error():
    ball = BallConfig(radius=1.0, center=(0.5,))
    kinked = StrictlyConvexProfile(
        dim=1,
        agents=(
            AgentProfile(eps=1.0, pieces=(((0.0,), 0.0), ((1.0,), -0.3))),
            AgentProfile(eps=3.0),
        ),
    )
    inside, outside, unsplit = (0.7,), (9.0,), (1.3,)
    with pytest.raises(NoConvergence):
        share_point(kinked, unsplit, ball, tol=0.0)
    cases = {
        (inside, unsplit): "ok",
        (inside, outside, unsplit): XOutsideDomain,
        (inside, unsplit, outside): NoConvergence,
    }
    for xs, expected in cases.items():
        tol = TOL if expected == "ok" else 0.0
        got = _batched(kinked, list(xs), ball, tol)
        assert _same(got, _one_by_one(kinked, list(xs), ball, tol))
        assert (got[0] if isinstance(got, tuple) else "ok") == expected


def test_two_dimensional_rows_go_through_share_point():
    profile = StrictlyConvexProfile(
        dim=2,
        agents=(
            AgentProfile(eps=1.0, pieces=(((1.0, -0.5), 0.2), ((-0.5, 1.0), 0.1))),
            AgentProfile(eps=2.0, pieces=(((0.0, 1.0), -0.3),)),
        ),
    )
    ball = BallConfig(radius=2.0, center=(0.1, -0.2))
    xs = [(0.5, 0.25), (-1.0, 0.75), (2.0, -1.5)]
    got = share_points(profile, xs, ball)
    assert got.shape == (3, 2, 2)
    assert _same(got, _one_by_one(profile, xs, ball, TOL))
    beyond = xs + [(9.0, 0.0)]
    assert _same(_batched(profile, beyond, ball, TOL), _one_by_one(profile, beyond, ball, TOL))


# ---------------------------------------------------------------------------
# one 1-D path: pure quadratics are the exact map's zero-piece case
# ---------------------------------------------------------------------------


def _quadratics(eps):
    return StrictlyConvexProfile(dim=1, agents=tuple(AgentProfile(eps=e) for e in eps))


def test_1d_pure_quadratics_split_without_the_closed_form():
    profile = _quadratics([0.5, 2.0, 1.25])
    c, R = 0.4, 3.0
    ball = BallConfig(radius=R, center=(c,))
    # the first agent takes 2 / 3.3 of the aggregate while no share binds,
    # so at x = 6 its share 3.64 would pass c + R = 3.4: it is held there
    xs = [(-2.5,), (0.0,), (1.7,), (6.0,)]
    got = share_points(profile, xs, ball)
    for x, row in zip(xs, got):
        sp = share_point(profile, x, ball)
        assert sp.shares == tuple(tuple(y) for y in row.tolist())
        assert abs(math.fsum(row[:, 0]) - x[0]) <= TOL * (1.0 + abs(x[0]))
        assert all(ball.contains(y) for y in sp.shares)
    bound = share_point(profile, (6.0,), ball)
    assert bound.shares[0] == (c + R,)
    assert bound.multipliers[0] > 0.0 and bound.multipliers[1:] == (0.0, 0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(0.25, 4.0), min_size=1, max_size=3),
    st.floats(0.5, 6.0),
    st.floats(-2.0, 2.0),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
)
def test_1d_pure_quadratics_one_path(eps, radius, center, fractions):
    """Each row's ``share_point`` is the array pass's row, bit for bit, with
    no iteration, and off the sphere the shares are ``x (1/eps_i) /
    sum_j (1/eps_j)`` up to rounding.

    The map interpolates from knots up to a radius away, so its error grows
    with R; the 1e-14 (1 + |x|) bound is drawn for R <= 6 and holds there
    with a margin of about 4 (at R = 50 it reaches about 2e-14)."""
    profile = _quadratics(eps)
    ball = BallConfig(radius=radius, center=(center,))
    p = len(eps)
    xs = [(p * (center + radius * (2.0 * f - 1.0)),) for f in fractions]
    got = share_points(profile, xs, ball)
    weights = [1.0 / Fraction(e) for e in eps]
    for x, row in zip(xs, got):
        sp = share_point(profile, x, ball)
        assert sp.shares == tuple(tuple(y) for y in row.tolist())
        assert sp.iterations == 0
        exact = [Fraction(x[0]) * v / sum(weights) for v in weights]
        if all(abs(float(y) - center) < radius * (1.0 - 1e-9) for y in exact):
            for y, want in zip(row[:, 0].tolist(), exact):
                assert abs(Fraction(y) - want) <= 1e-14 * (1.0 + abs(x[0]))
