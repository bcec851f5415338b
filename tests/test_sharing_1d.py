"""Properties of the exact one-dimensional sharing map, against an oracle.

The oracle minimizes the total cost over the feasible set itself: the last
agent takes ``x`` minus the others' shares, and the others' shares are found
by nested bounded scalar minimization (the partial minimum of a convex
function is convex, so the nesting stays unimodal).
"""

import math

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from riskshare.convex_order import is_comonotone_pairwise
# bound under the name the tests below use: a derandomized test draws from
# a hash of its own source, so renaming it there would change its draws
from riskshare.improve import ZERO_GAP as _STATISTIC_SLACK
from riskshare.improve import build_split_grid, solve_improvement_lp
from riskshare.infconv import AgentProfile, StrictlyConvexProfile, share_point, sharing_law
from riskshare.maxcorr import comonotonicity_gap
from riskshare.measures import BallConfig, validate_measure

TOL = 1e-8

# a few repeated values make equal slopes common; intercepts this wide put
# many breakpoints outside the ball
_SLOPE = st.one_of(
    st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]), st.floats(-4.0, 4.0)
)
_PIECE = st.tuples(_SLOPE, st.floats(-10.0, 10.0))


def _agents(max_pieces):
    return st.builds(
        lambda eps, pieces: AgentProfile(
            eps=eps, pieces=tuple(((a,), b) for a, b in pieces)
        ),
        st.floats(0.2, 3.0),
        st.lists(_PIECE, min_size=1, max_size=max_pieces),
    )


_AGENT = _agents(30)


@st.composite
def _cases(draw):
    agents = draw(st.lists(_AGENT, min_size=2, max_size=3))
    radius = draw(st.floats(0.5, 6.0))
    center = draw(st.floats(-2.0, 2.0))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    p = len(agents)
    xs = [p * (center + radius * (2.0 * f - 1.0)) for f in sorted(fractions)]
    profile = StrictlyConvexProfile(dim=1, agents=tuple(agents))
    return profile, BallConfig(radius=radius, center=(center,)), xs


def _costs(profile):
    """Each agent's cost as a function of its scalar share."""

    def psi(i):
        A, b = profile.piece_arrays(i)
        e, s = profile.agents[i].eps, A[:, 0]
        return lambda y: 0.5 * e * y * y + float(np.max(s * y + b))

    return [psi(i) for i in range(profile.n_agents)]


def _oracle_cost(psis, x, lo, hi):
    """Least total cost of shares in [lo, hi] summing to ``x``."""

    def best(rest, k):
        left = len(psis) - 1 - k  # agents after k
        if left == 0:
            return psis[k](rest)
        a, b = max(lo, rest - left * hi), min(hi, rest - left * lo)

        def f(y):
            return psis[k](y) + best(rest - y, k + 1)

        if b <= a:
            return f(a)
        res = minimize_scalar(
            f, bounds=(a, b), method="bounded", options={"xatol": 1e-11}
        )
        return min(res.fun, f(a), f(b))

    return best(x, 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_cases())
def test_exact_1d_sharing_map(case):
    profile, ball, xs = case
    c, R = ball.center[0], ball.radius
    lo, hi = c - R, c + R
    psis = _costs(profile)
    previous = None
    for x in xs:
        sp = share_point(profile, (x,), ball)
        ys = [y[0] for y in sp.shares]
        # certified: the shares split x and stay in the ball
        assert abs(math.fsum(ys) - x) <= TOL * (1.0 + abs(x))
        assert all(lo - 1e-12 <= y <= hi + 1e-12 for y in ys)
        # comonotone: every share is nondecreasing in the aggregate
        if previous is not None:
            assert all(a <= b + 1e-12 for a, b in zip(previous, ys))
        previous = ys
        # optimal: no feasible split found by the oracle is cheaper
        cost = sum(psi(y) for psi, y in zip(psis, ys))
        oracle = _oracle_cost(psis, x, lo, hi)
        assert cost <= oracle + 1e-9
        assert abs(cost - oracle) <= 1e-6
        # interior shares: price minus the quadratic's slope is a
        # subgradient of the max-affine part, between its left and right slopes
        u = sp.price[0]
        for i, y in enumerate(ys):
            if not lo + 1e-9 < y < hi - 1e-9:
                continue
            A, b = profile.piece_arrays(i)
            vals = A[:, 0] * y + b
            top = float(np.max(vals))
            active = A[vals >= top - 1e-9 * (1.0 + abs(top)), 0]
            g = u - profile.agents[i].eps * y
            slack = 1e-9 * (1.0 + abs(u))
            assert float(np.min(active)) - slack <= g <= float(np.max(active)) + slack


def test_piece_that_never_leads_changes_nothing():
    # y - 1 is overtaken by 2y - 1.9999 at 0.9999, before it overtakes 0 at
    # 1, so it lies below the max of the other two everywhere
    ball = BallConfig(radius=4.0)
    kept = (((0.0,), 0.0), ((2.0,), -1.9999))

    def profile(pieces):
        agents = (AgentProfile(eps=1.0, pieces=pieces), AgentProfile(eps=2.0))
        return StrictlyConvexProfile(dim=1, agents=agents)

    with_piece = profile(kept + (((1.0,), -1.0),))
    without = profile(kept)
    for x in np.linspace(-1.0, 6.0, 141):
        a = share_point(with_piece, (x,), ball)
        b = share_point(without, (x,), ball)
        assert a.shares == b.shares and a.price == b.price


@st.composite
def _laws(draw):
    """A 1-D profile, a ball, and a measure of aggregates inside p copies of it."""
    # few pieces keep the improvement program of the drawn law small
    agents = draw(st.lists(_agents(4), min_size=2, max_size=3))
    radius = draw(st.floats(1.0, 2.5))
    center = draw(st.floats(-0.5, 0.5))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(fractions), max_size=len(fractions)))
    p = len(agents)
    total = math.fsum(weights)
    m0 = validate_measure(
        [((p * (center + radius * (2.0 * f - 1.0)),), w / total) for f, w in zip(fractions, weights)]
    )
    profile = StrictlyConvexProfile(dim=1, agents=tuple(agents))
    return profile, BallConfig(radius=radius, center=(center,)), m0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_laws())
def test_1d_sharing_law_is_comonotone(case):
    # the one-dimensional anchor of the paper: optimal sharing is comonotone
    profile, ball, m0 = case
    law = sharing_law(profile, m0, ball)
    assert is_comonotone_pairwise(law)
    assert comonotonicity_gap(law).gap <= TOL


# These improvement programs are degenerate and rank-deficient: the simplex
# still breaks down on about 1% of such laws (ROADMAP item 2), though on none
# of the draws here.  A failure is not shrunk: shrinking it would take a
# minute of the suite's time.
@settings(
    max_examples=30, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate)
)
@given(_laws())
def test_1d_sharing_law_is_efficient(case):
    # a comonotone law admits no improvement in the concave order
    profile, ball, m0 = case
    law = sharing_law(profile, m0, ball)
    grid = build_split_grid(law, 0.5, ball)
    assert abs(solve_improvement_lp(law, grid).statistic) <= _STATISTIC_SLACK


def test_efficient_law_with_a_near_zero_pivot():
    # a drawn case of the test above: its 80 x 147 program (rank 76) made
    # a simplex from the all-artificial basis pivot on entries of 1.0e-11
    # and 5.1e-11, just above PIVOT_TOL, and break down; from the baseline's
    # own vertex, which is optimal here, it solves with statistic 0 as
    # HiGHS does
    agents = tuple(
        AgentProfile(eps=e, pieces=(((-2.0,), 0.0),)) for e in (2.0, 1.75, 1.75)
    )
    profile = StrictlyConvexProfile(dim=1, agents=agents)
    ball = BallConfig(radius=2.5, center=(0.39773662413694577,))
    m0 = validate_measure([((-6.306790127589163,), 0.5), ((1.5361092020589533,), 0.5)])
    law = sharing_law(profile, m0, ball)
    grid = build_split_grid(law, 0.5, ball)
    assert abs(solve_improvement_lp(law, grid).statistic) <= _STATISTIC_SLACK


def _two_flat_agents():
    agents = tuple(AgentProfile(eps=1.0, pieces=(((-2.0,), 0.0),)) for _ in range(2))
    return StrictlyConvexProfile(dim=1, agents=agents)


def test_aggregate_on_the_edge_of_the_ball():
    # each share is 1.00000000001, on the ball's sphere: from the
    # all-artificial basis phase 1 called this program infeasible, though
    # the baseline itself is a feasible point of it
    ball = BallConfig(radius=1.0, center=(1e-11,))
    m0 = validate_measure([((2.00000000002,), 1.0)])
    law = sharing_law(_two_flat_agents(), m0, ball)
    grid = build_split_grid(law, 0.5, ball)
    assert abs(solve_improvement_lp(law, grid).statistic) <= _STATISTIC_SLACK


def test_aggregates_5e_12_apart():
    # two aggregate atoms, each with only its own baseline split: offered
    # each other's split, the optimum could move mass onto a split of the
    # other aggregate, and the improved law's sum law no longer matched
    ball = BallConfig(radius=1.25)
    m0 = validate_measure([((-2.5,), 0.5), ((-2.499999999995,), 0.5)])
    law = sharing_law(_two_flat_agents(), m0, ball)
    grid = build_split_grid(law, 0.5, ball)
    assert grid.aggregate.size == 2
    assert abs(solve_improvement_lp(law, grid).statistic) <= _STATISTIC_SLACK
