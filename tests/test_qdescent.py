"""Dual objective evaluation and cutting-plane descent."""

import numpy as np
import pytest

import riskshare.qdescent
from riskshare.errors import DimensionMismatch, InputError
from riskshare.improve import build_split_grid, efficiency_statistic, solve_improvement_lp
from riskshare.infconv import AgentProfile, StrictlyConvexProfile, sharing_law
from riskshare.measures import (
    BallConfig,
    joint_laws_equal,
    validate_joint_law,
    validate_measure,
)
from riskshare.qdescent import j_value, minimize_q

TOL = 1e-8

BALL = BallConfig(radius=4.0)
ANTI = [(((1.0,), (-1.0,)), 0.5), (((0.0,), (2.0,)), 0.5)]
COMO = [(((0.0,), (0.0,)), 0.5), (((1.0,), (1.0,)), 0.5)]


def quad_profile(p=2, dim=1):
    return StrictlyConvexProfile(
        dim=dim, agents=tuple(AgentProfile(eps=1.0) for _ in range(p))
    )


def kinked_generator():
    """Costs whose sharing law of {0, 2} is {((0,0), .5), ((1.5, .5), .5)}."""
    return StrictlyConvexProfile(
        dim=1,
        agents=(
            AgentProfile(eps=1.0),
            AgentProfile(eps=1.0, pieces=(((0.0,), 0.0), ((1.0,), -0.25))),
        ),
    )


class TestJValue:
    def test_two_state_quadratic_value(self):
        gamma0 = validate_joint_law(ANTI)
        # costs average 1.5 across the baseline; optimal splits average 0.5
        assert j_value(quad_profile(), gamma0, BALL) == pytest.approx(1.0, abs=TOL)

    def test_two_dimensional_value(self):
        gamma0 = validate_joint_law(
            [(((1.0, 0.0), (-1.0, 0.0)), 0.5), (((0.0, 1.0), (0.0, 1.0)), 0.5)]
        )
        assert j_value(quad_profile(dim=2), gamma0, BALL) == pytest.approx(
            0.5, abs=TOL
        )

    def test_generated_law_scores_zero(self):
        m0 = validate_measure([((0.0,), 0.5), ((2.0,), 0.5)])
        for prof in [quad_profile(), kinked_generator()]:
            gamma0 = sharing_law(prof, m0, BALL)
            assert abs(j_value(prof, gamma0, BALL)) <= TOL

    def test_nonnegative_on_random_instances(self):
        rng = np.random.RandomState(17)
        for _ in range(20):
            pts = rng.randint(-2, 3, size=(3, 2, 1)).astype(float)
            w = rng.rand(3) + 0.1
            w /= w.sum()
            gamma0 = validate_joint_law(
                [(tuple(map(tuple, pts[i])), w[i]) for i in range(3)]
            )
            prof = StrictlyConvexProfile(
                dim=1,
                agents=tuple(
                    AgentProfile(
                        eps=float(rng.rand() + 0.5),
                        pieces=(
                            ((0.0,), 0.0),
                            ((float(rng.randn()),), float(rng.randn())),
                        ),
                    )
                    for _ in range(2)
                ),
            )
            assert j_value(prof, gamma0, BALL) >= -1e-9

    def test_shape_and_domain_errors(self):
        gamma0 = validate_joint_law(ANTI)
        with pytest.raises(DimensionMismatch):
            j_value(quad_profile(dim=2), gamma0, BALL)
        with pytest.raises(DimensionMismatch):
            j_value(quad_profile(p=3), gamma0, BALL)
        with pytest.raises(InputError):
            j_value(quad_profile(), gamma0, BallConfig(radius=0.5))


class TestMinimizeQ:
    def test_zero_iterations_reproduce_j_value(self):
        gamma0 = validate_joint_law(ANTI)
        state = minimize_q(gamma0, ball=BALL, max_iters=0)
        assert state.j == j_value(quad_profile(), gamma0, BALL)
        assert state.iterations == 0
        assert state.j_history == (state.j,)

    def test_comonotone_baseline_stops_immediately(self):
        gamma0 = validate_joint_law(COMO)
        state = minimize_q(gamma0, ball=BALL)
        assert state.j <= 1e-6
        assert state.iterations == 0
        assert not state.hit_cap
        assert joint_laws_equal(state.gamma_psi, gamma0, tol=1e-7)
        assert all(len(d) == 0 for d in state.marginal_discrepancies)

    def test_descends_generated_kink_fixture(self):
        m0 = validate_measure([((0.0,), 0.5), ((2.0,), 0.5)])
        gamma0 = sharing_law(kinked_generator(), m0, BALL)
        start = j_value(quad_profile(), gamma0, BALL)
        assert start == pytest.approx(0.125, abs=TOL)
        state = minimize_q(gamma0, ball=BALL, max_iters=60)
        assert state.j <= 1e-6
        assert not state.hit_cap
        # accepted objective values never increase
        assert all(b <= a + 1e-12 for a, b in zip(state.j_history, state.j_history[1:]))
        # the final potential matches the baseline law again
        assert joint_laws_equal(state.gamma_psi, gamma0, tol=1e-6)

    def test_cuts_stay_in_the_affine_family(self):
        m0 = validate_measure([((0.0,), 0.5), ((2.0,), 0.5)])
        gamma0 = sharing_law(kinked_generator(), m0, BALL)
        state = minimize_q(gamma0, ball=BALL, max_iters=60)
        base = quad_profile()
        for ag, start in zip(state.profile.agents, base.agents):
            assert ag.eps == start.eps
            assert ag.quad is None
            assert ag.pieces[: len(start.pieces)] == start.pieces
            for a, b in ag.pieces:
                assert len(a) == 1 and isinstance(b, float)

    def test_two_state_cannot_descend_below_statistic(self):
        gamma0 = validate_joint_law(ANTI)
        state = minimize_q(gamma0, ball=BALL, max_iters=40)
        assert state.j == pytest.approx(1.0, abs=1e-3)
        assert state.j >= 1.0 - 1e-6
        assert all(b <= a + 1e-12 for a, b in zip(state.j_history, state.j_history[1:]))

    def test_target_stops_early(self):
        gamma0 = validate_joint_law(ANTI)
        state = minimize_q(gamma0, ball=BALL, target=1.0)
        assert state.iterations == 0
        assert state.j == pytest.approx(1.0, abs=TOL)

    def test_iteration_cap_flag(self):
        m0 = validate_measure([((0.0,), 0.5), ((2.0,), 0.5)])
        gamma0 = sharing_law(kinked_generator(), m0, BALL)
        state = minimize_q(gamma0, ball=BALL, max_iters=0)
        assert state.hit_cap
        assert state.j == pytest.approx(0.125, abs=TOL)
        # a positive objective comes with a mismatched induced law
        assert not joint_laws_equal(state.gamma_psi, gamma0, tol=1e-7)
        assert any(len(d) > 0 for d in state.marginal_discrepancies)

    def test_discrepancy_masses_cancel_per_agent(self):
        m0 = validate_measure([((0.0,), 0.5), ((2.0,), 0.5)])
        gamma0 = sharing_law(kinked_generator(), m0, BALL)
        state = minimize_q(gamma0, ball=BALL, max_iters=0)
        for entries in state.marginal_discrepancies:
            assert abs(sum(w for _, w in entries)) <= 1e-9

    def test_bad_eps_rejected(self):
        gamma0 = validate_joint_law(ANTI)
        with pytest.raises(InputError):
            minimize_q(gamma0, ball=BALL, eps=[1.0])
        with pytest.raises(InputError):
            minimize_q(gamma0, ball=BALL, eps=[1.0, 0.0])
        # the improvement program's rule: a weight must be finite, too
        for eps in ([1.0, float("inf")], [float("nan"), 1.0]):
            with pytest.raises(InputError):
                minimize_q(gamma0, ball=BALL, eps=eps)

    def test_start_is_the_pure_quadratics_of_eps(self):
        gamma0 = validate_joint_law(ANTI)
        state = minimize_q(gamma0, eps=[0.5, 2.0], max_iters=0)
        start = StrictlyConvexProfile(
            dim=1, agents=(AgentProfile(eps=0.5), AgentProfile(eps=2.0))
        )
        assert state.j.hex() == j_value(start, gamma0).hex()
        assert [ag.eps for ag in state.profile.agents] == [0.5, 2.0]


    def test_line_search_keeps_the_smaller_step_on_a_rounding_tie(self, monkeypatch):
        # every step after the smallest gives a J one ulp lower: that is
        # rounding, so the smallest step is kept
        m0 = validate_measure([((0.0,), 0.5), ((2.0,), 0.5)])
        gamma0 = sharing_law(kinked_generator(), m0, BALL)
        real, profiles = riskshare.qdescent._evaluate, []

        def evaluate(profile, *args):
            j, shares = real(profile, *args)
            profiles.append(profile)
            if len(profiles) == 1:
                return j, shares  # the start
            return (0.0625 if len(profiles) == 2 else np.nextafter(0.0625, 0.0)), shares

        monkeypatch.setattr(riskshare.qdescent, "_evaluate", evaluate)
        state = minimize_q(gamma0, ball=BALL, max_iters=1)
        assert len(profiles) > 2
        assert state.profile is profiles[1]
        assert state.j_history == (pytest.approx(0.125, abs=TOL), 0.0625)


class TestSandwich:
    def test_j_stays_above_statistic(self):
        rng = np.random.RandomState(23)
        for _ in range(5):
            pts = rng.randint(-2, 3, size=(3, 2, 1)).astype(float)
            w = rng.rand(3) + 0.2
            w /= w.sum()
            gamma0 = validate_joint_law(
                [(tuple(map(tuple, pts[i])), w[i]) for i in range(3)]
            )
            ball = BallConfig(radius=6.0)
            grid = build_split_grid(gamma0, h=0.5, ball=ball)
            stat = solve_improvement_lp(gamma0, grid).statistic
            assert j_value(quad_profile(), gamma0, ball) >= stat - 1e-6
            state = minimize_q(gamma0, ball=ball, max_iters=25, target=stat)
            assert state.j >= stat - 1e-6
            assert all(
                b <= a + 1e-12 for a, b in zip(state.j_history, state.j_history[1:])
            )

    def test_zero_statistic_instances_reach_small_j(self):
        m0 = validate_measure([((0.0,), 0.5), ((2.0,), 0.5)])
        gamma0 = sharing_law(kinked_generator(), m0, BALL)
        stat = efficiency_statistic(gamma0, h=0.5, ball=BallConfig(radius=2.0))
        assert abs(stat) <= TOL
        state = minimize_q(gamma0, ball=BALL, max_iters=60)
        assert state.j <= 1e-4


@pytest.mark.parametrize("excess, inside", [(0.5e-9, True), (2e-9, False)])
def test_stages_share_the_ball_rule(excess, inside):
    """The grid, the dual objective and ``contains`` admit the same shares."""
    ball = BallConfig(radius=2.0)
    share = (2.0 * (1.0 + excess),)
    gamma0 = validate_joint_law([((share, (-1.0,)), 0.5), (((0.0,), (1.0,)), 0.5)])
    assert ball.contains(share) is inside
    if inside:
        build_split_grid(gamma0, h=1.0, ball=ball)
        assert j_value(quad_profile(), gamma0, ball) >= -1e-9
    else:
        with pytest.raises(InputError, match="outside the ball"):
            build_split_grid(gamma0, h=1.0, ball=ball)
        with pytest.raises(InputError, match="outside the ball"):
            j_value(quad_profile(), gamma0, ball)
