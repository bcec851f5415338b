"""Dual objective evaluation, the 1-D dual step and the cutting-plane descent."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskshare.lp
import riskshare.qdescent
from riskshare.errors import DimensionMismatch, InputError, NumericalBreakdown, ProblemTooLarge
from riskshare.improve import (
    WALL_SLOPE,
    ZERO_GAP,
    build_improvement_problem,
    build_split_grid,
    default_step,
    dual_potential,
    efficiency_statistic,
    solve_improvement_lp,
    solve_problem,
)
from riskshare.infconv import (
    AgentProfile,
    StrictlyConvexProfile,
    inf_convolution_value,
    sharing_law,
)
from riskshare.measures import (
    BallConfig,
    joint_laws_equal,
    marginal,
    validate_joint_law,
    validate_measure,
)
from riskshare.qdescent import j_value, minimize_q

TOL = 1e-8

BALL = BallConfig(radius=4.0)
ANTI = [(((1.0,), (-1.0,)), 0.5), (((0.0,), (2.0,)), 0.5)]
ANTI_2D = [(((1.0, 0.0), (-1.0, 0.0)), 0.5), (((0.0, 1.0), (0.0, 1.0)), 0.5)]
#: The sharing law of {0, 2} under ``kinked_generator``, on the first axis of the plane.
KINK_2D = [(((0.0, 0.0), (0.0, 0.0)), 0.5), (((1.5, 0.0), (0.5, 0.0)), 0.5)]
COMO = [(((0.0,), (0.0,)), 0.5), (((1.0,), (1.0,)), 0.5)]
#: A law on which the cut loop takes many steps (17 at R = 4) and the dual step lowers J.
STEPPED = [(((0.0,), (1.0,)), 0.25), (((-2.0,), (-1.0,)), 0.25), (((1.0,), (1.0,)), 0.5)]
#: Three agents with offsetting positions: at the default step its program is over the caps.
OVER_CAPS = [(((10.0,), (-10.0,), (0.0,)), 0.5), (((10.5,), (-10.0,), (0.0,)), 0.5)]


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
        # the cut loop runs in d >= 2 only
        gamma0 = validate_joint_law(KINK_2D)
        state = minimize_q(gamma0, ball=BALL, max_iters=3)
        base = quad_profile(dim=2)
        assert state.iterations > 0 and len(state.j_history) > 1
        for ag, start in zip(state.profile.agents, base.agents):
            assert ag.eps == start.eps
            assert ag.quad is None
            assert ag.pieces[: len(start.pieces)] == start.pieces
            for a, b in ag.pieces:
                assert len(a) == 2 and isinstance(b, float)

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
        # rounding, so the smallest step is kept (the line search of the
        # cut loop, which runs in d >= 2 only)
        gamma0 = validate_joint_law(KINK_2D)
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

    def test_one_agent_cut_after_the_joint_cut_fails(self, monkeypatch):
        # on the third step both agents have a cut, no scale of the joint
        # cut lowers J, and agent 0's cut alone is taken; this pins the J
        # of the cut loop's single-agent fallback
        gamma0 = validate_joint_law(
            [(((0.0, 0.0), (0.0, 1.0)), 0.7), (((0.0, 1.0), (1.0, 1.0)), 0.3)]
        )
        real, trials = riskshare.qdescent._with_cuts, []

        def with_cuts(profile, cuts, sigma):
            trial = real(profile, cuts, sigma)
            trials.append((profile, [i for i, _, _ in cuts], trial))
            return trial

        monkeypatch.setattr(riskshare.qdescent, "_with_cuts", with_cuts)
        state = minimize_q(gamma0, ball=BallConfig(radius=2.5), eps=[1.0, 0.5], max_iters=3)
        assert state.j_history == pytest.approx(
            (0.10833333333333334, 0.10813078703703705, 0.10811044198495373, 0.10795501583397638),
            rel=1e-9,
        )
        assert state.iterations == 3 and state.hit_cap
        source, agents, _ = next(t for t in trials if t[2] is state.profile)
        last_step = [cut_set for profile, cut_set, _ in trials if profile is source]
        assert agents == [0] and last_step[0] == [0, 1]

    def test_cut_profile_appends_a_piece_and_leaves_its_source(self):
        source, cut = quad_profile(dim=2), [(1, (1.0, 0.0), 0.5)]
        trial = riskshare.qdescent._with_cuts(source, cut, 2.0)
        assert trial.agents[0].pieces == source.agents[0].pieces == (((0.0, 0.0), 0.0),)
        assert trial.agents[1].pieces == (((0.0, 0.0), 0.0), ((2.0, 0.0), -1.0))
        assert source.agents[1].pieces == (((0.0, 0.0), 0.0),)
        assert riskshare.qdescent._with_cuts(trial, cut, 2.0) is None  # a duplicate piece

    def test_one_dual_step_on_the_kink_fixture(self):
        m0 = validate_measure([((0.0,), 0.5), ((2.0,), 0.5)])
        gamma0 = sharing_law(kinked_generator(), m0, BALL)
        state = minimize_q(gamma0, ball=BALL)
        assert state.j_history == (0.125, 0.0)
        assert state.iterations == 1
        assert not state.hit_cap

    def test_dual_step_that_does_not_lower_j_is_not_kept(self, monkeypatch):
        gamma0 = validate_joint_law(ANTI)
        real = riskshare.qdescent._evaluate
        starts = []

        def evaluate(profile, *args):
            j, shares = real(profile, *args)
            starts.append(j)
            return (j if len(starts) == 1 else starts[0]), shares

        monkeypatch.setattr(riskshare.qdescent, "_evaluate", evaluate)
        state = minimize_q(gamma0, ball=BALL)
        assert len(starts) == 2
        assert state.iterations == 1 and not state.hit_cap
        assert state.j_history == (starts[0],)
        profile = state.profile
        assert not any(profile.piece_arrays(i)[0].any() for i in range(profile.n_agents))

    def test_designed_law_solves_no_lp(self, monkeypatch):
        gamma0 = validate_joint_law(ANTI)
        ball = BallConfig(radius=6.0)
        stat = solve_improvement_lp(gamma0, build_split_grid(gamma0, 0.5, ball)).statistic

        def solve(*args, **kwargs):
            raise AssertionError("no program is solved when the start meets the target")

        monkeypatch.setattr(riskshare.lp, "solve", solve)
        state = minimize_q(gamma0, ball=ball, target=stat)
        assert state.iterations == 0
        assert state.j_history == (state.j,)
        assert abs(state.j - stat) <= 1e-6

    def test_program_over_the_caps_takes_a_coarser_step(self, monkeypatch):
        # at the default step (0.0625, R = 13.125) the program would have
        # 421^2 * 2 lattice splits, more than build_split_grid allows; at
        # 0.125 it fits, and its potential closes the gap that the cut loop
        # left at J = 102.50
        gamma0 = validate_joint_law(OVER_CAPS)
        assert efficiency_statistic(gamma0, h=0.125) == 0.0
        real, steps = riskshare.qdescent.solve_problem, []

        def solve_problem(problem):
            steps.append(problem.grid.h)
            return real(problem)

        monkeypatch.setattr(riskshare.qdescent, "solve_problem", solve_problem)
        state = minimize_q(gamma0, max_iters=25)
        assert steps == [0.125]
        assert state.j == 0.0
        assert state.iterations == 1 and not state.hit_cap
        assert state.j_history == (pytest.approx(102.5417, abs=1e-4), 0.0)

    def test_simplex_breakdown_takes_a_coarser_step(self, monkeypatch):
        gamma0 = validate_joint_law(STEPPED)
        h = default_step(gamma0, BALL)
        grid = build_split_grid(gamma0, 2.0 * h, BALL)
        problem = build_improvement_problem(gamma0, grid, [1.0, 1.0])
        coarser = minimize_q(gamma0, ball=BALL, optimum=(problem, solve_problem(problem)))
        real, steps = riskshare.qdescent.solve_problem, []

        def only_the_first_breaks(problem):
            steps.append(problem.grid.h)
            if len(steps) == 1:
                raise NumericalBreakdown("singular working basis")
            return real(problem)

        monkeypatch.setattr(riskshare.qdescent, "solve_problem", only_the_first_breaks)
        state = minimize_q(gamma0, ball=BALL, max_iters=60)
        assert steps == [h, 2.0 * h]
        assert state.j_history == coarser.j_history
        assert state.iterations == 1

    def test_last_failure_propagates_when_every_step_fails(self, monkeypatch):
        # steps 0.625, 1.25, ..., 10: the last is past the diameter 8
        gamma0 = validate_joint_law(STEPPED)
        programs = []

        def solve(program, start=None):
            programs.append(program)
            broke = riskshare.lp._Breakdown("singular working basis", len(programs))
            raise riskshare.lp._numerical_breakdown(program, broke, 0)

        monkeypatch.setattr(riskshare.lp, "solve", solve)
        with pytest.raises(NumericalBreakdown) as info:
            minimize_q(gamma0, ball=BALL)
        assert len(programs) == 5
        last = programs[-1]
        assert str(info.value) == (
            f"singular working basis ({last.n_rows} x {last.n_vars} program, 5 pivots taken)"
        )

    @pytest.mark.parametrize(
        "law, ball",
        [(OVER_CAPS, None), (STEPPED, BALL), (ANTI, BALL)],
        ids=["over-caps", "stepped", "anti"],
    )
    def test_no_cut_on_a_one_dimensional_law(self, monkeypatch, law, ball):
        def best_cut_atoms(*args):
            raise AssertionError("the cut loop runs in d >= 2 only")

        monkeypatch.setattr(riskshare.qdescent, "_best_cut_atoms", best_cut_atoms)
        minimize_q(validate_joint_law(law), ball=ball)
        real, calls = riskshare.lp.solve, []

        def solve(program, start=None):
            calls.append(program)
            if len(calls) == 1:
                raise NumericalBreakdown("singular working basis")
            return real(program, start=start)

        monkeypatch.setattr(riskshare.lp, "solve", solve)
        minimize_q(validate_joint_law(law), ball=ball)
        assert len(calls) == 2

    def test_given_optimum_is_the_one_solved_program(self, monkeypatch):
        gamma0 = validate_joint_law(STEPPED)
        grid = build_split_grid(gamma0, default_step(gamma0, BALL), BALL)
        problem = build_improvement_problem(gamma0, grid, [1.0, 1.0])
        optimum = (problem, solve_problem(problem))
        own = minimize_q(gamma0, ball=BALL)

        def solve(*args, **kwargs):
            raise AssertionError("the given optimum is not solved again")

        monkeypatch.setattr(riskshare.lp, "solve", solve)
        state = minimize_q(gamma0, ball=BALL, optimum=optimum)
        assert state.iterations == 1 and len(state.j_history) == 2
        assert state.j_history == own.j_history


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


def _law(pts, w):
    w = w / w.sum()
    return validate_joint_law([(tuple(map(tuple, pts[k])), float(w[k])) for k in range(len(w))])


def _sandwich_laws():
    """The 20 laws of acceptance criterion 4: 17 random (seed 404) and 3
    designed, with eps = 1 and R = 6."""
    rng = np.random.RandomState(404)
    laws = []
    for _ in range(17):
        n = rng.randint(2, 6)
        pts = rng.randint(-2, 3, size=(n, 2, 1)).astype(float)
        laws.append(_law(pts, rng.rand(n) + 0.2))
    laws += [validate_joint_law(ANTI), validate_joint_law(COMO)]
    laws.append(
        validate_joint_law(
            [(((0.0,), (0.0,)), 0.3), (((0.5,), (0.5,)), 0.3), (((1.0,), (1.0,)), 0.4)]
        )
    )
    return [(law, [1.0, 1.0], 6.0) for law in laws]


def _random_draws():
    """60 laws (seed 11) of 2-3 agents and 2-4 atoms in {-2..2}, with eps
    drawn from {0.5, 1, 2} and R = 4."""
    rng = np.random.RandomState(11)
    draws = []
    for _ in range(60):
        p, n = rng.randint(2, 4), rng.randint(2, 5)
        pts = rng.randint(-2, 3, size=(n, p, 1)).astype(float)
        w = rng.rand(n) + 0.2
        eps = [float(e) for e in rng.choice([0.5, 1.0, 2.0], p)]
        draws.append((_law(pts, w), eps, 4.0))
    return draws


def _dual_sandwich(gamma0, eps, radius, h):
    """The statistic at step ``h``, the program's optimum, and J of its dual
    potential."""
    ball = BallConfig(radius=radius)
    problem = build_improvement_problem(gamma0, build_split_grid(gamma0, h, ball), eps)
    out = solve_problem(problem)
    at_input = math.fsum(
        w * sum(0.5 * e * y[0] ** 2 for e, y in zip(eps, tup)) for tup, w in gamma0.atoms
    )
    psi = dual_potential(problem, out, [marginal(gamma0, i) for i in range(gamma0.agents)], eps)
    return at_input - out.value, problem, out, psi, j_value(psi, gamma0, ball)


class TestDualPotential:
    @pytest.mark.parametrize("family", [_sandwich_laws, _random_draws])
    def test_j_is_within_the_grid_bound_of_the_statistic(self, family):
        h = 0.5
        for gamma0, eps, radius in family():
            stat, _, _, _, j = _dual_sandwich(gamma0, eps, radius, h)
            assert j >= stat - ZERO_GAP
            assert j - stat <= sum(eps) * h * h / 8.0 * (1.0 + 1e-9)

    def test_walls_are_steeper_than_the_edges_next_to_them(self):
        cases = _sandwich_laws() + [(validate_joint_law([(((1.0,), (-1.0,)), 1.0)]), [1.0, 1.0], 6.0)]
        for gamma0, eps, radius in cases:
            _, _, _, psi, _ = _dual_sandwich(gamma0, eps, radius, 0.5)
            for i, ag in enumerate(psi.agents):
                *edges, (lo, b_lo), (hi, b_hi) = ag.pieces
                if not edges:  # one atom: the walls alone
                    assert (lo[0], hi[0]) == (-WALL_SLOPE, WALL_SLOPE)
                    continue
                assert lo[0] == edges[0][0][0] - WALL_SLOPE
                assert hi[0] == edges[-1][0][0] + WALL_SLOPE
                # on the marginal's atoms no wall rises above the envelope's edges
                ys = marginal(gamma0, i).support_array()[:, 0]
                envelope = np.max([a[0] * ys + b for a, b in edges], axis=0)
                for a, b in ((lo, b_lo), (hi, b_hi)):
                    assert np.all(a[0] * ys + b <= envelope + 1e-12 * (1.0 + np.abs(envelope)))

    def test_needs_one_dimension(self):
        gamma0 = validate_joint_law(ANTI_2D)
        ball = BallConfig(radius=4.0)
        problem = build_improvement_problem(
            gamma0, build_split_grid(gamma0, 1.0, ball), [1.0, 1.0]
        )
        margins = [marginal(gamma0, i) for i in range(2)]
        with pytest.raises(DimensionMismatch):
            dual_potential(problem, solve_problem(problem), margins, [1.0, 1.0])


@st.composite
def _dual_cases(draw):
    p = draw(st.integers(2, 3))
    n = draw(st.integers(1, 4))
    pts = draw(st.lists(st.integers(-4, 4), min_size=n * p, max_size=n * p))
    weights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    eps = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=p, max_size=p))
    h = draw(st.sampled_from([0.5, 1.0]))
    law = _law(np.array(pts, dtype=float).reshape(n, p, 1) / 2.0, np.array(weights, float))
    return law, eps, h


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_dual_cases())
def test_dual_gap_is_the_aggregate_duals_over_the_pooled_costs(case):
    """J - statistic = sum_t w_t (alpha_t - (box)psi(s_t)), with alpha_t the
    dual of aggregate atom s_t's row (the rows come first)."""
    gamma0, eps, h = case
    radius = 4.0
    stat, problem, out, psi, j = _dual_sandwich(gamma0, eps, radius, h)
    ball = BallConfig(radius=radius)
    pooled = math.fsum(
        w * (out.duals[t] - inf_convolution_value(psi, s, ball))
        for t, (s, w) in enumerate(problem.grid.aggregate.atoms)
    )
    assert j >= stat - ZERO_GAP
    assert j - stat == pytest.approx(pooled, abs=1e-9 * (1.0 + abs(j)))


@st.composite
def _offsetting_laws(draw):
    """3-4 agents in 1-D, agent 0 long and agent 1 short by a common offset,
    with half-integer points, some moved off that lattice: the family whose
    default-step program can be over the builders' caps (half the draws)."""
    p, n = draw(st.integers(3, 4)), draw(st.integers(2, 3))
    offset = draw(st.sampled_from([1.0, 3.0, 10.0]))
    cells = st.lists(st.integers(-2, 2), min_size=n * p, max_size=n * p)
    jitter = st.lists(st.sampled_from([0.0, 0.0, 0.13, 0.29]), min_size=n * p, max_size=n * p)
    pts = (np.array(draw(cells), float) / 2.0 + np.array(draw(jitter))).reshape(n, p, 1)
    pts[:, 0] += offset
    pts[:, 1] -= offset
    weights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return _law(pts, np.array(weights, float))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_offsetting_laws())
def test_dual_step_bounds_laws_with_offsetting_positions(gamma0):
    """The dual step lowers J from its start, and J bounds the statistic at
    the default step wherever that solves (weak duality holds at any grid)."""
    state = minimize_q(gamma0)
    assert state.j <= state.j_history[0]
    try:
        stat = efficiency_statistic(gamma0)
    except (ProblemTooLarge, NumericalBreakdown):
        return
    assert state.j >= stat - ZERO_GAP


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
