"""Improvement program: grid construction, statistic, verified dominance."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import catalogue
import riskshare.improve
from riskshare.convex_order import AllocationVerdict, allocation_dominates
from riskshare.errors import InputError, SolverFailure, SumLawMismatch
from riskshare.improve import (
    build_improvement_problem,
    build_split_grid,
    default_radius,
    default_step,
    efficiency_statistic,
    solve_improvement_lp,
)
from riskshare.infconv import AgentProfile, StrictlyConvexProfile, sharing_law
from riskshare.lp import PIVOT_TOL, LPStatus, solve
from riskshare.measures import (
    BallConfig,
    joint_laws_equal,
    sum_pushforward,
    validate_joint_law,
    validate_measure,
)

TOL = 1e-8

ANTI = [(((1.0,), (-1.0,)), 0.5), (((0.0,), (2.0,)), 0.5)]
#: Shares whose squares overflow and whose identity keys would too.
BIG = [(((1e300,), (-1e300,)), 0.5), (((0.0,), (0.0,)), 0.5)]
COMO = [(((0.0,), (0.0,)), 0.5), (((1.0,), (1.0,)), 0.5)]


def floor_cost(split, eps):
    return sum(0.5 * e * float(np.dot(y, y)) for e, y in zip(eps, split))


def brute_force_best(gamma0, grid, eps, tol=TOL):
    """Cheapest pure grid assignment that dominates the baseline."""
    m0 = grid.aggregate
    best = None
    for combo in itertools.product(*[range(len(c)) for c in grid.candidates]):
        atoms = [
            (grid.candidates[t][u], m0.atoms[t][1]) for t, u in enumerate(combo)
        ]
        law = validate_joint_law(atoms, agents=gamma0.agents, dim=gamma0.dim)
        try:
            verdict = allocation_dominates(law, gamma0, tol)
        except SumLawMismatch:
            continue
        if not verdict.dominates:
            continue
        obj = sum(
            w * floor_cost(split, eps) for split, w in ((a, w) for a, w in atoms)
        )
        if best is None or obj < best:
            best = obj
    return best


class TestBuildSplitGrid:
    def test_two_state_lattice(self):
        gamma0 = validate_joint_law(ANTI)
        grid = build_split_grid(gamma0, h=1.0, ball=BallConfig(radius=2.0))
        # aggregate atoms are 0 and 2 with weight 1/2 each
        assert [a[0] for a in grid.aggregate.atoms] == [(0.0,), (2.0,)]
        c0, c2 = grid.candidates
        assert ((0.0,), (0.0,)) in c0
        for split in [((0.0,), (2.0,)), ((1.0,), (1.0,)), ((2.0,), (0.0,))]:
            assert split in c2
        assert len(c0) == 5  # y1 in {-2..2}, mirror share always inside
        assert len(c2) == 3  # y1 in {0,1,2}

    def test_candidates_sum_to_their_atom(self):
        gamma0 = validate_joint_law(ANTI)
        grid = build_split_grid(gamma0, h=0.75, ball=BallConfig(radius=2.0))
        for (s, _), cands in zip(grid.aggregate.atoms, grid.candidates):
            for split in cands:
                total = np.sum(np.asarray(split), axis=0)
                np.testing.assert_allclose(total, s, atol=1e-12)

    def test_coarse_step_keeps_baseline_splits(self):
        gamma0 = validate_joint_law(ANTI)
        grid = build_split_grid(gamma0, h=10.0, ball=BallConfig(radius=2.0))
        # lattice collapses to the origin; baseline splits survive
        c0, c2 = grid.candidates
        assert ((1.0,), (-1.0,)) in c0
        assert ((0.0,), (2.0,)) in c2
        assert len(c0) <= 2 and len(c2) <= 2

    def test_candidate_count_bound(self):
        gamma0 = validate_joint_law(ANTI)
        h, R = 0.5, 2.0
        grid = build_split_grid(gamma0, h=h, ball=BallConfig(radius=R))
        bound = (2 * int(R / h) + 1) + gamma0.size
        for cands in grid.candidates:
            assert len(cands) <= bound

    def test_baseline_splits_index_their_own_atom(self):
        # aggregates 5e-12 apart stay two atoms, and neither atom gets the
        # other's baseline split
        gamma0 = validate_joint_law(
            [(((-1.25,), (-1.25,)), 0.5), (((-1.25,), (-1.249999999995,)), 0.5)]
        )
        grid = build_split_grid(gamma0, h=0.5, ball=BallConfig(radius=1.25))
        assert grid.aggregate.size == 2
        for (tup, _), (t, u) in zip(gamma0.atoms, grid.baseline_splits):
            assert grid.candidates[t][u] == tup
            assert sum_pushforward(validate_joint_law([(tup, 1.0)])).atoms[0][0] == (
                grid.aggregate.atoms[t][0]
            )
        assert ((-1.25,), (-1.249999999995,)) not in grid.candidates[0]

    def test_invalid_inputs(self):
        gamma0 = validate_joint_law(ANTI)
        with pytest.raises(InputError):
            build_split_grid(gamma0, h=0.0, ball=BallConfig(radius=2.0))
        with pytest.raises(InputError):
            build_split_grid(gamma0, h=1.0, ball=BallConfig(radius=0.5))

    def test_coordinate_too_large_to_key(self):
        # keys of 2e300 at the resolution 1e-9 overflow: refused, not merged
        gamma0 = validate_joint_law(BIG)
        with pytest.raises(InputError, match=r"coordinate .*e\+300 .*_DEDUP_RES = 1e-09"):
            build_split_grid(gamma0, h=1e300, ball=BallConfig(radius=2e300))

    def test_split_cap(self, monkeypatch):
        # two agents: the 1-D lattice in [-2, 2] times the aggregate atoms
        gamma0 = validate_joint_law(ANTI)
        atoms = sum_pushforward(gamma0).size
        ball = BallConfig(radius=2.0)
        monkeypatch.setattr(riskshare.improve, "MAX_GRID_SPLITS", 10 * atoms)
        build_split_grid(gamma0, h=0.5, ball=ball)  # 9 lattice points
        with pytest.raises(InputError, match="too fine"):
            build_split_grid(gamma0, h=0.4, ball=ball)  # 11 lattice points


class TestSolveImprovement:
    def test_anti_comonotone_two_state(self):
        gamma0 = validate_joint_law(ANTI)
        grid = build_split_grid(gamma0, h=1.0, ball=BallConfig(radius=2.0))
        rep = solve_improvement_lp(gamma0, grid)
        # independent route: enumerate pure assignments with dominance checks
        best = brute_force_best(gamma0, grid, [1.0, 1.0])
        assert best == pytest.approx(0.5, abs=1e-12)
        assert rep.objective_at_optimum == pytest.approx(best, abs=TOL)
        assert rep.statistic == pytest.approx(1.0, abs=TOL)
        assert not rep.comonotone_at_tol
        expected = validate_joint_law(COMO)
        assert joint_laws_equal(rep.improved, expected, tol=1e-7)
        # a positive statistic must come with a strict improvement
        assert any(v.strict for v in rep.per_agent)

    def test_comonotone_baseline_is_already_optimal(self):
        gamma0 = validate_joint_law(COMO)
        grid = build_split_grid(gamma0, h=1.0, ball=BallConfig(radius=2.0))
        rep = solve_improvement_lp(gamma0, grid)
        assert abs(rep.statistic) <= TOL
        assert rep.comonotone_at_tol
        assert joint_laws_equal(rep.improved, gamma0, tol=1e-7)

    def test_sharing_law_baseline_is_optimal(self):
        prof = StrictlyConvexProfile(
            dim=1, agents=(AgentProfile(eps=1.0), AgentProfile(eps=1.0))
        )
        m0 = validate_measure([((0.0,), 0.5), ((2.0,), 0.5)])
        gamma0 = sharing_law(prof, m0, BallConfig(radius=100.0))
        grid = build_split_grid(gamma0, h=1.0, ball=BallConfig(radius=2.0))
        rep = solve_improvement_lp(gamma0, grid)
        assert abs(rep.statistic) <= TOL

    def test_single_atom_baseline_is_rigid(self):
        # a Dirac baseline pins every dominating marginal to itself
        for split in [((2.0,), (0.0,)), ((1.0,), (1.0,))]:
            gamma0 = validate_joint_law([(split, 1.0)])
            grid = build_split_grid(gamma0, h=1.0, ball=BallConfig(radius=2.0))
            rep = solve_improvement_lp(gamma0, grid)
            assert abs(rep.statistic) <= TOL
            assert joint_laws_equal(rep.improved, gamma0, tol=1e-7)

    def test_eps_scaling(self):
        gamma0 = validate_joint_law(ANTI)
        grid = build_split_grid(gamma0, h=1.0, ball=BallConfig(radius=2.0))
        base = solve_improvement_lp(gamma0, grid, eps=[1.0, 1.0]).statistic
        scaled = solve_improvement_lp(gamma0, grid, eps=[3.0, 3.0]).statistic
        assert scaled == pytest.approx(3.0 * base, rel=1e-9)

    def test_unequal_eps_still_verified(self):
        gamma0 = validate_joint_law(ANTI)
        grid = build_split_grid(gamma0, h=0.5, ball=BallConfig(radius=2.0))
        rep = solve_improvement_lp(gamma0, grid, eps=[0.5, 2.0])
        assert rep.statistic >= -1e-9
        assert sum_pushforward(rep.improved).size == grid.aggregate.size

    def test_bad_eps_rejected(self):
        gamma0 = validate_joint_law(ANTI)
        grid = build_split_grid(gamma0, h=1.0, ball=BallConfig(radius=2.0))
        with pytest.raises(InputError):
            solve_improvement_lp(gamma0, grid, eps=[1.0])
        with pytest.raises(InputError):
            solve_improvement_lp(gamma0, grid, eps=[1.0, -1.0])

    def test_failed_verification_is_a_solver_failure(self, monkeypatch):
        monkeypatch.setattr(
            riskshare.improve,
            "allocation_dominates",
            lambda *args: AllocationVerdict((), False, False),
        )
        gamma0 = validate_joint_law(ANTI)
        grid = build_split_grid(gamma0, h=1.0, ball=BallConfig(radius=2.0))
        with pytest.raises(SolverFailure, match="independent dominance verification"):
            solve_improvement_lp(gamma0, grid)


class TestInvariants:
    def _random_law(self, rng, n=3):
        pts = rng.randint(-2, 3, size=(n, 2, 1)).astype(float)
        w = rng.rand(n) + 0.2
        w /= w.sum()
        return validate_joint_law(
            [(tuple(tuple(pts[i, j]) for j in range(2)), w[i]) for i in range(n)]
        )

    def test_nonnegative_and_verified_on_random_fixtures(self):
        rng = np.random.RandomState(61)
        for _ in range(6):
            gamma0 = self._random_law(rng)
            ball = BallConfig(radius=default_radius(gamma0) + 1.0)
            grid = build_split_grid(gamma0, h=1.0, ball=ball)
            rep = solve_improvement_lp(gamma0, grid)
            assert rep.statistic >= -1e-9
            # aggregate conserved atom for atom
            got = sum_pushforward(rep.improved)
            assert got.size == grid.aggregate.size
            for (xa, wa), (xb, wb) in zip(got.atoms, grid.aggregate.atoms):
                assert abs(xa[0] - xb[0]) <= 1e-8
                assert abs(wa - wb) <= 1e-8
            # dominance re-verified externally at the default tolerance
            assert allocation_dominates(rep.improved, gamma0, 1e-7).dominates

    def test_grid_refinement_does_not_decrease_statistic(self):
        gamma0 = validate_joint_law(ANTI)
        ball = BallConfig(radius=2.0)
        coarse = build_split_grid(gamma0, h=1.0, ball=ball)
        fine = build_split_grid(gamma0, h=0.5, ball=ball)
        # the coarse lattice is a subset of the fine one
        coarse_stat = solve_improvement_lp(gamma0, coarse).statistic
        fine_stat = solve_improvement_lp(gamma0, fine).statistic
        assert fine_stat >= coarse_stat - 1e-9


#: The benchmark's grid ladder: (atoms, ball radius, steps).
LADDER = tuple((atoms, R, steps) for _, atoms, R, steps in catalogue.LADDER)


def _catalogue():
    """The laws the benchmark solves: its grid ladder at the coarsest step,
    and the sandwich laws (the 17 random laws of acceptance criterion 4 and
    the 3 designed ones) at h = 0.5 in a ball of radius 6."""
    cases = [(validate_joint_law(atoms), R, steps[0]) for atoms, R, steps in LADDER]
    sandwich = (catalogue.SANDWICH_RADIUS, catalogue.SANDWICH_STEP)
    return cases + [(law, *sandwich) for law in catalogue.sandwich_laws()]


def _problem(gamma0, R, h):
    grid = build_split_grid(gamma0, h=h, ball=BallConfig(radius=R))
    return build_improvement_problem(gamma0, grid, [1.0] * gamma0.agents)


def forcing_rows(problem):
    """Rows that hold every column they touch at 0: b_r = 0, entries of one
    sign, all above PIVOT_TOL, none on a column the baseline weights."""
    A, b = problem.program.A, problem.program.b
    weighted = problem.baseline > 0
    found = []
    for r in np.flatnonzero(b == 0):
        on = A[r] != 0
        a = A[r, on]
        one_sign = np.all(a > 0) or np.all(a < 0)
        if one_sign and np.all(np.abs(a) > PIVOT_TOL) and not weighted[on].any():
            found.append(int(r))
    return found


class TestReachableProgram:
    """The program omits the points and splits no mean-preserving kernel reaches."""

    @pytest.mark.parametrize(
        "gamma0, R, h",
        [(validate_joint_law(atoms), R, h) for atoms, R, steps in LADDER for h in steps]
        + _catalogue()[len(LADDER) :],
    )
    def test_no_forcing_row(self, gamma0, R, h):
        assert forcing_rows(_problem(gamma0, R, h)) == []

    @pytest.mark.parametrize(
        "ladder, h, shape",
        [(0, 0.0625, (201, 385)), (1, 0.0625, (141, 231)), (3, 0.5, (10, 6))],
        ids=["improvable-1d", "efficient-1d", "efficient-2d"],
    )
    def test_pinned_shapes(self, ladder, h, shape):
        atoms, R, _ = LADDER[ladder]
        assert _problem(validate_joint_law(atoms), R, h).program.A.shape == shape

    def test_near_lattice_share_keeps_its_point(self):
        # the second share is 5e-12 off -1.25, the point it is deduplicated
        # to: the kernel entry between them (5e-12, below PIVOT_TOL) keeps
        # its barycenter row, and the baseline misses that row by 0.5 * 5e-12
        gamma0 = validate_joint_law(
            [(((-1.25,), (-1.25,)), 0.5), (((-1.25,), (-1.249999999995,)), 0.5)]
        )
        problem = _problem(gamma0, 1.25, 0.5)
        lp, x0 = problem.program, problem.baseline
        for (_, w), (t, u) in zip(gamma0.atoms, problem.grid.baseline_splits):
            assert problem.gamma_cols[t][u] >= 0
            assert x0[problem.gamma_cols[t][u]] == w
        tiny = (lp.A != 0) & (np.abs(lp.A) <= PIVOT_TOL)
        assert np.any(tiny[:, x0 > 0])
        assert np.max(np.abs(lp.A @ x0 - lp.b)) <= 3e-12
        assert solve(lp, start=x0).status is LPStatus.OPTIMAL

    def test_size_cap_counts_the_emitted_program(self, monkeypatch):
        # efficient-2d at h = 1/2: 10 x 6 emitted, of 300 x 260 candidates
        atoms, R, _ = LADDER[3]
        gamma0 = validate_joint_law(atoms)
        monkeypatch.setattr(riskshare.improve, "MAX_LP_ENTRIES", 60)
        _problem(gamma0, R, 0.5)
        monkeypatch.setattr(riskshare.improve, "MAX_LP_ENTRIES", 59)
        with pytest.raises(InputError, match="10 rows and 6 columns"):
            _problem(gamma0, R, 0.5)


class TestBaselineEmbedding:
    """``ImprovementProblem.baseline`` is the baseline law, feasible in its program."""

    @pytest.mark.parametrize("gamma0, R, h", _catalogue())
    def test_baseline_is_feasible_with_the_baseline_cost(self, gamma0, R, h):
        eps = [1.0] * gamma0.agents
        grid = build_split_grid(gamma0, h=h, ball=BallConfig(radius=R))
        problem = build_improvement_problem(gamma0, grid, eps)
        lp, x0 = problem.program, problem.baseline
        assert np.min(x0) >= 0.0
        assert np.max(np.abs(lp.A @ x0 - lp.b)) <= 1e-12
        objective = sum(w * floor_cost(tup, eps) for tup, w in gamma0.atoms)
        assert lp.c @ x0 == pytest.approx(objective, rel=1e-14, abs=1e-14)

    def test_dependent_baseline_support_matches_highs(self):
        # the six permutations of (0, 1, 2) among three agents: 15 baseline
        # columns of rank 14, so the start must be purified
        atoms = [
            (tuple((float(v),) for v in perm), 1.0 / 6.0)
            for perm in itertools.permutations((0, 1, 2))
        ]
        gamma0 = validate_joint_law(atoms)
        grid = build_split_grid(gamma0, h=1.0, ball=BallConfig(radius=2.5))
        problem = build_improvement_problem(gamma0, grid, [1.0] * 3)
        lp, support = problem.program, problem.baseline > 0
        assert lp.A.shape == (22, 22)
        assert np.linalg.matrix_rank(lp.A[:, support]) < np.count_nonzero(support)
        ref = linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
        assert ref.status == 0
        rep = solve_improvement_lp(gamma0, grid)
        assert rep.statistic == pytest.approx(rep.objective_at_input - ref.fun, abs=1e-9)
        assert rep.statistic == pytest.approx(1.0, abs=1e-9)


class TestFloorCost:
    #: Shares of 1e200: their keys are finite, their squares are not.
    HUGE = [(((1e200,), (-1e200,)), 0.5), (((0.0,), (0.0,)), 0.5)]

    @pytest.mark.parametrize(
        "geometry", [(1e200, 2e200), None], ids=["given-geometry", "default-geometry"]
    )
    def test_share_whose_floor_cost_overflows(self, geometry):
        gamma0 = validate_joint_law(self.HUGE)
        if geometry is None:
            ball = BallConfig(radius=default_radius(gamma0))
            h = default_step(gamma0, ball)
        else:
            h, ball = geometry[0], BallConfig(radius=geometry[1])
        grid = build_split_grid(gamma0, h, ball)
        with pytest.raises(InputError, match=r"share \(1e\+200,\) of agent 0 is too large"):
            build_improvement_problem(gamma0, grid, [1.0, 1.0])

    def test_largest_finite_floor_cost_is_built(self):
        # 1e154 squares to 1e308, within range: the program is built and solved
        gamma0 = validate_joint_law([(((1e154,), (-1e154,)), 0.5), (((0.0,), (0.0,)), 0.5)])
        grid = build_split_grid(gamma0, 1e154, BallConfig(radius=2e154))
        problem = build_improvement_problem(gamma0, grid, [1.0, 1.0])
        assert np.all(np.isfinite(problem.program.c))
        assert solve_improvement_lp(gamma0, grid).statistic == 0.0


class TestConvenience:
    def test_efficiency_statistic_defaults(self):
        gamma0 = validate_joint_law(ANTI)
        stat = efficiency_statistic(gamma0)
        assert stat >= -1e-9

    def test_documented_fixed_grid_values(self):
        assert efficiency_statistic(
            validate_joint_law(COMO), h=1.0, ball=BallConfig(radius=2.0)
        ) == pytest.approx(0.0, abs=TOL)
        assert efficiency_statistic(
            validate_joint_law(ANTI), h=1.0, ball=BallConfig(radius=2.0)
        ) == pytest.approx(1.0, abs=TOL)

    def test_default_geometry_helpers(self):
        gamma0 = validate_joint_law(ANTI)
        R = default_radius(gamma0)
        assert R == pytest.approx(2.5)
        assert default_step(gamma0, BallConfig(radius=R)) == pytest.approx(0.25)

    def test_default_radius_does_not_overflow(self):
        assert default_radius(validate_joint_law(BIG)) == 1.25e300
        two_d = validate_joint_law([(((3e300, 4e300), (-3e300, -4e300)), 1.0)])
        assert default_radius(two_d) == pytest.approx(6.25e300, rel=1e-15)
