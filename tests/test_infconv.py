"""Sharing map, infimal convolution, quadratic closed forms, families."""

import math

import numpy as np
import pytest

from riskshare.errors import (
    DimensionMismatch,
    InputError,
    NoConvergence,
    NotPositiveDefinite,
    ParameterOutOfRange,
    ProblemTooLarge,
    XOutsideDomain,
)
import riskshare.infconv
from riskshare.infconv import (
    AgentProfile,
    StrictlyConvexProfile,
    _simplex_qp,
    counterexample_family,
    inf_convolution_value,
    profile_from_obj,
    profile_to_obj,
    quadratic_profile,
    quadratic_sharing_matrix,
    share_point,
    sharing_law,
)
from riskshare.measures import BallConfig, dirac, sum_pushforward, validate_measure

BIG = BallConfig(radius=1e6)
TOL = 1e-8


def iso_profile(dim, eps_list):
    return StrictlyConvexProfile(
        dim=dim, agents=tuple(AgentProfile(eps=e) for e in eps_list)
    )


class TestProfileValidation:
    def test_zero_piece_inserted(self):
        prof = iso_profile(2, [1.0])
        assert prof.agents[0].pieces == (((0.0, 0.0), 0.0),)

    def test_eps_must_be_positive(self):
        with pytest.raises(InputError):
            iso_profile(1, [0.0])

    def test_piece_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            StrictlyConvexProfile(
                dim=2, agents=(AgentProfile(eps=1.0, pieces=(((1.0,), 0.0),)),)
            )

    def test_non_finite_pieces_refused(self):
        for piece in (((math.inf,), 0.0), ((1.0,), math.nan)):
            with pytest.raises(InputError, match="agent 1: non-finite affine piece"):
                StrictlyConvexProfile(
                    dim=1, agents=(AgentProfile(eps=1.0), AgentProfile(pieces=(piece,)))
                )

    def test_pure_quadratic_until_a_sloped_piece(self):
        def profile(piece):
            return StrictlyConvexProfile(
                dim=1, agents=(AgentProfile(eps=1.0, pieces=(piece,)), AgentProfile(eps=2.0))
            )

        # a flat piece leaves the cost quadratic, and the eps-only agent
        # gets the zero piece
        flat, sloped = profile(((0.0,), -1.0)), profile(((0.5,), 0.0))
        for prof in (flat, sloped):
            A, b = prof.piece_arrays(1)
            assert A.tolist() == [[0.0]] and b.tolist() == [0.0]
        assert not flat.piece_arrays(0)[0].any()
        assert sloped.piece_arrays(0)[0].any()

    @pytest.mark.parametrize("dim", [10**300, 100_000], ids=["1e300", "1e5"])
    def test_shapes_checked_before_any_array_is_built(self, dim):
        # the eps-only agent's zero piece and floor would take dim entries;
        # the other agent's 1 x 1 quadratic is refused first
        agents = (AgentProfile(eps=1.0), AgentProfile(eps=2.0, quad=np.array([[2.0]])))
        with pytest.raises(DimensionMismatch, match="agent 1 quadratic"):
            StrictlyConvexProfile(dim=dim, agents=agents)

    def test_profile_too_large_to_build_is_refused(self):
        # two eps-only agents in dimension 10**6 would each hold two
        # 10**6 x 10**6 arrays (8 TB); the cap refuses them before any exists
        agents = (AgentProfile(eps=1.0), AgentProfile(eps=2.0))
        with pytest.raises(ProblemTooLarge, match="dimension 1000000"):
            StrictlyConvexProfile(dim=10**6, agents=agents)

    def test_profile_at_the_cap_is_built(self, monkeypatch):
        # the cap counts dim squared times agents: 2 * 2**2 = 8 entries fit
        # under a cap of 8, and 2 * 3**2 do not
        monkeypatch.setattr(riskshare.infconv, "MAX_PROFILE_ENTRIES", 8)
        agents = (AgentProfile(eps=1.0), AgentProfile(eps=2.0))
        assert StrictlyConvexProfile(dim=2, agents=agents).quad_matrix(1).shape == (2, 2)
        with pytest.raises(ProblemTooLarge, match="18 matrix entries"):
            StrictlyConvexProfile(dim=3, agents=agents)

    def test_quad_must_be_spd(self):
        with pytest.raises(NotPositiveDefinite):
            StrictlyConvexProfile(
                dim=2,
                agents=(AgentProfile(quad=np.array([[1.0, 2.0], [2.0, 1.0]])),),
            )

    def test_values_and_grads(self):
        prof = StrictlyConvexProfile(
            dim=1,
            agents=(AgentProfile(eps=2.0, pieces=(((0.0,), 0.0), ((1.0,), -0.25))),),
        )
        assert prof.psi_value(0, np.array([1.0])) == pytest.approx(1.0 + 0.75)
        assert prof.psi_value(0, np.array([0.0])) == pytest.approx(0.0)
        np.testing.assert_allclose(prof.psi_grad(0, np.array([1.0])), [3.0])


def _kinked_1d_profile():
    return StrictlyConvexProfile(
        dim=1,
        agents=(
            AgentProfile(eps=1.0, pieces=(((0.0,), 0.0), ((1.0,), -0.3))),
            AgentProfile(eps=3.0),
            AgentProfile(eps=0.7, pieces=(((-0.5,), 0.1),)),
        ),
    )


def _outcome(profile, x, ball, tol):
    """A split's every field, or the type and message of what it raised."""
    try:
        sp = share_point(profile, (x,), ball, tol=tol)
    except (NoConvergence, XOutsideDomain) as exc:
        return type(exc), str(exc)
    return sp.shares, sp.price, sp.multipliers, sp.residual, sp.iterations


class TestCachedArrays:
    """A profile builds its arrays once."""

    def test_arrays_are_read_only(self):
        user_quad = np.array([[2.0, 0.1], [0.1, 1.0]])
        prof = StrictlyConvexProfile(
            dim=2,
            agents=(
                AgentProfile(eps=0.5, pieces=(((1.0, -1.0), 0.25),)),
                AgentProfile(quad=user_quad),
            ),
        )
        for i in range(prof.n_agents):
            A, b = prof.piece_arrays(i)
            for arr in (prof.quad_matrix(i), A, b):
                with pytest.raises(ValueError):
                    arr[0] = 7.0
        # the caller's matrix is copied, not frozen, and its later edits
        # do not reach the profile
        user_quad[0, 0] = 5.0
        assert prof.quad_matrix(1)[0, 0] == 2.0

    def test_share_point_inverts_no_quadratic(self, monkeypatch):
        # Q^-1 and 1/lambda_min(Q) are kept with the profile, so a 2-D split
        # whose balls never bind inverts no matrix
        prof = StrictlyConvexProfile(
            dim=2,
            agents=(
                AgentProfile(eps=0.5, pieces=(((1.0, -1.0), 0.25), ((-1.0, 0.5), 0.0))),
                AgentProfile(quad=np.array([[2.0, 0.1], [0.1, 1.0]])),
            ),
        )
        np.testing.assert_array_equal(prof._arrays[1][3], np.linalg.inv(prof.quad_matrix(1)))
        assert prof._arrays[0][4] == 2.0
        with pytest.raises(ValueError):
            prof._arrays[1][3][0, 0] = 7.0

        def refused(*args, **kwargs):
            raise AssertionError("a quadratic was inverted during the split")

        monkeypatch.setattr(np.linalg, "inv", refused)
        sp = share_point(prof, (0.7, -0.3), BIG)
        assert sp.iterations > 0 and max(sp.multipliers) == 0.0

    def test_one_profile_under_many_balls_matches_fresh_profiles(self):
        shared = _kinked_1d_profile()
        balls = [
            BallConfig(radius=2.0, center=(0.25,)),
            BallConfig(radius=0.5, center=(0.25,)),
            BallConfig(radius=2.0, center=(-0.5,)),
            BallConfig(radius=2.0, center=(0.25,)),
        ]
        seen = set()
        for ball in balls:
            for x in np.linspace(-2.0, 6.0, 17):
                for tol in (TOL, 0.0):
                    got = _outcome(shared, float(x), ball, tol)
                    assert got == _outcome(_kinked_1d_profile(), float(x), ball, tol)
                    seen.add(got[0] if isinstance(got[0], type) else "ok")
        # every outcome occurs: splits, and both failures the map raises
        assert seen == {"ok", NoConvergence, XOutsideDomain}


class TestSharePoint:
    def test_symmetric_split(self):
        prof = iso_profile(2, [1.0, 1.0])
        sp = share_point(prof, (2.0, 0.0), BIG)
        np.testing.assert_allclose(sp.shares, [(1.0, 0.0), (1.0, 0.0)], atol=1e-9)
        np.testing.assert_allclose(sp.price, (1.0, 0.0), atol=1e-9)
        assert sp.residual <= TOL * 3

    def test_origin_symmetric(self):
        prof = iso_profile(2, [1.0, 3.0, 0.5])
        sp = share_point(prof, (0.0, 0.0), BIG)
        np.testing.assert_allclose(sp.shares, np.zeros((3, 2)), atol=1e-9)

    def test_closed_form_matches_dual_ascent(self):
        diag = counterexample_family(4, 0.5)
        prof = quadratic_profile([diag.S1, diag.S2])
        for x in [(1.0, 0.5), (-0.3, 0.8), (0.0, 1.0)]:
            sp = share_point(prof, x, BallConfig(radius=100.0))
            assert sp.iterations == 1  # the first, undamped step is the closed form
            np.testing.assert_allclose(sp.shares[0], diag.T1 @ np.asarray(x), atol=1e-10)

    def test_pure_quadratic_split_is_one_step(self):
        # inside the ball a pure-quadratic profile's responses are linear in
        # the price, so the first, undamped Newton step is the split
        rng = np.random.RandomState(2028)
        for k in range(200):
            d, p = rng.randint(2, 5), rng.randint(2, 4)
            if k % 2:
                agents = [AgentProfile(eps=float(rng.uniform(0.2, 3.0))) for _ in range(p)]
            else:
                mats = [rng.randn(d, d) for _ in range(p)]
                agents = [AgentProfile(quad=A @ A.T + 0.5 * np.eye(d)) for A in mats]
            prof = StrictlyConvexProfile(dim=d, agents=tuple(agents))
            x = rng.randn(d) * 2.0
            sp = share_point(prof, x, BallConfig(radius=20.0 * (1.0 + np.linalg.norm(x))))
            assert sp.iterations == 1 and max(sp.multipliers) == 0.0
            S = [np.linalg.inv(prof.quad_matrix(i)) for i in range(p)]
            for T, y in zip(quadratic_sharing_matrix(S), sp.shares):
                assert np.max(np.abs(np.asarray(y) - T @ x)) <= 1e-14 * (1.0 + np.linalg.norm(x))

    def test_ball_constraint_binds(self):
        # cheap agent capped at the ball boundary; hand KKT solution
        prof = iso_profile(1, [0.1, 10.0])
        sp = share_point(prof, (1.8,), BallConfig(radius=1.0))
        np.testing.assert_allclose(sp.shares, [(1.0,), (0.8,)], atol=1e-7)
        assert sp.price[0] == pytest.approx(8.0, abs=1e-6)
        assert sp.multipliers[0] == pytest.approx(7.9, abs=1e-6)
        assert sp.multipliers[1] == pytest.approx(0.0, abs=1e-9)

    def test_ball_constraint_binds_2d(self):
        # the same KKT solution along the first axis of the plane
        prof = iso_profile(2, [0.1, 10.0])
        sp = share_point(prof, (1.8, 0.0), BallConfig(radius=1.0))
        np.testing.assert_allclose(sp.shares, [(1.0, 0.0), (0.8, 0.0)], atol=1e-7)
        np.testing.assert_allclose(sp.price, (8.0, 0.0), atol=1e-6)
        assert sp.multipliers[0] == pytest.approx(7.9, abs=1e-6)
        assert sp.multipliers[1] == pytest.approx(0.0, abs=1e-9)

    def test_large_units_converge_fast(self):
        # shares of 1500 against a Jacobian of 0.2: damping the Newton step
        # by |r| itself would cut |r| by only about 0.2 a step
        agent = AgentProfile(eps=10.0, pieces=(((1.0, 0.0), 0.0),))
        prof = StrictlyConvexProfile(dim=2, agents=(agent, agent))
        sp = share_point(prof, (3000.0, 0.0), BallConfig(radius=2000.0))
        np.testing.assert_allclose(sp.shares, [(1500.0, 0.0)] * 2, rtol=1e-9)
        assert sp.iterations <= 30

    def test_kink_share(self):
        # agent 2 pays max(0, y - 1/4) on top of the quadratic; at x = 1 the
        # optimum parks agent 2 exactly at the kink: y = (3/4, 1/4), price 3/4
        prof = StrictlyConvexProfile(
            dim=1,
            agents=(
                AgentProfile(eps=1.0),
                AgentProfile(eps=1.0, pieces=(((0.0,), 0.0), ((1.0,), -0.25))),
            ),
        )
        sp = share_point(prof, (1.0,), BIG)
        np.testing.assert_allclose(sp.shares, [(0.75,), (0.25,)], atol=1e-7)
        assert sp.price[0] == pytest.approx(0.75, abs=1e-6)

    def test_smooth_region_share(self):
        # same profile, x = 1.5: both gradients active, y = (5/4, 1/4) at the
        # upper edge of the kink's subdifferential
        prof = StrictlyConvexProfile(
            dim=1,
            agents=(
                AgentProfile(eps=1.0),
                AgentProfile(eps=1.0, pieces=(((0.0,), 0.0), ((1.0,), -0.25))),
            ),
        )
        sp = share_point(prof, (1.5,), BIG)
        np.testing.assert_allclose(sp.shares, [(1.25,), (0.25,)], atol=1e-7)

    def test_outside_domain(self):
        prof = iso_profile(1, [1.0, 1.0])
        with pytest.raises(XOutsideDomain):
            share_point(prof, (2.5,), BallConfig(radius=1.0))

    @pytest.mark.parametrize("x", [(math.nan,), (0.5, math.nan)], ids=["1d", "2d"])
    def test_nan_aggregate_is_outside_domain(self, x):
        piece = (tuple(0.5 for _ in x), -0.25)
        prof = StrictlyConvexProfile(
            dim=len(x),
            agents=(
                AgentProfile(eps=1.0),
                AgentProfile(eps=1.0, pieces=((tuple(0.0 for _ in x), 0.0), piece)),
            ),
        )
        with pytest.raises(XOutsideDomain) as info:
            share_point(prof, x, BallConfig(radius=2.0))
        message = str(info.value)
        assert f"x = {x!r}" in message and "float64" not in message

    def test_interior_first_order_condition(self):
        prof = StrictlyConvexProfile(
            dim=1,
            agents=(
                AgentProfile(eps=1.3),
                AgentProfile(eps=0.6, pieces=(((0.5,), -0.1),)),
            ),
        )
        sp = share_point(prof, (0.9,), BallConfig(radius=50.0))
        p = np.asarray(sp.price)
        for i, y in enumerate(sp.shares):
            slack = 50.0 - abs(y[0])
            if slack > 1e-10:
                np.testing.assert_allclose(prof.psi_grad(i, np.asarray(y)), p, atol=1e-6)

    def test_monotone_components_in_1d(self):
        prof = StrictlyConvexProfile(
            dim=1,
            agents=(
                AgentProfile(eps=1.0),
                AgentProfile(eps=0.5, pieces=(((1.0,), -0.3), ((-0.5,), 0.1))),
            ),
        )
        ball = BallConfig(radius=2.0)
        xs = np.linspace(-1.5, 1.5, 9)
        shares = [share_point(prof, (x,), ball).shares for x in xs]
        for a, b in zip(shares, shares[1:]):
            for i in range(2):
                assert a[i][0] <= b[i][0] + TOL


class TestInfConvolutionValue:
    def test_two_isotropic_agents(self):
        prof = iso_profile(2, [1.0, 1.0])
        for x in [(0.5, 0.5), (2.0, 0.0), (-1.0, 1.5)]:
            v = inf_convolution_value(prof, x, BIG)
            assert v == pytest.approx(np.dot(x, x) / 4.0, abs=1e-8)

    def test_zero_at_origin(self):
        prof = iso_profile(2, [1.0, 2.0, 3.0])
        assert inf_convolution_value(prof, (0.0, 0.0), BIG) == pytest.approx(0.0, abs=1e-10)

    def test_below_any_feasible_split(self):
        rng = np.random.RandomState(53)
        prof = StrictlyConvexProfile(
            dim=2,
            agents=(
                AgentProfile(eps=1.0, pieces=(((0.3, -0.2), 0.05),)),
                AgentProfile(eps=2.5),
            ),
        )
        ball = BallConfig(radius=10.0)
        for _ in range(10):
            x = rng.randn(2)
            v = inf_convolution_value(prof, x, ball)
            z1 = rng.randn(2)
            z2 = x - z1
            cost = prof.psi_value(0, z1) + prof.psi_value(1, z2)
            assert v <= cost + 1e-7


class TestSharingLaw:
    def test_dirac_single_tuple(self):
        prof = iso_profile(1, [1.0, 1.0])
        law = sharing_law(prof, dirac((2.0,)), BIG)
        assert law.size == 1
        np.testing.assert_allclose(law.atoms[0][0], [(1.0,), (1.0,)], atol=1e-8)

    def test_sum_recovers_input_law(self):
        prof = StrictlyConvexProfile(
            dim=1,
            agents=(
                AgentProfile(eps=1.0, pieces=(((1.0,), -0.2),)),
                AgentProfile(eps=0.4),
            ),
        )
        m0 = validate_measure([((-1.0,), 0.25), ((0.5,), 0.5), ((1.5,), 0.25)])
        law = sharing_law(prof, m0, BallConfig(radius=5.0))
        back = sum_pushforward(law)
        assert back.size == m0.size
        for (xa, wa), (xb, wb) in zip(back.atoms, m0.atoms):
            assert abs(xa[0] - xb[0]) <= 1e-7
            assert abs(wa - wb) <= 1e-12

    def test_two_state_symmetric_split(self):
        prof = iso_profile(1, [1.0, 1.0])
        m0 = validate_measure([((0.0,), 0.5), ((2.0,), 0.5)])
        law = sharing_law(prof, m0, BIG)
        assert law.size == 2
        np.testing.assert_allclose(law.atoms[0][0], [(0.0,), (0.0,)], atol=1e-8)
        np.testing.assert_allclose(law.atoms[1][0], [(1.0,), (1.0,)], atol=1e-8)


class TestQuadraticSharingMatrix:
    def test_equal_matrices_give_identity_over_p(self):
        S = np.array([[2.0, 0.3], [0.3, 1.0]])
        ts = quadratic_sharing_matrix([S, S, S])
        for T in ts:
            np.testing.assert_allclose(T, np.eye(2) / 3.0, atol=1e-12)

    def test_row_sum_identity_random_spd(self):
        rng = np.random.RandomState(54)
        for _ in range(10):
            p, d = rng.randint(2, 5), rng.randint(1, 4)
            mats = []
            for _ in range(p):
                A = rng.randn(d, d)
                mats.append(A @ A.T + 0.1 * np.eye(d))
            ts = quadratic_sharing_matrix(mats)
            np.testing.assert_allclose(sum(ts), np.eye(d), atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPositiveDefinite):
            quadratic_sharing_matrix([np.array([[1.0, 0.5], [0.0, 1.0]])])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            quadratic_sharing_matrix([np.array([[1.0, 2.0], [2.0, 1.0]])])


class TestCounterexampleFamily:
    def test_documented_matrix_at_n4(self):
        diag = counterexample_family(4, 0.5)
        np.testing.assert_allclose(
            diag.T1, [[0.5, 0.25], [0.0625, 0.5]], atol=1e-12
        )

    def test_sharing_matrix_closed_form_general_n(self):
        for n in (1, 4, 16, 64):
            diag = counterexample_family(n, 0.5)
            rn = math.sqrt(n)
            np.testing.assert_allclose(
                diag.T1, [[0.5, rn / 8.0], [1.0 / (8.0 * rn), 0.5]], atol=1e-12
            )

    def test_norms_increase(self):
        norms = [counterexample_family(n, 0.5).T1_norm for n in (1, 4, 16, 64)]
        assert all(a < b for a, b in zip(norms, norms[1:]))

    def test_n1_collapses(self):
        for eps in (0.1, 0.5, 0.9):
            diag = counterexample_family(1, eps)
            np.testing.assert_allclose(diag.M1, diag.M1_prime, atol=1e-12)
            assert diag.det_sum == pytest.approx(eps, abs=1e-12)

    def test_negative_determinant_large_n(self):
        diag = counterexample_family(100, 0.01)
        # closed-form top-right/bottom-left entries of M1 + M1'
        e = 0.01
        u = math.sqrt(1 - e) / 2 + math.sqrt(100 - e) / 200
        v = math.sqrt(1 - e) / 2 + math.sqrt(100 - e) / 2
        assert diag.det_sum == pytest.approx(1 - u * v, abs=1e-9)
        assert diag.det_sum < 0
        assert diag.det_sum == pytest.approx(-2.01, abs=0.005)

    def test_parameter_guards(self):
        with pytest.raises(ParameterOutOfRange):
            counterexample_family(0, 0.5)
        with pytest.raises(ParameterOutOfRange):
            counterexample_family(4, 0.0)
        with pytest.raises(ParameterOutOfRange):
            counterexample_family(4, 1.0)


class TestProfileJson:
    def test_round_trip(self):
        prof = StrictlyConvexProfile(
            dim=2,
            agents=(
                AgentProfile(eps=0.5, pieces=(((1.0, -1.0), 0.25),)),
                AgentProfile(quad=np.array([[2.0, 0.1], [0.1, 1.0]])),
            ),
        )
        again = profile_from_obj(profile_to_obj(prof))
        assert again.dim == 2 and again.n_agents == 2
        assert again.agents[0].pieces == prof.agents[0].pieces
        np.testing.assert_array_equal(again.agents[1].quad, prof.agents[1].quad)

    def test_malformed_raises(self):
        with pytest.raises(InputError):
            profile_from_obj({"dim": 1, "profiles": []})
        with pytest.raises(InputError):
            profile_from_obj({"agents": 2, "dim": 1, "profiles": [{"eps": 1.0}]})


class TestSimplexQP:
    def test_pass_cap_raises(self):
        # y^2/2 + |y| at price 0.5: the best single piece is not optimal, so
        # the minimizer, at the kink y = 0, takes a second pass
        Minv, A, b, v = np.eye(1), np.array([[-1.0], [1.0]]), np.zeros(2), np.array([0.5])
        y, W, w = _simplex_qp(Minv, A, b, v)
        assert sorted(W) == [0, 1]
        assert y == pytest.approx([0.0], abs=1e-15)
        again = _simplex_qp(Minv, A, b, v, max_passes=2)
        np.testing.assert_array_equal(again[0], y)
        with pytest.raises(NoConvergence, match=r"pass cap of 1 \(K = 2 pieces, d = 1\)"):
            _simplex_qp(Minv, A, b, v, max_passes=1)

    def test_warm_start_among_sixteen_walls(self):
        # the zero slope and 16 walls of slope 100 around it: the minimizer
        # is y = 0, which a cold start finds; from a warm start on three of
        # the pieces, y comes out at about 1e-14, the rounding of terms of
        # size 43, and a wall 1.3e-12 above the active level is that
        # rounding too, not a piece to enter (it cycled {16, 4, 11} +12 -11
        # +11 -12 ... to the pass cap when the test ignored y's terms)
        turns = 2.0 * np.pi * np.arange(16) / 16.0
        A = np.vstack([np.zeros(2), 100.0 * np.column_stack([np.cos(turns), np.sin(turns)])])
        v = np.array([30.5451939651848, 30.24341297645035])
        cold, _, _ = _simplex_qp(np.eye(2), A, np.zeros(17), v)
        assert cold == pytest.approx([0.0, 0.0], abs=1e-12)
        w = np.array([0.23798422007777098, 0.568965966419866, 0.19304981350236305])
        y, W, weights = _simplex_qp(np.eye(2), A, np.zeros(17), v, [16, 4, 11], w)
        assert y == pytest.approx([0.0, 0.0], abs=1e-12)
        assert weights.sum() == pytest.approx(1.0) and np.all(weights > 0.0)
        assert y == pytest.approx(v - A[W].T @ weights, abs=1e-12)
        assert np.max(A @ y) <= np.max(A[W] @ y) + 1e-12
