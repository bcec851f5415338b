"""Maximal correlation: sorted-quantile path, LP path, and the gap."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog

import riskshare.lp
from riskshare.errors import DimensionMismatch
from riskshare.lp import FEAS_TOL
from riskshare.maxcorr import (
    _greedy_plan,
    comonotonicity_gap,
    default_baseline,
    max_correlation,
)
from riskshare.measures import BallConfig, dirac, validate_joint_law, validate_measure

TOL = 1e-8


def measure_1d(pairs):
    return validate_measure([((float(x),), float(w)) for x, w in pairs])


def random_measure(rng, n, dim=1, scale=2.0):
    w = rng.rand(n) + 0.05
    w /= w.sum()
    pts = rng.randn(n, dim) * scale
    return validate_measure([(tuple(pts[i]), w[i]) for i in range(n)])


def coupling_lp_oracle(xi, mu):
    """Independent LP route for the same maximum, via scipy."""
    n, m = xi.size, mu.size
    X, Y = xi.support_array(), mu.support_array()
    c = -(X @ Y.T).reshape(n * m)
    A = []
    b = []
    for i in range(n):
        r = np.zeros(n * m)
        r[i * m : (i + 1) * m] = 1.0
        A.append(r)
        b.append(xi.weights_array()[i])
    for j in range(m):
        r = np.zeros(n * m)
        r[j::m] = 1.0
        A.append(r)
        b.append(mu.weights_array()[j])
    res = linprog(c, A_eq=np.array(A), b_eq=np.array(b), bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


class TestMaxCorrelation1d:
    def test_bernoulli_pair(self):
        # enumerate couplings by hand: pi(1,1) = t <= 1/2 gives value t
        xi = measure_1d([(0.0, 0.5), (1.0, 0.5)])
        mu = measure_1d([(0.0, 0.5), (1.0, 0.5)])
        best = max(t for t in np.linspace(0.0, 0.5, 51))
        out = max_correlation(xi, mu)
        assert out.value == pytest.approx(best, abs=1e-12)

    def test_dirac_only_one_coupling(self):
        mu = measure_1d([(2.0, 0.25), (6.0, 0.75)])
        out = max_correlation(dirac((3.0,)), mu)
        assert out.value == pytest.approx(3.0 * float(mu.mean()[0]), abs=1e-12)

    def test_sorted_path_matches_lp_oracle(self):
        rng = np.random.RandomState(41)
        for _ in range(25):
            xi = random_measure(rng, rng.randint(1, 7))
            mu = random_measure(rng, rng.randint(1, 7))
            out = max_correlation(xi, mu)
            assert out.value == pytest.approx(coupling_lp_oracle(xi, mu), abs=TOL)

    def test_coupling_is_valid(self):
        rng = np.random.RandomState(42)
        for _ in range(10):
            xi = random_measure(rng, rng.randint(1, 6))
            mu = random_measure(rng, rng.randint(1, 6))
            out = max_correlation(xi, mu)
            assert out.max_violation(xi, mu) <= TOL


class TestMaxCorrelationMd:
    def test_two_dim_matches_oracle(self):
        rng = np.random.RandomState(43)
        for _ in range(8):
            xi = random_measure(rng, rng.randint(1, 5), dim=2)
            mu = random_measure(rng, rng.randint(1, 5), dim=2)
            out = max_correlation(xi, mu)
            assert out.value == pytest.approx(coupling_lp_oracle(xi, mu), abs=TOL)
            assert out.max_violation(xi, mu) <= 1e-7

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            max_correlation(dirac((0.0,)), dirac((0.0, 0.0)))


def phase_one_pivots(run) -> list[int]:
    """The pivots of every phase 1 that ``run()`` goes through."""
    phase_one, pivots = riskshare.lp._phase_one, []

    def recorded(*args):
        result = phase_one(*args)
        pivots.append(result[4])
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riskshare.lp, "_phase_one", recorded)
        run()
    return pivots


points = st.lists(
    st.integers(-200, 200).map(lambda k: k / 100.0), min_size=3, max_size=3
)


@st.composite
def coupling_cases(draw):
    """Two laws in dimension 2 or 3: uniform on equally many distinct
    points, or of unequal sizes with unequal weights, renormalised."""
    dim = draw(st.sampled_from((2, 3)))
    uniform = draw(st.booleans())
    n = draw(st.integers(1, 6))
    laws = []
    for size in (n, n if uniform else draw(st.integers(1, 6))):
        pts = [tuple(draw(points)[:dim]) for _ in range(size)]
        w = [1.0] * size if uniform else [draw(st.floats(0.05, 1.0)) for _ in range(size)]
        law = validate_measure([(p, wi / sum(w)) for p, wi in zip(pts, w)])
        assume(law.size == size)  # merged points would make the weights unequal
        laws.append(law)
    return (*laws, uniform)


class TestTransportStart:
    """The coupling program starts at the greedy basic plan."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(coupling_cases())
    def test_coupling_matches_the_oracles(self, case):
        xi, mu, uniform = case
        outs = []
        assert phase_one_pivots(lambda: outs.append(max_correlation(xi, mu))) == [0]
        out = outs[0]
        if uniform:
            gain = xi.support_array() @ mu.support_array().T
            rows, cols = linear_sum_assignment(gain, maximize=True)
            expected = gain[rows, cols].sum() / xi.size
        else:
            expected = coupling_lp_oracle(xi, mu)
        assert out.value == pytest.approx(expected, abs=TOL * (1.0 + abs(expected)))
        # the coupling's marginals are the inputs, and it attains the value
        assert out.max_violation(xi, mu) <= 1e-9

    def test_phase_one_takes_no_pivot(self):
        rng = np.random.RandomState(5)
        law = validate_joint_law(
            [((tuple(rng.randn(2)), tuple(rng.randn(2))), w) for w in (0.2, 0.3, 0.5)]
        )
        # the 25-point default baseline against each agent and the aggregate
        pivots = phase_one_pivots(lambda: comonotonicity_gap(law))
        assert pivots == [0, 0, 0]
        for dim in (2, 3):
            xi, mu = random_measure(rng, 8, dim), random_measure(rng, 5, dim)
            assert phase_one_pivots(lambda: max_correlation(xi, mu)) == [0]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(coupling_cases())
    def test_greedy_plan_is_a_basic_coupling(self, case):
        xi, mu, _ = case
        supply, demand = xi.weights_array(), mu.weights_array()
        c = -(xi.support_array() @ mu.support_array().T).ravel()
        plan = _greedy_plan(c, supply, demand).reshape(xi.size, mu.size)
        assert np.min(plan) >= 0.0
        residual = max(
            np.max(np.abs(plan.sum(axis=1) - supply)), np.max(np.abs(plan.sum(axis=0) - demand))
        )
        assert residual <= FEAS_TOL
        assert np.count_nonzero(plan) <= xi.size + mu.size - 1

    def test_greedy_plan_fills_the_largest_products_first(self):
        # cells by increasing cost: (1, 0), (0, 1), (0, 0), (1, 1)
        c = np.array([-1.0, -2.0, -3.0, 0.0])
        plan = _greedy_plan(c, np.array([0.75, 0.25]), np.array([0.5, 0.5]))
        np.testing.assert_array_equal(plan, [0.25, 0.5, 0.25, 0.0])


class TestInvariances:
    def test_translation_covariance(self):
        rng = np.random.RandomState(44)
        mu = random_measure(rng, 4)
        xi = random_measure(rng, 5)
        c = 1.7
        shifted = validate_measure([((x[0] + c,), w) for x, w in xi.atoms])
        r0 = max_correlation(xi, mu).value
        r1 = max_correlation(shifted, mu).value
        assert r1 == pytest.approx(r0 + c * float(mu.mean()[0]), abs=1e-9)

    def test_positive_scaling(self):
        rng = np.random.RandomState(45)
        mu = random_measure(rng, 4)
        xi = random_measure(rng, 5)
        lam = 3.25
        scaled = validate_measure([((lam * x[0],), w) for x, w in xi.atoms])
        assert max_correlation(scaled, mu).value == pytest.approx(
            lam * max_correlation(xi, mu).value, abs=1e-9
        )


class TestGap:
    def test_identical_components_have_zero_gap(self):
        law = validate_joint_law([(((0.0,), (0.0,)), 0.5), (((1.0,), (1.0,)), 0.5)])
        mu = measure_1d([(0.0, 0.5), (1.0, 0.5)])
        rep = comonotonicity_gap(law, mu)
        assert abs(rep.gap) <= 1e-9
        assert rep.comonotone_at()

    def test_antimonotone_gap_is_half(self):
        law = validate_joint_law([(((0.0,), (1.0,)), 0.5), (((1.0,), (0.0,)), 0.5)])
        mu = measure_1d([(0.0, 0.5), (1.0, 0.5)])
        rep = comonotonicity_gap(law, mu)
        assert rep.per_agent == pytest.approx((0.5, 0.5))
        assert rep.rho_total == pytest.approx(0.5)
        assert rep.gap == pytest.approx(0.5, abs=1e-10)
        assert not rep.comonotone_at()

    def test_single_agent_gap_is_exactly_zero(self):
        law = validate_joint_law([(((1.0,),), 0.25), (((4.0,),), 0.75)])
        rep = comonotonicity_gap(law, measure_1d([(0.0, 0.5), (1.0, 0.5)]))
        assert rep.gap == 0.0

    def test_subadditivity_on_random_allocations(self):
        rng = np.random.RandomState(46)
        for _ in range(20):
            n, p = rng.randint(1, 6), rng.randint(1, 4)
            pts = rng.randn(n, p, 1)
            w = rng.rand(n) + 0.1
            w /= w.sum()
            law = validate_joint_law(
                [(tuple(tuple(pts[i, j]) for j in range(p)), w[i]) for i in range(n)]
            )
            mu = random_measure(rng, rng.randint(2, 5))
            assert comonotonicity_gap(law, mu).gap >= -TOL

    def test_gap_invariant_under_translation(self):
        rng = np.random.RandomState(47)
        law = validate_joint_law(
            [(((0.0,), (1.0,)), 0.5), (((2.0,), (0.0,)), 0.5)]
        )
        shifted = validate_joint_law(
            [(((0.0 + 3.0,), (1.0 - 1.0,)), 0.5), (((2.0 + 3.0,), (0.0 - 1.0,)), 0.5)]
        )
        mu = random_measure(rng, 4)
        a = comonotonicity_gap(law, mu)
        b = comonotonicity_gap(shifted, mu)
        assert b.gap == pytest.approx(a.gap, abs=1e-9)

    def test_dimension_guard(self):
        law = validate_joint_law([(((0.0, 0.0),), 1.0)])
        with pytest.raises(DimensionMismatch):
            comonotonicity_gap(law, measure_1d([(0.0, 1.0)]))


class TestDefaultBaseline:
    def test_lattice_shape_and_mass(self):
        mu = default_baseline(2, BallConfig(radius=2.0))
        assert mu.size == 25
        assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(mu.mean(), [0.0, 0.0], atol=1e-12)
        norms = np.linalg.norm(mu.support_array(), axis=1)
        assert norms.max() <= 2.0 + 1e-12

    def test_default_used_when_mu_missing(self):
        law = validate_joint_law([(((0.1,), (0.2,)), 1.0)])
        rep = comonotonicity_gap(law)
        assert abs(rep.gap) <= 1e-9  # constants are always comonotone
