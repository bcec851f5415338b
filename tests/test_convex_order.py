"""Dominance checks: line vs kernel route, certificates, allocations."""

import numpy as np
import pytest

from riskshare.convex_order import (
    allocation_dominates,
    dominates,
    dominates_1d,
    dominates_md,
    is_comonotone_pairwise,
    plan_rows,
    stop_loss,
)
from riskshare.errors import (
    DimensionMismatch,
    InputError,
    NonPositiveWeight,
    NumericalBreakdown,
    SumLawMismatch,
)
from riskshare.measures import dirac, validate_joint_law, validate_measure

TOL = 1e-8


def measure_1d(pairs):
    return validate_measure([((float(x),), float(w)) for x, w in pairs])


def spread_of(m, rng, max_splits=3):
    """Mean-preserving spread: split random atoms symmetrically."""
    atoms = list(m.atoms)
    out = []
    for (x,), w in atoms:
        if rng.rand() < 0.6:
            delta = rng.rand() * 2.0
            out.append(((x - delta,), w / 2))
            out.append(((x + delta,), w / 2))
        else:
            out.append(((x,), w))
    return validate_measure(out)


def spread_md(rng, d):
    """A law on a 0.1-lattice and a mean-preserving spread of it in dimension d.

    Each atom is kept, or split with probability 0.6 into two points on a
    random line through it, weighted so that their mean is the atom.
    """
    n = rng.randint(2, 7)
    x = rng.randint(-3, 4, size=(n, d)) / 10.0
    w = rng.rand(n) + 0.2
    w /= w.sum()
    mu = validate_measure([(tuple(x[i]), float(w[i])) for i in range(n)], dim=d)
    atoms = []
    for pt, wi in mu.atoms:
        if rng.rand() < 0.6:
            delta = rng.randn(d)
            a, b = rng.rand(2) + 0.2
            atoms += [
                (tuple(np.asarray(pt) - a * delta), wi * b / (a + b)),
                (tuple(np.asarray(pt) + b * delta), wi * a / (a + b)),
            ]
        else:
            atoms.append((pt, wi))
    return mu, validate_measure(atoms, dim=d)


class TestStopLoss:
    def test_values(self):
        m = measure_1d([(-1.0, 0.5), (1.0, 0.5)])
        assert stop_loss(m, -2.0) == pytest.approx(2.0)
        assert stop_loss(m, 0.0) == pytest.approx(0.5)
        assert stop_loss(m, 1.0) == 0.0

    def test_needs_dim_one(self):
        with pytest.raises(DimensionMismatch):
            stop_loss(dirac((0.0, 0.0)), 0.0)


class TestDominates1d:
    def test_dirac_dominates_symmetric_pair(self):
        v = dominates_1d(dirac((0.0,)), measure_1d([(-1.0, 0.5), (1.0, 0.5)]))
        assert v.dominates and v.strict

    def test_reverse_fails(self):
        v = dominates_1d(measure_1d([(-1.0, 0.5), (1.0, 0.5)]), dirac((0.0,)))
        assert not v.dominates
        assert v.worst_violation > TOL

    def test_unequal_means_fail(self):
        v = dominates_1d(dirac((0.0,)), dirac((1.0,)))
        assert not v.dominates
        assert v.worst_violation == pytest.approx(1.0)

    def test_wider_symmetric_pair_is_strictly_dominated(self):
        # stop-loss at t in {-2,-1,1,2}: (2,1,0,0) vs (2,1.5,0.5,0)
        mu = measure_1d([(-1.0, 0.5), (1.0, 0.5)])
        nu = measure_1d([(-2.0, 0.5), (2.0, 0.5)])
        v = dominates(mu, nu)
        assert v.dominates and v.strict

    def test_self_dominance_not_strict(self):
        m = measure_1d([(0.0, 0.25), (1.0, 0.75)])
        v = dominates(m, m)
        assert v.dominates and not v.strict

    def test_dim_guard(self):
        with pytest.raises(DimensionMismatch):
            dominates_1d(dirac((0.0, 0.0)), dirac((0.0, 0.0)))


def test_plan_rows_layout():
    # pi_ij is column i * m + j; barycenter rows go by (i, k)
    rng = np.random.RandomState(5)
    X, Y, pi = rng.randn(3, 2), rng.randn(4, 2), rng.rand(3, 4)
    row_sums, col_sums, bary = plan_rows(X, Y)
    np.testing.assert_allclose(row_sums @ pi.ravel(), pi.sum(axis=1))
    np.testing.assert_allclose(col_sums @ pi.ravel(), pi.sum(axis=0))
    np.testing.assert_allclose(bary @ pi.ravel(), (pi @ Y - pi.sum(axis=1)[:, None] * X).ravel())


class TestDominatesMd:
    def test_center_dominates_four_corners(self):
        mu = dirac((0.0, 0.0))
        nu = validate_measure(
            [((sx, sy), 0.25) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)]
        )
        v = dominates_md(mu, nu)
        assert v.dominates and v.strict
        assert v.certificate is not None
        np.testing.assert_allclose(v.certificate.entries, np.full((1, 4), 0.25), atol=1e-8)
        v.certificate.validate(TOL)

    def test_identity_is_dominance_with_valid_coupling(self):
        m = validate_measure([((0.0, 1.0), 0.5), ((2.0, -1.0), 0.5)])
        v = dominates_md(m, m)
        assert v.dominates and not v.strict
        v.certificate.validate(TOL)

    def test_unequal_means_infeasible(self):
        v = dominates_md(dirac((0.0,)), dirac((1.0,)))
        assert not v.dominates
        assert v.certificate is None
        assert v.worst_violation > TOL

    def test_dim_guard(self):
        with pytest.raises(DimensionMismatch):
            dominates_md(dirac((0.0,)), dirac((0.0, 0.0)))

    def test_phase_one_point_with_cancelling_artificials(self):
        # phase 1 ends here with structural basic values down to -0.16 and
        # artificials of -0.062 and +0.045 that cancel in its objective; the
        # kernel read off that point misses its invariants by 0.35
        mu = validate_measure(
            [
                ((-0.30000000000000004, 0.0, 0.30000000000000004), 0.2958333277602416),
                ((-0.1, 0.1, 0.2), 0.2024715511257469),
                ((0.0, 0.2, 0.2), 0.25722694632505905),
                ((0.2, 0.30000000000000004, -0.1), 0.1459752119788568),
                ((0.30000000000000004, 0.30000000000000004, -0.1), 0.09849296281009563),
            ]
        )
        nu = validate_measure(
            [
                ((-1.6973519869338245, 1.1237083070393183, -1.0422233536534362), 0.049246481405047816),
                ((-1.2989409883187653, -0.8616519497593532, 1.1482544064228128), 0.1479166638801208),
                ((-0.1, 0.1, 0.2), 0.2024715511257469),
                ((0.0, 0.2, 0.2), 0.25722694632505905),
                ((0.2, 0.30000000000000004, -0.1), 0.1459752119788568),
                ((0.6989409883187652, 0.8616519497593533, -0.5482544064228126), 0.1479166638801208),
                ((2.2973519869338244, -0.5237083070393181, 0.8422233536534361), 0.049246481405047816),
            ]
        )
        try:
            v = dominates(mu, nu, TOL)
        except NumericalBreakdown as exc:
            assert "27 x 35 program" in str(exc) and "pivots taken" in str(exc)
            return
        if v.dominates:
            v.certificate.validate(TOL)

    def test_random_spreads_carry_valid_certificates(self):
        # d = 2 and 3.  Draw 313 ends phase 1 at a point whose kernel
        # violates its invariants by 1.3, which must not be returned.  A
        # breakdown is the simplex's known failure (ROADMAP item 2).
        rng = np.random.RandomState(0)
        breakdowns = 0
        for trial in range(400):
            mu, nu = spread_md(rng, 2 + trial % 2)
            try:
                v = dominates_md(mu, nu, TOL)
            except NumericalBreakdown:
                breakdowns += 1
                continue
            assert v.dominates, trial  # a spread by construction
            assert v.certificate.max_violation() <= 1e-7, trial
        assert breakdowns <= 4


class TestRouteAgreement:
    """The stop-loss route and the kernel route decide identically in 1D."""

    def test_two_hundred_pairs(self):
        rng = np.random.RandomState(31)
        agree = 0
        positives = 0
        for trial in range(200):
            n = rng.randint(1, 7)
            w = rng.rand(n) + 0.05
            w /= w.sum()
            mu = validate_measure([((float(x),), float(wi)) for x, wi in zip(rng.randn(n) * 2, w)])
            if trial % 2 == 0:
                nu = spread_of(mu, rng)  # dominated by construction
            else:
                m = rng.randint(1, 7)
                wv = rng.rand(m) + 0.05
                wv /= wv.sum()
                xs = rng.randn(m) * 2
                xs += float(mu.mean()[0]) - float(wv @ xs)  # match means
                nu = validate_measure([((float(x),), float(wi)) for x, wi in zip(xs, wv)])
            a = dominates_1d(mu, nu, TOL)
            b = dominates_md(mu, nu, TOL)
            assert a.dominates == b.dominates
            agree += 1
            if a.dominates:
                positives += 1
                # equal means is a postcondition of every positive verdict
                assert abs(mu.mean()[0] - nu.mean()[0]) <= TOL
                b.certificate.validate(1e-7)
        assert agree == 200
        assert positives >= 90  # the spread half must come out positive

    def test_transitive_chains(self):
        rng = np.random.RandomState(32)
        for _ in range(20):
            mu = measure_1d([(float(rng.randn()), 1.0)])
            nu = spread_of(mu, rng)
            rho = spread_of(nu, rng)
            assert dominates(mu, nu).dominates
            assert dominates(nu, rho).dominates
            assert dominates(mu, rho).dominates


class TestAllocationDominance:
    def test_identical_allocations(self):
        g = validate_joint_law([(((0.0,), (0.0,)), 0.5), (((1.0,), (1.0,)), 0.5)])
        v = allocation_dominates(g, g)
        assert v.dominates and not v.strict
        assert len(v.per_agent) == 2

    def test_documented_strict_example(self):
        g = validate_joint_law([(((0.0,), (0.0,)), 0.5), (((1.0,), (1.0,)), 0.5)])
        g0 = validate_joint_law([(((1.0,), (-1.0,)), 0.5), (((0.0,), (2.0,)), 0.5)])
        v = allocation_dominates(g, g0)
        assert v.dominates and v.strict
        assert v.per_agent[0].dominates and not v.per_agent[0].strict
        assert v.per_agent[1].dominates and v.per_agent[1].strict

    def test_sum_law_mismatch(self):
        g = validate_joint_law([(((0.0,), (0.0,)), 1.0)])
        g0 = validate_joint_law([(((1.0,), (1.0,)), 1.0)])
        with pytest.raises(SumLawMismatch):
            allocation_dominates(g, g0)

    def test_shape_mismatch(self):
        g = validate_joint_law([(((0.0,), (0.0,)), 1.0)])
        g0 = validate_joint_law([(((0.0,), (0.0,), (0.0,)), 1.0)])
        with pytest.raises(DimensionMismatch):
            allocation_dominates(g, g0)


class TestComonotone:
    def test_equal_components(self):
        assert is_comonotone_pairwise([((0.0, 0.0), 0.5), ((1.0, 1.0), 0.5)])

    def test_antimonotone_pair(self):
        assert not is_comonotone_pairwise([((0.0, 1.0), 0.5), ((1.0, 0.0), 0.5)])

    def test_constant_component_is_neutral(self):
        assert is_comonotone_pairwise([((5.0, 0.0), 0.5), ((5.0, 9.0), 0.5)])

    def test_joint_law_input(self):
        law = validate_joint_law([(((0.0,), (1.0,)), 0.5), (((1.0,), (0.0,)), 0.5)])
        assert not is_comonotone_pairwise(law)
        law2 = validate_joint_law([(((0.0,), (0.0,)), 0.5), (((1.0,), (2.0,)), 0.5)])
        assert is_comonotone_pairwise(law2)

    def test_zero_weight_states_ignored(self):
        assert is_comonotone_pairwise(
            [((0.0, 1.0), 1.0), ((1.0, 0.0), 0.0)]
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(InputError):
            is_comonotone_pairwise([((0.0, bad), 0.5), ((1.0, 0.0), 0.5)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(NonPositiveWeight):
            is_comonotone_pairwise([((0.0, 1.0), bad), ((1.0, 0.0), 0.5)])

    def test_multivariate_rejected(self):
        law = validate_joint_law([((((0.0, 0.0)), ((0.0, 0.0))), 1.0)])
        with pytest.raises(DimensionMismatch):
            is_comonotone_pairwise(law)

    def test_three_components(self):
        # monotone triple across three states
        assert is_comonotone_pairwise(
            [((0.0, 0.0, 1.0), 0.3), ((1.0, 2.0, 1.0), 0.3), ((2.0, 3.0, 4.0), 0.4)]
        )
        # break one pair only
        assert not is_comonotone_pairwise(
            [((0.0, 0.0, 1.0), 0.3), ((1.0, 2.0, 0.0), 0.3), ((2.0, 3.0, 4.0), 0.4)]
        )
