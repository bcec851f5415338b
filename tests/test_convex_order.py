"""Dominance checks: line vs kernel route, certificates, allocations."""

import numpy as np
import pytest

from riskshare.convex_order import (
    allocation_dominates,
    dominates,
    dominates_1d,
    dominates_md,
    is_comonotone_pairwise,
    stop_loss,
)
from riskshare.errors import DimensionMismatch, SumLawMismatch
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
