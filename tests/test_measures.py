"""Canonical measure construction, pushforwards and the JSON wire format."""

import json
import math
import pickle

import numpy as np
import pytest

from riskshare.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InputError,
    NonPositiveWeight,
    WeightSumOutOfTolerance,
)
from riskshare.measures import (
    BALL_TOL,
    MERGE_TOL,
    BallConfig,
    DiscreteMeasure,
    _atom_targets,
    _merge_targets,
    dirac,
    joint_law_from_json,
    joint_law_to_json,
    joint_laws_equal,
    marginal,
    measure_from_json,
    measure_to_json,
    measures_equal,
    require_shares_in_ball,
    sum_pushforward,
    validate_joint_law,
    validate_measure,
)

TOL = 1e-12


class TestValidateMeasure:
    def test_canonical_order_is_lexicographic(self):
        m = validate_measure([((1.0, 0.0), 0.25), ((0.0, 5.0), 0.5), ((0.0, 1.0), 0.25)])
        assert [a[0] for a in m.atoms] == [(0.0, 1.0), (0.0, 5.0), (1.0, 0.0)]

    def test_duplicates_within_tol_merge_and_sum_weights(self):
        m = validate_measure([((0.0,), 0.5), ((1e-13,), 0.25), ((1.0,), 0.25)])
        assert m.size == 2
        assert m.atoms[0][1] == pytest.approx(0.75, abs=TOL)

    def test_distinct_atoms_beyond_tol_stay_separate(self):
        m = validate_measure([((0.0,), 0.5), ((1e-9,), 0.5)])
        assert m.size == 2

    def test_weight_sum_off_by_more_than_tol_raises(self):
        with pytest.raises(WeightSumOutOfTolerance):
            validate_measure([((0.0,), 0.5), ((1.0,), 0.6)])

    def test_tiny_weight_drift_renormalizes(self):
        m = validate_measure([((0.0,), 0.5 + 2e-10), ((1.0,), 0.5)])
        assert m.total_mass() == pytest.approx(1.0, abs=1e-15)

    def test_nonpositive_weight_raises(self):
        with pytest.raises(NonPositiveWeight):
            validate_measure([((0.0,), 0.0), ((1.0,), 1.0)])
        with pytest.raises(NonPositiveWeight):
            validate_measure([((0.0,), -0.5), ((1.0,), 1.5)])

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            validate_measure([((0.0, 0.0), 0.5), ((1.0,), 0.5)])

    def test_joint_law_points_share_one_dimension(self):
        # the first tuple fixes the dimension; no coordinate is dropped
        with pytest.raises(DimensionMismatch):
            validate_joint_law([(((0.0,), (1.0, 2.0)), 1.0)])

    def test_empty_measure_raises(self):
        with pytest.raises(InputError):
            validate_measure([])

    def test_nonfinite_coordinate_raises(self):
        with pytest.raises(InputError):
            validate_measure([((float("nan"),), 1.0)])

    def test_ball_violation_raises(self):
        law = validate_joint_law([(((3.0,),), 1.0)])
        with pytest.raises(InputError):
            require_shares_in_ball(law, BallConfig(radius=2.0))

    def test_ball_respects_center(self):
        law = validate_joint_law([(((3.0,),), 1.0)])
        require_shares_in_ball(law, BallConfig(radius=2.0, center=(2.0,)))
        assert law.size == 1


class TestBallRule:
    """``BallConfig.contains``: |y - c| <= R (1 + BALL_TOL) + MERGE_TOL."""

    def test_center_is_honoured(self):
        assert not BallConfig(radius=2.0).contains((3.0,))
        assert BallConfig(radius=2.0, center=(2.0,)).contains((3.0,))
        assert not BallConfig(radius=2.0, center=(2.0,)).contains((-0.5,))
        with pytest.raises(DimensionMismatch):
            BallConfig(radius=2.0, center=(2.0,)).contains((0.0, 0.0))

    @pytest.mark.parametrize("radius", [1e-15, 2.0, 1e6])
    def test_boundary_holds_on_both_sides(self, radius):
        bound = radius * (1.0 + BALL_TOL) + MERGE_TOL
        ball = BallConfig(radius=radius)
        assert ball.contains((bound,)) and ball.contains((-bound,))
        assert not ball.contains((np.nextafter(bound, np.inf),))
        assert not ball.contains((-np.nextafter(bound, np.inf),))
        # off the axes too, up to the rounding of the distance
        assert ball.contains((0.6 * bound * (1 - 1e-14), 0.8 * bound * (1 - 1e-14)))
        assert not ball.contains((0.6 * bound * (1 + 1e-14), 0.8 * bound * (1 + 1e-14)))

    def test_nan_is_outside(self):
        assert not BallConfig(radius=2.0).contains((math.nan,))
        assert not BallConfig(radius=2.0).contains((0.0, math.nan))
        assert not BallConfig(radius=2.0, center=(1.0,)).contains((math.nan,))


class TestPushforwards:
    def test_marginals_of_product_law(self):
        # Independent coupling of {0 w.p. 1/4, 1 w.p. 3/4} and {2 w.p. 1/2, 5 w.p. 1/2}.
        atoms = []
        for x, wx in [((0.0,), 0.25), ((1.0,), 0.75)]:
            for y, wy in [((2.0,), 0.5), ((5.0,), 0.5)]:
                atoms.append(((x, y), wx * wy))
        law = validate_joint_law(atoms)
        m0 = marginal(law, 0)
        m1 = marginal(law, 1)
        assert measures_equal(m0, validate_measure([((0.0,), 0.25), ((1.0,), 0.75)]))
        assert measures_equal(m1, validate_measure([((2.0,), 0.5), ((5.0,), 0.5)]))

    def test_marginal_index_out_of_range(self):
        law = validate_joint_law([(((0.0,), (0.0,)), 1.0)])
        with pytest.raises(IndexOutOfRange):
            marginal(law, 2)
        with pytest.raises(IndexOutOfRange):
            marginal(law, -1)

    def test_sum_pushforward_two_state(self):
        # (0,0) and (1,1) with equal mass: the sum is {0 w.p. 1/2, 2 w.p. 1/2}.
        law = validate_joint_law([(((0.0,), (0.0,)), 0.5), (((1.0,), (1.0,)), 0.5)])
        s = sum_pushforward(law)
        assert measures_equal(s, validate_measure([((0.0,), 0.5), ((2.0,), 0.5)]))

    def test_sum_pushforward_merges_colliding_sums(self):
        law = validate_joint_law(
            [(((0.0,), (1.0,)), 0.5), (((1.0,), (0.0,)), 0.5)]
        )
        s = sum_pushforward(law)
        assert s.size == 1
        assert s.atoms[0] == ((1.0,), 1.0)

    def test_joint_law_merges_duplicate_tuples(self):
        law = validate_joint_law(
            [(((0.0,), (1.0,)), 0.5), (((0.0,), (1.0 + 1e-14,)), 0.5)]
        )
        assert law.size == 1


#: A 3-agent 2-D law whose sums collide (atoms 0 and 2) and whose agent-0
#: shares collide (atoms 1 and 2), so both pushforwards merge atoms.
CACHED_LAW_ATOMS = [
    (((1.0, 0.0), (0.0, 2.0), (-1.0, 0.5)), 0.3),
    (((0.5, 0.5), (1.0, 1.0), (0.0, 0.0)), 0.3),
    (((0.5, 0.5), (-0.5, 2.0), (0.0, 0.0)), 0.4),
]


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCache:
    """A law computes its pushforwards and arrays once, read-only, and
    what it keeps is invisible to equality, hashing and pickling."""

    def _warm(self, law):
        for i in range(law.agents):
            marginal(law, i).support_array()
            marginal(law, i).weights_array()
        sum_pushforward(law).support_array()
        law.component_array()
        law.weights_array()
        return law

    def test_pushforwards_and_arrays_match_a_fresh_computation(self):
        law = self._warm(validate_joint_law(CACHED_LAW_ATOMS))
        twin = validate_joint_law(CACHED_LAW_ATOMS)
        assert law == twin and law is not twin
        for i in range(law.agents):
            fresh = validate_measure([(tup[i], w) for tup, w in law.atoms], dim=law.dim)
            assert marginal(law, i) == fresh == marginal(twin, i)
            assert marginal(law, i) is marginal(law, i)
            assert _atom_targets(law, i) == tuple(_merge_targets([t[i] for t, _ in law.atoms])[1])
            assert _same_array(marginal(law, i).support_array(), np.array([x for x, _ in fresh.atoms]))
            assert _same_array(marginal(law, i).weights_array(), np.array([w for _, w in fresh.atoms]))
        sums = [tuple(math.fsum(pt[k] for pt in tup) for k in range(law.dim)) for tup, _ in law.atoms]
        fresh_sum = validate_measure(list(zip(sums, [w for _, w in law.atoms])), dim=law.dim)
        assert sum_pushforward(law) == fresh_sum and sum_pushforward(law).size == 2
        assert sum_pushforward(law) is sum_pushforward(law)
        assert _atom_targets(law) == tuple(_merge_targets(sums)[1])
        assert _same_array(sum_pushforward(law).support_array(), np.array([x for x, _ in fresh_sum.atoms]))
        assert _same_array(law.component_array(), np.array([tup for tup, _ in law.atoms]))
        assert _same_array(law.weights_array(), np.array([w for _, w in law.atoms]))
        assert law.component_array() is law.component_array()

    def test_returned_arrays_are_read_only(self):
        law = validate_joint_law(CACHED_LAW_ATOMS)
        m = marginal(law, 1)
        for arr in (law.component_array(), law.weights_array(), m.support_array(), m.weights_array()):
            with pytest.raises(ValueError):
                arr[0] = 7.0
        assert law.component_array()[0, 0, 0] == law.atoms[0][0][0][0]
        assert m.weights_array()[0] == m.atoms[0][1]

    def test_warm_law_equals_hashes_and_pickles_like_a_cold_one(self):
        warm = self._warm(validate_joint_law(CACHED_LAW_ATOMS))
        cold = validate_joint_law(CACHED_LAW_ATOMS)
        assert warm == cold and hash(warm) == hash(cold)
        assert {warm: 1}[cold] == 1
        measure = marginal(warm, 0)
        assert measure == validate_measure([(t[0], w) for t, w in CACHED_LAW_ATOMS])
        assert hash(measure) == hash(marginal(cold, 0))
        for obj in (warm, measure):
            back = pickle.loads(pickle.dumps(obj))
            assert back == obj and hash(back) == hash(obj) and repr(back) == repr(obj)
            assert "_cache" not in back.__dict__
        back = pickle.loads(pickle.dumps(warm))
        assert marginal(back, 2) == marginal(cold, 2)
        assert _same_array(back.component_array(), cold.component_array())
        with pytest.raises(ValueError):
            back.component_array()[0, 0, 0] = 7.0


class TestProperties:
    """Randomized invariants with a fixed seed."""

    def test_mass_and_mean_conservation(self):
        rng = np.random.RandomState(11)
        for _ in range(25):
            n, p, d = rng.randint(1, 8), rng.randint(1, 4), rng.randint(1, 3)
            pts = rng.randn(n, p, d)
            w = rng.rand(n) + 0.1
            w /= w.sum()
            law = validate_joint_law(
                [(tuple(tuple(pts[i, j]) for j in range(p)), w[i]) for i in range(n)]
            )
            s = sum_pushforward(law)
            assert s.total_mass() == pytest.approx(1.0, abs=1e-12)
            # mean of the sum equals the sum of marginal means
            lhs = s.mean()
            rhs = sum(marginal(law, j).mean() for j in range(p))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_input_order_does_not_matter(self):
        rng = np.random.RandomState(12)
        for _ in range(10):
            n = rng.randint(2, 9)
            pts = rng.randn(n, 2)
            w = rng.rand(n) + 0.1
            w /= w.sum()
            atoms = [(tuple(pts[i]), w[i]) for i in range(n)]
            a = validate_measure(atoms)
            perm = rng.permutation(n)
            b = validate_measure([atoms[i] for i in perm])
            assert a == b

    def test_validation_is_idempotent(self):
        rng = np.random.RandomState(13)
        for _ in range(10):
            n = rng.randint(1, 7)
            atoms = [(tuple(rng.randn(3)), 1.0 / n) for _ in range(n)]
            a = validate_measure(atoms)
            b = validate_measure(a.atoms)
            assert a == b


class TestJson:
    def test_measure_round_trip_is_exact(self):
        m = validate_measure([((1 / 3, 0.1), 2 / 3), ((0.7, -1e-17), 1 / 3)])
        again = measure_from_json(measure_to_json(m))
        assert again == m

    def test_joint_law_round_trip_is_exact(self):
        law = validate_joint_law(
            [(((1 / 7,), (2 / 7,)), 0.5), (((3 / 7,), (4 / 7,)), 0.5)]
        )
        again = joint_law_from_json(joint_law_to_json(law))
        assert joint_laws_equal(again, law, tol=0.0)
        assert again == law

    def test_nan_and_infinity_rejected(self):
        with pytest.raises(InputError):
            measure_from_json('{"dim": 1, "atoms": [{"x": [NaN], "w": 1.0}]}')
        with pytest.raises(InputError):
            measure_from_json('{"dim": 1, "atoms": [{"x": [Infinity], "w": 1.0}]}')
        # huge literals that overflow to inf are also rejected
        with pytest.raises(InputError):
            measure_from_json('{"dim": 1, "atoms": [{"x": [1e999], "w": 1.0}]}')

    def test_malformed_object_raises_input_error(self):
        with pytest.raises(InputError):
            measure_from_json('{"atoms": [{"x": [0.0], "w": 1.0}]}')

    def test_schema_shape(self):
        obj = json.loads(measure_to_json(dirac((1.0, 2.0))))
        assert obj == {"dim": 2, "atoms": [{"x": [1.0, 2.0], "w": 1.0}]}


class TestHelpers:
    def test_mean_and_arrays(self):
        m = validate_measure([((0.0, 0.0), 0.25), ((4.0, 8.0), 0.75)])
        np.testing.assert_allclose(m.mean(), [3.0, 6.0])
        assert m.support_array().shape == (2, 2)
        assert m.weights_array().sum() == pytest.approx(1.0)

    def test_dirac(self):
        m = dirac((2.5,))
        assert isinstance(m, DiscreteMeasure)
        assert m.atoms == (((2.5,), 1.0),)

    def test_measures_equal_tolerance(self):
        a = validate_measure([((0.0,), 0.5), ((1.0,), 0.5)])
        b = validate_measure([((1e-10,), 0.5), ((1.0,), 0.5)])
        assert measures_equal(a, b, tol=1e-8)
        assert not measures_equal(a, b, tol=1e-12)
