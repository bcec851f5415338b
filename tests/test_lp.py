"""Two-phase simplex: certified outcomes, anti-cycling, oracle comparison."""

import numpy as np
import pytest
from scipy.optimize import linprog

from riskshare.errors import InputError, NumericalBreakdown
from riskshare.lp import (
    COMP_SLACK_TOL,
    FEAS_TOL,
    GAP_TOL,
    LinearProgram,
    LPOutcome,
    LPStatus,
    feasible,
    solve,
)

VALUE_TOL = 1e-6


def assert_certified(lp: LinearProgram, out: LPOutcome) -> None:
    """Re-check the optimality certificate from the outside."""
    assert out.status is LPStatus.OPTIMAL
    x, y = out.solution, out.duals
    assert x is not None and y is not None
    assert np.min(x, initial=0.0) >= 0.0
    assert np.max(np.abs(lp.A @ x - lp.b), initial=0.0) <= FEAS_TOL
    z = lp.c - lp.A.T @ y
    assert np.max(np.abs(x * z), initial=0.0) <= COMP_SLACK_TOL
    assert abs(lp.c @ x - y @ lp.b) <= GAP_TOL * (1.0 + abs(out.value))


class TestSolveBasics:
    def test_one_constraint_optimum(self):
        # minimize -x subject to x + s = 1
        lp = LinearProgram(c=[-1.0, 0.0], A=[[1.0, 1.0]], b=[1.0])
        out = solve(lp)
        assert out.status is LPStatus.OPTIMAL
        assert out.value == pytest.approx(-1.0, abs=1e-10)
        np.testing.assert_allclose(out.solution, [1.0, 0.0], atol=1e-10)
        assert_certified(lp, out)

    def test_inconsistent_rows_are_infeasible(self):
        lp = LinearProgram(c=[0.0], A=[[1.0], [1.0]], b=[1.0, 2.0])
        out = solve(lp)
        assert out.status is LPStatus.INFEASIBLE
        assert out.value > FEAS_TOL
        assert out.solution is None

    def test_unbounded(self):
        # minimize -x subject to x - s = 1
        lp = LinearProgram(c=[-1.0, 0.0], A=[[1.0, -1.0]], b=[1.0])
        out = solve(lp)
        assert out.status is LPStatus.UNBOUNDED

    def test_redundant_rows_are_tolerated(self):
        # same row three times; duals keep the original length
        lp = LinearProgram(
            c=[1.0, 2.0],
            A=[[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
            b=[1.0, 1.0, 1.0],
        )
        out = solve(lp)
        assert out.status is LPStatus.OPTIMAL
        assert out.value == pytest.approx(1.0, abs=1e-9)
        assert out.duals.shape == (3,)
        assert_certified(lp, out)

    def test_negative_rhs_rows_are_handled(self):
        # minimize x1 + x2 subject to -x1 - x2 = -1 (flipped internally)
        lp = LinearProgram(c=[1.0, 1.0], A=[[-1.0, -1.0]], b=[-1.0])
        out = solve(lp)
        assert out.value == pytest.approx(1.0, abs=1e-9)
        assert_certified(lp, out)

    def test_zero_rows_zero_rhs_dropped(self):
        lp = LinearProgram(c=[1.0], A=[[1.0], [0.0]], b=[1.0, 0.0])
        out = solve(lp)
        assert out.status is LPStatus.OPTIMAL
        assert out.value == pytest.approx(1.0, abs=1e-9)
        assert_certified(lp, out)


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            LinearProgram(c=[1.0, 2.0], A=[[1.0]], b=[1.0])

    def test_nonfinite_entries(self):
        with pytest.raises(InputError):
            LinearProgram(c=[np.nan], A=[[1.0]], b=[1.0])
        with pytest.raises(InputError):
            LinearProgram(c=[1.0], A=[[np.inf]], b=[1.0])


class TestAntiCycling:
    def test_classic_cycling_instance_terminates(self):
        # Beale's degenerate instance; Dantzig with naive tie-breaking cycles
        # on it, so finishing at all exercises the anti-cycling switch.
        c = np.array([0.0, 0.0, 0.0, -0.75, 150.0, -0.02, 6.0])
        A = np.array(
            [
                [1.0, 0.0, 0.0, 0.25, -60.0, -0.04, 9.0],
                [0.0, 1.0, 0.0, 0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
            ]
        )
        b = np.array([0.0, 0.0, 1.0])
        lp = LinearProgram(c=c, A=A, b=b)
        out = solve(lp)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert out.status is LPStatus.OPTIMAL
        assert out.value == pytest.approx(ref.fun, abs=VALUE_TOL)
        assert_certified(lp, out)


class TestDeterminismAndScaling:
    def _lp(self):
        rng = np.random.RandomState(7)
        A = rng.randn(4, 9)
        x0 = np.abs(rng.randn(9))
        b = A @ x0
        c = rng.randn(9)
        # make it bounded: add a total-mass row
        A = np.vstack([A, np.ones(9)])
        b = np.append(b, x0.sum())
        return LinearProgram(c=c, A=A, b=b)

    def test_identical_inputs_identical_outputs(self):
        out1 = solve(self._lp())
        out2 = solve(self._lp())
        assert out1.pivots == out2.pivots
        assert out1.value == out2.value
        np.testing.assert_array_equal(out1.solution, out2.solution)
        np.testing.assert_array_equal(out1.duals, out2.duals)

    def test_objective_scaling_scales_value_only(self):
        lp = self._lp()
        out = solve(lp)
        scaled = LinearProgram(c=lp.c * 1e3, A=lp.A, b=lp.b)
        out_s = solve(scaled)
        assert out_s.value == pytest.approx(1e3 * out.value, rel=1e-10)
        np.testing.assert_array_equal(out.solution, out_s.solution)


class TestAgainstReferenceSolver:
    def test_random_instances_match_highs(self):
        rng = np.random.RandomState(21)
        optimal_seen = unbounded_seen = 0
        for _ in range(40):
            m = rng.randint(1, 6)
            n = m + rng.randint(1, 9)
            A = np.round(rng.randn(m, n), 3)
            x0 = np.abs(np.round(rng.randn(n), 3))
            b = A @ x0
            c = np.round(rng.randn(n), 3)
            lp = LinearProgram(c=c, A=A, b=b)
            ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
            out = solve(lp)
            if ref.status == 3:
                assert out.status is LPStatus.UNBOUNDED
                unbounded_seen += 1
            elif ref.status == 0:
                assert out.status is LPStatus.OPTIMAL
                assert out.value == pytest.approx(ref.fun, abs=VALUE_TOL * (1 + abs(ref.fun)))
                assert_certified(lp, out)
                optimal_seen += 1
        # the sample should exercise both classifications
        assert optimal_seen >= 10
        assert unbounded_seen >= 3

    def test_random_feasibility_instances(self):
        rng = np.random.RandomState(22)
        for _ in range(20):
            m = rng.randint(1, 5)
            n = m + rng.randint(1, 7)
            A = np.round(rng.randn(m, n), 3)
            if rng.rand() < 0.5:
                b = A @ np.abs(np.round(rng.randn(n), 3))
                expect_feasible = True
            else:
                b = rng.randn(m) * 100.0
                ref = linprog(np.zeros(n), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
                expect_feasible = ref.status == 0
            out = feasible(A, b)
            if expect_feasible:
                assert out.status is LPStatus.OPTIMAL
                assert np.max(np.abs(A @ out.solution - b)) <= 1e-7
            else:
                assert out.status is LPStatus.INFEASIBLE


class TestFeasibilityMode:
    def test_mean_preserving_split_system(self):
        # one source atom at 0 coupled to targets -1 and 1 with equal mass,
        # plus the barycenter row sum_j pi_j * y_j = 0
        A = np.array([[1.0, 1.0], [-1.0, 1.0]])
        b = np.array([1.0, 0.0])
        out = feasible(A, b)
        assert out.status is LPStatus.OPTIMAL
        assert out.value <= FEAS_TOL
        np.testing.assert_allclose(out.solution, [0.5, 0.5], atol=1e-8)

    def test_unequal_means_infeasible(self):
        # targets -1 and 2 with fixed masses 0.5/0.5 cannot average to 0
        A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 2.0]])
        b = np.array([0.5, 0.5, 0.0])
        out = feasible(A, b)
        assert out.status is LPStatus.INFEASIBLE
        assert out.value > FEAS_TOL

    def test_identity_coupling(self):
        # couple {0 w.p. .5, 1 w.p. .5} to itself: row sums and column sums
        A = np.array(
            [
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
                [1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 1.0],
            ]
        )
        b = np.array([0.5, 0.5, 0.5, 0.5])
        out = feasible(A, b)
        assert out.status is LPStatus.OPTIMAL
        assert np.max(np.abs(A @ out.solution - b)) <= 1e-8


class TestBreakdownReport:
    """Every NumericalBreakdown names the program's size and the pivots taken."""

    # phase 1 takes 2 pivots and phase 2 one more
    A = np.array([[1.0, 2.0, 1.0, 0.0], [3.0, 1.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    c = np.array([0.0, -1.0, 0.0, 0.0])

    @staticmethod
    def _inverse_failing_at(monkeypatch, k):
        """Make the k-th call of ``np.linalg.inv`` raise; count the calls."""
        real, calls = np.linalg.inv, []

        def inv(B):
            calls.append(None)
            if len(calls) == k:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(B)

        monkeypatch.setattr(np.linalg, "inv", inv)
        return calls

    @pytest.mark.parametrize("mode", ["solve", "feasible"])
    def test_first_and_last_basis(self, mode, monkeypatch):
        run = {
            "solve": lambda: solve(LinearProgram(c=self.c, A=self.A, b=self.b)),
            "feasible": lambda: feasible(self.A, self.b),
        }[mode]
        calls = self._inverse_failing_at(monkeypatch, 0)
        clean = run()
        assert clean.pivots == (3 if mode == "solve" else 2)
        for k, pivots in ((1, 0), (len(calls), clean.pivots)):
            self._inverse_failing_at(monkeypatch, k)
            with pytest.raises(NumericalBreakdown) as info:
                run()
            assert str(info.value) == (
                f"singular working basis: Singular matrix (2 x 4 program, {pivots} pivots taken)"
            )
