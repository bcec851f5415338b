"""Two-phase simplex: certified outcomes, anti-cycling, oracle comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import riskshare.lp
from riskshare.errors import InputError, NumericalBreakdown
from riskshare.improve import build_improvement_problem, build_split_grid
from riskshare.lp import (
    CERTIFICATE_TOL,
    FEAS_TOL,
    OPT_TOL,
    PIVOT_TOL,
    REFACTOR_INTERVAL,
    LinearProgram,
    LPOutcome,
    LPStatus,
    _Columns,
    _pivot,
    feasible,
    solve,
)
from riskshare.measures import BallConfig, validate_joint_law

VALUE_TOL = 1e-6


def assert_certified(lp: LinearProgram, out: LPOutcome) -> None:
    """Re-check the optimality certificate from the outside."""
    assert out.status is LPStatus.OPTIMAL
    x, y = out.solution, out.duals
    assert x is not None and y is not None
    assert np.min(x, initial=0.0) >= 0.0
    assert np.max(np.abs(lp.A @ x - lp.b), initial=0.0) <= FEAS_TOL
    z = lp.c - lp.A.T @ y
    assert np.max(np.abs(x * z), initial=0.0) <= CERTIFICATE_TOL
    assert abs(lp.c @ x - y @ lp.b) <= CERTIFICATE_TOL * (1.0 + abs(out.value))


def assert_matches_highs(lp: LinearProgram, out: LPOutcome) -> None:
    ref = linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert out.value == pytest.approx(ref.fun, abs=VALUE_TOL * (1 + abs(ref.fun)))
    assert_certified(lp, out)


def transport(supply, demand, cost) -> LinearProgram:
    """Transportation program: row sums ``supply``, column sums ``demand``.

    The rows always sum to the same total, so one of them is redundant.
    """
    n, k = cost.shape
    A = np.zeros((n + k, n * k))
    for i in range(n):
        A[i, i * k : (i + 1) * k] = 1.0
    for j in range(k):
        A[n + j, j::k] = 1.0
    return LinearProgram(c=cost.ravel(), A=A, b=np.concatenate([supply, demand]))


def assignment(n: int, seed: int) -> LinearProgram:
    """Assignment program with small integer costs: highly degenerate."""
    cost = np.random.RandomState(seed).randint(0, 10, size=(n, n)).astype(float)
    return transport(np.ones(n), np.ones(n), cost)


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


class TestStructuralZeros:
    """Programs whose zeros are structural: no rows, empty columns or rows."""

    def test_no_rows(self):
        lp = LinearProgram(c=[1.0, 2.0], A=np.zeros((0, 2)), b=np.zeros(0))
        out = solve(lp)
        assert out.status is LPStatus.OPTIMAL
        assert out.value == 0.0
        np.testing.assert_array_equal(out.solution, [0.0, 0.0])
        assert out.duals.shape == (0,)
        assert out.pivots == 0

    def test_no_rows_negative_cost_is_unbounded(self):
        lp = LinearProgram(c=[1.0, -2.0], A=np.zeros((0, 2)), b=np.zeros(0))
        assert solve(lp).status is LPStatus.UNBOUNDED

    def test_empty_column_with_negative_cost_is_unbounded(self):
        lp = LinearProgram(c=[1.0, -1.0], A=[[1.0, 0.0]], b=[1.0])
        assert solve(lp).status is LPStatus.UNBOUNDED

    def test_empty_column_with_positive_cost_stays_at_zero(self):
        lp = LinearProgram(c=[1.0, 3.0], A=[[1.0, 0.0]], b=[1.0])
        out = solve(lp)
        assert out.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(out.solution, [1.0, 0.0])
        assert_certified(lp, out)

    def test_zero_row_with_nonzero_rhs_is_infeasible(self):
        lp = LinearProgram(c=[1.0, 1.0], A=[[1.0, 1.0], [0.0, 0.0]], b=[1.0, 2.0])
        out = solve(lp)
        assert out.status is LPStatus.INFEASIBLE
        assert out.value == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_array_equal(out.duals, [0.0, 1.0])

    def test_duplicated_rows_get_zero_duals(self):
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        lp = LinearProgram(c=[1.0, 2.0, 0.5], A=np.vstack([A, A]), b=np.ones(4))
        out = solve(lp)
        assert out.value == pytest.approx(1.5, abs=1e-12)
        np.testing.assert_array_equal(out.duals[2:], [0.0, 0.0])
        assert_matches_highs(lp, out)


class TestCompressedColumns:
    """The sparse kernels against the dense products they replace."""

    def _data(self):
        rng = np.random.RandomState(4)
        A = np.where(rng.rand(12, 30) < 0.2, rng.randn(12, 30), 0.0)
        A[:, [0, 7, 29]] = 0.0  # empty columns, the last one included
        A[5] = 0.0
        return A, rng.randn(12, 12), rng.randn(12)

    def test_products_match_dense(self):
        A, invB, y = self._data()
        cols = _Columns(A)
        # the compressed copy is of the system [A | I]
        system = np.hstack([A, np.eye(12)])
        # the sums run over the nonzeros in another order: equal to rounding
        np.testing.assert_allclose(cols.row_times(y), y @ system, rtol=0, atol=1e-14)
        for j in range(system.shape[1]):
            np.testing.assert_allclose(
                cols.ftran(invB, j), invB @ system[:, j], rtol=0, atol=1e-14
            )

    def test_pivot_touches_only_nonzero_rows(self):
        A, invB, _ = self._data()
        d = invB @ A[:, 3]
        d[[1, 4, 8]] = 0.0
        dense = invB.copy()
        row = dense[2] / d[2]
        dense -= np.outer(d, row)
        dense[2] = row
        _pivot(invB, d, 2)
        # subtracting 0 * row changes nothing, so the results are identical
        np.testing.assert_array_equal(invB, dense)

    def test_pivot_touches_only_the_nonzero_block(self):
        # a sparse inverse whose pivot row has zeros: the update leaves every
        # entry outside (rows with d != 0) x (columns with row != 0) as it
        # was, bit for bit, and equals the dense update inside that block.
        # The zeros carry both signs, and the dense update turns some -0.0
        # into 0.0 (-0.0 - -0.0), so only an update of the block alone passes
        rng = np.random.RandomState(9)
        for _ in range(50):
            m = rng.randint(2, 30)
            zeros = np.copysign(0.0, rng.randn(m, m))
            invB = np.where(rng.rand(m, m) < 0.2, rng.randn(m, m), zeros)
            d = np.where(rng.rand(m) < 0.3, rng.randn(m), 0.0)
            r = rng.randint(m)
            d[r] = np.copysign(1.0 + rng.rand(), rng.randn())
            invB[r, rng.rand(m) < 0.5] = 0.0
            before = invB.copy()
            row = before[r] / d[r]
            dense = before - np.outer(d, row)
            dense[r] = row
            _pivot(invB, d, r)
            block = np.outer(d != 0, row != 0)
            block[r] = True  # the pivot row is replaced whole
            assert np.array_equal(invB.view(np.int64)[~block], before.view(np.int64)[~block])
            np.testing.assert_array_equal(invB[block], dense[block])


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            LinearProgram(c=[1.0, 2.0], A=[[1.0]], b=[1.0])

    def test_nonfinite_entries(self):
        with pytest.raises(InputError):
            LinearProgram(c=[np.nan], A=[[1.0]], b=[1.0])
        with pytest.raises(InputError):
            LinearProgram(c=[1.0], A=[[np.inf]], b=[1.0])

    @pytest.mark.parametrize("A", [[1.0, 2.0], 1.0], ids=["1-d", "0-d"])
    def test_feasibility_of_a_matrix_that_is_not_2d(self, A):
        with pytest.raises(InputError, match="2-d"):
            feasible(A, [1.0])


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

    @pytest.mark.parametrize("start", [None, np.eye(7)[6]], ids=["cold", "started"])
    def test_chvatal_instance_needs_blands_rule(self, start):
        # Chvátal's cycling example.  Dantzig's rule with this solver's
        # tie-breaking cycles on it until the iteration limit; the switch to
        # Bland's rule comes after 21 pivots cold (20 from the slack basis)
        # and reaches HiGHS's optimum -1.
        c = np.array([-10.0, 57.0, 9.0, 24.0, 0.0, 0.0, 0.0])
        A = np.array(
            [
                [0.5, -5.5, -2.5, 9.0, 1.0, 0.0, 0.0],
                [0.5, -1.5, -0.5, 1.0, 0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            ]
        )
        lp = LinearProgram(c=c, A=A, b=[0.0, 0.0, 1.0])
        out = solve(lp, start=start)
        assert out.value == pytest.approx(-1.0, abs=1e-12)
        assert_matches_highs(lp, out)


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

    @pytest.mark.parametrize("flip", [False, True])
    def test_solve_writes_into_no_program_array(self, flip):
        # with b >= 0 the solver works on the program's own A and b, not on
        # signed copies; read-only arrays prove that nothing writes into them
        lp = self._lp()
        signs = np.where(lp.b < 0, -1.0, 1.0)
        A, b = lp.A * signs[:, None], lp.b * signs
        if flip:  # a negative entry of b: the solver signs a copy
            A[0], b[0] = -A[0], -b[0]
        assert (b < 0).any() == flip
        for arr in (A, b):
            arr.flags.writeable = False
        assert solve(LinearProgram(c=lp.c, A=A, b=b)).status is LPStatus.OPTIMAL
        assert feasible(A, b).status is LPStatus.OPTIMAL

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


def highs_status(lp: LinearProgram) -> tuple[LPStatus, float]:
    """HiGHS's verdict, in two solves so "infeasible or unbounded" never comes up."""
    feas = linprog(np.zeros(lp.n_vars), A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
    assert feas.status in (0, 2)
    if feas.status == 2:
        return LPStatus.INFEASIBLE, np.nan
    ref = linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
    assert ref.status in (0, 3)
    return (LPStatus.OPTIMAL, ref.fun) if ref.status == 0 else (LPStatus.UNBOUNDED, -np.inf)


def sparse_program(m, n, density, seed, zero_cols, zero_rows, duplicates, feasible_rhs):
    """A sparse standard-form program with the structure the solver must keep.

    Two-decimal entries at the given density; each column, and each row,
    is zeroed with probability ``zero_cols`` (``zero_rows``); ``duplicates``
    rows are overwritten by copies of others.  The right-hand side is
    ``A x0`` for a sparse ``x0 >= 0`` when ``feasible_rhs``, else drawn
    freely (often infeasible); both give negative entries of ``b``.
    """
    rng = np.random.default_rng(seed)
    A = _sparse_matrix(rng, m, n, density, zero_cols, zero_rows, duplicates)
    if feasible_rhs:
        b = A @ _sparse_point(rng, n)
    else:
        b = np.round(rng.normal(size=m), 2)
    c = np.round(rng.normal(size=n), 2)
    return LinearProgram(c=c, A=A, b=b)


def _sparse_matrix(rng, m, n, density, zero_cols, zero_rows, duplicates):
    A = np.where(rng.random((m, n)) < density, np.round(rng.normal(size=(m, n)), 2), 0.0)
    A[:, rng.random(n) < zero_cols] = 0.0
    A[rng.random(m) < zero_rows] = 0.0
    for _ in range(duplicates):
        i, k = rng.integers(m, size=2)
        A[i] = A[k]
    return A


def _sparse_point(rng, n):
    return np.where(rng.random(n) < 0.5, np.round(rng.random(n), 2), 0.0)


def started_program(m, n, density, seed, zero_cols, zero_rows, duplicates):
    """``sparse_program`` with ``b = A x0``, returned with its ``x0``.

    About half the columns carry weight in ``x0``, so with more columns than
    rows its support is often dependent and must be purified.
    """
    rng = np.random.default_rng(seed)
    A = _sparse_matrix(rng, m, n, density, zero_cols, zero_rows, duplicates)
    x0 = _sparse_point(rng, n)
    c = np.round(rng.normal(size=n), 2)
    return LinearProgram(c=c, A=A, b=A @ x0), x0


sparse_programs = st.builds(
    sparse_program,
    m=st.integers(1, 40),
    n=st.integers(1, 80),
    density=st.floats(0.02, 0.3),
    seed=st.integers(0, 2**32 - 1),
    zero_cols=st.sampled_from([0.0, 0.1]),
    zero_rows=st.sampled_from([0.0, 0.1]),
    duplicates=st.integers(0, 3),
    feasible_rhs=st.booleans(),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sparse_programs)
def test_sparse_programs_match_highs(lp):
    status, value = highs_status(lp)
    out = solve(lp)
    assert out.status is status
    if status is LPStatus.OPTIMAL:
        assert out.value == pytest.approx(value, abs=VALUE_TOL * (1 + abs(value)))
        assert_certified(lp, out)


started_programs = st.builds(
    started_program,
    m=st.integers(1, 40),
    n=st.integers(1, 80),
    density=st.floats(0.02, 0.3),
    seed=st.integers(0, 2**32 - 1),
    zero_cols=st.sampled_from([0.0, 0.1]),
    zero_rows=st.sampled_from([0.0, 0.1]),
    duplicates=st.integers(0, 3),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(started_programs)
def test_started_programs_match_cold_start_and_highs(case):
    lp, x0 = case
    status, value = highs_status(lp)
    out = solve(lp, start=x0)
    assert out.status is status
    if status is LPStatus.OPTIMAL:
        assert out.value == pytest.approx(value, abs=VALUE_TOL * (1 + abs(value)))
        assert_certified(lp, out)
        assert out.value == pytest.approx(solve(lp).value, abs=VALUE_TOL * (1 + abs(value)))


class TestStart:
    """A feasible start replaces the all-artificial basis of phase 1."""

    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 0.0, 1.0]])
    b = np.array([2.0, 0.0])
    c = np.array([1.0, 2.0, 0.0, -1.0])

    @pytest.mark.parametrize(
        "A, b, c, start",
        [
            # all four columns carry weight on two rows, so two depend on
            # the others
            (A, b, c, [0.5, 0.75, 0.75, 0.25]),
            # a support of one column, with a row left over
            (A, b, c, [0.0, 0.0, 2.0, 0.0]),
            # the second column is -2 times the first: left out, its weight
            # would make the first one's basic value -1.5
            ([[1.0, -2.0]], [-1.5], [1.0, 1.0], [0.5, 1.0]),
        ],
        ids=["dependent-support", "small-support", "purified-swap"],
    )
    def test_phase_two_starts_at_a_feasible_basis(self, A, b, c, start, monkeypatch):
        starts = []
        iterations = riskshare.lp._simplex_iterations

        def recorded(A, b, c, basis, *args):
            starts.append(np.linalg.solve(riskshare.lp._basis_matrix(A, basis), b))
            return iterations(A, b, c, basis, *args)

        monkeypatch.setattr(riskshare.lp, "_simplex_iterations", recorded)
        lp = LinearProgram(c=c, A=A, b=b)
        out = solve(lp, start=start)
        # phase 1 ran no iterations, and phase 2 started at nonnegative values
        assert len(starts) == 1
        assert np.min(starts[0]) >= -1e-12
        assert_matches_highs(lp, out)

    @pytest.mark.parametrize(
        "start, message",
        [
            ([1.0, 1.0, 0.0, 0.1], "misses A x = b"),
            ([2.0, 0.0, 0.0, -2.0], "negative entry"),
            ([1.0, 1.0, 0.0], "has shape"),
            ([[1.0, 1.0, 0.0, 0.0]], "has shape"),
            ([1.0, np.nan, 0.0, 0.0], "non-finite"),
            (["a", 1.0, 0.0, 0.0], "not a vector"),
        ],
    )
    def test_infeasible_start_is_an_input_error(self, start, message):
        lp = LinearProgram(c=self.c, A=self.A, b=self.b)
        with pytest.raises(InputError, match=message):
            solve(lp, start=start)

    def test_start_within_feas_tol_is_accepted(self):
        lp = LinearProgram(c=self.c, A=self.A, b=self.b)
        out = solve(lp, start=[1.0 + 0.5 * FEAS_TOL, 1.0, 0.0, 0.0])
        assert_matches_highs(lp, out)

    def test_redundant_row_the_support_misses_is_dropped(self):
        # the start's two columns take the two independent rows; the copy
        # of the first row keeps its artificial, fixed at 0, through phase 2,
        # because no column has an entry on that row of the tableau
        A = np.vstack([self.A, self.A[0]])
        lp = LinearProgram(c=self.c, A=A, b=np.append(self.b, 2.0))
        out = solve(lp, start=[1.0, 1.0, 0.0, 0.0])
        assert out.duals.shape == (3,)
        assert_matches_highs(lp, out)

    def test_artificial_leaves_on_a_negative_entry(self):
        # the start's column covers the first row, so the second keeps its
        # artificial, at 0.  The first column to enter, the third, has entry
        # -1 on that row: the artificial blocks it at step 0 and leaves.
        # Were that row left out of the ratio test, the third column would
        # take the first row at step 1 and lift the artificial to 1.
        lp = LinearProgram(
            c=np.array([0.0, 0.5, -1.0]),
            A=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]]),
            b=np.array([1.0, 0.0]),
        )
        out = solve(lp, start=[1.0, 0.0, 0.0])
        assert_matches_highs(lp, out)
        np.testing.assert_allclose(out.solution, [0.0, 1.0, 1.0])
        assert out.pivots == 2


def test_near_zero_pivot_entry():
    # A degenerate, unbounded program with two redundant rows.  With those
    # rows dropped before phase 2, phase 2 pivoted on an entry of about
    # 3e-11, just above PIVOT_TOL and zero up to rounding, and the next
    # refactorisation found the basis singular.
    lp = sparse_program(33, 49, 0.09773584063847204, 1782441655, 0.0, 0.0, 2, True)
    assert highs_status(lp) == (LPStatus.UNBOUNDED, -np.inf)
    assert solve(lp).status is LPStatus.UNBOUNDED


class TestPastRefactorInterval:
    """Programs long enough that the basis inverse is refactorised mid-run."""

    @pytest.mark.parametrize("n, seed", [(30, 0), (24, 1)])
    def test_assignment_matches_highs(self, n, seed):
        lp = assignment(n, seed)
        out = solve(lp)
        assert out.pivots >= 3 * REFACTOR_INTERVAL
        assert_matches_highs(lp, out)

    def test_degenerate_transport_matches_highs(self):
        rng = np.random.RandomState(3)
        supply = rng.randint(1, 4, size=20).astype(float)
        demand = np.full(25, supply.sum() / 25)
        lp = transport(supply, demand, rng.randint(0, 4, size=(20, 25)).astype(float))
        out = solve(lp)
        assert out.pivots >= 2 * REFACTOR_INTERVAL
        assert_matches_highs(lp, out)

    @pytest.mark.parametrize(
        "atoms, weights, h",
        [
            ([((2.0,), (-2.0,)), ((-2.0,), (1.0,)), ((0.0,), (2.0,))], (0.25, 0.35, 0.4), 0.0625),
            ([((-2.0,), (-2.0,)), ((0.0,), (0.0,)), ((2.0,), (2.0,))], (0.3, 0.3, 0.4), 0.0625),
        ],
        ids=["improvable", "efficient"],
    )
    def test_improvement_program_matches_highs(self, atoms, weights, h):
        # marginals that reach ±2 keep most candidate points inside the
        # hull of their supports, so the programs (about 265 x 450 to 530)
        # still pivot past the interval three times
        gamma0 = validate_joint_law(list(zip(atoms, weights)))
        grid = build_split_grid(gamma0, h, BallConfig(radius=2.5))
        lp = build_improvement_problem(gamma0, grid, [1.0, 1.0]).program
        out = solve(lp)
        assert out.pivots >= 3 * REFACTOR_INTERVAL
        assert_matches_highs(lp, out)

    def test_crash_refactorises_between_support_columns(self, monkeypatch):
        # improvable-1d at h = 1/4 (57 x 97): the baseline's 9 support
        # columns enter the start basis with a fresh inverse every 2 pivots
        gamma0 = validate_joint_law(list(zip(*GRID_LADDER[0][:2])))
        problem = build_improvement_problem(
            gamma0, build_split_grid(gamma0, 0.25, BallConfig(radius=2.5)), [1.0, 1.0]
        )
        assert problem.program.A.shape == (57, 97)
        assert np.count_nonzero(problem.baseline) == 9
        default = solve(problem.program, start=problem.baseline)
        inverse, reasons = riskshare.lp._inverse, []

        def recorded(B, why, pivots):
            reasons.append(why)
            return inverse(B, why, pivots)

        monkeypatch.setattr(riskshare.lp, "_inverse", recorded)
        monkeypatch.setattr(riskshare.lp, "REFACTOR_INTERVAL", 2)
        out = solve(problem.program, start=problem.baseline)
        assert reasons.count("singular basis while crashing the start") == 4
        assert out.value == pytest.approx(0.65625, abs=1e-12)
        assert out.value == pytest.approx(default.value, abs=1e-12)
        assert_matches_highs(problem.program, out)


class TestRedundantRows:
    @pytest.mark.parametrize(
        "interval", [REFACTOR_INTERVAL, 3], ids=["default", "refactor-every-3"]
    )
    @pytest.mark.parametrize("scale", [1.0, 0.0], ids=["rhs", "homogeneous"])
    def test_many_redundant_rows_are_dropped(self, scale, interval, monkeypatch):
        # nine independent rows (the last a total-mass row, so the program
        # is bounded; three vanish on the support of x0) and fourteen
        # redundant ones: duplicates, sums and differences, several placed
        # before the rows they repeat.  With b = 0 phase 1 ends with nearly
        # every artificial basic, so independent ones must be pivoted out
        # before and between the redundant rows that are dropped.
        rng = np.random.RandomState(6)
        n = 20
        base = np.vstack(
            [
                np.round(rng.randn(5, n), 3),
                np.hstack([np.zeros((3, 12)), np.round(rng.randn(3, 8), 3)]),
                np.ones(n),
            ]
        )
        x0 = np.concatenate([np.abs(np.round(rng.randn(12), 3)), np.zeros(8)])
        redundant = [
            base[0] + base[1],
            base[5],
            base[6] - base[2],
            base[2] + base[7] + base[8],
            base[8],
            base[0] - base[6],
            base[4],
            base[1] + base[1],
            base[0] + base[8],
            base[3] - base[5],
            base[7],
            -base[8],
            base[0],
            base[1] + base[2] + base[3] + base[4],
        ]
        A = np.vstack(redundant[:7] + list(base) + redundant[7:])
        lp = LinearProgram(c=np.round(rng.randn(n), 3), A=A, b=scale * (A @ x0))
        monkeypatch.setattr("riskshare.lp.REFACTOR_INTERVAL", interval)
        out = solve(lp)
        assert_matches_highs(lp, out)
        # every redundant row was dropped: its dual is exactly zero
        assert out.duals.shape == (23,)
        assert np.count_nonzero(out.duals) <= 9


def assert_farkas(lp: LinearProgram, out: LPOutcome) -> None:
    """An infeasible outcome's duals certify it on the full program."""
    assert out.status is LPStatus.INFEASIBLE
    assert np.max(lp.A.T @ out.duals) <= OPT_TOL
    assert lp.b @ out.duals > FEAS_TOL


#: The laws of the benchmark's grid-ladder workload, each solved at every
#: step: (atoms, weights, ball radius, steps).
GRID_LADDER = (
    (
        [((2.0,), (-1.0,)), ((-1.0,), (1.0,)), ((0.0,), (-2.0,))],
        (0.25, 0.35, 0.4),
        2.5,
        (0.25, 0.125, 0.0625),
    ),
    (
        [((-1.0,), (-2.0,)), ((0.0,), (0.0,)), ((1.0,), (2.0,))],
        (0.3, 0.3, 0.4),
        2.5,
        (0.25, 0.125, 0.0625),
    ),
    ([((1.0, 0.0), (-1.0, 1.0)), ((0.0, 1.0), (1.0, -1.0))], (0.5, 0.5), 2.0, (1.0, 0.5)),
    ([((0.0, 0.0), (0.0, 0.0)), ((1.0, 1.0), (1.0, 0.0))], (0.5, 0.5), 2.0, (1.0, 0.5)),
)


class TestPresolve:
    """Forcing rows: b = 0 and entries of one sign hold their columns at 0.

    The simplex solves such programs as they are, with certified duals.
    """

    def test_forcing_row_on_a_start_weighted_column_is_kept(self):
        # the start weights the first column, whose only other entry is the
        # 1e-10 of a row with b = 0: it misses that row by 1e-10, within
        # FEAS_TOL, and it is the optimum, as HiGHS (which drops entries
        # that small) says
        lp = LinearProgram(c=[1.0, 2.0], A=[[1.0, 1.0], [1e-10, 0.0]], b=[1.0, 0.0])
        out = solve(lp, start=[1.0, 0.0])
        assert out.status is LPStatus.OPTIMAL
        assert_matches_highs(lp, out)
        np.testing.assert_array_equal(out.solution, [1.0, 0.0])

    def test_row_with_an_entry_at_pivot_tol_is_kept(self):
        # entries of one sign and b = 0, but one of them is too small to
        # tell from rounding
        A = np.array([[1.0, 1.0, 1.0], [1.0, PIVOT_TOL, 0.0]])
        lp = LinearProgram(c=[-1.0, -2.0, 1.0], A=A, b=[1.0, 0.0])
        assert_matches_highs(lp, solve(lp))

    @pytest.mark.parametrize(
        "A, b, c, start",
        [
            # the first row holds both columns at 0, which leaves the second
            # without a column
            ([[1.0, 2.0], [0.0, 3.0]], [0.0, 0.0], [1.0, -1.0], None),
            # an empty row, and a start that weights a column with no entries
            ([[0.0]], [0.0], [1.0], [1.0]),
            # both rows fix all columns; the second row's entries are negative
            ([[1.0, 1.0, 0.0], [0.0, -1.0, -2.0]], [0.0, 0.0], [3.0, -1.0, 2.0], None),
        ],
        ids=["rows-and-columns", "empty-row-with-start", "negative-row"],
    )
    def test_every_row_removed(self, A, b, c, start):
        lp = LinearProgram(c=c, A=A, b=b)
        out = solve(lp, start=start)
        np.testing.assert_array_equal(out.solution, np.zeros(lp.n_vars))
        assert np.min(lp.c - lp.A.T @ out.duals) >= 0.0
        assert_matches_highs(lp, out)

    @pytest.mark.parametrize("start", [None, [1.0]], ids=["cold", "started"])
    def test_program_without_rows(self, start):
        lp = LinearProgram(c=[1.0], A=np.zeros((0, 1)), b=[])
        out = solve(lp, start=start)
        assert out.status is LPStatus.OPTIMAL
        assert out.value == 0.0 and out.pivots == 0
        np.testing.assert_array_equal(out.solution, [0.0])
        assert out.duals.shape == (0,)

    def test_every_column_removed_leaves_an_infeasible_row(self):
        # the first row fixes both columns, and the second cannot reach 1
        lp = LinearProgram(c=[1.0, 1.0], A=[[1.0, 1.0], [1.0, -1.0]], b=[0.0, 1.0])
        out = solve(lp)
        assert highs_status(lp)[0] is LPStatus.INFEASIBLE
        assert_farkas(lp, out)

    def test_infeasible_program_keeps_its_farkas_certificate(self):
        # the first row fixes x0 and x1; then x2 + x3 = -1 has no solution
        lp = LinearProgram(
            c=np.zeros(4),
            A=[[1.0, 2.0, 0.0, 0.0], [-1.0, 0.0, 1.0, 1.0]],
            b=[0.0, -1.0],
        )
        out = solve(lp)
        assert highs_status(lp)[0] is LPStatus.INFEASIBLE
        assert_farkas(lp, out)

    @pytest.mark.parametrize(
        "law, weights, radius, steps",
        GRID_LADDER,
        ids=["improvable-1d", "efficient-1d", "improvable-2d", "efficient-2d"],
    )
    def test_postsolved_duals_price_every_column(self, law, weights, radius, steps):
        gamma0 = validate_joint_law(list(zip(law, weights)))
        for h in steps:
            problem = build_improvement_problem(
                gamma0, build_split_grid(gamma0, h, BallConfig(radius=radius)), [1.0, 1.0]
            )
            lp = problem.program
            out = solve(lp, start=problem.baseline)
            assert_certified(lp, out)
            z = lp.c - lp.A.T @ out.duals
            assert np.min(z + OPT_TOL * (1.0 + np.abs(lp.c))) >= 0.0


class TestCertificate:
    """The checks every Optimal outcome passes, ``solve``'s and ``feasible``'s alike."""

    # x1 + ... + x10 = 1 at zero cost: every point of the simplex is optimal
    lp = LinearProgram(c=np.zeros(10), A=np.ones((1, 10)), b=[1.0])

    @pytest.mark.parametrize(
        "x, y, message",
        [
            (np.eye(10)[0] * (1.0 + 1e-6), [0.0], "primal residual 1.000e-06"),
            (np.eye(10)[0], [1e-5], "complementary slackness residual 1.000e-05"),
            # each |x_j z_j| is 5e-8, within CERTIFICATE_TOL, but they add up
            (np.full(10, 0.1), [5e-7], "duality gap 5.000e-07"),
        ],
        ids=["primal", "complementary-slackness", "duality-gap"],
    )
    def test_each_check_refuses_a_perturbed_certificate(self, x, y, message):
        riskshare.lp._certify(self.lp, np.full(10, 0.1), np.zeros(1), 0.0)
        with pytest.raises(riskshare.lp._Breakdown, match=message):
            riskshare.lp._certify(self.lp, x, np.array(y), 0.0)

    # phase 1 takes 2 pivots and phase 2 one more (at zero cost, none)
    A = np.array([[1.0, 2.0, 1.0, 0.0], [3.0, 1.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])

    @pytest.mark.parametrize("mode", ["solve", "feasible"])
    @pytest.mark.parametrize(
        "spoil, message",
        [
            ("artificial", "artificial basic value 1.000e-06"),
            ("negative", "negative basic value -1.000e-06"),
        ],
        ids=["artificial", "negative"],
    )
    def test_end_of_phase_two_is_checked(self, mode, spoil, message, monkeypatch):
        iterations = riskshare.lp._simplex_iterations

        def spoilt(A, b, c, basis, columns, n_enter, *args):
            status, basis, xB, y, invB, pivots = iterations(A, b, c, basis, columns, n_enter, *args)
            if n_enter < columns.n:  # phase 2: artificial columns may not enter
                if spoil == "artificial":
                    basis[0], xB[0] = n_enter, 1e-6
                else:
                    xB[0] = -1e-6
            return status, basis, xB, y, invB, pivots

        monkeypatch.setattr(riskshare.lp, "_simplex_iterations", spoilt)
        with pytest.raises(NumericalBreakdown) as info:
            if mode == "solve":
                solve(LinearProgram(c=[0.0, -1.0, 0.0, 0.0], A=self.A, b=self.b))
            else:
                feasible(self.A, self.b)
        pivots = 3 if mode == "solve" else 2
        assert str(info.value) == f"{message} after phase 2 (2 x 4 program, {pivots} pivots taken)"


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
        # the value is c·x at zero cost, and phase 2's duals price every column at 0
        assert out.value == 0.0
        np.testing.assert_array_equal(out.duals, [0.0, 0.0])

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
    def _factorisation_failing_at(monkeypatch, k):
        """Make the k-th factorisation raise, counting ``np.linalg.inv`` (a
        basis inverse) and ``np.linalg.solve`` (a structural block) alike;
        returns the list of the calls' names."""
        calls = []

        def failing(name, real):
            def factorise(*args):
                calls.append(name)
                if len(calls) == k:
                    raise np.linalg.LinAlgError("Singular matrix")
                return real(*args)

            return factorise

        monkeypatch.setattr(np.linalg, "inv", failing("inv", np.linalg.inv))
        monkeypatch.setattr(np.linalg, "solve", failing("solve", np.linalg.solve))
        return calls

    @pytest.mark.parametrize("mode", ["solve", "feasible"])
    def test_first_and_last_basis(self, mode, monkeypatch):
        run = {
            "solve": lambda: solve(LinearProgram(c=self.c, A=self.A, b=self.b)),
            "feasible": lambda: feasible(self.A, self.b),
        }[mode]
        calls = self._factorisation_failing_at(monkeypatch, 0)
        clean = run()
        assert clean.pivots == (3 if mode == "solve" else 2)
        # phase 1 starts at the identity, inverted by no one, and refactorises
        # before it hands its basis to phase 2; solve's phase 2 reads its
        # verdict off the structural block, one solve per side
        assert calls == (["inv", "solve", "solve"] if mode == "solve" else ["inv"])
        for k, pivots in ((1, 2), (len(calls), clean.pivots)):
            self._factorisation_failing_at(monkeypatch, k)
            with pytest.raises(NumericalBreakdown) as info:
                run()
            assert str(info.value) == (
                f"singular working basis: Singular matrix (2 x 4 program, {pivots} pivots taken)"
            )

    def test_inverse_is_updated_not_recomputed(self, monkeypatch):
        lp = assignment(30, 0)
        calls = self._factorisation_failing_at(monkeypatch, 0)
        out = solve(lp)
        assert out.pivots >= 200
        # phase 1 refactorises before its verdict, again each time fresh
        # pricing finds a column, and hands its inverse to phase 2, which
        # reads its own verdict off the structural block; in between, one
        # refactorisation per REFACTOR_INTERVAL pivots
        per_interval = out.pivots // REFACTOR_INTERVAL
        assert per_interval <= calls.count("inv") <= per_interval + 4
        assert calls[-2:] == ["solve", "solve"]

    def test_phase_two_takes_over_the_start_inverse(self, monkeypatch):
        # efficient-2d at h = 1/2 (10 x 6): the crash's rank-one updates
        # carry over into phase 2, and its verdict comes from the structural
        # block, so no basis is inverted
        law = validate_joint_law([(((0.0, 0.0), (0.0, 0.0)), 0.5), (((1.0, 1.0), (1.0, 0.0)), 0.5)])
        problem = build_improvement_problem(
            law, build_split_grid(law, 0.5, BallConfig(radius=2.0)), [1.0, 1.0]
        )
        assert problem.program.A.shape == (10, 6)
        calls = self._factorisation_failing_at(monkeypatch, 0)
        out = solve(problem.program, start=problem.baseline)
        assert out.status is LPStatus.OPTIMAL
        assert calls == ["solve", "solve"]

    def test_failure_at_first_refactorisation(self, monkeypatch):
        lp = assignment(30, 0)
        # phase 1 alone runs past the interval, and it starts from the
        # identity, which it does not invert, so the first factorisation is
        # its first mid-run refactorisation
        assert feasible(lp.A, lp.b).pivots > REFACTOR_INTERVAL
        self._factorisation_failing_at(monkeypatch, 1)
        with pytest.raises(NumericalBreakdown) as info:
            solve(lp)
        assert str(info.value) == (
            "singular working basis: Singular matrix "
            f"(60 x 900 program, {REFACTOR_INTERVAL} pivots taken)"
        )


class TestVerdict:
    """Phase 2 reads its optimal verdict off the structural block of the basis."""

    def test_efficient_1d_solves_without_an_inverse(self, monkeypatch):
        # efficient-1d at h = 1/16 (141 x 231): the baseline's 9 support
        # columns are the basis, and the verdict takes two 9 x 9 solves
        gamma0 = validate_joint_law(list(zip(*GRID_LADDER[1][:2])))
        problem = build_improvement_problem(
            gamma0, build_split_grid(gamma0, 0.0625, BallConfig(radius=2.5)), [1.0, 1.0]
        )
        assert problem.program.A.shape == (141, 231)
        shapes, real = [], np.linalg.solve

        def recorded(B, rhs):
            shapes.append(B.shape)
            return real(B, rhs)

        def refused(B):
            raise AssertionError(f"inverted a {B.shape} basis")

        monkeypatch.setattr(np.linalg, "inv", refused)
        monkeypatch.setattr(np.linalg, "solve", recorded)
        out = solve(problem.program, start=problem.baseline)
        assert shapes == [(9, 9), (9, 9)]
        monkeypatch.undo()
        assert_matches_highs(problem.program, out)

    def test_forced_verdict_flip_keeps_pivoting(self, monkeypatch):
        # improvable-1d at h = 1/4 (57 x 97), with phase 2's third pricing
        # told that no column enters, as drift in updated duals could: the
        # fresh duals of the structural block price a column negative, so
        # the run refactorises and goes on to the optimum
        gamma0 = validate_joint_law(list(zip(*GRID_LADDER[0][:2])))
        problem = build_improvement_problem(
            gamma0, build_split_grid(gamma0, 0.25, BallConfig(radius=2.5)), [1.0, 1.0]
        )
        plain = solve(problem.program, start=problem.baseline)
        assert plain.pivots > 3
        entering, calls = riskshare.lp._entering, []

        def premature(z, n_enter, bland):
            calls.append(np.count_nonzero(z[:n_enter] < -OPT_TOL))
            return iter(()) if len(calls) == 3 else entering(z, n_enter, bland)

        factorisations = TestBreakdownReport._factorisation_failing_at(monkeypatch, 0)
        monkeypatch.setattr(riskshare.lp, "_entering", premature)
        out = solve(problem.program, start=problem.baseline)
        assert calls[2] > 0  # the verdict was wrong
        # the block's two solves, then a fresh inverse, and two solves at the end
        assert factorisations[:3] == ["solve", "solve", "inv"]
        assert factorisations[-2:] == ["solve", "solve"]
        assert out.pivots == plain.pivots
        assert out.value == pytest.approx(plain.value, abs=1e-12)
        monkeypatch.undo()
        assert_matches_highs(problem.program, out)
