"""Acceptance gate: the ten headline behaviors at their stated tolerances.

Each test prints one PASS/FAIL line (outside the capture) so a plain
``pytest -v`` run shows the per-criterion outcome at a glance.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from riskshare.convex_order import allocation_dominates, dominates_1d, dominates_md
from riskshare.improve import (
    build_split_grid,
    default_radius,
    solve_improvement_lp,
)
from riskshare.infconv import (
    StrictlyConvexProfile,
    AgentProfile,
    counterexample_family,
    quadratic_profile,
    quadratic_sharing_matrix,
    share_point,
)
from riskshare.maxcorr import comonotonicity_gap
from riskshare.measures import (
    BallConfig,
    joint_law_from_obj,
    sum_pushforward,
    validate_joint_law,
    validate_measure,
)
from riskshare.qdescent import j_value, minimize_q
from riskshare.cli import run as cli_run


@contextmanager
def _criterion(capsys, num, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {num:2d}: {desc}")
        raise
    dt = time.perf_counter() - t0
    with capsys.disabled():
        print(f"PASS criterion {num:2d}: {desc} ({dt:.2f}s)")


def _family_matrices(n):
    c = 1.0 / (8.0 * math.sqrt(n))
    S1 = np.array([[0.5, c], [c, 0.5 / n]])
    S2 = np.array([[0.5, -c], [-c, 0.5 / n]])
    return S1, S2


def test_criterion_01_sharing_matrix_family(capsys):
    with _criterion(capsys, 1, "closed-form sharing matrix of the 2x2 family"):
        t0 = time.perf_counter()
        norms = []
        for n in (1, 4, 16, 64):
            S1, S2 = _family_matrices(n)
            T1 = quadratic_sharing_matrix([S1, S2])[0]
            expected = np.array(
                [[0.5, math.sqrt(n) / 8.0], [1.0 / (8.0 * math.sqrt(n)), 0.5]]
            )
            assert np.max(np.abs(T1 - expected)) <= 1e-12
            norms.append(float(np.linalg.norm(T1, 2)))
        assert all(b > a for a, b in zip(norms, norms[1:]))
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_nonconvexity_witness(capsys):
    with _criterion(capsys, 2, "negative determinant of the summed sharing maps"):
        t0 = time.perf_counter()
        n, eps = 100, 0.01
        diag = counterexample_family(n, eps)
        u = math.sqrt(1.0 - eps) / 2.0 + math.sqrt(n - eps) / (2.0 * n)
        v = math.sqrt(1.0 - eps) / 2.0 + math.sqrt(n - eps) / 2.0
        oracle = 1.0 - u * v
        assert oracle == pytest.approx(-2.009692658389694, abs=1e-12)
        assert abs(diag.det_sum - oracle) <= 1e-6
        assert diag.det_sum < 0.0
        assert time.perf_counter() - t0 < 1.0


def test_criterion_03_two_state_improvement(capsys):
    with _criterion(capsys, 3, "two-state improvement fixture vs brute force"):
        t0 = time.perf_counter()
        gamma0 = validate_joint_law(
            [(((1.0,), (-1.0,)), 0.5), (((0.0,), (2.0,)), 0.5)]
        )
        grid = build_split_grid(gamma0, h=1.0, ball=BallConfig(radius=2.0))
        report = solve_improvement_lp(gamma0, grid)

        def cost(split):
            return sum(0.5 * sum(v * v for v in y) for y in split)

        # brute force over pure grid assignments, dominance checked per law
        best = None
        m0 = grid.aggregate
        for combo in itertools.product(*[range(len(c)) for c in grid.candidates]):
            atoms = [
                (grid.candidates[t][u], m0.atoms[t][1]) for t, u in enumerate(combo)
            ]
            law = validate_joint_law(atoms, agents=2, dim=1)
            verdict = allocation_dominates(law, gamma0, 1e-8)
            if verdict.dominates:
                obj = sum(w * cost(split) for split, w in atoms)
                best = obj if best is None else min(best, obj)
        # every mixture is bounded below by the per-state cost floor, which
        # the best pure assignment attains: the enumeration is exhaustive
        floor = sum(
            w * min(cost(split) for split in cands)
            for (_, w), cands in zip(m0.atoms, grid.candidates)
        )
        assert best == pytest.approx(floor, abs=1e-12)
        assert report.objective_at_optimum == pytest.approx(best, abs=1e-8)
        assert report.statistic == pytest.approx(1.0, abs=1e-8)
        expected = validate_joint_law(
            [(((0.0,), (0.0,)), 0.5), (((1.0,), (1.0,)), 0.5)]
        )
        for (xs, w), (ys, v) in zip(report.improved.atoms, expected.atoms):
            assert np.max(np.abs(np.array(xs) - np.array(ys))) <= 1e-7
            assert abs(w - v) <= 1e-7
        assert time.perf_counter() - t0 < 5.0


def _random_two_agent_law(rng, max_atoms=5):
    n = rng.randint(2, max_atoms + 1)
    pts = rng.randint(-2, 3, size=(n, 2, 1)).astype(float)
    w = rng.rand(n) + 0.2
    w /= w.sum()
    return validate_joint_law(
        [(tuple(map(tuple, pts[i])), w[i]) for i in range(n)]
    )


def test_criterion_04_duality_sandwich(capsys):
    with _criterion(capsys, 4, "descent objective stays above the statistic"):
        t0 = time.perf_counter()
        rng = np.random.RandomState(404)
        ball = BallConfig(radius=6.0)
        base = StrictlyConvexProfile(
            dim=1, agents=(AgentProfile(eps=1.0), AgentProfile(eps=1.0))
        )
        # three instances where the pure quadratic potential is optimal
        designed = [
            validate_joint_law([(((1.0,), (-1.0,)), 0.5), (((0.0,), (2.0,)), 0.5)]),
            validate_joint_law([(((0.0,), (0.0,)), 0.5), (((1.0,), (1.0,)), 0.5)]),
            validate_joint_law(
                [
                    (((0.0,), (0.0,)), 0.3),
                    (((0.5,), (0.5,)), 0.3),
                    (((1.0,), (1.0,)), 0.4),
                ]
            ),
        ]
        tight = 0
        for k in range(20):
            gamma0 = designed[k - 17] if k >= 17 else _random_two_agent_law(rng)
            grid = build_split_grid(gamma0, h=0.5, ball=ball)
            stat = solve_improvement_lp(gamma0, grid).statistic
            state = minimize_q(gamma0, ball=ball, max_iters=25, target=stat)
            assert state.j >= stat - 1e-6
            if abs(j_value(base, gamma0, ball) - stat) <= 1e-3:
                # the quadratic potential is already optimal here
                assert abs(state.j - stat) <= 1e-3
                tight += 1
        assert tight >= 3
        assert time.perf_counter() - t0 < 60.0


def test_criterion_05_grid_monotonicity(capsys):
    with _criterion(capsys, 5, "halving the grid step never loses improvement"):
        rng = np.random.RandomState(505)
        ball = BallConfig(radius=4.0)
        for _ in range(20):
            gamma0 = _random_two_agent_law(rng, max_atoms=3)
            coarse = build_split_grid(gamma0, h=1.0, ball=ball)
            fine = build_split_grid(gamma0, h=0.5, ball=ball)
            s_coarse = solve_improvement_lp(gamma0, coarse).statistic
            s_fine = solve_improvement_lp(gamma0, fine).statistic
            assert s_fine >= s_coarse - 1e-9


def _measure_1d(entries):
    return validate_measure([((float(x),), float(w)) for x, w in entries])


def _spread_pair(rng):
    """A measure and a mean-preserving spread of it."""
    n = rng.randint(2, 5)
    xs = np.sort(rng.randn(n) * 2.0)
    w = rng.rand(n) + 0.2
    w /= w.sum()
    mu = _measure_1d(zip(xs, w))
    atoms = []
    for (x,), wx in mu.atoms:
        delta = rng.rand() + 0.1
        atoms.append(((x - delta,), wx / 2.0))
        atoms.append(((x + delta,), wx / 2.0))
    return mu, validate_measure(atoms)


def _mean_matched_pair(rng):
    a = rng.randn(3) * 2.0
    b = rng.randn(3) * 2.0
    wa = rng.rand(3) + 0.2
    wa /= wa.sum()
    wb = rng.rand(3) + 0.2
    wb /= wb.sum()
    shift = float(np.dot(a, wa) - np.dot(b, wb))
    mu = _measure_1d(zip(a, wa))
    nu = _measure_1d(zip(b + shift, wb))
    return mu, nu


def test_criterion_06_checker_route_agreement(capsys):
    with _criterion(capsys, 6, "stop-loss and kernel dominance routes agree"):
        rng = np.random.RandomState(606)
        positives = 0
        for trial in range(200):
            mu, nu = _spread_pair(rng) if trial % 2 == 0 else _mean_matched_pair(rng)
            fast = dominates_1d(mu, nu, 1e-8)
            lp_route = dominates_md(mu, nu, 1e-8)
            assert fast.dominates == lp_route.dominates
            positives += int(fast.dominates)
        assert positives >= 20  # the comparison is not vacuous


def test_criterion_07_gap_values(capsys):
    with _criterion(capsys, 7, "comonotone gap is zero; Bernoulli defect is 1/2"):
        bern = _measure_1d([(0.0, 0.5), (1.0, 0.5)])
        three = _measure_1d([(-1.0, 0.25), (0.0, 0.5), (2.0, 0.25)])
        comonotone_laws = [
            validate_joint_law([(((0.0,), (0.0,)), 0.5), (((1.0,), (1.0,)), 0.5)]),
            validate_joint_law(
                [
                    (((0.0,), (0.0,)), 1.0 / 3.0),
                    (((1.0,), (0.0,)), 1.0 / 3.0),
                    (((1.0,), (1.0,)), 1.0 / 3.0),
                ]
            ),
        ]
        for law in comonotone_laws:
            for mu in (bern, three):
                assert abs(comonotonicity_gap(law, mu).gap) <= 1e-9
        anti = validate_joint_law(
            [(((0.0,), (1.0,)), 0.5), (((1.0,), (0.0,)), 0.5)]
        )
        # oracle by coupling enumeration: a coupling of two fair Bernoullis
        # puts mass t on (1,1) with t <= 1/2 and earns exactly t
        rho_component = max(t for t in np.linspace(0.0, 0.5, 501))
        assert rho_component == 0.5
        rep = comonotonicity_gap(anti, bern)
        assert rep.per_agent == pytest.approx((0.5, 0.5), abs=1e-12)
        assert rep.rho_total == pytest.approx(0.5, abs=1e-12)
        assert rep.gap == pytest.approx(0.5, abs=1e-9)


def _random_law(rng, p, d, n):
    pts = rng.randint(-1, 2, size=(n, p, d)).astype(float)
    w = rng.rand(n) + 0.3
    w /= w.sum()
    return validate_joint_law(
        [(tuple(map(tuple, pts[i])), w[i]) for i in range(n)]
    )


def test_criterion_08_improvement_validity(capsys):
    with _criterion(capsys, 8, "improved laws dominate, conserve, and are strict"):
        rng = np.random.RandomState(808)
        configs = [(2, 1), (3, 1), (2, 2)]
        for k in range(20):
            p, d = configs[k % len(configs)]
            gamma0 = _random_law(rng, p, d, rng.randint(2, 4))
            radius = default_radius(gamma0) + 0.5
            ball = BallConfig(radius=radius)
            h = 0.5 if d == 1 else radius
            grid = build_split_grid(gamma0, h=h, ball=ball)
            rep = solve_improvement_lp(gamma0, grid)
            verdict = allocation_dominates(rep.improved, gamma0, 1e-7)
            assert verdict.dominates
            got = sum_pushforward(rep.improved)
            want = grid.aggregate
            assert got.size == want.size
            for (xa, wa), (xb, wb) in zip(got.atoms, want.atoms):
                assert np.max(np.abs(np.subtract(xa, xb))) <= 1e-8
                assert abs(wa - wb) <= 1e-8
            if rep.statistic > 1e-6:
                assert verdict.strict


def test_criterion_09_share_point_vs_closed_form(capsys):
    with _criterion(capsys, 9, "iterative sharing matches the quadratic closed form"):
        rng = np.random.RandomState(909)
        for _ in range(50):
            d = rng.randint(1, 4)
            p = rng.randint(2, 4)
            mats = []
            for _ in range(p):
                A = rng.randn(d, d)
                mats.append(A @ A.T + 0.5 * np.eye(d))
            profile = quadratic_profile(mats)
            x = rng.randn(d) * 2.0
            ball = BallConfig(radius=20.0 * (1.0 + float(np.linalg.norm(x))))
            sp = share_point(profile, x, ball)
            total = np.sum(np.array(sp.shares), axis=0)
            assert np.linalg.norm(total - x) <= 1e-8 * (
                1.0 + float(np.linalg.norm(x))
            )
            # per-share agreement needs the dual solved past the default
            # residual target, since the residual bounds the sum only
            tight = share_point(profile, x, ball, tol=1e-10)
            inv_sum = np.linalg.inv(sum(mats))
            for S, y in zip(mats, tight.shares):
                oracle = S @ inv_sum @ x
                assert np.max(np.abs(np.array(y) - oracle)) <= 1e-8


def test_criterion_10_cli_contract(capsys, tmp_path):
    with _criterion(capsys, 10, "CLI exit codes and round-trip on the corpus"):
        from pathlib import Path

        fixtures = Path(__file__).parent / "fixtures"
        dirac = str(fixtures / "dirac.json")
        spread = str(fixtures / "spread.json")
        anti = str(fixtures / "antimonotone.json")
        como = str(fixtures / "comonotone.json")

        def invoke(args):
            code = cli_run(args)
            out = capsys.readouterr().out
            return code, json.loads(out)

        code, _ = invoke(["check-dominance", dirac, spread])
        assert code == 0
        code, _ = invoke(["check-dominance", spread, dirac])
        assert code == 1
        code, report = invoke(["stat", anti])
        assert code == 1
        assert report["statistic"] == pytest.approx(1.0, abs=1e-8)
        code, _ = invoke(["stat", como])
        assert code == 0
        code, report = invoke(["improve", anti, "--grid-step", "-1"])
        assert code == 2
        assert "grid-step must be positive" in report["error"]
        # emitted law re-parses to an equal object and scores as efficient
        code, report = invoke(["improve", anti])
        assert code == 1
        law = joint_law_from_obj(report["improved"])
        again = joint_law_from_obj(json.loads(json.dumps(report["improved"])))
        assert law.atoms == again.atoms
        out = tmp_path / "improved.json"
        out.write_text(json.dumps(report["improved"]))
        code, report = invoke(["stat", str(out)])
        assert code == 0
        assert abs(report["statistic"]) <= 1e-8
