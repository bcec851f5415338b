"""Command-line contract: exit codes, report schema, round-trips, CSV."""

import csv
import json
import shutil
import subprocess
import sys
import time
from importlib import metadata, resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy.optimize import linprog

import riskshare.improve
import riskshare.lp
from riskshare.cli import build_parser, run
from riskshare.convex_order import AllocationVerdict
from riskshare.infconv import profile_from_obj, sharing_law
from riskshare.measures import (
    BallConfig,
    joint_law_from_obj,
    validate_joint_law,
    validate_measure,
)
from riskshare.qdescent import minimize_q

if sys.version_info >= (3, 11):
    import tomllib
else:
    tomllib = None  # tests needing TOML fall back to the ``tomli`` backport

FIXTURES = Path(__file__).parent / "fixtures"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

DIRAC = str(FIXTURES / "dirac.json")
SPREAD = str(FIXTURES / "spread.json")
ANTI = str(FIXTURES / "antimonotone.json")
COMO = str(FIXTURES / "comonotone.json")
PROFILE = str(FIXTURES / "profile.json")
MU = str(FIXTURES / "mu.json")

REPORT_SCHEMA = json.loads(
    resources.files("riskshare.schemas").joinpath("report.schema.json").read_text()
)


def run_cli(args, capsys):
    """Invoke the tool in-process; every stdout report must match the schema."""
    code = run(args)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report, captured.err


def _assert_stat_run(command):
    """Run ``stat`` on the anti-monotone law in a subprocess and check it."""
    proc = subprocess.run(
        [*command, "stat", ANTI], capture_output=True, text=True
    )
    assert proc.returncode == 1 and proc.stdout, proc.stderr
    report = json.loads(proc.stdout)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["version"] == 1
    assert report["statistic"] == pytest.approx(1.0, abs=1e-8)


class TestExitCodes:
    def test_dominance_affirmative(self, capsys):
        code, report, err = run_cli(["check-dominance", DIRAC, SPREAD], capsys)
        assert code == 0
        assert report["dominates"] and report["strict"]
        assert "dominates" in err

    def test_dominance_negative(self, capsys):
        code, report, _ = run_cli(["check-dominance", SPREAD, DIRAC], capsys)
        assert code == 1
        assert not report["dominates"]

    def test_allocation_dominance(self, capsys):
        code, report, _ = run_cli(["check-dominance", COMO, ANTI], capsys)
        assert code == 0
        assert report["mode"] == "allocation"
        assert len(report["per_agent"]) == 2
        assert all(v["dominates"] for v in report["per_agent"])

    def test_mixed_kinds_rejected(self, capsys):
        code, report, _ = run_cli(["check-dominance", DIRAC, ANTI], capsys)
        assert code == 2
        assert "error" in report

    def test_comonotone_check(self, capsys):
        assert run_cli(["comonotone-check", COMO], capsys)[0] == 0
        assert run_cli(["comonotone-check", ANTI], capsys)[0] == 1

    def test_gap_verdicts(self, capsys):
        code, report, _ = run_cli(["comonotone-gap", ANTI], capsys)
        assert code == 1 and report["gap"] > 1e-6
        code, report, _ = run_cli(["comonotone-gap", COMO], capsys)
        assert code == 0 and abs(report["gap"]) <= 1e-8

    def test_stat_verdicts(self, capsys):
        code, report, _ = run_cli(["stat", ANTI], capsys)
        assert code == 1
        assert report["statistic"] == pytest.approx(1.0, abs=1e-8)
        code, report, _ = run_cli(["stat", COMO], capsys)
        assert code == 0
        assert report["comonotone_at_tol"]

    def test_bad_grid_step(self, capsys):
        code, report, err = run_cli(["improve", ANTI, "--grid-step", "-1"], capsys)
        assert code == 2
        assert "grid-step must be positive" in report["error"]
        assert "grid-step must be positive" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check-dominance", DIRAC, SPREAD, "--tol", "nan"], "--tol"),
            (["stat", ANTI, "--tol", "inf"], "--tol"),
            (["comonotone-check", ANTI, "--tol", "-1"], "--tol"),
            (["qdescent", ANTI, "--max-iters", "-3"], "--max-iters"),
            (["share", PROFILE, MU, "--radius", "inf"], "--radius"),
            (["improve", ANTI, "--grid-step", "inf"], "grid-step"),
        ],
        ids=[
            "tol-nan",
            "tol-inf",
            "tol-negative",
            "max-iters-negative",
            "radius-inf",
            "grid-step-inf",
        ],
    )
    def test_bad_flag_value(self, argv, message, capsys):
        code, report, err = run_cli(argv, capsys)
        assert code == 2
        assert message in report["error"] and message in err

    def test_unbounded_grid_refused(self, capsys):
        # a step this fine would enumerate about 1e601 lattice splits
        t0 = time.perf_counter()
        code, report, err = run_cli(["stat", ANTI, "--grid-step", "1e-300"], capsys)
        assert time.perf_counter() - t0 < 2.0
        assert code == 2
        assert "too fine" in report["error"] and "too fine" in err

    def test_oversized_program_refused(self, capsys):
        # the splits pass the grid cap, but the dense program would have
        # 20 010 rows and 28 006 columns (4.5 GB as float64)
        t0 = time.perf_counter()
        code, report, err = run_cli(["stat", ANTI, "--grid-step", "0.001"], capsys)
        assert time.perf_counter() - t0 < 2.0
        assert code == 2
        assert "improvement program" in report["error"] and "entries" in err

    def test_solver_failure_reported(self, monkeypatch, capsys):
        monkeypatch.setattr(
            riskshare.improve,
            "allocation_dominates",
            lambda *args: AllocationVerdict((), False, False),
        )
        code, report, err = run_cli(["improve", ANTI], capsys)
        assert code == 2
        assert "independent dominance verification" in report["error"]
        assert err.startswith("error: ")

    def test_unknown_flag(self, capsys):
        code, report, _ = run_cli(["stat", ANTI, "--bogus"], capsys)
        assert code == 2
        assert "error" in report

    def test_missing_file(self, capsys):
        code, report, _ = run_cli(["stat", "no-such-file.json"], capsys)
        assert code == 2
        assert "no-such-file.json" in report["error"]

    def test_malformed_json_names_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 1, "atoms": [{"x": [0.0], "w": }]}')
        code, report, _ = run_cli(["check-dominance", str(bad), SPREAD], capsys)
        assert code == 2
        assert "line 1" in report["error"] and "column" in report["error"]

    def test_schema_violation_names_field(self, tmp_path, capsys):
        bad = tmp_path / "neg.json"
        bad.write_text('{"dim": 1, "atoms": [{"x": [0.0], "w": -1.0}]}')
        code, report, _ = run_cli(["check-dominance", str(bad), SPREAD], capsys)
        assert code == 2
        assert "atoms[0]" in report["error"]

    def test_stages_agree_on_the_ball(self, tmp_path, capsys):
        # the share 5.3 is within the ball rule's slack of the radius, so
        # every stage admits it: stat and improve find the law improvable
        # and the dual descent runs on it too
        law = tmp_path / "edge.json"
        law.write_text(
            json.dumps(
                {
                    "agents": 2,
                    "dim": 1,
                    "atoms": [
                        {"x": [[5.3], [-1.0]], "w": 0.5},
                        {"x": [[0.0], [1.0]], "w": 0.5},
                    ],
                }
            )
        )
        for command, expected in (("stat", 1), ("improve", 1), ("qdescent", 0)):
            code, report, _ = run_cli([command, str(law), "--radius", "5.299999998"], capsys)
            assert code == expected, (command, report)

    def test_near_lattice_share_is_solved(self, tmp_path, capsys):
        # a share 1e-7 off a lattice point makes near-duplicate rows in the
        # improvement program (rank 55 of 58); the solve must still finish
        # and agree with HiGHS on the same program
        atoms = [(((1.0000001,), (-1.0,)), 0.5), (((0.0,), (1.0,)), 0.5)]
        path = tmp_path / "near.json"
        path.write_text(
            json.dumps(
                {
                    "agents": 2,
                    "dim": 1,
                    "atoms": [{"x": [list(pt) for pt in tup], "w": w} for tup, w in atoms],
                }
            )
        )
        code, report, _ = run_cli(["stat", str(path)], capsys)
        assert code == 1, report

        law = validate_joint_law(atoms)
        ball = BallConfig(radius=riskshare.improve.default_radius(law))
        grid = riskshare.improve.build_split_grid(
            law, riskshare.improve.default_step(law, ball), ball
        )
        program = riskshare.improve.build_improvement_problem(law, grid, [1.0, 1.0]).program
        assert program.A.shape == (58, 71)
        ref = linprog(program.c, A_eq=program.A, b_eq=program.b, bounds=(0, None), method="highs")
        assert ref.status == 0
        baseline = sum(w * sum(0.5 * float(np.dot(y, y)) for y in tup) for tup, w in law.atoms)
        assert report["statistic"] == pytest.approx(baseline - ref.fun, abs=1e-8)

    @pytest.mark.parametrize(
        "geometry",
        [["--radius", "2e300", "--grid-step", "1e300"], []],
        ids=["given-geometry", "default-geometry"],
    )
    def test_coordinate_too_large_to_key(self, geometry, tmp_path):
        # shares of 1e300: the default radius must not overflow, and the
        # grid's identity keys would, so the request is refused as input
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps(
                {
                    "agents": 2,
                    "dim": 1,
                    "atoms": [
                        {"x": [[1e300], [-1e300]], "w": 0.5},
                        {"x": [[0.0], [0.0]], "w": 0.5},
                    ],
                }
            )
        )
        proc = subprocess.run(
            [sys.executable, "-m", "riskshare.cli", "stat", str(path), *geometry],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        report = json.loads(proc.stdout)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert "_DEDUP_RES" in report["error"]
        assert proc.stderr.startswith("error: ") and "Warning" not in proc.stderr

    def test_nan_rejected(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text('{"dim": 1, "atoms": [{"x": [NaN], "w": 1.0}]}')
        code, report, _ = run_cli(["stat", str(bad)], capsys)
        assert code == 2


class TestReports:
    def test_improve_emits_the_rearrangement(self, capsys):
        code, report, _ = run_cli(["improve", ANTI], capsys)
        assert code == 1
        assert report["statistic"] == pytest.approx(1.0, abs=1e-8)
        improved = joint_law_from_obj(report["improved"])
        expected = validate_joint_law(
            [(((0.0,), (0.0,)), 0.5), (((1.0,), (1.0,)), 0.5)]
        )
        assert improved.atoms == expected.atoms
        assert any(v["strict"] for v in report["per_agent"])

    def test_share_matches_library_route(self, capsys):
        code, report, _ = run_cli(["share", PROFILE, MU], capsys)
        assert code == 0
        with open(PROFILE) as fh:
            profile = profile_from_obj(json.load(fh))
        with open(MU) as fh:
            obj = json.load(fh)
        m0 = validate_measure(
            [(tuple(a["x"]), a["w"]) for a in obj["atoms"]], dim=obj["dim"]
        )
        expected = sharing_law(profile, m0, BallConfig(radius=report["radius"]))
        emitted = joint_law_from_obj(report["law"])
        assert emitted.atoms == expected.atoms
        assert all(p["residual"] <= 1e-8 * 3 for p in report["points"])

    def test_maxcorr_value_against_dirac(self, capsys):
        code, report, _ = run_cli(["maxcorr", SPREAD, "--mu", DIRAC], capsys)
        assert code == 0
        # E[X * 0.5] with X uniform on {0, 1}
        assert report["value"] == pytest.approx(0.25, abs=1e-12)
        assert sum(e["w"] for e in report["coupling"]) == pytest.approx(1.0)

    def test_qdescent_sandwich_fields(self, capsys):
        code, report, _ = run_cli(["qdescent", ANTI, "--max-iters", "30"], capsys)
        assert code == 0
        assert report["statistic"] == pytest.approx(1.0, abs=1e-8)
        assert report["j_final"] >= report["statistic"] - 1e-6
        assert abs(report["sandwich_gap"]) <= 1e-3

    def test_qdescent_solves_one_program(self, tmp_path, monkeypatch, capsys):
        """The dual step reads the duals of the program the statistic came from."""
        atoms = [([[0.0], [1.0]], 0.25), ([[-2.0], [-1.0]], 0.25), ([[1.0], [1.0]], 0.5)]
        path = tmp_path / "stepped.json"
        path.write_text(
            json.dumps(
                {"agents": 2, "dim": 1, "atoms": [{"x": x, "w": w} for x, w in atoms]}
            )
        )
        real, calls = riskshare.lp.solve, []

        def solve(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(riskshare.lp, "solve", solve)
        code, report, _ = run_cli(["qdescent", str(path)], capsys)
        assert code == 0 and len(calls) == 1
        assert report["iterations"] == 1
        law = validate_joint_law([(tuple(map(tuple, x)), w) for x, w in atoms])
        own = minimize_q(
            law, ball=BallConfig(radius=report["radius"]), target=report["statistic"]
        )
        assert len(calls) == 2  # the default-step program, solved by minimize_q itself
        assert report["j_final"] == own.j < own.j_history[0]

    def test_counterexample_report(self, capsys):
        code, report, _ = run_cli(
            ["counterexample", "--n", "100", "--eps", "0.01"], capsys
        )
        assert code == 0
        assert report["det_sum"] == pytest.approx(-2.009692658389694, abs=1e-9)
        assert report["det_sum"] < 0
        code, report, _ = run_cli(
            ["counterexample", "--n", "4", "--eps", "0.5"], capsys
        )
        assert report["T1"][0] == pytest.approx([0.5, 0.25])

    def test_counterexample_rejects_bad_params(self, capsys):
        assert run_cli(["counterexample", "--n", "0"], capsys)[0] == 2
        assert run_cli(["counterexample", "--eps", "1.5"], capsys)[0] == 2


class TestRoundTrip:
    def test_emitted_law_reparses_identically(self, tmp_path, capsys):
        # thirds exercise non-terminating binary fractions
        mu = tmp_path / "mu3.json"
        mu.write_text(
            json.dumps(
                {
                    "dim": 1,
                    "atoms": [
                        {"x": [0.0], "w": 1.0 / 3.0},
                        {"x": [2.0], "w": 2.0 / 3.0},
                    ],
                }
            )
        )
        code, report, _ = run_cli(["share", PROFILE, str(mu)], capsys)
        assert code == 0
        text = json.dumps(report["law"])
        again = joint_law_from_obj(json.loads(text))
        assert again.atoms == joint_law_from_obj(report["law"]).atoms
        weights = [a["w"] for a in report["law"]["atoms"]]
        assert weights[0] == 1.0 / 3.0 and weights[1] == 2.0 / 3.0

    def test_improved_law_survives_a_cli_round_trip(self, tmp_path, capsys):
        code, report, _ = run_cli(["improve", ANTI], capsys)
        out = tmp_path / "improved.json"
        out.write_text(json.dumps(report["improved"]))
        code2, report2, _ = run_cli(["stat", str(out)], capsys)
        assert code2 == 0  # the rearrangement is already efficient
        assert abs(report2["statistic"]) <= 1e-8


class TestCsv:
    def test_stat_curve(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            ["stat", ANTI, "--grid-step", "1.0", "--radius", "2.0",
             "--emit-csv", str(out)],
            capsys,
        )
        assert code == 1
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["grid_step", "statistic"]
        steps = [float(r[0]) for r in rows[1:]]
        stats = [float(r[1]) for r in rows[1:]]
        assert steps == [1.0, 0.5, 0.25]
        # refining the grid never loses improvement
        assert all(b >= a - 1e-9 for a, b in zip(stats, stats[1:]))

    def test_share_table(self, tmp_path, capsys):
        out = tmp_path / "share.csv"
        _, report, _ = run_cli(
            ["share", PROFILE, MU, "--emit-csv", str(out)], capsys
        )
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x0", "y0_0", "y1_0", "w"]
        parsed = [[float(v) for v in row] for row in rows[1:]]
        for row, point in zip(parsed, report["points"]):
            assert row[0] == point["x"][0]
            assert row[1] == point["shares"][0][0]
            assert row[2] == point["shares"][1][0]

    def test_counterexample_table(self, tmp_path, capsys):
        out = tmp_path / "diag.csv"
        _, report, _ = run_cli(
            ["counterexample", "--n", "100", "--eps", "0.01",
             "--emit-csv", str(out)],
            capsys,
        )
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        tail = {row[0]: row[3] for row in rows[1:] if row[0].endswith("_sum") or row[0].endswith("_norm")}
        assert float(tail["det_sum"]) == report["det_sum"]
        assert float(tail["T1_norm"]) == report["T1_norm"]


class TestSharedParser:
    def test_requests_in_one_process_match_fresh_processes(self, capsys):
        """The parser is built once per process; no flag of one request,
        good or bad, reaches the next."""
        requests = [
            ["stat", ANTI, "--tol", "0.5", "--grid-step", "0.5"],
            ["comonotone-check", COMO],
            ["stat", ANTI, "--no-such-flag"],
            ["qdescent", ANTI, "--max-iters", "3"],
            ["stat", ANTI],
        ]
        for argv in requests:
            code = run(argv)
            out = capsys.readouterr().out
            fresh = subprocess.run(
                [sys.executable, "-m", "riskshare.cli", *argv], capture_output=True, text=True
            )
            assert (code, out) == (fresh.returncode, fresh.stdout), argv
        assert build_parser() is build_parser()


class TestConsoleScript:
    def test_entry_point_wiring(self):
        """The ``[project.scripts]`` target launches the CLI; no install needed.

        The declared ``module:attr`` is run the way pip's generated launcher
        runs it.  Where the package is installed, the recorded entry point
        must match the declaration and the real script is run as well.
        """
        toml = tomllib or pytest.importorskip("tomli")
        with open(PYPROJECT, "rb") as fh:
            declared = toml.load(fh)["project"]["scripts"]["riskshare"]
        module, attr = declared.split(":")
        launcher = (
            f"import sys; from {module} import {attr} as f; "
            "sys.argv[0] = 'riskshare'; sys.exit(f())"
        )
        _assert_stat_run([sys.executable, "-c", launcher])

        for installed in metadata.entry_points(
            group="console_scripts", name="riskshare"
        ):
            assert installed.value == declared
        script = shutil.which("riskshare")
        if script is not None:
            _assert_stat_run([script])

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "riskshare.cli", "comonotone-check", COMO],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
