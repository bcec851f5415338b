"""Self-tests of the benchmark: smoke runs, and checks that refuse planted errors.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Quick tasks of each workload: sandwich instances whose descent stops at
#: once, and the coarse grid-ladder steps; request-mix is quick throughout.
QUICK = {
    "sandwich-1d": lambda t: t["designed"] or t["id"] in ("random05", "random10", "random14"),
    "grid-ladder": lambda t: t["h"] >= 0.25,
    "request-mix": lambda t: True,
}


def _answer_all(workload, tmp_path):
    inputs = workloads.make_inputs(workload, 3, tmp_path)
    inputs["tasks"] = [t for t in inputs["tasks"] if QUICK[workload](t)]
    answerer = workloads.Answerer(inputs)
    answers = {}
    for task in inputs["tasks"]:
        result = answerer.answer(task)
        assert not answerer.failed(result), task["id"]
        answers[task["id"]] = [json.loads(json.dumps(answerer.summary(result)))]
    return inputs, answers


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def answered(request, tmp_path_factory):
    return _answer_all(request.param, tmp_path_factory.mktemp(request.param))


def test_smoke_answers_pass_checks(answered):
    inputs, answers = answered
    problems, gap = checks.check_run(inputs, answers)
    assert problems == []
    assert gap > 0


def test_seed_makes_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        made = []
        for name in ("a", "b"):
            workdir = tmp_path / workload / name
            workdir.mkdir(parents=True)
            made.append(json.dumps(workloads.make_inputs(workload, 9, workdir)).replace(str(workdir), ""))
        assert made[0] == made[1]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_end_to_end_run_prints_contract(trace):
    proc = _run(ROOT, "--workload", "request-mix", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (ROOT / ".perfbench_tmp").exists() or not any((ROOT / ".perfbench_tmp").iterdir())


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "request-mix", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# --------------------------------------------------------------------------
# planted wrong answers
# --------------------------------------------------------------------------

ANTI = [[[[1.0], [-1.0]], 0.5], [[[0.0], [2.0]], 0.5]]


@pytest.fixture(scope="module")
def anti_report():
    import riskshare as rs

    gamma0 = rs.validate_joint_law([(t, w) for t, w in ANTI])
    grid = rs.build_split_grid(gamma0, 0.5, rs.BallConfig(radius=2.5))
    rep = rs.solve_improvement_lp(gamma0, grid)
    return workloads._report_summary(rep)


def _improvement_problems(report):
    return checks.check_improvement(ANTI, 0.5, 2.5, [1.0, 1.0], report)


def test_true_improvement_passes(anti_report):
    assert _improvement_problems(anti_report) == []


@pytest.mark.parametrize(
    "field, delta", [("statistic", 1e-6), ("objective_at_optimum", 1e-6), ("objective_at_input", 1e-6)]
)
def test_off_values_are_refused(anti_report, field, delta):
    bad = {**anti_report, field: anti_report[field] + delta}
    assert _improvement_problems(bad)


def test_marginal_failing_stop_loss_is_refused(anti_report):
    # same aggregate law, but agent 0 gets a mean-preserving spread of its
    # baseline marginal {0, 1}
    bad = {**anti_report, "improved": [[[[-0.5], [0.5]], 0.5], [[[1.5], [0.5]], 0.5]]}
    assert any("does not dominate" in p for p in _improvement_problems(bad))


def test_changed_aggregate_is_refused(anti_report):
    bad = {**anti_report, "improved": [[[[0.0], [0.0]], 0.5], [[[1.0], [1.5]], 0.5]]}
    assert any("aggregate" in p for p in _improvement_problems(bad))


@pytest.fixture(scope="module")
def sandwich_answers(tmp_path_factory):
    return _answer_all("sandwich-1d", tmp_path_factory.mktemp("sandwich"))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.update(j=s["j"] + 1e-5, j_history=s["j_history"][:-1] + [s["j"] + 1e-5]),
        lambda s: s.update(j_history=[s["j"] - 1.0] + s["j_history"]),
        lambda s: s["profile"][0]["pieces"].append([[0.5], 0.25]),
    ],
    ids=["j-off", "history-rises", "potentials-changed"],
)
def test_descent_errors_are_refused(sandwich_answers, mutate):
    inputs, answers = sandwich_answers
    task = next(t for t in inputs["tasks"] if t["id"] == "random10")
    state = copy.deepcopy(answers[task["id"]][0]["state"])
    stat = answers[task["id"]][0]["report"]["statistic"]
    assert checks.check_descent(task["law"], inputs["radius"], stat, state, False) == []
    mutate(state)
    assert checks.check_descent(task["law"], inputs["radius"], stat, state, False)


def test_loose_designed_sandwich_is_refused(sandwich_answers):
    inputs, answers = sandwich_answers
    task = next(t for t in inputs["tasks"] if t["designed"])
    ans = answers[task["id"]][0]
    assert checks.check_descent(task["law"], inputs["radius"], ans["report"]["statistic"] - 2e-3, ans["state"], True)


def test_statistic_falling_on_finer_grid_is_refused(tmp_path):
    inputs = workloads.make_inputs("grid-ladder", 3, tmp_path)
    inputs["tasks"] = [t for t in inputs["tasks"] if t["law_id"] == "improvable-2d"]
    answerer = workloads.Answerer(inputs)
    answers = {t["id"]: [answerer.summary(answerer.answer(t))] for t in inputs["tasks"]}
    assert checks.check_run(inputs, answers)[0] == []
    coarse, fine = inputs["tasks"]
    answers[coarse["id"]][0]["report"]["statistic"] += 0.5
    assert any("fell" in p for p in checks.check_run(inputs, answers)[0])


@pytest.fixture(scope="module")
def requests(tmp_path_factory):
    return _answer_all("request-mix", tmp_path_factory.mktemp("requests"))


def _request(requests, command, nth=0):
    inputs, answers = requests
    tasks = [t for t in inputs["tasks"] if t["argv"][0] == command]
    tasks.sort(key=lambda t: t["id"])
    task = tasks[nth]
    return checks.RequestChecker(inputs["files"]), task, copy.deepcopy(answers[task["id"]][0])


@pytest.mark.parametrize(
    "command, nth, mutate",
    [
        ("check-dominance", 2, lambda a: a.update(code=1 - a["code"])),
        ("check-dominance", 2, lambda a: a["report"].update(dominates=not a["report"]["dominates"], strict=False)),
        ("comonotone-check", 0, lambda a: a["report"].update(extra=1)),
        ("maxcorr", 0, lambda a: a["report"].update(value=a["report"]["value"] + 1e-6)),
        ("maxcorr", 1, lambda a: a["report"].update(value=a["report"]["value"] + 1e-6)),
        ("comonotone-gap", 1, lambda a: a["report"].update(gap=a["report"]["gap"] + 1e-6)),
        ("share", 1, lambda a: a["report"]["points"][0].update(shares=[[0.0, 0.0], a["report"]["points"][0]["x"]])),
        ("stat", 1, lambda a: a["report"].update(statistic=a["report"]["statistic"] + 1e-6)),
        ("qdescent", 0, lambda a: a["report"].update(j_final=a["report"]["statistic"] - 1e-3)),
        ("counterexample", 0, lambda a: a["report"].update(det_sum=a["report"]["det_sum"] + 1e-6)),
    ],
)
def test_request_errors_are_refused(requests, command, nth, mutate):
    checker, task, answer = _request(requests, command, nth)
    assert checker.check(task["argv"], answer) == []
    mutate(answer)
    assert checker.check(task["argv"], answer)


# --------------------------------------------------------------------------
# rescaling to one machine speed
# --------------------------------------------------------------------------


def test_reference_scaling_follows_nearby_kernel_times():
    import reference

    at_speed = reference.SPEED_S
    latencies = [0.1] * 100
    samples = [(i, at_speed) for i in range(50)] + [(i, 2 * at_speed) for i in range(50, 100)]
    scaled = reference.scaled_latencies(latencies, samples)
    assert scaled[0] == pytest.approx(0.1) and scaled[99] == pytest.approx(0.05)
    assert all(0.05 - 1e-12 <= s <= 0.1 + 1e-12 for s in scaled)
    assert reference.scale_factor(reference.burst(count=3)) > 0
