"""Workload inputs and the answers each round asks of the program.

Each workload is a catalogue of problems answered in rounds.  ``--seed``
fixes the order of a round and draws the contents of the requests whose
cost does not depend on their numbers (1-D dominance and maximal
correlation, the pairwise comonotonicity check, the counterexample family).
Every problem that reaches the simplex or the sharing map is a fixed
catalogue entry: their pivot paths, and so their times, change with any
change of the numbers, even under an exact symmetry of the problem (the
same 1-D law at h = 0.0625 takes 471 or 828 pivots when its agents are
swapped), so drawing them from the seed would make a run measure which
problems the seed drew.  README.md gives the measurements.

This module is shared by the workload process, which must not import scipy
(its peak RSS is a metric), and by the checker.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

WORKLOADS = ("sandwich-1d", "grid-ladder", "request-mix")


def _law(atoms) -> list:
    return [[[list(pt) for pt in tup], float(w)] for tup, w in atoms]


# --------------------------------------------------------------------------
# sandwich-1d: the acceptance criterion-4 family
# --------------------------------------------------------------------------

SANDWICH_RADIUS = 6.0
SANDWICH_STEP = 0.5
SANDWICH_MAX_ITERS = 25

#: Laws on which the pure quadratic potential is already optimal, so the
#: descent's J must meet the statistic.
DESIGNED = (
    [[[[1.0], [-1.0]], 0.5], [[[0.0], [2.0]], 0.5]],
    [[[[0.0], [0.0]], 0.5], [[[1.0], [1.0]], 0.5]],
    [[[[0.0], [0.0]], 0.3], [[[0.5], [0.5]], 0.3], [[[1.0], [1.0]], 0.4]],
)


def _criterion4_laws() -> list:
    """The 17 random two-agent laws of acceptance criterion 4 (seed 404)."""
    rng = np.random.RandomState(404)
    laws = []
    for _ in range(17):
        n = rng.randint(2, 6)
        pts = rng.randint(-2, 3, size=(n, 2, 1)).astype(float)
        w = rng.rand(n) + 0.2
        w /= w.sum()
        laws.append([[pts[i].tolist(), float(w[i])] for i in range(n)])
    return laws


def _sandwich_inputs(rng) -> dict:
    tasks = [
        {"id": f"random{k:02d}", "law": law, "designed": False}
        for k, law in enumerate(_criterion4_laws())
    ]
    tasks += [{"id": f"designed{k}", "law": law, "designed": True} for k, law in enumerate(DESIGNED)]
    return {
        "radius": SANDWICH_RADIUS,
        "h": SANDWICH_STEP,
        "max_iters": SANDWICH_MAX_ITERS,
        "warmup": {"id": "warmup", "law": DESIGNED[0], "designed": True},
        "tasks": [tasks[i] for i in rng.permutation(len(tasks))],
    }


# --------------------------------------------------------------------------
# grid-ladder: improvement LPs on nested grids
# --------------------------------------------------------------------------

#: (name, law, radius, steps); steps go coarse to fine and are nested.
LADDER_LAWS = (
    (
        "improvable-1d",
        [[[[2.0], [-1.0]], 0.25], [[[-1.0], [1.0]], 0.35], [[[0.0], [-2.0]], 0.4]],
        2.5,
        (0.25, 0.125, 0.0625),
    ),
    (
        "efficient-1d",
        [[[[-1.0], [-2.0]], 0.3], [[[0.0], [0.0]], 0.3], [[[1.0], [2.0]], 0.4]],
        2.5,
        (0.25, 0.125, 0.0625),
    ),
    (
        "improvable-2d",
        [[[[1.0, 0.0], [-1.0, 1.0]], 0.5], [[[0.0, 1.0], [1.0, -1.0]], 0.5]],
        2.0,
        (1.0, 0.5),
    ),
    (
        "efficient-2d",
        [[[[0.0, 0.0], [0.0, 0.0]], 0.5], [[[1.0, 1.0], [1.0, 0.0]], 0.5]],
        2.0,
        (1.0, 0.5),
    ),
)


def _ladder_inputs(rng) -> dict:
    ladders = [
        [
            {"id": f"{name}@{h}", "law_id": name, "law": law, "radius": radius, "h": h}
            for h in steps
        ]
        for name, law, radius, steps in LADDER_LAWS
    ]
    return {
        "warmup": ladders[2][0],
        "tasks": [task for i in rng.permutation(len(ladders)) for task in ladders[i]],
    }


# --------------------------------------------------------------------------
# request-mix: short CLI requests
# --------------------------------------------------------------------------

#: Small fixed laws and a 2-D profile for the requests that reach the
#: simplex or the sharing map.
STAT_LAW = [[[[2.0], [-1.0]], 0.25], [[[-1.0], [1.0]], 0.35], [[[0.0], [-2.0]], 0.4]]
IMPROVE_LAW = [[[[1.0], [-1.0]], 0.3], [[[0.0], [1.0]], 0.3], [[[-1.0], [0.0]], 0.4]]
QDESCENT_LAW = [[[[1.0], [1.0]], 0.65], [[[0.0], [2.0]], 0.35]]
QDESCENT_MAX_ITERS = 3
GAP_LAW_2D = [
    [[[1.0, 0.0], [0.0, 1.0]], 0.3],
    [[[0.0, -1.0], [1.0, 0.0]], 0.3],
    [[[-1.0, 1.0], [0.0, -1.0]], 0.4],
]
SHARE_PROFILE_2D = {
    "agents": 2,
    "dim": 2,
    "profiles": [
        {"eps": 1.0, "pieces": [{"a": [0.0, 0.0], "b": 0.0}, {"a": [1.0, 0.5], "b": -0.5}]},
        {
            "eps": 1.5,
            "pieces": [
                {"a": [0.0, 0.0], "b": 0.0},
                {"a": [-0.5, 1.0], "b": -0.25},
                {"a": [0.5, 0.5], "b": -0.75},
            ],
        },
    ],
}
SHARE_MEASURE_2D = [[[1.5, 0.5], 0.25], [[-1.0, 1.0], 0.25], [[0.5, -1.5], 0.25], [[2.0, 2.0], 0.25]]


def _weights(rng, n) -> list:
    w = rng.rand(n) + 0.2
    return [float(v) for v in w / w.sum()]


def _measure_obj(atoms, dim) -> dict:
    return {"dim": dim, "atoms": [{"x": list(x), "w": w} for x, w in atoms]}


def _law_obj(atoms) -> dict:
    return {
        "agents": len(atoms[0][0]),
        "dim": len(atoms[0][0][0]),
        "atoms": [{"x": [list(pt) for pt in tup], "w": w} for tup, w in atoms],
    }


def _request_inputs(rng, workdir: Path) -> dict:
    files = {}

    def put(name, obj) -> str:
        path = workdir / name
        path.write_text(json.dumps(obj))
        files[str(path)] = obj
        return str(path)

    def fixture(name) -> str:
        path = FIXTURES / name
        files[str(path)] = json.loads(path.read_text())
        return str(path)

    fixed = np.random.RandomState(2009)
    # 2-D measure and a mean-preserving spread of it (kernel feasibility LP)
    base = fixed.randint(-2, 3, size=(4, 2)).astype(float)
    wb = _weights(fixed, 4)
    spread = []
    for x, w in zip(base, wb):
        delta = fixed.rand(2) + 0.1
        spread += [[list(x - delta), w / 2], [list(x + delta), w / 2]]
    m2 = put("m2.json", _measure_obj([[list(x), w] for x, w in zip(base, wb)], 2))
    m2s = put("m2_spread.json", _measure_obj(spread, 2))
    # uniform equal-size 2-D laws for the transport LP
    xs2 = put("xi2.json", _measure_obj([[list(v), 0.125] for v in fixed.randn(8, 2)], 2))
    mu2 = put("mu2.json", _measure_obj([[list(v), 0.125] for v in fixed.randn(8, 2)], 2))
    gap2 = put("gap2.json", _law_obj(GAP_LAW_2D))
    prof2 = put("profile2.json", SHARE_PROFILE_2D)
    share2 = put("share2.json", _measure_obj(SHARE_MEASURE_2D, 2))
    stat_law = put("stat.json", _law_obj(STAT_LAW))
    improve_law = put("improve.json", _law_obj(IMPROVE_LAW))
    q_law = put("qdescent.json", _law_obj(QDESCENT_LAW))
    # seeded: 3-agent scalar law, 1-D laws, counterexample parameters
    pts = rng.randint(-2, 3, size=(6, 3, 1)).astype(float)
    law3 = put("law3.json", _law_obj([[pts[i].tolist(), w] for i, w in enumerate(_weights(rng, 6))]))
    xs1 = put("xi1.json", _measure_obj([[[float(v)], w] for v, w in zip(rng.randn(8) * 2, _weights(rng, 8))], 1))
    mu1 = put("mu1.json", _measure_obj([[[float(v)], w] for v, w in zip(rng.randn(6), _weights(rng, 6))], 1))
    n = int(rng.randint(1, 201))
    eps = float(np.round(rng.uniform(0.005, 0.5), 6))

    dirac, spread1 = fixture("dirac.json"), fixture("spread.json")
    anti, como = fixture("antimonotone.json"), fixture("comonotone.json")
    mu_fix, prof1 = fixture("mu.json"), fixture("profile.json")
    q_iters = str(QDESCENT_MAX_ITERS)
    argvs = [
        ["check-dominance", dirac, spread1],
        ["check-dominance", spread1, dirac],
        ["check-dominance", m2, m2s],
        ["check-dominance", m2s, m2],
        ["check-dominance", como, anti],
        ["check-dominance", anti, como],
        ["comonotone-check", anti],
        ["comonotone-check", law3],
        ["maxcorr", xs1, "--mu", mu1],
        ["maxcorr", xs2, "--mu", mu2],
        ["maxcorr", spread1],
        ["comonotone-gap", anti, "--mu", mu_fix],
        ["comonotone-gap", gap2],
        ["share", prof1, spread1],
        ["share", prof2, share2],
        ["stat", anti],
        ["stat", stat_law],
        ["improve", improve_law],
        ["qdescent", q_law, "--max-iters", q_iters],
        ["counterexample", "--n", str(n), "--eps", repr(eps)],
        # The 2-D share request again: with 2 of 21 answers in its class,
        # the 90th percentile falls inside that class (near its median)
        # instead of in the gap between it and the next lighter class,
        # where it would be set by the extremes of two classes.
        ["share", prof2, share2],
    ]
    tasks = [{"id": f"{k:02d}-{argv[0]}", "argv": argv} for k, argv in enumerate(argvs)]
    order = rng.permutation(len(tasks))
    return {
        "files": files,
        "warmup": {"id": "warmup", "argv": ["stat", anti]},
        "tasks": [tasks[i] for i in order],
    }


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """All inputs of one run, JSON-serialisable; request files go to workdir."""
    rng = np.random.RandomState(seed)
    if workload == "sandwich-1d":
        body = _sandwich_inputs(rng)
    elif workload == "grid-ladder":
        body = _ladder_inputs(rng)
    elif workload == "request-mix":
        body = _request_inputs(rng, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return {"workload": workload, "seed": seed, **body}


# --------------------------------------------------------------------------
# answers (run in the workload process)
# --------------------------------------------------------------------------


class Answerer:
    """Turns tasks into calls on the program and results into JSON.

    Library calls go through module attributes (``improve.solve_...``), so
    the wrappers the traced run installs on those attributes see them.
    """

    def __init__(self, inputs: dict):
        import riskshare.cli as cli
        import riskshare.improve as improve
        import riskshare.measures as measures
        import riskshare.qdescent as qdescent

        self.cli, self.improve, self.qdescent = cli, improve, qdescent
        self.measures = measures
        self.workload = inputs["workload"]
        self.inputs = inputs
        self._laws: dict = {}
        for task in [inputs["warmup"], *inputs["tasks"]]:
            if "law" in task:
                self._laws[id(task)] = measures.validate_joint_law(
                    [(tup, w) for tup, w in task["law"]]
                )

    def answer(self, task):
        if self.workload == "sandwich-1d":
            return self._sandwich(task)
        if self.workload == "grid-ladder":
            return self._ladder(task)
        return self._request(task)

    def _sandwich(self, task):
        law = self._laws[id(task)]
        ball = self.measures.BallConfig(radius=self.inputs["radius"])
        grid = self.improve.build_split_grid(law, self.inputs["h"], ball)
        rep = self.improve.solve_improvement_lp(law, grid)
        state = self.qdescent.minimize_q(
            law, ball=ball, max_iters=self.inputs["max_iters"], target=rep.statistic
        )
        return rep, state

    def _ladder(self, task):
        law = self._laws[id(task)]
        ball = self.measures.BallConfig(radius=task["radius"])
        grid = self.improve.build_split_grid(law, task["h"], ball)
        return self.improve.solve_improvement_lp(law, grid)

    def _request(self, task):
        import contextlib
        import io

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.run(task["argv"])
        return code, out.getvalue()

    def failed(self, result) -> bool:
        """A CLI request that exits with code 2 is a failed answer."""
        return self.workload == "request-mix" and result[0] == 2

    def summary(self, result) -> dict:
        """JSON form of one answer, for the checker."""
        if self.workload == "request-mix":
            code, stdout = result
            return {"code": code, "report": json.loads(stdout)}
        if self.workload == "grid-ladder":
            return {"report": _report_summary(result)}
        rep, state = result
        return {"report": _report_summary(rep), "state": _state_summary(state)}


def _report_summary(rep) -> dict:
    return {
        "statistic": rep.statistic,
        "objective_at_input": rep.objective_at_input,
        "objective_at_optimum": rep.objective_at_optimum,
        "improved": _law(rep.improved.atoms),
        "per_agent": [v.dominates for v in rep.per_agent],
    }


def _state_summary(state) -> dict:
    return {
        "j": state.j,
        "j_history": list(state.j_history),
        "iterations": state.iterations,
        "hit_cap": state.hit_cap,
        "profile": [
            {"eps": ag.eps, "pieces": [[list(a), b] for a, b in ag.pieces]}
            for ag in state.profile.agents
        ],
    }
