"""Answer checks, computed apart from the program.

Optima are compared with HiGHS (``scipy.optimize.linprog``), dominance with
a stop-loss comparison or a HiGHS kernel-feasibility program written here,
maximal correlations with a sorted-quantile pairing or
``scipy.optimize.linear_sum_assignment``, shares with an SLSQP split, and the
descent's J with an exact one-dimensional minimisation.  scipy serves only
as an oracle; the workload process never imports it.

Every ``check_*`` function returns a list of problems (empty when the answer
holds), so a test can plant a wrong answer and see it rejected.
"""

from __future__ import annotations

import itertools
import json
import math

import jsonschema
import numpy as np
from scipy.optimize import linear_sum_assignment, linprog, minimize

from workloads import ROOT

#: Reported optimum against HiGHS, relative to 1 + |value|; the two agree to
#: about 3e-14 on these programs.
LP_TOL = 1e-8
#: Dominance slack: the program certifies its improved laws at 1e-7.
DOMINANCE_TOL = 1e-7
#: Equality of aggregate laws (atoms and weights).
LAW_TOL = 1e-8
SANDWICH_TOL = 1e-6
DESIGNED_TOL = 1e-3
#: J recomputed from the returned potentials against the reported J.
J_TOL = 1e-7
SHARE_SLACK = 1e-6

SCHEMA_DIR = ROOT / "src" / "riskshare" / "schemas"

# --------------------------------------------------------------------------
# laws
# --------------------------------------------------------------------------


def _key(point) -> tuple:
    return tuple(round(float(v), 9) + 0.0 for v in point)


def _measure(items) -> dict:
    """{rounded point: weight} of (point, weight) pairs, merged."""
    out: dict = {}
    for pt, w in items:
        k = _key(pt)
        out[k] = out.get(k, 0.0) + float(w)
    return out


def aggregate(law) -> dict:
    return _measure((np.sum(np.asarray(tup, dtype=float), axis=0), w) for tup, w in law)


def marginal(law, i) -> dict:
    return _measure((tup[i], w) for tup, w in law)


def same_measure(a: dict, b: dict, tol: float = LAW_TOL) -> bool:
    if a.keys() != b.keys():
        return False
    return all(abs(a[k] - b[k]) <= tol for k in a)


def floor_cost(law, eps) -> float:
    return math.fsum(
        w * sum(0.5 * e * float(np.dot(y, y)) for e, y in zip(eps, tup)) for tup, w in law
    )


def _stop_loss(m: dict, t: float) -> float:
    return math.fsum(w * max(x[0] - t, 0.0) for x, w in m.items())


def dominates(mu: dict, nu: dict, tol: float = DOMINANCE_TOL) -> bool:
    """mu dominates nu in the concave order (nu is a mean-preserving spread)."""
    dim = len(next(iter(mu)))
    if dim == 1:
        mean_mu = math.fsum(x[0] * w for x, w in mu.items())
        mean_nu = math.fsum(x[0] * w for x, w in nu.items())
        if abs(mean_mu - mean_nu) > tol:
            return False
        return all(_stop_loss(mu, t) <= _stop_loss(nu, t) + tol for (t,) in set(mu) | set(nu))
    # kernel pi(x, y) >= 0 with marginals mu, nu and mean x in every row
    xs, ys = list(mu), list(nu)
    n, m = len(xs), len(ys)
    rows, rhs = [], []
    for i in range(n):
        r = np.zeros(n * m)
        r[i * m : (i + 1) * m] = 1.0
        rows.append(r)
        rhs.append(mu[xs[i]])
    for j in range(m):
        r = np.zeros(n * m)
        r[j::m] = 1.0
        rows.append(r)
        rhs.append(nu[ys[j]])
    for i in range(n):
        for k in range(dim):
            r = np.zeros(n * m)
            r[i * m : (i + 1) * m] = [y[k] - xs[i][k] for y in ys]
            rows.append(r)
            rhs.append(0.0)
    res = linprog(np.zeros(n * m), A_eq=np.array(rows), b_eq=np.array(rhs), method="highs")
    return res.status == 0


def _raw_law(obj) -> list:
    """Raw atoms of a joint-law JSON object."""
    return [(a["x"], a["w"]) for a in obj["atoms"]]


def _raw_measure(obj) -> dict:
    return _measure((a["x"], a["w"]) for a in obj["atoms"])


# --------------------------------------------------------------------------
# improvement programs
# --------------------------------------------------------------------------


def highs_optimum(law, h: float, radius: float, eps) -> float:
    """HiGHS optimum of the improvement program riskshare assembles."""
    from riskshare.improve import build_improvement_problem, build_split_grid
    from riskshare.measures import BallConfig, validate_joint_law

    gamma0 = validate_joint_law([(tup, w) for tup, w in law])
    grid = build_split_grid(gamma0, h, BallConfig(radius=radius))
    prog = build_improvement_problem(gamma0, grid, eps).program
    res = linprog(prog.c, A_eq=prog.A, b_eq=prog.b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return float(res.fun)


def check_statistic(law, h, radius, eps, statistic, optimum=None) -> list:
    """The statistic is the baseline cost minus the HiGHS optimum."""
    v = highs_optimum(law, h, radius, eps)
    baseline = floor_cost(law, eps)
    problems = []
    if optimum is not None and abs(optimum - v) > LP_TOL * (1 + abs(v)):
        problems.append(f"optimum {optimum!r} differs from HiGHS {v!r}")
    if abs(statistic - (baseline - v)) > LP_TOL * (1 + abs(v)):
        problems.append(f"statistic {statistic!r} differs from baseline - HiGHS {baseline - v!r}")
    return problems


def check_improvement(law, h, radius, eps, report) -> list:
    """Optimum, statistic and improved law of one improvement answer."""
    problems = check_statistic(
        law, h, radius, eps, report["statistic"], report["objective_at_optimum"]
    )
    baseline = floor_cost(law, eps)
    if abs(report["objective_at_input"] - baseline) > LP_TOL * (1 + abs(baseline)):
        problems.append(f"baseline cost {report['objective_at_input']!r} != {baseline!r}")
    improved = report["improved"]
    if not same_measure(aggregate(improved), aggregate(law)):
        problems.append("improved law changes the aggregate atoms or weights")
    for i in range(len(law[0][0])):
        if not dominates(marginal(improved, i), marginal(law, i)):
            problems.append(f"agent {i}: improved marginal does not dominate the baseline")
    drop = baseline - floor_cost(improved, eps)
    if abs(report["statistic"] - drop) > LP_TOL * (1 + abs(baseline)):
        problems.append(f"statistic {report['statistic']!r} != cost drop {drop!r}")
    return problems


def quadratic_j(law, radius: float) -> float:
    """J at the pure quadratic potentials (eps = 1): E sum |y_i|^2/2 - E |x|^2/4.

    Two agents split x evenly when x/2 stays in the ball, which holds on
    every grid-ladder law.
    """
    agg = aggregate(law)
    if any(0.5 * math.hypot(*x) > radius for x in agg):
        raise ValueError("an even split leaves the ball; the closed form does not apply")
    pooled = math.fsum(w * 0.25 * sum(v * v for v in x) for x, w in agg.items())
    return floor_cost(law, [1.0, 1.0]) - pooled


# --------------------------------------------------------------------------
# dual descent
# --------------------------------------------------------------------------


def _psi(agent, y: np.ndarray) -> np.ndarray:
    """psi(y) = eps/2 y^2 + max_k (a_k y + b_k), vectorised over scalar y."""
    a = np.array([p[0][0] for p in agent["pieces"]] or [0.0])
    b = np.array([p[1] for p in agent["pieces"]] or [0.0])
    return 0.5 * agent["eps"] * y * y + np.max(np.outer(y, a) + b, axis=1)


def pooled_cost_1d(profile, x: float, radius: float) -> float:
    """min psi_1(y) + psi_2(x - y) over |y| <= R, |x - y| <= R, exactly.

    The objective is convex and piecewise quadratic, so its minimum is at a
    stationary point of one pair of pieces, at a kink, or at an end of the
    interval; all of them are evaluated.
    """
    ag1, ag2 = profile
    lo, hi = max(-radius, x - radius), min(radius, x + radius)
    e1, e2 = ag1["eps"], ag2["eps"]
    p1 = [(p[0][0], p[1]) for p in ag1["pieces"]] or [(0.0, 0.0)]
    p2 = [(p[0][0], p[1]) for p in ag2["pieces"]] or [(0.0, 0.0)]
    cands = [lo, hi]
    for a1, _ in p1:
        for a2, _ in p2:
            cands.append((e2 * x + a2 - a1) / (e1 + e2))
    for (a, b), (c, d) in itertools.combinations(p1, 2):
        if a != c:
            cands.append((d - b) / (a - c))
    for (a, b), (c, d) in itertools.combinations(p2, 2):
        if a != c:
            cands.append(x - (d - b) / (a - c))
    y = np.clip(np.array(cands), lo, hi)
    return float(np.min(_psi(ag1, y) + _psi(ag2, x - y)))


def j_from_profile(law, profile, radius: float) -> float:
    """J of a two-agent 1-D law under the returned potentials."""
    first = math.fsum(
        w * sum(float(_psi(ag, np.array([tup[i][0]]))[0]) for i, ag in enumerate(profile))
        for tup, w in law
    )
    pooled = math.fsum(
        w * pooled_cost_1d(profile, x[0], radius) for x, w in aggregate(law).items()
    )
    return first - pooled


def check_descent(law, radius, statistic, state, designed: bool) -> list:
    problems = []
    j, hist = state["j"], state["j_history"]
    if j < statistic - SANDWICH_TOL:
        problems.append(f"J {j!r} below the statistic {statistic!r}")
    if hist[-1] != j or any(b > a for a, b in zip(hist, hist[1:])):
        problems.append("j_history is not non-increasing down to J")
    if designed and abs(j - statistic) > DESIGNED_TOL:
        problems.append(f"designed law: J {j!r} is not within {DESIGNED_TOL} of {statistic!r}")
    again = j_from_profile(law, state["profile"], radius)
    if abs(again - j) > J_TOL * (1 + abs(j)):
        problems.append(f"J {j!r} differs from J recomputed from the potentials {again!r}")
    return problems


# --------------------------------------------------------------------------
# request-mix
# --------------------------------------------------------------------------


def _rho_1d(xi: dict, mu: dict) -> float:
    """max E[X Y] over couplings on the line: pair quantiles in order."""
    xs, ys = sorted(xi.items()), sorted(mu.items())
    i = j = 0
    a, b = xs[0][1], ys[0][1]
    total = 0.0
    while i < len(xs) and j < len(ys):
        t = min(a, b)
        total += t * xs[i][0][0] * ys[j][0][0]
        a, b = a - t, b - t
        if a <= 1e-15:
            i += 1
            a = xs[i][1] if i < len(xs) else 0.0
        if b <= 1e-15:
            j += 1
            b = ys[j][1] if j < len(ys) else 0.0
    return total


def _rho_lp(xi: dict, mu: dict) -> float:
    xs, ys = list(xi), list(mu)
    n, m = len(xs), len(ys)
    c = -np.array([[np.dot(x, y) for y in ys] for x in xs]).reshape(n * m)
    rows, rhs = [], []
    for i in range(n):
        r = np.zeros(n * m)
        r[i * m : (i + 1) * m] = 1.0
        rows.append(r)
        rhs.append(xi[xs[i]])
    for j in range(m):
        r = np.zeros(n * m)
        r[j::m] = 1.0
        rows.append(r)
        rhs.append(mu[ys[j]])
    res = linprog(c, A_eq=np.array(rows), b_eq=np.array(rhs), bounds=(0, None), method="highs")
    return float(-res.fun)


def rho(xi: dict, mu: dict) -> float:
    return _rho_1d(xi, mu) if len(next(iter(xi))) == 1 else _rho_lp(xi, mu)


def default_baseline(dim: int, radius: float = 1.0) -> dict:
    """Uniform law on 5^dim lattice points with corners on the sphere."""
    axis = np.linspace(-1.0, 1.0, 5) * (radius / math.sqrt(dim))
    return _measure((pt, 1.0 / 5**dim) for pt in itertools.product(axis, repeat=dim))


def _uniform_assignment_rho(xi_obj, mu_obj) -> float:
    X = np.array([a["x"] for a in xi_obj["atoms"]])
    Y = np.array([a["x"] for a in mu_obj["atoms"]])
    gain = X @ Y.T
    r, c = linear_sum_assignment(gain, maximize=True)
    return float(gain[r, c].sum()) / len(X)


def _psi_md(agent, y: np.ndarray) -> float:
    pieces = agent.get("pieces") or [{"a": [0.0] * y.size, "b": 0.0}]
    top = max(float(np.dot(p["a"], y)) + p["b"] for p in pieces)
    return 0.5 * agent.get("eps", 1.0) * float(y @ y) + top


def slsqp_split_cost(profile, x: np.ndarray, radius: float) -> float:
    """Cost of a split of x found by SLSQP on the epigraph form."""
    agents = profile["profiles"]
    p, d = len(agents), x.size
    pieces = [ag.get("pieces") or [{"a": [0.0] * d, "b": 0.0}] for ag in agents]

    def shares(v):
        ys = v[: (p - 1) * d].reshape(p - 1, d)
        return np.vstack([ys, x - ys.sum(axis=0)])

    def objective(v):
        ys, t = shares(v), v[(p - 1) * d :]
        return sum(0.5 * ag.get("eps", 1.0) * float(y @ y) for ag, y in zip(agents, ys)) + t.sum()

    cons = []
    for i in range(p):
        for piece in pieces[i]:
            cons.append(
                {
                    "type": "ineq",
                    "fun": lambda v, i=i, a=np.array(piece["a"]), b=piece["b"]: v[(p - 1) * d + i]
                    - (a @ shares(v)[i] + b),
                }
            )
        cons.append({"type": "ineq", "fun": lambda v, i=i: radius**2 - float(shares(v)[i] @ shares(v)[i])})
    start_y = np.tile(x / p, p - 1)
    start_t = [_psi_md(ag, x / p) - 0.5 * ag.get("eps", 1.0) * float((x / p) @ (x / p)) for ag in agents]
    res = minimize(
        objective,
        np.concatenate([start_y, start_t]),
        method="SLSQP",
        constraints=cons,
        options={"maxiter": 500, "ftol": 1e-12},
    )
    return sum(_psi_md(ag, y) for ag, y in zip(agents, shares(res.x)))


def _expected_code(report) -> int:
    cmd = report["command"]
    if cmd == "check-dominance":
        return 0 if report["dominates"] else 1
    if cmd in ("comonotone-check", "comonotone-gap"):
        return 0 if report["comonotone"] else 1
    if cmd == "improve":
        return 0 if report["comonotone_at_tol"] else 1
    if cmd == "stat":
        return 0 if report["statistic"] <= report["tol"] else 1
    return 0


def _pairwise_comonotone(law, tol) -> bool:
    X = np.array([[pt[0] for pt in tup] for tup, _ in law])
    for a, b in itertools.combinations(range(len(X)), 2):
        diff = X[b] - X[a]
        if diff.min() * diff.max() < -tol:
            return False
    return True


def _default_step(law, radius) -> float:
    pts = np.array(list(aggregate(law)))
    spread = float(np.max(pts.max(axis=0) - pts.min(axis=0))) if len(pts) > 1 else 0.0
    return spread / 8.0 if spread > 0 else radius / 2.0


class RequestChecker:
    """Checks one CLI answer against its request; the schema is loaded once."""

    def __init__(self, files: dict):
        self.files = files
        schema = json.loads((SCHEMA_DIR / "report.schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.gaps: dict = {}  # J - statistic of each qdescent request

    def check(self, argv, answer) -> list:
        code, report = answer["code"], answer["report"]
        problems = [f"schema: {e.message}" for e in self.validator.iter_errors(report)]
        if code == 2:
            return problems  # counted as failed by the workload process
        if code != _expected_code(report):
            problems.append(f"exit code {code} disagrees with the report")
        pos, opts = [], {}
        args = iter(argv[1:])
        for arg in args:
            if arg.startswith("--"):
                opts[arg] = next(args)
            else:
                pos.append(self.files[arg])
        handler = getattr(self, "_" + argv[0].replace("-", "_"))
        problems += handler(report, pos, opts)
        if argv[0] == "qdescent":
            self.gaps.setdefault(tuple(argv), report["j_final"] - report["statistic"])
        return problems

    def _check_dominance(self, report, objs, opts):
        left, right = objs
        if "agents" in left:
            a, b = _raw_law(left), _raw_law(right)
            want = same_measure(aggregate(a), aggregate(b)) and all(
                dominates(marginal(a, i), marginal(b, i), report["tol"]) for i in range(left["agents"])
            )
        else:
            want = dominates(_raw_measure(left), _raw_measure(right), report["tol"])
        return [] if report["dominates"] == want else [f"dominates={report['dominates']}, expected {want}"]

    def _comonotone_check(self, report, objs, opts):
        want = _pairwise_comonotone(_raw_law(objs[0]), report["tol"])
        return [] if report["comonotone"] == want else [f"comonotone={report['comonotone']}, expected {want}"]

    def _maxcorr(self, report, objs, opts):
        xi_obj = objs[0]
        xi = _raw_measure(xi_obj)
        dim = xi_obj["dim"]
        if "--mu" in opts:
            mu_obj = self.files[opts["--mu"]]
            mu = _raw_measure(mu_obj)
        else:
            mu_obj, mu = None, default_baseline(dim)
        uniform = (
            mu_obj is not None
            and dim > 1
            and len(xi_obj["atoms"]) == len(mu_obj["atoms"])
            and len({a["w"] for a in xi_obj["atoms"] + mu_obj["atoms"]}) == 1
        )
        want = _uniform_assignment_rho(xi_obj, mu_obj) if uniform else rho(xi, mu)
        problems = []
        if abs(report["value"] - want) > LP_TOL * (1 + abs(want)):
            problems.append(f"maximal correlation {report['value']!r}, expected {want!r}")
        pairs = report["coupling"]
        if not same_measure(_measure((c["x"], c["w"]) for c in pairs), xi, 1e-9) or not same_measure(
            _measure((c["y"], c["w"]) for c in pairs), mu, 1e-9
        ):
            problems.append("coupling marginals differ from the inputs")
        return problems

    def _comonotone_gap(self, report, objs, opts):
        law = _raw_law(objs[0])
        mu = _raw_measure(self.files[opts["--mu"]]) if "--mu" in opts else default_baseline(objs[0]["dim"])
        per_agent = [rho(marginal(law, i), mu) for i in range(objs[0]["agents"])]
        gap = sum(per_agent) - rho(aggregate(law), mu)
        problems = []
        if abs(report["gap"] - gap) > LP_TOL * (1 + sum(abs(v) for v in per_agent)):
            problems.append(f"gap {report['gap']!r}, expected {gap!r}")
        if report["comonotone"] != (report["gap"] <= report["tol"]):
            problems.append("verdict disagrees with the gap")
        return problems

    def _share(self, report, objs, opts):
        profile, measure = objs
        radius, tol = report["radius"], report["tol"]
        problems = []
        points = report["points"]
        if sorted(_key(p["x"]) for p in points) != sorted(_raw_measure(measure)):
            problems.append("shared states differ from the measure's atoms")
        for p in points:
            x = np.array(p["x"])
            ys = [np.array(y) for y in p["shares"]]
            if np.linalg.norm(sum(ys) - x) > tol * (1 + np.linalg.norm(x)):
                problems.append(f"shares of {p['x']} do not sum to it")
            if any(np.linalg.norm(y) > radius * (1 + 1e-9) + 1e-12 for y in ys):
                problems.append(f"a share of {p['x']} leaves the ball")
            cost = sum(_psi_md(ag, y) for ag, y in zip(profile["profiles"], ys))
            ref = slsqp_split_cost(profile, x, radius)
            if cost > ref + SHARE_SLACK:
                problems.append(f"split of {p['x']} costs {cost!r}, SLSQP finds {ref!r}")
        return problems

    def _geometry(self, report, law):
        radius = report["radius"]
        h = report.get("grid_step") or _default_step(law, radius)
        return h, radius, report.get("eps") or [1.0] * len(law[0][0])

    def _stat(self, report, objs, opts):
        law = _raw_law(objs[0])
        return check_statistic(law, *self._geometry(report, law), report["statistic"])

    def _improve(self, report, objs, opts):
        law = _raw_law(objs[0])
        summary = {**report, "improved": _raw_law(report["improved"])}
        return check_improvement(law, *self._geometry(report, law), summary)

    def _qdescent(self, report, objs, opts):
        law = _raw_law(objs[0])
        problems = check_statistic(law, *self._geometry(report, law), report["statistic"])
        j, stat = report["j_final"], report["statistic"]
        if j < stat - SANDWICH_TOL:
            problems.append(f"J {j!r} below the statistic {stat!r}")
        if report["sandwich_gap"] != j - stat:
            problems.append("sandwich_gap is not J - statistic")
        return problems

    def _counterexample(self, report, objs, opts):
        n, eps = report["n"], report["eps"]
        u = math.sqrt(1.0 - eps) / 2.0 + math.sqrt(n - eps) / (2.0 * n)
        v = math.sqrt(1.0 - eps) / 2.0 + math.sqrt(n - eps) / 2.0
        want = 1.0 - u * v
        if n != int(opts["--n"]) or eps != float(opts["--eps"]):
            return ["parameters differ from the request"]
        if abs(report["det_sum"] - want) > 1e-9 * (1 + abs(want)):
            return [f"det_sum {report['det_sum']!r}, closed form 1 - uv = {want!r}"]
        return []


# --------------------------------------------------------------------------
# whole runs
# --------------------------------------------------------------------------


def check_run(inputs: dict, answers: dict) -> tuple[list, float]:
    """Problems of every distinct answer, and the run's sandwich_gap."""
    workload = inputs["workload"]
    problems: list = []
    gap = 0.0
    requests = RequestChecker(inputs.get("files", {})) if workload == "request-mix" else None
    finest: dict = {}
    for task in inputs["tasks"]:
        for k, ans in enumerate(answers.get(task["id"], [])):
            if workload == "sandwich-1d":
                law, radius = task["law"], inputs["radius"]
                rep = ans["report"]
                found = check_improvement(law, inputs["h"], radius, [1.0, 1.0], rep)
                found += check_descent(law, radius, rep["statistic"], ans["state"], task["designed"])
                if k == 0:
                    gap += ans["state"]["j"] - rep["statistic"]
            elif workload == "grid-ladder":
                rep = ans["report"]
                found = check_improvement(task["law"], task["h"], task["radius"], [1.0, 1.0], rep)
                prev = finest.get(task["law_id"])
                if prev is not None and rep["statistic"] < prev[1] - 1e-9:
                    found.append(f"statistic fell from {prev[1]!r} at h={prev[0]} on the finer grid")
                if prev is None or task["h"] < prev[0]:
                    finest[task["law_id"]] = (task["h"], rep["statistic"], task)
            else:
                found = requests.check(task["argv"], ans)
            problems += [f"{task['id']}: {p}" for p in found]
        if not answers.get(task["id"]):
            problems.append(f"{task['id']}: no answer")
    if workload == "grid-ladder":
        gap = sum(quadratic_j(t["law"], t["radius"]) - stat for _, stat, t in finest.values())
    elif workload == "request-mix":
        gap = sum(requests.gaps.values())
    return problems, gap
