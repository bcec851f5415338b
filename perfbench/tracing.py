"""Layer spans recorded from outside the program, for the traced run.

``install`` replaces each public function named in ``LAYERS`` by a wrapper
in every ``riskshare`` module namespace that binds it (``share_point`` is
bound in ``infconv``, ``qdescent``, ``cli`` and the package itself), so
calls between modules are seen without editing the program.  Spans are kept
in memory with a parent link; ``layer_metrics`` turns them into the
per-layer figures once the run is over.
"""

from __future__ import annotations

import functools
import sys
import time

#: Wrapped functions, as (defining module, function name).
LAYERS = (
    ("lp", "solve"),
    ("lp", "feasible"),
    ("improve", "build_split_grid"),
    ("improve", "build_improvement_problem"),
    ("improve", "solve_improvement_lp"),
    ("convex_order", "allocation_dominates"),
    ("maxcorr", "max_correlation"),
    ("infconv", "share_point"),
    ("qdescent", "minimize_q"),
    ("measures", "validate_joint_law"),
    ("cli", "run"),
)

#: Per-layer metrics in report order, with their units.
METRICS = (
    ("lp.solve.calls", "count"),
    ("lp.solve.self_s", "s"),
    ("lp.pivots", "count"),
    ("lp.ms_per_pivot", "ms"),
    ("lp.feasible.calls", "count"),
    ("lp.feasible.self_s", "s"),
    ("lp.rows_max", "count"),
    ("lp.cols_max", "count"),
    ("lp.density", "1"),
    ("improve.build_split_grid.self_s", "s"),
    ("improve.candidates", "count"),
    ("improve.build_improvement_problem.self_s", "s"),
    ("improve.solve_improvement_lp.self_s", "s"),
    ("convex_order.allocation_dominates.calls", "count"),
    ("convex_order.allocation_dominates.self_s", "s"),
    ("maxcorr.max_correlation.calls", "count"),
    ("maxcorr.max_correlation.self_s", "s"),
    ("infconv.share_point.calls", "count"),
    ("infconv.share_point.self_s", "s"),
    ("infconv.share_point.us_per_call", "us"),
    ("infconv.share_point.iterations", "count"),
    ("qdescent.minimize_q.self_s", "s"),
    ("qdescent.iterations", "count"),
    ("qdescent.evaluations", "count"),
    ("qdescent.accept_ratio", "1"),
    ("measures.validate_joint_law.calls", "count"),
    ("measures.validate_joint_law.self_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
)

ANSWER = "answer"


def _aggregate_atoms(law) -> int:
    """Distinct aggregate points of a joint law (the descent's atoms)."""
    return len(
        {
            tuple(round(sum(pt[k] for pt in tup), 9) for k in range(law.dim))
            for tup, _ in law.atoms
        }
    )


def _extra(name: str, args, result):
    """Counts read from a call's arguments and returned object."""
    if name in ("lp.solve", "lp.feasible"):
        A = args[0].A if name == "lp.solve" else args[0]
        return (result.pivots, A)
    if name == "improve.build_split_grid":
        return result.total_candidates
    if name == "infconv.share_point":
        return result.iterations
    if name == "qdescent.minimize_q":
        return (result.iterations, _aggregate_atoms(args[0]))
    return None


class Recorder:
    """Spans as [name, start, end, parent index, extra] in call order."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._largest = None  # (rows * cols, A) of the largest program

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        extra = _extra(name, args, result)
        if name in ("lp.solve", "lp.feasible"):
            pivots, A = extra
            size = A.shape[0] * A.shape[1]
            if self._largest is None or size > self._largest[0]:
                self._largest = (size, A)
            extra = (pivots, A.shape[0], A.shape[1])
        span[4] = extra
        return result

    def answer(self, fn, *args):
        return self.call(ANSWER, fn, args, {})

    def density(self) -> float:
        if self._largest is None:
            return 0.0
        size, A = self._largest
        return float((A != 0).sum()) / size


def _wrapper(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)

    return traced


def install(recorder: Recorder) -> None:
    """Wrap every LAYERS function wherever a riskshare module binds it."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "riskshare" or n.startswith("riskshare.")]
    for mod_name, fn_name in LAYERS:
        home = sys.modules[f"riskshare.{mod_name}"]
        fn = getattr(home, fn_name)
        traced = _wrapper(recorder, f"{mod_name}.{fn_name}", fn)
        for mod in modules:
            if getattr(mod, fn_name, None) is fn:
                setattr(mod, fn_name, traced)
        if getattr(home, fn_name) is not traced:
            raise RuntimeError(f"could not wrap riskshare.{mod_name}.{fn_name}")


def layer_metrics(recorder: Recorder) -> dict:
    """Per-answer means of counts and self times, plus ratios and maxima."""
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    sp_in_q = [0] * len(spans)  # share_point calls under each minimize_q span
    for idx, (name, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += t1 - t0
        if name == "infconv.share_point":
            p = parent
            while p >= 0 and spans[p][0] != "qdescent.minimize_q":
                p = spans[p][3]
            if p >= 0:
                sp_in_q[p] += 1
    calls: dict = {}
    self_s: dict = {}
    pivots = rows = cols = candidates = sp_iters = q_iters = 0
    evaluations = 0.0
    for idx, (name, t0, t1, _, extra) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[idx]
        if extra is None:
            continue  # the call raised, or its layer carries no counts
        if name in ("lp.solve", "lp.feasible"):
            pivots += extra[0]
            rows, cols = max(rows, extra[1]), max(cols, extra[2])
        elif name == "improve.build_split_grid":
            candidates += extra
        elif name == "infconv.share_point":
            sp_iters += extra
        elif name == "qdescent.minimize_q":
            q_iters += extra[0]
            evaluations += sp_in_q[idx] / extra[1]
    n = max(calls.get(ANSWER, 0), 1)
    lp_self = self_s.get("lp.solve", 0.0) + self_s.get("lp.feasible", 0.0)
    sp_calls = calls.get("infconv.share_point", 0)
    out = {}
    for mod_name, fn_name in LAYERS:
        key = f"{mod_name}.{fn_name}"
        out[f"{key}.calls"] = calls.get(key, 0) / n
        out[f"{key}.self_s"] = self_s.get(key, 0.0) / n
    out.update(
        {
            "lp.pivots": pivots / n,
            "lp.ms_per_pivot": 1e3 * lp_self / pivots if pivots else 0.0,
            "lp.rows_max": rows,
            "lp.cols_max": cols,
            "lp.density": recorder.density(),
            "improve.candidates": candidates / n,
            "infconv.share_point.us_per_call": (
                1e6 * self_s.get("infconv.share_point", 0.0) / sp_calls if sp_calls else 0.0
            ),
            "infconv.share_point.iterations": sp_iters / n,
            "qdescent.iterations": q_iters / n,
            "qdescent.evaluations": evaluations / n,
            "qdescent.accept_ratio": q_iters / evaluations if evaluations else 0.0,
        }
    )
    return {name: {"value": out[name], "unit": unit} for name, unit in METRICS}
