"""Command-line front end.

Every subcommand validates its JSON inputs against the shipped schemas,
dispatches to the library, prints a ``{"version": 1, ...}`` JSON report on
stdout and a one-line summary on stderr.  Exit codes: 0 for an affirmative
verdict or a successful computation, 1 for a negative verdict (not
dominating, not comonotone at the tolerance), 2 for input or runtime
errors.  ``--emit-csv`` writes plot-ready tables (couplings, sharing maps,
statistic-versus-step curves, diagnostics) next to the JSON report.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from importlib import resources
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .convex_order import allocation_dominates, dominates, is_comonotone_pairwise
from .errors import InputError, RiskShareError
from .improve import (
    _cost_weights,
    build_split_grid,
    default_radius,
    default_step,
    solve_improvement_lp,
)
from .infconv import counterexample_family, profile_from_obj, share_point
from .maxcorr import comonotonicity_gap, default_baseline, max_correlation
from .measures import (
    DEFAULT_TOL,
    BallConfig,
    joint_law_from_obj,
    joint_law_to_obj,
    measure_from_obj,
    parse_strict_json,
    validate_joint_law,
)
from .qdescent import DEFAULT_MAX_ITERS, minimize_q

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep the JSON-report contract on bad flags
        raise InputError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# input loading and schema validation
# ---------------------------------------------------------------------------

#: Input kind -> converter; the kind's schema is ``<kind>.schema.json``.
_CONVERTERS = {
    "measure": measure_from_obj,
    "joint_law": joint_law_from_obj,
    "profile": profile_from_obj,
}


# The JSON types the input schemas name, tested as Draft 2020-12 tests them:
# a bool is not a number, and a float with no fractional part is an integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (
        isinstance(v, int) and not isinstance(v, bool)
        or isinstance(v, float) and v.is_integer()
    ),
}
_IS_NUMBER = _TYPES["number"]
#: Keywords that only annotate a schema and check nothing.
_ANNOTATIONS = frozenset({"$schema", "$id", "title"})


def _keyword(name: str, value, schema: dict):
    """The check of one keyword of ``schema``.  It takes an instance and
    returns None, or the violation as (path elements, innermost first;
    message), worded as jsonschema words it."""
    if name == "type" and isinstance(value, str) and value in _TYPES:
        test = _TYPES[value]
        return lambda v: None if test(v) else ([], f"{v!r} is not of type {value!r}")
    if name == "required":

        def required(v):
            if isinstance(v, dict):
                for key in value:
                    if key not in v:
                        return [], f"{key!r} is a required property"

        return required
    if name == "additionalProperties" and value is False:
        allowed = frozenset(schema.get("properties", ()))

        def additional(v):
            if isinstance(v, dict) and not allowed.issuperset(v):
                extras = sorted(key for key in v if key not in allowed)
                verb = "was" if len(extras) == 1 else "were"
                listed = ", ".join(map(repr, extras))
                return [], f"Additional properties are not allowed ({listed} {verb} unexpected)"

        return additional
    if name == "properties":
        subs = [(key, _compile(sub)) for key, sub in value.items()]

        def properties(v):
            if isinstance(v, dict):
                for key, check in subs:
                    if key in v:
                        error = check(v[key])
                        if error is not None:
                            error[0].append(key)
                            return error

        return properties
    if name == "items":
        check = _compile(value)

        def items(v):
            if isinstance(v, list):
                for index, item in enumerate(v):
                    error = check(item)
                    if error is not None:
                        error[0].append(index)
                        return error

        return items
    if name == "minItems":
        word = "should be non-empty" if value == 1 else "is too short"
        return lambda v: ([], f"{v!r} {word}") if isinstance(v, list) and len(v) < value else None
    if name == "minimum":
        return lambda v: (
            ([], f"{v!r} is less than the minimum of {value!r}")
            if _IS_NUMBER(v) and v < value
            else None
        )
    if name == "exclusiveMinimum":
        return lambda v: (
            ([], f"{v!r} is less than or equal to the minimum of {value!r}")
            if _IS_NUMBER(v) and v <= value
            else None
        )
    raise RiskShareError(f"input schema: unsupported keyword {name}: {value!r}")


def _compile(schema: dict):
    """The check of an input schema: the first violation of a depth-first walk
    that takes keywords, properties and items in document order, or None.  A
    keyword it does not cover is refused here, so none is ever ignored."""
    checks = [_keyword(k, v, schema) for k, v in schema.items() if k not in _ANNOTATIONS]

    def check(v):
        for keyword in checks:
            error = keyword(v)
            if error is not None:
                return error

    return check


@functools.cache
def _validator(kind: str):
    """The compiled check of one input kind's schema, built once."""
    resource = resources.files("riskshare.schemas").joinpath(f"{kind}.schema.json")
    return _compile(json.loads(resource.read_text()))


def _read(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}") from exc
    try:
        return parse_strict_json(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except RiskShareError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _violation(kind: str, obj) -> Optional[str]:
    """``"{json_path}: {message}"`` of the first schema violation in ``obj``,
    with jsonschema's path form (``$.atoms[0].w``), or None."""
    error = _validator(kind)(obj)
    if error is None:
        return None
    elements, message = error
    where = "".join(f"[{e}]" if isinstance(e, int) else f".{e}" for e in reversed(elements))
    return f"${where}: {message}"


def _checked(path: str, obj, kind: str):
    """The parsed contents ``obj`` of ``path``, once its kind's schema admits them."""
    violation = _violation(kind, obj)
    if violation is not None:
        raise InputError(f"{path}: schema violation at {violation}")
    return obj


def _build(path: str, obj, kind: str):
    """The object that the schema-checked contents ``obj`` of ``path`` describe."""
    try:
        return _CONVERTERS[kind](obj)
    except RiskShareError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _convert(path: str, obj, kind: str):
    """Schema-check the parsed contents of ``path`` and build its object."""
    return _build(path, _checked(path, obj, kind), kind)


def _load(path: str, kind: str):
    return _convert(path, _read(path), kind)


# ---------------------------------------------------------------------------
# option helpers
# ---------------------------------------------------------------------------


def _parse_eps(text: Optional[str]) -> Optional[list]:
    """The numbers of ``--eps``, comma-separated, or None when it is not given."""
    if text is None:
        return None
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(f"--eps expects comma-separated numbers: {exc}") from exc


def _emit_csv(path: str, header: Sequence[str], rows) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit_allocation_csv(path: str, agents: int, dim: int, rows, lead=()) -> None:
    """Write ``(lead values, shares, weight)`` rows, one column per share coordinate."""
    header = [*lead, *(f"y{i}_{k}" for i in range(agents) for k in range(dim)), "w"]
    table = [[*pre, *(v for y in shares for v in y), w] for pre, shares, w in rows]
    _emit_csv(path, header, table)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (affirmative?, report fields, summary line)
# ---------------------------------------------------------------------------


def _cmd_check_dominance(args):
    left_obj, right_obj = _read(args.left), _read(args.right)
    joint = isinstance(left_obj, dict) and "agents" in left_obj
    if joint != (isinstance(right_obj, dict) and "agents" in right_obj):
        raise InputError(
            "check-dominance needs two measures or two allocation laws, not a mix"
        )
    kind = "joint_law" if joint else "measure"
    left = _convert(args.left, left_obj, kind)
    right = _convert(args.right, right_obj, kind)
    verdict = (allocation_dominates if joint else dominates)(left, right, args.tol)
    fields = {
        "mode": "allocation" if joint else "measure",
        "tol": args.tol,
        "dominates": verdict.dominates,
        "strict": verdict.strict,
    }
    if joint:
        fields["per_agent"] = [
            {
                "dominates": v.dominates,
                "strict": v.strict,
                "worst_violation": v.worst_violation,
            }
            for v in verdict.per_agent
        ]
    else:
        fields["worst_violation"] = verdict.worst_violation
    dom, strict = verdict.dominates, verdict.strict
    word = "dominates strictly" if strict else ("dominates" if dom else "does not dominate")
    return dom, fields, f"{args.left} {word} {args.right} (tol {args.tol:g})"


def _cmd_comonotone_check(args):
    ok = is_comonotone_pairwise(_load(args.law, "joint_law"), args.tol)
    word = "is" if ok else "is not"
    return (
        ok,
        {"tol": args.tol, "comonotone": ok},
        f"{args.law} {word} pairwise comonotone (tol {args.tol:g})",
    )


def _cmd_maxcorr(args):
    xi = _load(args.measure, "measure")
    mu = _load(args.mu, "measure") if args.mu else default_baseline(xi.dim)
    result = max_correlation(xi, mu)
    fields = {
        "tol": args.tol,
        "value": result.value,
        "coupling": [
            {"x": list(x), "y": list(y), "w": w} for (x, y), w in result.coupling
        ],
    }
    if args.emit_csv:
        d = xi.dim
        header = [f"x{k}" for k in range(d)] + [f"y{k}" for k in range(d)] + ["w"]
        rows = [list(x) + list(y) + [w] for (x, y), w in result.coupling]
        _emit_csv(args.emit_csv, header, rows)
    return True, fields, f"maximal correlation {result.value!r}"


def _cmd_comonotone_gap(args):
    law = _load(args.law, "joint_law")
    mu = _load(args.mu, "measure") if args.mu else None
    ball = BallConfig(radius=args.radius) if args.radius else None
    gap = comonotonicity_gap(law, mu, ball=ball)
    ok = gap.comonotone_at(args.tol)
    fields = {
        "tol": args.tol,
        "gap": gap.gap,
        "rho_sum": gap.rho_sum,
        "rho_total": gap.rho_total,
        "per_agent": list(gap.per_agent),
        "comonotone": ok,
    }
    if args.emit_csv:
        rows = [[f"rho_agent_{i}", v] for i, v in enumerate(gap.per_agent)]
        rows += [
            ["rho_sum", gap.rho_sum],
            ["rho_total", gap.rho_total],
            ["gap", gap.gap],
        ]
        _emit_csv(args.emit_csv, ["quantity", "value"], rows)
    word = "consistent with" if ok else "refutes"
    return ok, fields, f"gap {gap.gap!r} {word} comonotonicity (tol {args.tol:g})"


def _cmd_share(args):
    profile_obj = _checked(args.profile, _read(args.profile), "profile")
    m0 = _load(args.measure, "measure")
    # compared before the profile is built, since it sizes its arrays by its dim
    if m0.dim != profile_obj["dim"]:
        raise InputError(
            f"measure dimension {m0.dim} does not match profile dimension "
            f"{profile_obj['dim']}"
        )
    profile = _build(args.profile, profile_obj, "profile")
    top = max((float(np.linalg.norm(x)) for x, _ in m0.atoms), default=0.0)
    radius = args.radius or max(1.0, 1.25 * top)
    ball = BallConfig(radius=radius)
    points = [share_point(profile, x, ball, tol=args.tol) for x, _ in m0.atoms]
    law = validate_joint_law(
        [(sp.shares, w) for sp, (_, w) in zip(points, m0.atoms)],
        agents=profile.n_agents,
        dim=profile.dim,
    )
    fields = {
        "tol": args.tol,
        "radius": radius,
        "law": joint_law_to_obj(law),
        "points": [
            {
                "x": list(sp.x),
                "shares": [list(y) for y in sp.shares],
                "price": list(sp.price),
                "multipliers": list(sp.multipliers),
                "residual": sp.residual,
                "iterations": sp.iterations,
            }
            for sp in points
        ],
    }
    if args.emit_csv:
        _emit_allocation_csv(
            args.emit_csv,
            profile.n_agents,
            profile.dim,
            [(sp.x, sp.shares, w) for sp, (_, w) in zip(points, m0.atoms)],
            lead=[f"x{k}" for k in range(profile.dim)],
        )
    return True, fields, f"shared {m0.size} states among {profile.n_agents} agents"


def _improvement(args):
    """Solve the improvement LP of an improve/stat/qdescent request's law.

    The grid step is ``--grid-step`` where the command takes it, else the
    default.  Returns the law, cost weights, ball, LP report (which keeps
    the program and its optimum), and the report fields that ``improve``
    and ``stat`` share.
    """
    law = _load(args.law, "joint_law")
    eps = _cost_weights(_parse_eps(args.eps), law.agents)
    radius = args.radius or default_radius(law)
    ball = BallConfig(radius=radius)
    step = getattr(args, "grid_step", None) or default_step(law, ball)
    result = solve_improvement_lp(law, build_split_grid(law, step, ball), eps=eps, tol=args.tol)
    fields = {
        "tol": args.tol,
        "grid_step": step,
        "radius": radius,
        "eps": eps,
        "statistic": result.statistic,
        "comonotone_at_tol": result.comonotone_at_tol,
    }
    return law, eps, ball, result, fields


def _cmd_improve(args):
    law, _, _, result, fields = _improvement(args)
    fields.update(
        objective_at_input=result.objective_at_input,
        objective_at_optimum=result.objective_at_optimum,
        improved=joint_law_to_obj(result.improved),
        per_agent=[
            {"dominates": v.dominates, "strict": v.strict} for v in result.per_agent
        ],
    )
    if args.emit_csv:
        _emit_allocation_csv(
            args.emit_csv,
            law.agents,
            law.dim,
            [((), xs, w) for xs, w in result.improved.atoms],
        )
    ok = result.comonotone_at_tol
    word = "no improvement" if ok else "improvable"
    return ok, fields, f"statistic {result.statistic!r}: {word} (tol {args.tol:g})"


def _cmd_stat(args):
    law, eps, ball, result, fields = _improvement(args)
    if args.emit_csv:
        step = fields["grid_step"]
        rows = [[step, result.statistic]]
        for h in (step / 2.0, step / 4.0):
            grid = build_split_grid(law, h, ball)
            report = solve_improvement_lp(law, grid, eps=eps, tol=args.tol)
            rows.append([h, report.statistic])
        _emit_csv(args.emit_csv, ["grid_step", "statistic"], rows)
    ok = result.comonotone_at_tol
    word = "efficient" if ok else "improvable"
    return ok, fields, f"statistic {result.statistic!r}: {word} at tol {args.tol:g}"


def _cmd_qdescent(args):
    # qdescent takes no --grid-step, so its program is the dual step's own
    law, eps, ball, result, _ = _improvement(args)
    statistic = result.statistic
    state = minimize_q(
        law,
        ball=ball,
        eps=eps,
        max_iters=args.max_iters,
        target=statistic,
        optimum=(result.problem, result.outcome),
    )
    fields = {
        "tol": args.tol,
        "radius": ball.radius,
        "max_iters": args.max_iters,
        "j_final": state.j,
        "iterations": state.iterations,
        "hit_cap": state.hit_cap,
        "statistic": statistic,
        "sandwich_gap": state.j - statistic,
    }
    return (
        True,
        fields,
        f"J {state.j!r} after {state.iterations} iterations "
        f"(sandwich gap {state.j - statistic!r})",
    )


def _cmd_counterexample(args):
    diag = counterexample_family(args.n, args.eps)
    mats = {
        name: np.asarray(getattr(diag, name), dtype=float)
        for name in ("S1", "S2", "T1", "M1", "M2", "M1_prime", "M2_prime")
    }
    fields = {
        "n": diag.n,
        "eps": diag.eps,
        "T1_norm": diag.T1_norm,
        "det_sum": diag.det_sum,
        **{name: M.tolist() for name, M in mats.items()},
    }
    if args.emit_csv:
        rows = [
            [name, i, j, float(v)]
            for name, M in mats.items()
            for (i, j), v in np.ndenumerate(M)
        ]
        rows.append(["T1_norm", "", "", diag.T1_norm])
        rows.append(["det_sum", "", "", diag.det_sum])
        _emit_csv(args.emit_csv, ["name", "row", "col", "value"], rows)
    return (
        True,
        fields,
        f"n={diag.n} eps={diag.eps!r}: det of the summed maps {diag.det_sum!r}",
    )


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------


class _Arg(NamedTuple):
    """One argument: name, help, argparse keywords, and the test a given
    value must pass with the message reported when it fails."""

    name: str
    help: str
    options: dict = {}
    valid: Optional[Callable] = None
    message: str = ""


_LAW = _Arg("law", "allocation-law JSON file")
_MU = _Arg("--mu", "baseline measure JSON file (default: centered lattice)")
_RADIUS = _Arg(
    "--radius",
    "",
    {"type": float},
    lambda v: math.isfinite(v) and v > 0.0,
    "--radius must be positive and finite",
)
_GRID_STEP = _Arg(
    "--grid-step",
    "candidate lattice spacing (default: aggregate spread / 8)",
    {"type": float},
    lambda v: math.isfinite(v) and v > 0.0,
    "grid-step must be positive and finite",
)
_WEIGHTS = _Arg(
    "--eps",
    "comma-separated positive cost weights, one per agent (default: all 1)",
)
_MAX_ITERS = _Arg(
    "--max-iters",
    "0 skips the dual step and any other value allows it (default: %(default)s)",
    {"type": int, "default": DEFAULT_MAX_ITERS},
    lambda v: v >= 0,
    "--max-iters must be non-negative",
)
_N = _Arg(
    "--n",
    "family parameter (default: %(default)s)",
    {"type": int, "default": 100},
    lambda v: v >= 1,
    "--n must be a positive integer",
)
_FAMILY_EPS = _Arg(
    "--eps",
    "family parameter in (0, 1) (default: %(default)s)",
    {"type": float, "default": 0.01},
    lambda v: 0.0 < v < 1.0,
    "--eps must lie strictly between 0 and 1",
)
_EMIT_CSV = _Arg("--emit-csv", "", {"metavar": "PATH"})
_LAW_RADIUS = "1.25x the largest component norm, or 1 if all are zero"


def _tol(what: str) -> _Arg:
    return _Arg(
        "--tol",
        f"numeric tolerance for the {what} (default: %(default)g)",
        {"type": float, "default": DEFAULT_TOL},
        lambda v: math.isfinite(v) and v >= 0.0,
        "--tol must be finite and non-negative",
    )


class _Command(NamedTuple):
    handler: Callable
    help: str
    arguments: tuple


def _grid_command(handler, help_text: str, csv_help: str) -> _Command:
    radius = _RADIUS._replace(help=f"candidate ball radius (default: {_LAW_RADIUS})")
    emit = _EMIT_CSV._replace(help=csv_help)
    return _Command(
        handler,
        help_text,
        (_LAW, _WEIGHTS, _GRID_STEP, radius, emit, _tol("efficiency verdict")),
    )


_COMMANDS = {
    "check-dominance": _Command(
        _cmd_check_dominance,
        "does the first law dominate the second in the concave order?",
        (
            _Arg("left", "measure or allocation-law JSON file"),
            _Arg("right", "measure or allocation-law JSON file"),
            _tol("dominance check"),
        ),
    ),
    "comonotone-check": _Command(
        _cmd_comonotone_check,
        "are all component pairs of the law comonotone?",
        (
            _Arg("law", "allocation-law JSON file (scalar components)"),
            _tol("pairwise increment test"),
        ),
    ),
    "maxcorr": _Command(
        _cmd_maxcorr,
        "maximal correlation of a law with a baseline measure",
        (
            _Arg("measure", "measure JSON file"),
            _MU,
            _EMIT_CSV._replace(help="write the coupling as CSV"),
            _tol("report")._replace(
                help="tolerance recorded in the report; the coupling is solved "
                "exactly and does not read it (default: %(default)g)"
            ),
        ),
    ),
    "comonotone-gap": _Command(
        _cmd_comonotone_gap,
        "subadditivity defect of maximal correlation across agents",
        (
            _LAW,
            _MU,
            _RADIUS._replace(help="radius of the default baseline lattice (default: 1)"),
            _EMIT_CSV._replace(help="write the per-agent table as CSV"),
            _tol("gap verdict"),
        ),
    ),
    "share": _Command(
        _cmd_share,
        "optimal sharing of each aggregate state under given costs",
        (
            _Arg("profile", "cost profile JSON file"),
            _Arg("measure", "aggregate-law measure JSON file"),
            _RADIUS._replace(
                help="share ball radius (default: 1.25x the largest state norm, min 1)"
            ),
            _EMIT_CSV._replace(help="write the sharing map as CSV"),
            _tol("split residual"),
        ),
    ),
    "improve": _grid_command(
        _cmd_improve,
        "search a grid for a dominating reallocation",
        "write the improved law as CSV",
    ),
    "stat": _grid_command(
        _cmd_stat,
        "efficiency statistic of an allocation law",
        "write a statistic-versus-step curve (step, step/2, step/4)",
    ),
    "qdescent": _Command(
        _cmd_qdescent,
        "upper bound J on the improvement gap: one dual step from the "
        "improvement program's duals",
        (
            _LAW,
            _MAX_ITERS,
            _WEIGHTS,
            _RADIUS._replace(help=f"share ball radius (default: {_LAW_RADIUS})"),
            _tol("improvement statistic that the dual step targets"),
        ),
    ),
    "counterexample": _Command(
        _cmd_counterexample,
        "two-agent quadratic family whose sharing maps sum beyond the convex range",
        (
            _N,
            _FAMILY_EPS,
            _EMIT_CSV._replace(help="write the diagnostics table as CSV"),
        ),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it:
    each ``parse_args`` returns a fresh namespace."""
    parser = _Parser(
        prog="riskshare",
        description=(
            "Check concave-order dominance, measure comonotonicity, share "
            "risks under convex costs, and search for dominating "
            "reallocations of a discrete allocation law."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for arg in command.arguments:
            sp.add_argument(arg.name, help=arg.help, **arg.options)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse, dispatch, report; returns the process exit code."""
    parser = build_parser()
    command = None
    try:
        args = parser.parse_args(argv)
        command = args.command
        for arg in _COMMANDS[command].arguments:
            value = getattr(args, arg.name.lstrip("-").replace("-", "_"))
            if arg.valid is not None and value is not None and not arg.valid(value):
                raise InputError(arg.message)
        ok, fields, summary = _COMMANDS[command].handler(args)
    except RiskShareError as exc:
        report = {"version": 1, "command": command, "error": str(exc)}
        print(json.dumps(report, indent=2))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(json.dumps({"version": 1, "command": command, **fields}, indent=2))
    print(summary, file=sys.stderr)
    return EXIT_OK if ok else EXIT_NEGATIVE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
