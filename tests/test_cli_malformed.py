"""Malformed input never escapes the CLI's report contract.

Every subcommand, fed truncated or garbled JSON, a wrong ``agents`` or
``dim``, a negative or NaN weight, or a non-finite coordinate, must exit
with code 2 and a JSON report carrying an ``"error"``, never a traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare.cli import EXIT_ERROR, run

_VALID = {
    "measure": {"dim": 1, "atoms": [{"x": [0.0], "w": 0.5}, {"x": [2.0], "w": 0.5}]},
    "joint_law": {
        "agents": 2,
        "dim": 1,
        "atoms": [{"x": [[1.0], [-1.0]], "w": 0.5}, {"x": [[0.0], [2.0]], "w": 0.5}],
    },
    "profile": {
        "agents": 2,
        "dim": 1,
        "profiles": [
            {"eps": 1.0, "pieces": [{"a": [1.0], "b": -0.25}]},
            {"eps": 2.0, "quad": [[2.0]]},
        ],
    },
}

# each command's input files: (flag, or None for a positional, kind)
_INPUTS = {
    "check-dominance": ((None, "measure"), (None, "measure")),
    "comonotone-check": ((None, "joint_law"),),
    "maxcorr": ((None, "measure"), ("--mu", "measure")),
    "comonotone-gap": ((None, "joint_law"), ("--mu", "measure")),
    "share": ((None, "profile"), (None, "measure")),
    "improve": ((None, "joint_law"),),
    "stat": ((None, "joint_law"),),
    "qdescent": ((None, "joint_law"),),
    "counterexample": (),
}
# values a numeric field is set to: a non-finite number, written out as the
# token that stands for it (``1e999`` parses to infinity)
_NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e999", "-1e999")
# tokens that are invalid JSON wherever they stand outside a string
_JUNK = ("@", "}", "]", ":", ",,", "tru", "'")
_PLACEHOLDER = "__value__"


def _numbers(obj, kind):
    """Paths to the coordinates and to the weights of an input object."""
    if kind == "measure":
        coords = [("atoms", k, "x", 0) for k in range(len(obj["atoms"]))]
        weights = [("atoms", k, "w") for k in range(len(obj["atoms"]))]
    elif kind == "joint_law":
        coords = [("atoms", k, "x", i, 0) for k in range(2) for i in range(2)]
        weights = [("atoms", k, "w") for k in range(2)]
    else:
        coords = [("profiles", 0, "pieces", 0, "a", 0), ("profiles", 0, "pieces", 0, "b")]
        coords.append(("profiles", 1, "quad", 0, 0))
        weights = [("profiles", i, "eps") for i in range(2)]
    return coords, weights


def _set(obj, path, value):
    obj = json.loads(json.dumps(obj))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


def _outside_strings(text):
    """Offsets in ``text`` that do not fall inside a string literal."""
    inside, offsets = False, []
    for k, ch in enumerate(text):
        if not inside:
            offsets.append(k)
        if ch == '"':
            inside = not inside
    offsets.append(len(text))
    return offsets


@st.composite
def _malformed(draw, kind):
    """The text of a broken input of ``kind``."""
    obj = _VALID[kind]
    text = json.dumps(obj)
    coords, weights = _numbers(obj, kind)
    how = draw(st.sampled_from(["truncated", "garbled", "shape", "weight", "coordinate"]))
    if how == "truncated":
        return text[: draw(st.integers(0, len(text) - 1))]
    if how == "garbled":
        at = draw(st.sampled_from(_outside_strings(text)))
        return text[:at] + draw(st.sampled_from(_JUNK)) + text[at:]
    if how == "shape":
        if kind == "profile" and draw(st.booleans()):
            # a quadratic of the wrong size, or ragged
            quad = draw(st.sampled_from([[[2.0, 0.0]], [[2.0], [0.0, 1.0]], [[2.0, 0.0], [0.0]]]))
            return json.dumps(_set(obj, ("profiles", 1, "quad"), quad))
        key = "dim" if kind == "measure" else draw(st.sampled_from(["agents", "dim"]))
        wrong = draw(
            st.one_of(
                st.integers(-3, 6).filter(lambda v: v != obj[key]),
                st.sampled_from([1.5, "2", None, [], {}]),
            )
        )
        return json.dumps(_set(obj, (key,), wrong))
    path = draw(st.sampled_from(weights if how == "weight" else coords))
    if how == "weight":
        value = draw(st.one_of(st.floats(-10.0, 0.0).map(repr), st.sampled_from(_NON_FINITE)))
    else:
        value = draw(st.sampled_from(_NON_FINITE))
    return json.dumps(_set(obj, path, _PLACEHOLDER)).replace(f'"{_PLACEHOLDER}"', value)


_BAD_FLAGS = {
    "counterexample": (
        ["--n", "abc"],
        ["--n", "0"],
        ["--n", "-3"],
        ["--eps", "nan"],
        ["--eps", "-0.5"],
        ["--eps", "inf"],
    ),
    "improve": (["--eps", "-1,1"], ["--eps", "nan,1"], ["--eps", "1"], ["--eps", "a,b"]),
}
_BAD_FLAGS["stat"] = _BAD_FLAGS["qdescent"] = _BAD_FLAGS["improve"]


@st.composite
def _requests(draw):
    """A command with one broken input (a file, or a flag) among valid ones."""
    command = draw(st.sampled_from(sorted(_INPUTS)))
    inputs = list(_INPUTS[command])
    if command == "check-dominance" and draw(st.booleans()):
        inputs = [(None, "joint_law"), (None, "joint_law")]
    texts = [json.dumps(_VALID[kind]) for _, kind in inputs]
    flags = []
    if not inputs or (command in _BAD_FLAGS and draw(st.booleans())):
        flags = draw(st.sampled_from(_BAD_FLAGS[command]))
    else:
        k = draw(st.integers(0, len(inputs) - 1))
        texts[k] = draw(_malformed(inputs[k][1]))
    return command, [flag for flag, _ in inputs], texts, flags


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_requests())
def test_malformed_input_exits_2_with_an_error_report(request):
    command, slots, texts, flags = request
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, *flags]
        for k, (flag, text) in enumerate(zip(slots, texts)):
            path = Path(tmp) / f"input{k}.json"
            path.write_text(text, encoding="utf-8")
            argv += [str(path)] if flag is None else [flag, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    report = json.loads(out.getvalue())
    assert code == EXIT_ERROR, (argv, texts, report)
    assert report["command"] in (command, None)  # None: refused by the argument parser
    assert isinstance(report["error"], str) and report["error"]
    assert err.getvalue().startswith("error: ")
