"""The CLI's compiled input check, held to jsonschema's Draft 2020-12 validator.

The runtime checks each input file with a validator compiled from the
shipped schema; jsonschema is a test-only oracle here, as scipy/HiGHS is
for the simplex.  Both must accept the same documents, and the violation
the CLI names must be one that jsonschema finds too.
"""

import copy
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.validators import validator_for
from test_cli_malformed import _VALID

from riskshare.cli import _compile, _convert, _violation
from riskshare.errors import InputError, RiskShareError

FIXTURES = Path(__file__).parent / "fixtures"
SCHEMAS = resources.files("riskshare.schemas")


def _schema(name):
    return json.loads(SCHEMAS.joinpath(f"{name}.schema.json").read_text())


def _reported(kind, doc):
    """The JSON path the CLI names as ``doc``'s schema violation, or None."""
    violation = _violation(kind, doc)
    return None if violation is None else violation.split(": ", 1)[0]


# values a mutation puts in place of a node, or adds beside one
_VALUES = (
    True,
    False,
    None,
    "",
    "1",
    [],
    {},
    0,
    1,
    -1,
    2,
    0.0,
    1.0,
    2.0,
    1.5,
    -0.5,
    1e300,
    -1e300,
    float("inf"),
    float("-inf"),
    float("nan"),
)
_KEYS = ("x", "w", "a", "b", "dim", "agents", "eps", "quad", "extra")


def _paths(node, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, (*path, key))


@st.composite
def _mutated(draw, kind):
    """A valid input of ``kind`` with one to three keys dropped or added, or
    values swapped for bools, ``None``, strings, containers, non-finite or
    huge numbers, or integers."""
    doc = copy.deepcopy(_VALID[kind])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = copy.deepcopy(draw(st.sampled_from(_VALUES)))
        how = draw(st.sampled_from(["drop", "add", "replace"]))
        if not path:
            if how == "replace":
                doc = value
            elif isinstance(doc, dict):
                doc[draw(st.sampled_from(_KEYS))] = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        if how == "drop":
            del parent[path[-1]]
        elif how == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(_KEYS))] = value
        elif how == "add" and isinstance(node, list):
            node.append(copy.deepcopy(node[0]) if node and draw(st.booleans()) else value)
        else:
            parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind", sorted(_VALID))
def test_compiled_check_agrees_with_jsonschema(kind):
    oracle = Draft202012Validator(_schema(kind))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_mutated(kind))
    def check(doc):
        paths = {error.json_path for error in oracle.iter_errors(doc)}
        reported = _reported(kind, doc)
        assert (reported is None) == (not paths), (doc, reported, paths)
        assert reported is None or reported in paths, (doc, reported, paths)

    check()


@pytest.mark.parametrize("name", ["measure", "joint_law", "profile", "report"])
def test_shipped_schema_passes_its_metaschema(name):
    schema = _schema(name)
    cls = validator_for(schema)
    assert cls is Draft202012Validator  # the draft whose rules the compiled check follows
    cls.check_schema(schema)


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "array", "maxItems": 3},
        {"type": "object", "properties": {"a": {"type": "number", "maximum": 1}}},
        {"type": "array", "items": {"type": "string"}},
        {"type": ["number", "null"]},
        {"type": "object", "additionalProperties": True},
        {"anyOf": [{"type": "number"}]},
    ],
    ids=["maxItems", "nested-maximum", "string-type", "type-list", "open-object", "anyOf"],
)
def test_unsupported_keyword_refused(schema):
    with pytest.raises(RiskShareError, match="unsupported keyword"):
        _compile(schema)


def test_first_violation_in_document_order():
    # four faults: the schema lists dim before atoms, and x before w
    doc = {"atoms": [{"w": -1.0, "x": [True]}, {"x": []}], "dim": 0}
    with pytest.raises(InputError) as info:
        _convert("doc", doc, "measure")
    assert str(info.value) == "doc: schema violation at $.dim: 0 is less than the minimum of 1"
    del doc["dim"]
    with pytest.raises(InputError) as info:
        _convert("doc", doc, "measure")
    assert str(info.value) == "doc: schema violation at $: 'dim' is a required property"
    doc["dim"] = 1
    with pytest.raises(InputError) as info:
        _convert("doc", doc, "measure")
    assert str(info.value) == (
        "doc: schema violation at $.atoms[0].x[0]: True is not of type 'number'"
    )


def test_runtime_never_imports_jsonschema(tmp_path):
    bad = tmp_path / "neg.json"
    bad.write_text('{"agents": 2, "dim": 1, "atoms": [{"x": [[0.0], [1.0]], "w": -1.0}]}')
    script = f"""
import contextlib, io, sys
import riskshare
import riskshare.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [riskshare.cli.run(["stat", {str(FIXTURES / "antimonotone.json")!r}]),
             riskshare.cli.run(["stat", {str(bad)!r}])]
assert codes == [1, 2], codes
assert "jsonschema" not in sys.modules, sorted(m for m in sys.modules if "jsonschema" in m)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
