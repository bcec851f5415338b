"""The benchmark's traced run wraps program functions by name; they must exist.

``perfbench/tracing.py`` lists them in ``LAYERS`` as (module, function
name) pairs.  A rename or a removal in ``riskshare`` should fail here, not
only in the traced benchmark run.  The file is loaded by path, as it is not
part of the package.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


@pytest.mark.parametrize("module, name", _layers(), ids=lambda v: v)
def test_traced_name_is_a_function_of_the_package(module, name):
    assert callable(getattr(importlib.import_module(f"riskshare.{module}"), name, None))
