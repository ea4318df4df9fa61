"""Every function the traced benchmark wraps still exists in nevlab.

`perfbench/tracing.py` reports a wrapped function that nevlab no longer
defines as absent, and the traced run then drops its per-layer metrics;
deleting or renaming one of them is a benchmark change, not a program
change.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("count_only", [False, True])
def test_no_traced_function_absent(tracing, count_only):
    inst = tracing.Instrumentation(tracing.Tracer(), count_only=count_only)
    assert inst.absent == []
