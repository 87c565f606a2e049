"""The benchmark's span hooks name functions that exist.

bench/spans.py wraps the functions listed in its WRAPPED table during traced
benchmark runs, looking each one up by module and attribute name. A deleted
or renamed function would break only those runs, so this test reads the
table (without importing the bench package) and resolves every entry.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _, _ in spans.WRAPPED]


@pytest.mark.parametrize("module, attr", _wrapped())
def test_wrapped_attribute_resolves(module, attr):
    owner = importlib.import_module(f"corpusphon.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
