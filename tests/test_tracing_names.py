"""The names the benchmark tracer hooks still resolve in the package.

`bench/tracing.py` finds what it times by qualified name; a renamed
function would silently drop out of the trace.  The file is compiled and
run as source, so nothing is written next to it.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_namespace():
    ns = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), ns)
    return ns


_NS = _tracing_namespace()


def _resolve(qual):
    layer, *attrs = qual.split(".")
    obj = importlib.import_module("sbolab." + layer)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("qual", sorted(set(_NS["METRICS"]) | _NS["HOT"]))
def test_traced_name_resolves(qual):
    assert callable(_resolve(qual)), qual


def test_names_are_layer_qualified():
    for qual in set(_NS["METRICS"]) | _NS["HOT"]:
        assert qual.split(".")[0] in _NS["LAYERS"], qual
