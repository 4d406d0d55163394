"""The benchmark's span patcher still finds every name it wraps.

`perfbench/spans.py` wraps package functions by name and the arithmetic
methods of `Scalar` and `Poly`.  A function that is deleted or renamed in
the package would otherwise drop out of `--trace 1` runs without notice.
"""

import importlib.util
import json
import pathlib

import pytest

from darbouxops import io_json
from darbouxops.lie import LieAlgebra
from darbouxops.poly import Poly, PolyRing
from darbouxops.scalars import Scalar

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_function_resolves(spans):
    for layer, module, names in spans._SPANS:
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}: {module.__name__}.{name}"


def test_every_wrapped_method_resolves(spans):
    for name in spans._SCALAR_BINARY + spans._SCALAR_UNARY:
        assert callable(Scalar.__dict__.get(name)), f"Scalar.{name}"
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "subs"):
        assert callable(Poly.__dict__.get(name)), f"Poly.{name}"
    assert callable(LieAlgebra.__dict__.get("__init__"))


def test_install_wraps_and_uninstall_restores(spans):
    saved = {name: Scalar.__dict__[name] for name in spans._SCALAR_BINARY}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for layer, module, names in spans._SPANS:
            for name in names:
                assert hasattr(getattr(module, name), "__wrapped__"), f"{layer}: {name}"
    finally:
        tracer.uninstall()
    assert {name: Scalar.__dict__[name] for name in spans._SCALAR_BINARY} == saved
    for _, module, names in spans._SPANS:
        for name in names:
            assert not hasattr(getattr(module, name), "__wrapped__")


def test_traced_readers_count_parse_calls(spans, tmp_path):
    """`spans` counts `poly.parse.calls` by swapping the module global
    `parse_poly`, so `PolyRing.parse` and the operator loader must reach it."""
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"dim": 2, "field_sqrt": 2, "g": [["1", "0"], ["0", "sqrt(2)"]],
                                "omega": [["0", "(1+sqrt(2))*u1*a"], ["(-1-sqrt(2))*u1*a", "0"]],
                                "params": ["a"]}))
    tracer = spans.Tracer()
    tracer.install()
    try:
        PolyRing(["u1"], ["a"]).parse("2*u1^2-a")
        assert tracer.counts["poly.parse.calls"] == 1
        io_json.load_operator(str(path))
        assert tracer.counts["poly.parse.calls"] == 1 + 8
    finally:
        tracer.uninstall()
