"""The benchmark's span patcher still finds every name it wraps.

`perfbench/spans.py` wraps package functions by name and the arithmetic
methods of `Scalar` and `Poly`.  A function that is deleted or renamed in
the package would otherwise drop out of `--trace 1` runs without notice.
"""

import importlib.util
import pathlib

import pytest

from darbouxops.lie import LieAlgebra
from darbouxops.poly import Poly
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
