"""Per-layer spans and counters, installed on darbouxops from outside.

`Tracer.install()` replaces the public functions of each layer with timing
wrappers in every loaded darbouxops module (modules import each other's
functions by name, so each binding is patched), and wraps the arithmetic
methods of `Scalar` and `Poly` with counters only: a span per scalar
operation would swamp the run.  `uninstall()` puts every original back.

A layer's self time is its span minus the child spans that ran inside it.
A span entered while the same layer is already innermost (e.g. `inverse`
calling `rref`) is folded into the running span.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

from darbouxops import catalog, cli, invariants, io_json, lie, linalg, operators, pencil, poly
from darbouxops.lie import LieAlgebra
from darbouxops.poly import Poly
from darbouxops.scalars import Scalar

# (layer, module, public functions); `LieAlgebra()` also counts as lie.build.
_SPANS = [
    ("linalg.dense", linalg, ("rref", "det", "inverse", "nullspace")),
    ("linalg.sparse", linalg, ("sparse_rref", "sparse_nullspace")),
    ("lie.build", lie, ("so_n", "sl_n", "abelian")),
    ("lie.tags", lie, ("structure_tags",)),
    ("lie.jacobi", lie, ("jacobi_defect",)),
    ("invariants.spaces", invariants,
     ("quadratic_casimir_space", "compatible_metric_space", "two_cocycle_space")),
    ("invariants.witness", invariants, ("nondegenerate_witness",)),
    ("operators.verify_darboux", operators, ("verify_darboux",)),
    ("operators.verify_hamiltonian", operators, ("verify_hamiltonian",)),
    ("operators.transform", operators, ("transform_poly_operator", "transform_darboux")),
    ("pencil.darboux_route", pencil, ("pencil_compatible_darboux",)),
    ("pencil.lambda_route", pencil, ("pencil_compatible_general",)),
    ("pencil.unify", pencil, ("unify_operators",)),
    ("catalog.parse", catalog, ("catalog_get",)),
    ("catalog.verify_entry", catalog, ("verify_entry",)),
    ("cli", cli, ("main",)),
    ("io_json.load", io_json, ("load_operator", "load_matrix", "operator_from_dict")),
    ("io_json.dump", io_json, ("operator_to_dict", "dump_operator")),
]

_SCALAR_BINARY = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__pow__")
_SCALAR_UNARY = ("__neg__", "inverse")

# Layers whose self time is reported as `<layer>.s` (cli reports `cli.self_s`).
TIMED_LAYERS = [name for name, _, _ in _SPANS if name != "cli"]


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [layer, seconds spent in child spans]
        self._undo = []

    # -- spans ---------------------------------------------------------

    def _span(self, layer, fn, after=None):
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    self_s[layer] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ------------------------------------------------------

    def _after_hooks(self):
        c = self.counts

        def rref(args, result):
            m = args[0]
            c["linalg.dense.calls"] += 1
            c["linalg.dense.cells"] += len(m) * (len(m[0]) if m else 0)
            c["linalg.dense.rows"] += len(m)
            c["linalg.dense.rank"] += result[2]

        def det(args, result):
            m = args[0]
            c["linalg.dense.calls"] += 1
            c["linalg.dense.cells"] += len(m) * len(m)

        def sparse_rref(args, result):
            rows = args[0]
            c["linalg.sparse.calls"] += 1
            c["linalg.sparse.nnz_in"] += sum(len(r) for r in rows)
            c["linalg.sparse.rows"] += len(rows)
            c["linalg.sparse.rank"] += len(result)

        def load(args, result):
            c["io_json.bytes"] += os.path.getsize(args[0])

        return {"rref": rref, "det": det, "sparse_rref": sparse_rref,
                "load_operator": load, "load_matrix": load}

    def _witness_span(self, fn):
        c = self.counts
        inner = self._span("invariants.witness", fn)

        def witness(basis):
            muls, subs = c["poly.mul.calls"], c["poly.subs.calls"]
            result = inner(basis)
            c["invariants.witness.calls"] += 1
            c["invariants.witness.poly_muls"] += c["poly.mul.calls"] - muls
            c["invariants.witness.subs_tried"] += c["poly.subs.calls"] - subs
            if result is not None:
                c["invariants.witness.subs_accepted"] += len(result[0])
            return result

        witness.__wrapped__ = fn
        return witness

    def _scalar_methods(self):
        c = self.counts

        def binary(fn):
            def op(self_, other):
                c["scalars.ops"] += 1
                if self_.d or (type(other) is Scalar and other.d):
                    c["scalars.ext_ops"] += 1
                return fn(self_, other)
            return op

        def unary(fn):
            def op(self_):
                c["scalars.ops"] += 1
                if self_.d:
                    c["scalars.ext_ops"] += 1
                return fn(self_)
            return op

        out = {name: binary(Scalar.__dict__[name]) for name in _SCALAR_BINARY}
        out.update({name: unary(Scalar.__dict__[name]) for name in _SCALAR_UNARY})
        return out

    def _poly_methods(self):
        c = self.counts

        def counted(fn, key):
            def op(self_, *args):
                c[key] += 1
                return fn(self_, *args)
            return op

        def mul(fn):
            def op(self_, other):
                c["poly.mul.calls"] += 1
                result = fn(self_, other)
                if type(result) is Poly:
                    c["poly.mul.terms_out"] += len(result.terms)
                return result
            return op

        return {
            "__mul__": mul(Poly.__dict__["__mul__"]),
            "__rmul__": mul(Poly.__dict__["__rmul__"]),
            "__add__": counted(Poly.__dict__["__add__"], "poly.add.calls"),
            "__radd__": counted(Poly.__dict__["__radd__"], "poly.add.calls"),
            "subs": counted(Poly.__dict__["subs"], "poly.subs.calls"),
        }

    # -- install / uninstall -------------------------------------------

    def _set(self, owner, name, value):
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        hooks = self._after_hooks()
        replace = {}
        for layer, module, names in _SPANS:
            for name in names:
                fn = getattr(module, name)
                if name == "nondegenerate_witness":
                    replace[fn] = self._witness_span(fn)
                else:
                    replace[fn] = self._span(layer, fn, hooks.get(name))
        parse = poly.parse_poly
        counts = self.counts

        def parse_poly(ring, text):
            counts["poly.parse.calls"] += 1
            return parse(ring, text)

        replace[parse] = parse_poly
        by_id = {id(fn): (fn, wrapper) for fn, wrapper in replace.items()}
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "darbouxops" or key.startswith("darbouxops."))]
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                fn, wrapper = by_id.get(id(value), (None, None))
                if fn is value:
                    self._set(namespace, key, wrapper)
        self._set(LieAlgebra, "__init__", self._span("lie.build", LieAlgebra.__dict__["__init__"]))
        for name, fn in self._scalar_methods().items():
            self._set(Scalar, name, fn)
        for name, fn in self._poly_methods().items():
            self._set(Poly, name, fn)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    # -- report --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values (name -> (value, unit)) of everything traced."""
        c = self.counts

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}.s"] = (self.self_s[layer], "s")
        out["cli.self_s"] = (self.self_s["cli"], "s")
        for key in ("linalg.dense.calls", "linalg.dense.cells", "linalg.sparse.calls",
                    "linalg.sparse.nnz_in", "invariants.witness.calls",
                    "invariants.witness.poly_muls", "io_json.bytes", "poly.mul.calls",
                    "poly.add.calls", "poly.subs.calls", "poly.parse.calls",
                    "poly.mul.terms_out", "scalars.ops"):
            out[key] = (c[key], "bytes" if key == "io_json.bytes" else "count")
        out["linalg.dense.rank_ratio"] = (ratio("linalg.dense.rank", "linalg.dense.rows"), "ratio")
        out["linalg.sparse.rank_ratio"] = (
            ratio("linalg.sparse.rank", "linalg.sparse.rows"), "ratio")
        out["invariants.witness.subs_ratio"] = (
            ratio("invariants.witness.subs_accepted", "invariants.witness.subs_tried"), "ratio")
        out["scalars.ext_share"] = (ratio("scalars.ext_ops", "scalars.ops"), "ratio")
        return out
