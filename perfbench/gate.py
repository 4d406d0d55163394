"""Expected-output gate: which items of a run produced wrong output.

Three kinds of check feed `failed_frac`:

* recorded outputs -- per-entry check lists and flags for `catalog`, output
  digests (structure constants, canonical bases, witnesses) for `scale`, all
  recorded from the package by `record_expected.py`; a speed-up that changes
  a canonical output fails here;
* per-item invariants -- exit codes, both pencil routes agreeing, and
  "compatible" exactly when the entry has no moduli;
* independent oracles, run once per run on the first pass -- the so(n)
  Killing form -2(n-2) I and H^2(so(n)) = 0, the defining equations of every
  basis element, space dimensions from sympy ranks of independently built
  systems, witness determinants from sympy, and the pencil transport
  recomputed forward (u~ = M u, no inverse) against the transported file.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from itertools import combinations

from workloads import digest

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")


def load_expected(workload: str):
    path = os.path.join(EXPECTED_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_item(workload: str, item: dict, result, expected) -> list:
    """Problems with one item's output in one pass (empty when correct)."""
    if result.error:
        return [f"raised {result.error}"]
    out = result.output
    if workload == "catalog":
        want = expected["entries"].get(item["entry"])
        if want is None:
            return [f"no recorded output for {item['entry']}"]
        problems = []
        if out["exit"] != 0:
            problems.append(f"exit code {out['exit']}")
        if out["checks"] != want["checks"]:
            problems.append(f"checks {out['checks']} != recorded {want['checks']}")
        if out["flags"] != want["flags"]:
            problems.append("flags differ from the recorded ones")
        return problems
    if workload == "scale":
        want = expected["digests"].get(result.label)
        got = digest(out)
        return [] if got == want else [f"output digest {got[:12]} != recorded {str(want)[:12]}"]
    compatible = item["compatible"]
    problems = []
    if out["transform_exit"] != 0:
        problems.append(f"transform exit {out['transform_exit']}")
    if out["darboux"] is None or out["lambda"] is None:
        problems.append("pencil printed no verdict")
    elif out["darboux"] != out["lambda"]:
        problems.append("darboux and lambda routes disagree")
    elif out["darboux"] != compatible:
        problems.append(f"verdict {out['darboux']}, expected {compatible}")
    if out["pencil_exit"] != (0 if compatible else 1):
        problems.append(f"pencil exit {out['pencil_exit']}")
    return problems


def check_pass(workload: str, inputs: dict, results: dict, expected) -> dict:
    """Item index -> problems, for the item results of one pass that are wrong."""
    bad = {}
    for k, result in results.items():
        problems = check_item(workload, inputs["items"][k], result, expected)
        if problems:
            bad[k] = problems
    if workload == "catalog" and not bad:
        labels = {r.label for r in results.values()}
        flagged = sorted(r.label for r in results.values() if r.output["flags"])
        want = [name for name in expected["flagged"] if name in labels]
        if flagged != want:
            bad[0] = [f"flagged entries {flagged} != recorded {want}"]
    return bad


# -- independent oracles ----------------------------------------------------


def _fmat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _sympy():
    try:
        from sympy import QQ
        from sympy.polys.matrices import DomainMatrix
    except ImportError:
        return None
    return QQ, DomainMatrix


def _rank(rows, ncols, sym) -> int:
    QQ, DomainMatrix = sym
    if not rows:
        return 0
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in rows],
                        (len(rows), ncols), QQ).rank()


def _det(m, sym):
    QQ, DomainMatrix = sym
    n = len(m)
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in m], (n, n), QQ).det()


def _sym_unknowns(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _system(kind: str, c, n):
    """Rows of the defining linear system of a space, built from c alone."""
    if kind == "cocycle":
        unknowns = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        unknowns = _sym_unknowns(n)
    col = {}
    for p, (i, j) in enumerate(unknowns):
        col[(i, j)] = (p, 1)
        col[(j, i)] = (p, -1 if kind == "cocycle" else 1)
    rows = []

    def add(row, i, j, coeff):
        if coeff and (i, j) in col:  # a skew unknown has no diagonal
            p, sign = col[(i, j)]
            row[p] = row.get(p, 0) + sign * coeff

    if kind == "cocycle":
        for i, j, k in combinations(range(n), 3):
            row = {}
            for s in range(n):
                add(row, s, k, c[i][j][s])
                add(row, s, i, c[j][k][s])
                add(row, s, j, c[k][i][s])
            rows.append(row)
    else:
        for i, j in _sym_unknowns(n):
            for k in range(n):
                row = {}
                for s in range(n):
                    if kind == "casimir":
                        add(row, i, s, c[s][k][j])
                        add(row, j, s, c[s][k][i])
                    else:
                        add(row, i, s, c[j][k][s])
                        add(row, j, s, c[i][k][s])
                rows.append(row)
    dense = [[Fraction(r.get(p, 0)) for p in range(len(unknowns))] for r in rows if any(r.values())]
    return dense, len(unknowns)


def _residual_zero(kind: str, c, m, n) -> bool:
    """The defining identity of the space holds for matrix m."""
    if kind == "cocycle":
        return all(
            sum(c[i][j][s] * m[s][k] + c[j][k][s] * m[s][i] + c[k][i][s] * m[s][j]
                for s in range(n)) == 0
            for i, j, k in combinations(range(n), 3))
    for i, j in _sym_unknowns(n):
        for k in range(n):
            if kind == "casimir":
                tot = sum(m[i][s] * c[s][k][j] + m[j][s] * c[s][k][i] for s in range(n))
            else:
                tot = sum(m[i][s] * c[j][k][s] + m[j][s] * c[i][k][s] for s in range(n))
            if tot:
                return False
    return True


def _check_witness(w, basis, sym) -> list:
    if w is None or not basis:
        return ["no nondegenerate witness"]
    n = len(basis[0])
    combo = [[sum(t * b[i][j] for t, b in zip(w["point"], basis)) for j in range(n)]
             for i in range(n)]
    problems = []
    if combo != _fmat(w["matrix"]):
        problems.append("witness matrix is not sum(point * basis)")
    if sym is not None and _det(combo, sym) == 0:
        problems.append("sympy: witness determinant is 0")
    return problems


def _scale_oracle(item, out, sym) -> list:
    n = item["n"]
    problems = []
    if item["algebra"] == "abelian":
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        kinds = ("metric",)
    else:
        c = [_fmat(plane) for plane in out["c"]]
        kinds = ("casimir", "metric", "cocycle")
        dim = len(c)
        killing = [[sum(c[i][l][m] * c[j][m][l] for l in range(dim) for m in range(dim))
                    for j in range(dim)] for i in range(dim)]
        if killing != [[Fraction(-2 * (n - 2)) if i == j else 0 for j in range(dim)]
                       for i in range(dim)]:
            problems.append(f"Killing form is not -2({n}-2) I")
        if len(out["cocycle"]) != len(out["coboundary"]):
            problems.append("H^2 of so(n) is not 0")
        if not out["tags"]["semisimple"]:
            problems.append("so(n) not tagged semisimple")
    dim = len(c)
    for kind in kinds:
        basis = [_fmat(b) for b in out[kind]]
        if not all(_residual_zero(kind, c, b, dim) for b in basis):
            problems.append(f"a {kind} basis element violates its equations")
        if sym is not None:
            rows, ncols = _system(kind, c, dim)
            if ncols - _rank(rows, ncols, sym) != len(basis):
                problems.append(f"sympy: {kind} dimension differs")
            flat = [[x for row in b for x in row] for b in basis]
            if _rank(flat, dim * dim, sym) != len(basis):
                problems.append(f"sympy: {kind} basis is dependent")
        if kind != "cocycle":
            problems += _check_witness(out[f"witness_{kind}"], basis, sym)
    return problems


def _pencil_oracle(k, workdir) -> list:
    from darbouxops import io_json
    from darbouxops.scalars import parse_scalar

    a = io_json.load_operator(os.path.join(workdir, f"A{k}.json"))
    t = io_json.load_operator(os.path.join(workdir, f"T{k}.json"))
    with open(os.path.join(workdir, f"M{k}.json"), encoding="utf-8") as fh:
        m = [[parse_scalar(x) for x in row] for row in json.load(fh)]
    ring, n = a.ring, a.n
    u = [ring.names[i] for i in ring.field_indices()]
    forward = {u[l]: sum((ring.const(m[l][j]) * ring.var(u[j]) for j in range(n)), ring.zero)
               for l in range(n)}
    for i in range(n):
        for j in range(n):
            g = sum((ring.const(m[i][p] * m[j][q]) * a.g[p][q]
                     for p in range(n) for q in range(n)), ring.zero)
            om = sum((ring.const(m[i][p] * m[j][q]) * a.omega[p][q]
                      for p in range(n) for q in range(n)), ring.zero)
            if t.g[i][j] != g or t.omega[i][j].subs(forward) != om:
                return [f"transported entry ({i},{j}) is not M A M^T"]
    return []


def oracle(workload: str, inputs: dict, results: dict, workdir: str) -> dict:
    """Item index -> problems found by the independent checks (first pass)."""
    sym = _sympy() if workload == "scale" else None
    bad = {}
    for k, result in results.items():
        if result.error or workload == "catalog":
            continue
        try:
            if workload == "scale":
                problems = _scale_oracle(inputs["items"][k], result.output, sym)
            else:
                problems = _pencil_oracle(k, workdir)
        except Exception as exc:  # malformed output is a failed item, not a crash
            problems = [f"oracle raised {type(exc).__name__}: {exc}"]
        if problems:
            bad[k] = problems
    return bad
