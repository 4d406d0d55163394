"""JSON interchange for algebras and operators.

Algebra files:
    { "dim": n, "field_sqrt": d,
      "brackets": [ { "i": 2, "j": 3, "out": { "1": "1" } }, ... ] }
with 1-based indices, i < j only, each pair at most once; the skew
completion is implied and omitted pairs are zero.  Coefficients are scalar strings.

Operator files:
    { "dim": n, "field_sqrt": d, "g": [[...]], "omega": [[...]],
      "params": ["alpha", ...] }
with g and omega given entrywise as scalar/polynomial strings and params a
list of names that polynomial strings can use (ParseError otherwise).

In both formats every sqrt coefficient must use the declared field_sqrt
(default 0, plain Q); any other radical is a ParseError.  An algebra's dim
is at most MAX_ALGEBRA_DIM, and an operator's dim must match its rows.

Both formats round-trip exactly over Q and Q(sqrt(d)).
"""

from __future__ import annotations

import json
from typing import List

from .errors import (
    FieldMismatchError,
    InvalidFieldError,
    ParseError,
    ShapeMismatchError,
    UnknownIndeterminateError,
)
from .lie import LieAlgebra
from .operators import PolyOperator, field_ring
from .scalars import Scalar, parse_scalar, validate_field_tag


# Loading builds the dense dim^3 structure tensor and its support table and
# checks Jacobi on the table: on a 2-vCPU x86-64 host an empty algebra of
# dim 64 takes about 0.25 s, one of dim 150 about 2.8 s.
MAX_ALGEBRA_DIM = 64


def _read_json(path: str):
    """The decoded contents of a JSON file; undecodable text is a ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:  # bad UTF-8, too many digits, deep nesting
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def algebra_to_dict(g: LieAlgebra) -> dict:
    brackets = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            out = {
                str(k + 1): str(g.c[i][j][k])
                for k in range(g.dim)
                if g.c[i][j][k]
            }
            if out:
                brackets.append({"i": i + 1, "j": j + 1, "out": out})
    return {"dim": g.dim, "field_sqrt": g.field_tag(), "brackets": brackets}


def _field_error(d: int, what: str) -> ParseError:
    """The error for a radical other than the declared sqrt(d)."""
    return ParseError(
        f"{what} is not in Q(sqrt({d}))" if d else f"{what} is not rational (field_sqrt 0)"
    )


def check_radicals(ring, name: str, m) -> None:
    """ParseError unless every sqrt coefficient of the matrix m uses the ring's sqrt(d)."""
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            if any(c.d and c.d != ring.d for c in x.terms.values()):
                raise _field_error(ring.d, f"{name}[{i}][{j}] = {str(x)!r}")


def algebra_from_dict(data: dict) -> LieAlgebra:
    """Algebra from file data; every sqrt coefficient must use the declared field_sqrt."""
    try:
        dim = int(data["dim"])
        if not 0 <= dim <= MAX_ALGEBRA_DIM:
            raise ParseError(f"algebra dim {dim} outside 0..{MAX_ALGEBRA_DIM}")
        d = validate_field_tag(data.get("field_sqrt", 0))
        raw = data.get("brackets", [])
        brackets = {}
        for item in raw:
            i, j = int(item["i"]) - 1, int(item["j"]) - 1
            if not (0 <= i < j < dim):
                raise ParseError(f"bracket pair ({item['i']},{item['j']}) out of range")
            if (i, j) in brackets:
                raise ParseError(f"bracket pair ({item['i']},{item['j']}) given twice")
            out = {}
            for k, val in item["out"].items():
                kk = int(k) - 1
                if not 0 <= kk < dim:
                    raise ParseError(f"bracket output index {k} out of range")
                coeff = parse_scalar(str(val))
                if coeff.d and coeff.d != d:
                    raise _field_error(d, f"bracket coefficient {val!r}")
                out[kk] = coeff
            brackets[(i, j)] = out
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError,
            InvalidFieldError, FieldMismatchError) as exc:
        raise ParseError(f"malformed algebra data: {exc}") from exc
    return LieAlgebra.from_brackets(dim, brackets)


def load_algebra(path: str) -> LieAlgebra:
    return algebra_from_dict(_read_json(path))


def _write_json(data: dict, path: str) -> None:
    """Write `data` as indented JSON.  The text is built before the file is
    opened, so a value that cannot be printed leaves an existing file intact."""
    text = json.dumps(data, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def dump_algebra(g: LieAlgebra, path: str) -> None:
    _write_json(algebra_to_dict(g), path)


def operator_to_dict(op: PolyOperator) -> dict:
    params = list(op.ring.names[op.ring.nfields:])
    return {
        "dim": op.n,
        "field_sqrt": op.ring.d,
        "g": [[str(x) for x in row] for row in op.g],
        "omega": [[str(x) for x in row] for row in op.omega],
        "params": params,
    }


def operator_from_dict(data: dict) -> PolyOperator:
    """Operator from file data; every sqrt coefficient must use the declared field_sqrt."""
    try:
        dim = int(data["dim"])
        rows = data["g"], data["omega"]
        if any(not isinstance(m, list) or len(m) != dim
               or any(not isinstance(row, list) or len(row) != dim for row in m) for m in rows):
            raise ParseError("g and omega must be dim x dim")
        d = int(data.get("field_sqrt", 0))
        params = data.get("params", [])
        if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
            raise ParseError("params must be a list of strings")
        ring = field_ring(dim, params, d=d)
        g, omega = ([[ring.parse(str(x)) for x in row] for row in m] for m in rows)
        check_radicals(ring, "g", g)
        check_radicals(ring, "omega", omega)
        return PolyOperator(ring, g, omega)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, InvalidFieldError,
            FieldMismatchError, UnknownIndeterminateError, ShapeMismatchError) as exc:
        raise ParseError(f"malformed operator data: {exc}") from exc


def load_operator(path: str) -> PolyOperator:
    return operator_from_dict(_read_json(path))


def dump_operator(op: PolyOperator, path: str) -> None:
    _write_json(operator_to_dict(op), path)


def load_matrix(path: str) -> List[List[Scalar]]:
    """A bare matrix file: JSON list of rows of scalar strings/numbers."""
    data = _read_json(path)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ParseError(f"{path}: expected a JSON list of rows")
    return [[parse_scalar(str(x)) for x in row] for row in data]


def space_to_dict(basis) -> dict:
    return {
        "dim": len(basis),
        "basis": [[[str(x) for x in row] for row in mat] for mat in basis],
    }
