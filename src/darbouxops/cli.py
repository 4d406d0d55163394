"""Command-line interface.

Commands: check, spaces, operator build|verify|apply|transform, pencil,
catalog list|show|verify.  JSON is the canonical interchange format; the
--format flag switches the report style (text, json, latex).

The commands only call the library and return 0 or 1 from the verdict they
computed.  A typed error they raise gets its exit code in one place, `main`,
from the `EXIT_CODES` table: exit 1 when the input was read and the verdict
is negative, exit 2 when the input cannot be read or the inputs do not fit
together.  Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
from typing import List, Optional

from . import catalog as catalog_mod
from . import invariants, io_json, latexout, lie, pencil
from . import operators as ops
from .errors import (
    DarbouxOpsError,
    FieldMismatchError,
    InvalidOperandError,
    MetricIncompatibleError,
    NotACasimirError,
    NotACocycleError,
    NotALieAlgebraError,
    ParseError,
    ShapeMismatchError,
    SingularMatrixError,
    UnknownIndeterminateError,
)
from .poly import _WORD, PolyRing, _readable_name
from .scalars import validate_field_tag

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2

# (error types, exit code, stderr prefix); the first row that matches wins.
EXIT_CODES = (
    ((NotALieAlgebraError,), EXIT_FAIL, "not a Lie algebra"),
    ((MetricIncompatibleError, NotACocycleError), EXIT_FAIL, "rejected"),
    ((InvalidOperandError,), EXIT_FAIL, "INVALID_OPERAND"),
    ((SingularMatrixError, NotACasimirError), EXIT_FAIL, "error"),
    ((ParseError, FieldMismatchError, UnknownIndeterminateError, ShapeMismatchError, OSError),
     EXIT_PARSE, "parse error"),
    ((DarbouxOpsError,), EXIT_PARSE, "error"),
)
_HANDLED = tuple(t for types, _, _ in EXIT_CODES for t in types)


def exit_row(exc: BaseException):
    """(exit code, stderr prefix) of the first `EXIT_CODES` row naming exc's type, or None."""
    return next(((code, prefix) for types, code, prefix in EXIT_CODES
                 if isinstance(exc, types)), None)


def _emit(args, payload: dict, text_lines: List[str], latex: Optional[str] = None) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "latex" and latex is not None:
        print(latex)
    else:
        for line in text_lines:
            print(line)


def _condition_line(cond) -> str:
    """`  [ok ] name` or `  [BAD] name at key` for one verified condition."""
    where = "" if cond.first_violation is None else f" at {cond.first_violation}"
    return f"  [{'ok ' if cond.ok else 'BAD'}] {cond.name}{where}"


def _matrix_lines(m) -> List[str]:
    return ["  [" + ", ".join(str(x) for x in row) + "]" for row in m]


def _write_operator(op, path: Optional[str]) -> int:
    """Write the operator's JSON to `path` (`io_json.dump_operator`), or to stdout."""
    if path:
        io_json.dump_operator(op, path)
    else:
        print(json.dumps(io_json.operator_to_dict(op), indent=2))
    return EXIT_OK


def cmd_check(args) -> int:
    g = io_json.load_algebra(args.algebra)
    tags = lie.structure_tags(g)
    cas = invariants.quadratic_casimir_space(g)
    met = invariants.compatible_metric_space(g)
    coc = invariants.two_cocycle_space(g)
    words = []
    if tags.abelian:
        words.append("abelian")
    if tags.semisimple:
        words.append("semisimple")
    if tags.nilpotent and not tags.abelian:
        words.append(f"nilpotent (class {tags.nilpotency_class})")
    elif tags.solvable and not tags.abelian:
        words.append("solvable")
    payload = {
        "valid": True,
        "dim": g.dim,
        "tags": dataclasses.asdict(tags),
        "dims": {"casimirs": cas.dim, "metrics": met.dim, "cocycles": coc.dim},
    }
    _emit(args, payload, [
        f"valid Lie algebra, dim {g.dim}: {', '.join(words) or 'generic'},"
        f" center {tags.center_dim}",
        f"space dims: casimirs {cas.dim}, metrics {met.dim}, cocycles {coc.dim}",
    ])
    return EXIT_OK


def cmd_spaces(args) -> int:
    g = io_json.load_algebra(args.algebra)
    which = args.which
    space = {"casimirs": invariants.quadratic_casimir_space,
             "metrics": invariants.compatible_metric_space,
             "cocycles": invariants.two_cocycle_space}[which](g)
    payload = io_json.space_to_dict(space.basis)
    lines = [f"{which}: dim {space.dim}"]
    if which in ("casimirs", "metrics"):
        witness = invariants.nondegenerate_witness(space.basis)
        if witness is None:
            payload["witness"] = None
            lines.append("no nondegenerate witness")
        else:
            payload["witness"] = {
                "point": list(witness[0]),
                "matrix": [[str(x) for x in row] for row in witness[1]],
            }
            lines.append(f"nondegenerate witness at parameter point {witness[0]}")
    if which == "cocycles":
        payload["coboundary_dim"] = len(space.coboundary_basis)
        payload["h2_dim"] = space.h2_dim
        lines.append(f"coboundaries: dim {len(space.coboundary_basis)}, H2 dim {space.h2_dim}")
    for k, mat in enumerate(space.basis, start=1):
        lines.append(f"basis[{k}]:")
        lines.extend(_matrix_lines(mat))
    return_latex = latexout.space_latex(space.basis)
    _emit(args, payload, lines, return_latex)
    return EXIT_OK


def _block_params(text: str, dim: int) -> List[str]:
    """The parameters of a block in order of first appearance: every name the
    polynomial reader reads as an indeterminate (a word, or two joined by "/",
    that is not a number; `poly._readable_name`) other than sqrt, I, zero and
    the field variables u1..u{dim}."""
    skip = {"sqrt", "I", "zero"} | {f"u{i + 1}" for i in range(dim)}
    names = []
    for entry in re.split("[,;]", "".join(text.split())):
        for m in re.finditer(rf"{_WORD}(?:/{_WORD})?", entry):
            if m[0] not in skip and m[0] not in names and _readable_name(m[0]):
                names.append(m[0])
    return names


def _parse_block(ring: PolyRing, text: str, n: int, kind: str):
    """A constant n x n block: "zero", "I", "coeff*I" or rows "a,b;c,d"
    (`operators.parse_matrix`).

    Entries may carry parameters and the ring's sqrt(d), not field variables.
    """
    text = text.strip()
    if text == "zero":
        return [[ring.zero for _ in range(n)] for _ in range(n)]
    if text == "I" or text.endswith("*I"):
        coeff = ring.one if text == "I" else ring.parse(text[:-2])
        block = [[coeff if i == j else ring.zero for j in range(n)] for i in range(n)]
    else:
        block = ops.parse_matrix(ring, text, n, kind)
    io_json.check_radicals(ring, kind, block)
    for i, row in enumerate(block):
        for j, x in enumerate(row):
            if not x.is_u_free():
                raise ParseError(f"{kind}[{i}][{j}] = {x} depends on the field variables")
    return block


def cmd_operator(args) -> int:
    if args.op_command == "build":
        g = io_json.load_algebra(args.algebra)
        params = _block_params(f"{args.eta};{args.f}", g.dim)  # eta's names first
        ring = ops.field_ring(g.dim, params, d=g.field_tag() or args.field_sqrt)
        eta = _parse_block(ring, args.eta, g.dim, "eta")
        f = _parse_block(ring, args.f, g.dim, "f")
        op = ops.DarbouxOperator(ring, g.c, eta, f)
        return _write_operator(op.to_poly_operator(), args.out)

    op = io_json.load_operator(args.operator)

    if args.op_command == "verify":
        mode = args.mode
        affine = ops.nonaffine_entry(op.ring, op.omega) is None
        if mode == "darboux" and not affine:
            raise InvalidOperandError("omega is not affine in u, no Darboux form")
        reports = {}
        if mode in ("auto", "darboux") and affine:
            reports["darboux"] = ops.verify_darboux(ops.darboux_view(op))
        if mode in ("auto", "general") or not affine:
            reports["general"] = ops.verify_hamiltonian(op)
        passed = all(r.passed for r in reports.values())
        payload = {name: r.as_dict() for name, r in reports.items()}
        lines = []
        for name, rep in reports.items():
            lines.append(f"{name}: {'PASS' if rep.passed else 'FAIL'}")
            for cond in rep.conditions:
                lines.append(_condition_line(cond))
                if args.verbose and cond.residual:
                    lines.append(f"        residual: {cond.residual}")
        _emit(args, payload, lines)
        return EXIT_OK if passed else EXIT_FAIL

    if args.op_command == "apply":
        h = ops.parse_density(op, args.density)
        v, w = ops.apply_to_density(op, h)
        payload = {
            "V": [[str(x) for x in row] for row in v],
            "W": [str(x) for x in w],
        }
        lines = []
        for i in range(op.n):
            terms = []
            for k in range(op.n):
                if v[i][k]:
                    terms.append(f"({v[i][k]})*u{k + 1}_x")
            if w[i]:
                terms.append(f"({w[i]})")
            rhs = " + ".join(terms) if terms else "0"
            lines.append(f"u{i + 1}_t = {rhs}")
        _emit(args, payload, lines)
        return EXIT_OK

    if args.op_command == "transform":
        a = io_json.load_matrix(args.matrix)
        return _write_operator(ops.transform_poly_operator(op, a), args.out)

    raise AssertionError(f"unhandled operator command {args.op_command}")


def cmd_pencil(args) -> int:
    """Each route prints {"compatible", "conditions", "lambda_check"}: the
    Darboux route its mixed conditions, the lambda route its report."""
    a, b = pencil.unify_operators(io_json.load_operator(args.a), io_json.load_operator(args.b))
    payload = {}
    lines = []
    if args.mode in ("darboux", "both"):
        if any(ops.nonaffine_entry(a.ring, op.omega) is not None for op in (a, b)):
            raise InvalidOperandError("darboux mode needs affine omega on both operands")
        rep = pencil.pencil_compatible_darboux(ops.darboux_view(a), ops.darboux_view(b))
        payload["darboux"] = {"compatible": rep.passed,
                              "conditions": [c.record() for c in rep.conditions],
                              "lambda_check": None}
        lines.append(f"darboux criterion: {'compatible' if rep.passed else 'NOT compatible'}")
        lines.extend(_condition_line(cond) for cond in rep.conditions)
    if args.mode in ("lambda", "both"):
        rep = pencil.pencil_compatible_general(a, b)
        payload["lambda"] = {"compatible": rep.passed, "conditions": [],
                             "lambda_check": rep.as_dict()}
        lines.append(f"lambda criterion: {'compatible' if rep.passed else 'NOT compatible'}")
    _emit(args, payload, lines)
    return EXIT_OK if all(route["compatible"] for route in payload.values()) else EXIT_FAIL


def cmd_catalog(args) -> int:
    if args.cat_command == "list":
        names = catalog_mod.catalog_list()
        _emit(args, {"entries": names}, names)
        return EXIT_OK
    if args.cat_command == "show":
        entry = catalog_mod.catalog_get(args.name)
        payload = {
            "name": entry.name,
            "algebra": entry.algebra_name,
            "structure": entry.structure,
            "dim": entry.dim,
            "eta": [[str(x) for x in row] for row in entry.eta],
            "omega": [[str(x) for x in row] for row in entry.omega],
            "eta_params": entry.eta_params,
            "f_params": entry.f_params,
            "moduli": {k: str(v) for k, v in entry.moduli.items()},
            "source": entry.source,
            "notes": entry.notes,
        }
        lines = [
            f"{entry.name}: algebra {entry.algebra_name} ({entry.structure}), dim {entry.dim}",
            f"metric family parameters: {', '.join(entry.eta_params)}",
            f"cocycle family parameters: {', '.join(entry.f_params)}",
        ]
        if entry.moduli:
            lines.append(
                "moduli: " + ", ".join(f"{k} (instantiated at {v})" for k, v in entry.moduli.items())
            )
        lines.append("eta:")
        lines.extend(_matrix_lines(entry.eta))
        lines.append("omega:")
        lines.extend(_matrix_lines(entry.omega))
        for note in entry.notes:
            lines.append(f"note: {note}")
        _emit(args, payload, lines, latexout.operator_latex(entry.eta, entry.omega))
        return EXIT_OK

    # verify
    names = [args.name] if args.name else catalog_mod.catalog_list()
    reports = [catalog_mod.verify_entry(name) for name in names]
    passed = sum(1 for r in reports if r.passed)
    failed = [r for r in reports if not r.passed]
    flagged = [r for r in reports if r.flags]
    payload = {
        "entries": len(reports),
        "passed": passed,
        "failed": [r.name for r in failed],
        "flagged": {r.name: r.flags for r in flagged},
        "checks": {r.name: [[c.name, c.ok] for c in r.conditions] for r in reports},
    }
    lines = []
    for r in reports:
        status = "PASS" if r.passed else f"FAIL ({', '.join(r.failed_names())})"
        suffix = "  [flagged]" if r.flags else ""
        lines.append(f"{r.name:10s} {status}{suffix}")
        for flag in r.flags:
            lines.append(f"    flag: {flag}")
    lines.append(f"summary: {passed}/{len(reports)} passed, {len(flagged)} flagged")
    _emit(args, payload, lines)
    return EXIT_OK if not failed else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use and shared
    by every call of `main`."""
    parser = argparse.ArgumentParser(
        prog="darbouxops",
        description="Exact toolkit for 1+0 hydrodynamic Hamiltonian operators in Darboux form.",
        allow_abbrev=False,
    )
    parser.add_argument("--format", choices=["text", "json", "latex"], default="text")
    parser.add_argument("--field-sqrt", type=int, default=0, metavar="D",
                        help="declared quadratic extension tag for built outputs")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="include residual polynomials in failure reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", allow_abbrev=False, help="validate an algebra file and print structure tags")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("spaces", allow_abbrev=False, help="print a solution-space basis")
    p.add_argument("algebra")
    p.add_argument("--which", choices=["casimirs", "metrics", "cocycles"], required=True)
    p.set_defaults(func=cmd_spaces)

    p = sub.add_parser("operator", allow_abbrev=False, help="build, verify, apply or transform operators")
    opsub = p.add_subparsers(dest="op_command", required=True)
    b = opsub.add_parser("build", allow_abbrev=False)
    b.add_argument("--algebra", required=True)
    b.add_argument("--eta", required=True, help='"zero", "I", "alpha*I" or "a,b;c,d" rows')
    b.add_argument("--f", required=True, help="same syntax as --eta")
    b.add_argument("--out")
    v = opsub.add_parser("verify", allow_abbrev=False)
    v.add_argument("operator")
    v.add_argument("--mode", choices=["auto", "darboux", "general"], default="auto")
    a = opsub.add_parser("apply", allow_abbrev=False)
    a.add_argument("operator")
    a.add_argument("--density", required=True)
    t = opsub.add_parser("transform", allow_abbrev=False)
    t.add_argument("operator")
    t.add_argument("--matrix", required=True)
    t.add_argument("--out")
    p.set_defaults(func=cmd_operator)

    p = sub.add_parser("pencil", allow_abbrev=False, help="bi-Hamiltonian compatibility of two operators")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mode", choices=["darboux", "lambda", "both"], default="both")
    p.set_defaults(func=cmd_pencil)

    p = sub.add_parser("catalog", allow_abbrev=False, help="list, show or verify the embedded catalog")
    catsub = p.add_subparsers(dest="cat_command", required=True)
    catsub.add_parser("list")
    s = catsub.add_parser("show")
    s.add_argument("name")
    v = catsub.add_parser("verify").add_mutually_exclusive_group()
    v.add_argument("name", nargs="?")
    v.add_argument("--all", action="store_true", help="verify every entry (the default)")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        validate_field_tag(args.field_sqrt)
        return args.func(args)
    except _HANDLED as exc:
        code, prefix = exit_row(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
