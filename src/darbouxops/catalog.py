"""Catalog of verified operator families and its regression harness.

`catalog_get` materializes an embedded record into parsed polynomial
matrices (`operators.parse_matrix`, each distinct entry text parsed once;
a constant offset `fconst` added only where it is nonzero), the extracted
structure tensor (`operators.linear_parts` on the field variables) and a
concrete Lie algebra (the modulus, if any, instantiated at the documented
rational value).  The eta directions of the witness are one
`linear_parts` pass over eta on the eta parameters.  `_at_moduli` reads
the structure tensor and the eta directions alike as Scalars: each entry
through `Poly.constant_value`, after `Poly.subs` of the moduli when the
entry has any.
`verify_entry` re-derives everything the record claims: skewness and
symmetry, the Jacobi identity, membership of the displayed eta and f
families in the computed solution spaces, the Darboux verification itself
(identically in all parameters), recomputed structure tags (a catalogued
split holds when every nonzero bracket c^{ij}_k has i, j and k in one
summand), parameter counts against computed dimensions, and the
Casimir/metric inversion on a nondegenerate witness of the displayed
metric family (the inverse checked on the algebra's support table).

Every check is one `operators.ConditionResult` of the entry's report, after
the conditions of `verify_darboux`.  Mismatches listed in a record's
`expect_flags` are reported as flags, not failures; anything else failing
is a regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from . import catalog_data, linalg
from .errors import UnknownEntryError
from .invariants import (
    compatible_metric_space,
    nondegenerate_witness,
    quadratic_casimir_space,
    two_cocycle_space,
)
from .lie import LieAlgebra, _int_dot, casimir_terms, structure_tags
from .operators import (
    ConditionResult,
    DarbouxOperator,
    PolyMatrix,
    VerificationReport,
    field_ring,
    linear_parts,
    nonaffine_entry,
    parse_matrix,
    verify_darboux,
)
from .poly import Poly, PolyRing
from .scalars import ZERO, join_field_tags, to_integers


def _at_moduli(entries: list, ring: PolyRing, moduli: Dict[str, Fraction]) -> list:
    """Nested lists of u-free polynomials as Scalars, each modulus at its
    value; ShapeMismatchError (from `constant_value`) when an entry keeps
    another indeterminate after the substitution.  The entry reader is
    picked once: `Poly.constant_value`, after `Poly.subs` of the moduli
    when there are any.
    """
    if moduli:
        at = {name: ring.const(val) for name, val in moduli.items()}

        def leaf(x):
            return x.subs(at).constant_value() if x else ZERO
    else:
        leaf = Poly.constant_value

    def value(xs):
        return [value(x) if type(x) is list else leaf(x) for x in xs]

    return value(entries)


@dataclass
class CatalogEntry:
    name: str
    algebra_name: str
    structure: str
    dim: int
    ring: PolyRing
    eta: PolyMatrix
    omega: PolyMatrix  # zero-order family, constant offsets included
    c: list  # c[i][j][k], u-free polynomials (modulus may appear)
    fmat: PolyMatrix  # constant part of omega
    eta_params: List[str]
    f_params: List[str]
    moduli: Dict[str, Fraction]
    algebra: LieAlgebra  # modulus instantiated
    expected_tags: dict
    source: str
    notes: List[str] = field(default_factory=list)
    expect_flags: List[str] = field(default_factory=list)

    def operator(self) -> DarbouxOperator:
        return DarbouxOperator(self.ring, self.c, self.eta, self.fmat, _checked=True)


_cache: Dict[str, CatalogEntry] = {}


def catalog_list() -> List[str]:
    return [rec["name"] for rec in catalog_data.ENTRIES]


def _record(name: str) -> dict:
    for rec in catalog_data.ENTRIES:
        if rec["name"] == name:
            return rec
    raise UnknownEntryError(f"no catalog entry named {name!r}")


def catalog_get(name: str) -> CatalogEntry:
    if name in _cache:
        return _cache[name]
    rec = _record(name)
    n = rec["dim"]
    moduli = {k: Fraction(v) for k, v in rec.get("moduli", {}).items()}
    params = list(rec["eta_params"]) + list(rec["f_params"]) + list(moduli)
    ring = field_ring(n, params)
    eta = parse_matrix(ring, rec["eta"], n, "eta")
    omega = parse_matrix(ring, rec["omega"], n, "omega")
    if "fconst" in rec:
        fc = parse_matrix(ring, rec["fconst"], n, "fconst")
        omega = [[x + y if y else x for x, y in zip(row, fc_row)]
                 for row, fc_row in zip(omega, fc)]
    c, fmat = linear_parts(ring, omega)
    algebra = LieAlgebra(_at_moduli(c, ring, moduli))
    entry = CatalogEntry(
        name=rec["name"],
        algebra_name=rec["algebra"],
        structure=rec["structure"],
        dim=n,
        ring=ring,
        eta=eta,
        omega=omega,
        c=c,
        fmat=fmat,
        eta_params=list(rec["eta_params"]),
        f_params=list(rec["f_params"]),
        moduli=moduli,
        algebra=algebra,
        expected_tags=dict(rec.get("tags", {})),
        source=rec.get("source", ""),
        notes=list(rec.get("notes", [])),
        expect_flags=list(rec.get("expect_flags", [])),
    )
    _cache[name] = entry
    return entry


@dataclass(kw_only=True)
class EntryReport(VerificationReport):
    """The checks of one entry as conditions; `flags` lists the expected
    mismatches and the entry's notes."""

    name: str
    flags: List[str]


def _tags_match(entry: CatalogEntry) -> tuple:
    """Compare recomputed structure tags with the catalogued expectations."""
    tags = structure_tags(entry.algebra)
    expected = entry.expected_tags
    problems = []
    for key in ("abelian", "solvable", "semisimple", "nilpotent", "nilpotency_class",
                "center_dim"):
        if key in expected and getattr(tags, key) != expected[key]:
            problems.append(f"{key}={getattr(tags, key)} (expected {expected[key]})")
    if "split" in expected:
        # every nonzero c^{ij}_k has i, j and k in one summand
        n1, n2 = expected["split"]
        rows = entry.algebra._table.rows
        if n1 + n2 != len(rows) or any(
                (i < n1) != (j < n1) or (i < n1) != (k < n1)
                for i, plane in enumerate(rows) for j, row in enumerate(plane)
                for k, _ in row):
            problems.append("summands do not decouple at the catalogued split")
    return (not problems), problems


def _eta_directions(entry: CatalogEntry) -> list:
    """The displayed eta family as Scalar matrices, one per eta parameter
    (its coefficient, read by one `linear_parts` pass over eta on the eta
    parameters), with the moduli at their values.  A higher power of an eta
    parameter is dropped; a product of two of them is a ShapeMismatchError
    (`_at_moduli`)."""
    ring = entry.ring
    c, _ = linear_parts(ring, entry.eta, [ring.index(p) for p in entry.eta_params])
    directions = [[[x[k] for x in row] for row in c] for k in range(len(entry.eta_params))]
    return _at_moduli(directions, ring, entry.moduli)


def _casimir_residual(g: LieAlgebra, a: linalg.Matrix) -> Optional[tuple]:
    """`invariants.casimir_residual(g.c, a)` read off g's support table: a is
    written once in integers (`to_integers`, a zero entry as 0 so that
    `lie._support` skips it) and each equation summed with `lie._int_dot`,
    as `LieAlgebra.__init__` sums Jacobi.  Common denominators are left out."""
    table = g._table
    d, _, ints = to_integers([x for row in a for x in row])
    d = join_field_tags(table.d, d)
    n = len(a)
    az = [[ab if ab != (0, 0) else 0 for ab in ints[i * n:(i + 1) * n]] for i in range(n)]
    return next((key for key, pairs in casimir_terms(table.rows, az) if any(_int_dot(pairs, d))),
                None)


def verify_entry(name: str) -> EntryReport:
    entry = catalog_get(name)
    report = EntryReport(conditions=verify_darboux(entry.operator()).conditions,
                         name=entry.name, flags=list(entry.notes))

    def check(name: str, ok: bool) -> None:
        report.conditions.append(ConditionResult(name, ok))

    def check_or_flag(name: str, ok: bool, flag: str) -> None:
        """Record check `name`; a failure the entry expects is a flag instead."""
        if not ok and name in entry.expect_flags:
            report.flags.append(flag)
            name, ok = f"{name}(flagged)", True
        check(name, ok)

    # displayed omega must be affine in u with u-free coefficients
    check("omega-affine-in-u", nonaffine_entry(entry.ring, entry.omega) is None)

    ok, problems = _tags_match(entry)
    check_or_flag("structure-tags", ok,
                  f"structure tags differ from the catalogued ones: {problems}")

    met = compatible_metric_space(entry.algebra)
    coc = two_cocycle_space(entry.algebra)
    cas = quadratic_casimir_space(entry.algebra)

    check_or_flag("eta-param-count", len(entry.eta_params) == met.dim,
                  f"eta params {len(entry.eta_params)} != metric dim {met.dim}")
    check_or_flag("f-param-count", len(entry.f_params) == coc.dim,
                  f"f params {len(entry.f_params)} != cocycle dim {coc.dim}")

    check("casimir-metric-dims-equal", cas.dim == met.dim)

    # nondegenerate witness of the displayed eta family; its inverse must be
    # a quadratic Casimir (the bijection direction the catalog relies on)
    witness = nondegenerate_witness(_eta_directions(entry))
    check("eta-family-nondegenerate", witness is not None)
    if witness is not None:
        inv = linalg.inverse(witness[1])
        check("eta-inverse-is-casimir", _casimir_residual(entry.algebra, inv) is None)

    return report


def verify_all() -> List[EntryReport]:
    """The report of every entry, in catalog order."""
    return [verify_entry(name) for name in catalog_list()]
