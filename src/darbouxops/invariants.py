"""Linear solution spaces attached to a Lie algebra.

Three spaces determine an operator in Darboux form: quadratic Casimirs
(symmetric a), compatible metrics (symmetric eta) and 2-cocycles (skew f).
Their equations are the identities defined once in `lie`
(`casimir_terms`, `metric_terms`, `cocycle_terms`).  Every space is one
call of `_space`, which evaluates an identity on a matrix of unknown
markers (`_unknowns`), takes its kernel with `lie.solve` and writes each
kernel vector back as a matrix (`_matrix`); a residual checker takes the
first nonzero equation of its `lie.defect`.  All solvers return canonical RREF-derived bases so
dimensions and bases reproduce across runs.  The linear Casimirs of g are
its center, `lie.center`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .lie import (
    LieAlgebra,
    casimir_terms,
    cocycle_terms,
    direct_sum,
    first_violation,
    jacobi_terms,
    metric_terms,
    solve,
    support_rows,
)
from .operators import ConditionResult, VerificationReport
from .poly import Poly, PolyRing, _poly, dot
from .scalars import ZERO, Scalar, field_tag

Matrix = linalg.Matrix


# -- checkers and solvers derived from the identities in `lie` -------------


def jacobi_residual(c) -> Optional[tuple]:
    """First (i, j, k, m) violating the Jacobi identity, else None."""
    cz = support_rows(c)
    return first_violation(jacobi_terms(cz, cz))


def casimir_residual(c, a) -> Optional[tuple]:
    """First (i, j, k) where a fails the quadratic Casimir equations, else None."""
    return first_violation(casimir_terms(support_rows(c), a))


def metric_residual(c, eta) -> Optional[tuple]:
    """First (i, j, k) where eta fails the compatible-metric equations, else None."""
    return first_violation(metric_terms(support_rows(c), eta))


def cocycle_residual(c, f) -> Optional[tuple]:
    """First (i, j, k) where f fails the 2-cocycle equations, else None."""
    return first_violation(cocycle_terms(support_rows(c), f))


def _unknowns(n: int, pairs: Sequence[Tuple[int, int]], skew: bool) -> list:
    """n x n matrix of markers (column, sign): x^{ij} = +t_col, x^{ji} = -t_col if skew."""
    x = [[None] * n for _ in range(n)]
    for col, (i, j) in enumerate(pairs):
        x[i][j] = (col, 1)
        x[j][i] = (col, -1 if skew else 1)
    return x


# -- symmetric / skew coordinatizations ------------------------------------


def sym_pairs(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def skew_pairs(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _matrix(values: Sequence[Scalar], n: int, pairs: Sequence[Tuple[int, int]],
            skew: bool) -> Matrix:
    """The n x n matrix with x^{ij} = values[col] at pairs[col] = (i, j) and
    x^{ji} its mirror, negated if skew; only nonzero entries are written."""
    m = linalg.zeros(n, n)
    for (i, j), x in zip(pairs, values):
        if x:
            m[i][j] = x
            m[j][i] = -x if skew else x
    return m


@dataclass
class SolutionSpace:
    """A linear space of matrices with a canonical basis."""

    algebra: LieAlgebra
    basis: List[Matrix]
    kind: str  # "casimir" | "metric" | "cocycle"

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass
class CocycleSpace(SolutionSpace):
    coboundary_basis: List[Matrix] = field(default_factory=list)

    @property
    def h2_dim(self) -> int:
        return self.dim - len(self.coboundary_basis)


def _space(g: LieAlgebra, terms, pairs: Sequence[Tuple[int, int]], skew: bool) -> List[Matrix]:
    """Canonical basis of the matrices x whose entries at `pairs` are free and
    mirrored (negated if skew) and which solve the identity `terms`(c, x) of g."""
    n = g.dim
    table = g._table
    sols = solve(terms(table.rows, _unknowns(n, pairs, skew)), len(pairs), table.d)
    return [_matrix(v, n, pairs, skew) for v in sols]


def quadratic_casimir_space(g: LieAlgebra) -> SolutionSpace:
    return SolutionSpace(g, _space(g, casimir_terms, sym_pairs(g.dim), False), "casimir")


def compatible_metric_space(g: LieAlgebra) -> SolutionSpace:
    return SolutionSpace(g, _space(g, metric_terms, sym_pairs(g.dim), False), "metric")


def coboundary_basis(g: LieAlgebra) -> List[Matrix]:
    """Canonical basis of B^2 = {f^{ij} = c^{ij}_k t_k : t in R^n}: the RREF
    of the rows (c^{ij}_k)_{i<j}, one per k, read off the support table."""
    n = g.dim
    table = g._table
    pairs = skew_pairs(n)
    rows: List[dict] = [{} for _ in range(n)]
    for col, (i, j) in enumerate(pairs):
        for k, v in table.rows[i][j]:
            rows[k][col] = v
    return [_matrix([row.get(col, ZERO) for col in range(len(pairs))], n, pairs, True)
            for _, row in sorted(linalg.integer_rref(rows, table.d).items())]


def two_cocycle_space(g: LieAlgebra) -> CocycleSpace:
    return CocycleSpace(g, _space(g, cocycle_terms, skew_pairs(g.dim), True), "cocycle",
                        coboundary_basis=coboundary_basis(g))


# -- nondegenerate witnesses ------------------------------------------------


def general_element(basis: Sequence[Matrix], symbol: str = "t") -> Tuple[PolyRing, list]:
    """sum_k t_k B_k over the ring of parameters t1..tk (named `symbol`1, ...).

    Each entry is written directly as a linear form: t_k has its own unit
    exponent, so no two terms meet and no product is taken.
    """
    n = len(basis[0]) if basis else 0
    k = len(basis)
    coeffs = [[[(m, Scalar.of(b[i][j])) for m, b in enumerate(basis) if b[i][j]]
               for j in range(n)] for i in range(n)]
    ring = PolyRing([], [f"{symbol}{m + 1}" for m in range(k)],
                    d=field_tag(x for row in coeffs for entry in row for _, x in entry))
    units = [tuple(int(m == col) for col in range(k)) for m in range(k)]
    return ring, [[_poly(ring, {units[m]: x for m, x in entry}) for entry in row]
                  for row in coeffs]


def _det_minor_expansion(ring: PolyRing, m: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant by column-subset memoized Laplace expansion.

    Each minor is one `dot` over its (+-entry, sub-minor) pairs, with `keep`
    false: the memo holds each minor once, without its integer form.
    """
    n = len(m)
    if n == 0:
        return ring.one
    negated = [[-x for x in row] for row in m]
    cache = {(): ring.one}

    def minor(cols: tuple) -> Poly:
        # determinant of the last len(cols) rows against the columns `cols`
        if cols in cache:
            return cache[cols]
        i = n - len(cols)
        pairs = []
        for pos, cjx in enumerate(cols):
            if m[i][cjx]:
                sub = minor(cols[:pos] + cols[pos + 1 :])
                if sub:
                    pairs.append((negated[i][cjx] if pos & 1 else m[i][cjx], sub))
        total = cache[cols] = dot(ring, pairs, keep=False)
        return total

    return minor(tuple(range(n)))


def nondegenerate_witness(basis: Sequence[Matrix]) -> Optional[Tuple[Tuple[int, ...], Matrix]]:
    """Deterministic nondegenerate point of a symmetric-matrix space.

    Returns (integer parameter tuple, witness matrix), or None when the
    determinant vanishes identically on the space.  The point is found by
    peeling one parameter at a time: substitute the first value in 0..deg
    keeping the remaining polynomial nonzero.  A univariate nonzero
    polynomial of degree deg cannot vanish at all of 0..deg, so the search
    is complete as well as reproducible.
    """
    if not basis:
        return None
    ring, general = general_element(basis)
    detp = _det_minor_expansion(ring, general)
    if detp.is_zero():
        return None
    k = len(basis)
    point: List[int] = []
    current = detp
    for m in range(k):
        name = f"t{m + 1}"
        deg = current.degree_on([ring.index(name)])
        chosen = None
        for val in range(deg + 1):
            cand = current.subs({name: ring.const(val)})
            if not cand.is_zero():
                chosen = val
                current = cand
                break
        assert chosen is not None, "degree bound guarantees a nonzero value"
        point.append(chosen)
    n = len(basis[0])
    witness = [[sum((b[i][j] * t for b, t in zip(basis, point) if t and b[i][j]), ZERO)
                for j in range(n)] for i in range(n)]
    return tuple(point), witness


@dataclass(kw_only=True)
class DualityReport(VerificationReport):
    """The inversion as conditions: casimir-metric-dims-equal, then
    inverse-casimir-is-metric and inverse-metric-is-casimir for each side
    that has a nondegenerate witness."""

    casimir_dim: int
    metric_dim: int
    casimir_witness: Optional[Matrix]
    metric_witness: Optional[Matrix]


def casimir_metric_duality(g: LieAlgebra) -> DualityReport:
    """Check both directions of the Casimir <-> scalar-product inversion."""
    cas = quadratic_casimir_space(g)
    met = compatible_metric_space(g)
    cw = nondegenerate_witness(cas.basis)
    mw = nondegenerate_witness(met.basis)
    report = DualityReport(casimir_dim=cas.dim, metric_dim=met.dim,
                           casimir_witness=None if cw is None else cw[1],
                           metric_witness=None if mw is None else mw[1])
    report.conditions.append(ConditionResult("casimir-metric-dims-equal", cas.dim == met.dim))
    if cw is not None:
        report.add("inverse-casimir-is-metric", metric_residual(g.c, linalg.inverse(cw[1])))
    if mw is not None:
        report.add("inverse-metric-is-casimir", casimir_residual(g.c, linalg.inverse(mw[1])))
    return report


# -- mixed cocycles of direct sums ------------------------------------------


@dataclass
class MixedCocycleReport:
    mixed_dim: int
    z2_sum: int
    z2_g1: int
    z2_g2: int
    formula_holds: bool
    mixed_basis: List[Matrix]


def mixed_cocycle_check(g1: LieAlgebra, g2: LieAlgebra) -> MixedCocycleReport:
    """Solve the cocycle equations of g1 (+) g2 for f living in the mixed block.

    The unknowns are beta^{i j'} = f^{i, n1 + j'} (i in g1, j' in g2); the
    report also checks dim Z^2(g1 (+) g2) = dim Z^2(g1) + dim Z^2(g2) + mixed.
    """
    n1, n2 = g1.dim, g2.dim
    total = direct_sum(g1, g2)
    pairs = [(i, n1 + jp) for i in range(n1) for jp in range(n2)]
    mixed_basis = _space(total, cocycle_terms, pairs, True)
    z1 = two_cocycle_space(g1).dim
    z2 = two_cocycle_space(g2).dim
    zsum = two_cocycle_space(total).dim
    return MixedCocycleReport(
        mixed_dim=len(mixed_basis),
        z2_sum=zsum,
        z2_g1=z1,
        z2_g2=z2,
        formula_holds=zsum == z1 + z2 + len(mixed_basis),
        mixed_basis=mixed_basis,
    )
