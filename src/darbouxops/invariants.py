"""Linear solution spaces attached to a Lie algebra.

Three spaces determine an operator in Darboux form: quadratic Casimirs
(symmetric a), compatible metrics (symmetric eta) and 2-cocycles (skew f).
Their equations are the identities defined once in `lie`
(`casimir_terms`, `metric_terms`, `cocycle_terms`): a solver evaluates an
identity on a matrix of unknown markers and takes its kernel with
`lie.solve`, and a residual checker takes the first nonzero equation of
its `lie.defect`.  All solvers return canonical RREF-derived bases so
dimensions and bases reproduce across runs.  The linear Casimirs of g are
its center, `lie.center`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .lie import (
    LieAlgebra,
    _span_basis,
    casimir_terms,
    cocycle_terms,
    direct_sum,
    first_violation,
    jacobi_terms,
    metric_terms,
    solve,
)
from .poly import Poly, PolyRing, dot
from .scalars import Scalar, field_tag

Matrix = linalg.Matrix


# -- checkers and solvers derived from the identities in `lie` -------------


def jacobi_residual(c) -> Optional[tuple]:
    """First (i, j, k, m) violating the Jacobi identity, else None."""
    return first_violation(jacobi_terms(c, c))


def casimir_residual(c, a) -> Optional[tuple]:
    """First (i, j, k) where a fails the quadratic Casimir equations, else None."""
    return first_violation(casimir_terms(c, a))


def metric_residual(c, eta) -> Optional[tuple]:
    """First (i, j, k) where eta fails the compatible-metric equations, else None."""
    return first_violation(metric_terms(c, eta))


def cocycle_residual(c, f) -> Optional[tuple]:
    """First (i, j, k) where f fails the 2-cocycle equations, else None."""
    return first_violation(cocycle_terms(c, f))


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


def sym_from_vector(v: Sequence[Scalar], n: int) -> Matrix:
    m = linalg.zeros(n, n)
    for idx, (i, j) in enumerate(sym_pairs(n)):
        m[i][j] = v[idx]
        m[j][i] = v[idx]
    return m


def skew_from_vector(v: Sequence[Scalar], n: int, pairs=None) -> Matrix:
    m = linalg.zeros(n, n)
    for idx, (i, j) in enumerate(skew_pairs(n) if pairs is None else pairs):
        m[i][j] = v[idx]
        m[j][i] = -v[idx]
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


def _symmetric_space(g: LieAlgebra, terms, kind: str) -> SolutionSpace:
    n = g.dim
    pairs = sym_pairs(n)
    sols = solve(terms(g.c, _unknowns(n, pairs, skew=False)), len(pairs))
    return SolutionSpace(g, [sym_from_vector(v, n) for v in sols], kind)


def quadratic_casimir_space(g: LieAlgebra) -> SolutionSpace:
    return _symmetric_space(g, casimir_terms, "casimir")


def compatible_metric_space(g: LieAlgebra) -> SolutionSpace:
    return _symmetric_space(g, metric_terms, "metric")


def coboundary_basis(g: LieAlgebra) -> List[Matrix]:
    """Canonical basis of B^2 = {f^{ij} = c^{ij}_k t_k : t in R^n}."""
    n = g.dim
    pairs = skew_pairs(n)
    return [skew_from_vector(v, n)
            for v in _span_basis([[g.c[i][j][k] for i, j in pairs] for k in range(n)])]


def two_cocycle_space(g: LieAlgebra) -> CocycleSpace:
    n = g.dim
    pairs = skew_pairs(n)
    sols = solve(cocycle_terms(g.c, _unknowns(n, pairs, skew=True)), len(pairs))
    return CocycleSpace(
        g,
        [skew_from_vector(v, n) for v in sols],
        "cocycle",
        coboundary_basis=coboundary_basis(g),
    )


# -- nondegenerate witnesses ------------------------------------------------


def general_element(basis: Sequence[Matrix], symbol: str = "t") -> Tuple[PolyRing, list]:
    """sum_k t_k B_k over the ring of parameters t1..tk (named `symbol`1, ...)."""
    n = len(basis[0]) if basis else 0
    ring = PolyRing([], [f"{symbol}{m + 1}" for m in range(len(basis))],
                    d=field_tag(x for b in basis for row in b for x in row))
    ts = [ring.var(name) for name in ring.names]
    return ring, [[dot(ring, [(b[i][j], t) for b, t in zip(basis, ts) if b[i][j]])
                   for j in range(n)] for i in range(n)]


def _det_minor_expansion(ring: PolyRing, m: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant by column-subset memoized Laplace expansion."""
    n = len(m)
    if n == 0:
        return ring.one
    cache = {(): ring.one}

    def minor(cols: tuple) -> Poly:
        # determinant of the last len(cols) rows against the columns `cols`
        if cols in cache:
            return cache[cols]
        i = n - len(cols)
        total = ring.zero
        sign = 1
        for pos, cjx in enumerate(cols):
            entry = m[i][cjx]
            if entry:
                rest = cols[:pos] + cols[pos + 1 :]
                sub = minor(rest)
                if sub:
                    term = entry * sub
                    total = total + (term if sign > 0 else -term)
            sign = -sign
        cache[cols] = total
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
    witness = linalg.zeros(n, n)
    for m, b in enumerate(basis):
        if point[m]:
            for i in range(n):
                for j in range(n):
                    if b[i][j]:
                        witness[i][j] = witness[i][j] + b[i][j] * point[m]
    return tuple(point), witness


@dataclass
class DualityReport:
    casimir_dim: int
    metric_dim: int
    dims_equal: bool
    casimir_witness: Optional[Matrix]
    metric_witness: Optional[Matrix]
    inverse_casimir_is_metric: Optional[bool]
    inverse_metric_is_casimir: Optional[bool]

    @property
    def passed(self) -> bool:
        checks = [self.dims_equal]
        if self.inverse_casimir_is_metric is not None:
            checks.append(self.inverse_casimir_is_metric)
        if self.inverse_metric_is_casimir is not None:
            checks.append(self.inverse_metric_is_casimir)
        return all(checks)


def casimir_metric_duality(g: LieAlgebra) -> DualityReport:
    """Check both directions of the Casimir <-> scalar-product inversion."""
    cas = quadratic_casimir_space(g)
    met = compatible_metric_space(g)
    cw = nondegenerate_witness(cas.basis)
    mw = nondegenerate_witness(met.basis)
    inv_c = inv_m = None
    cw_mat = mw_mat = None
    if cw is not None:
        cw_mat = cw[1]
        inv_c = metric_residual(g.c, linalg.inverse(cw_mat)) is None
    if mw is not None:
        mw_mat = mw[1]
        inv_m = casimir_residual(g.c, linalg.inverse(mw_mat)) is None
    return DualityReport(
        casimir_dim=cas.dim,
        metric_dim=met.dim,
        dims_equal=cas.dim == met.dim,
        casimir_witness=cw_mat,
        metric_witness=mw_mat,
        inverse_casimir_is_metric=inv_c,
        inverse_metric_is_casimir=inv_m,
    )


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
    sols = solve(cocycle_terms(total.c, _unknowns(n1 + n2, pairs, skew=True)), len(pairs))
    mixed_basis = [skew_from_vector(v, n1 + n2, pairs) for v in sols]
    z1 = two_cocycle_space(g1).dim
    z2 = two_cocycle_space(g2).dim
    zsum = two_cocycle_space(total).dim
    return MixedCocycleReport(
        mixed_dim=len(sols),
        z2_sum=zsum,
        z2_g1=z1,
        z2_g2=z2,
        formula_holds=zsum == z1 + z2 + len(sols),
        mixed_basis=mixed_basis,
    )
