"""Linear solution spaces attached to a Lie algebra.

Three spaces determine an operator in Darboux form: quadratic Casimirs
(symmetric a with a_{is} c^{sk}_j + a_{js} c^{sk}_i = 0), compatible
metrics (symmetric eta with eta^{is} c^{jk}_s + eta^{js} c^{ik}_s = 0) and
2-cocycles (skew f with c^{ij}_s f^{sk} + cyclic = 0).  All solvers return
canonical RREF-derived bases so dimensions and bases reproduce across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .lie import LieAlgebra
from .poly import Poly, PolyRing, dot
from .scalars import Scalar

Matrix = linalg.Matrix


# -- residual checks (generic over Scalar or Poly entries) -----------------


def sum_of_products(pairs):
    """The sum of x*y over a non-empty list of pairs.

    Polynomial entries go through the integer kernel `poly.dot`; Scalar
    entries are summed with Scalar arithmetic.
    """
    x, y = pairs[0]
    if type(x) is Poly:
        return dot(x.ring, pairs)
    if type(y) is Poly:
        return dot(y.ring, pairs)
    tot = x * y
    for x, y in pairs[1:]:
        tot = tot + x * y
    return tot


def jacobi_residual(c) -> Optional[tuple]:
    """First (i, j, k, m) violating the Jacobi identity, else None."""
    n = len(c)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for m in range(n):
                    pairs = [
                        (x, y)
                        for s in range(n)
                        for x, y in (
                            (c[i][j][s], c[s][k][m]),
                            (c[j][k][s], c[s][i][m]),
                            (c[k][i][s], c[s][j][m]),
                        )
                        if x and y
                    ]
                    if pairs and sum_of_products(pairs):
                        return (i, j, k, m)
    return None


def casimir_residual(c, a) -> Optional[tuple]:
    """First (i, j, k) violating a_{is} c^{sk}_j + a_{js} c^{sk}_i = 0."""
    n = len(c)
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                pairs = [
                    (x, y)
                    for s in range(n)
                    for x, y in ((a[i][s], c[s][k][j]), (a[j][s], c[s][k][i]))
                    if x and y
                ]
                if pairs and sum_of_products(pairs):
                    return (i, j, k)
    return None


def metric_residual(c, eta) -> Optional[tuple]:
    """First (i, j, k) violating eta^{is} c^{jk}_s + eta^{js} c^{ik}_s = 0."""
    n = len(c)
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                pairs = [
                    (x, y)
                    for s in range(n)
                    for x, y in ((eta[i][s], c[j][k][s]), (eta[j][s], c[i][k][s]))
                    if x and y
                ]
                if pairs and sum_of_products(pairs):
                    return (i, j, k)
    return None


def cocycle_residual(c, f) -> Optional[tuple]:
    """First (i, j, k) violating c^{ij}_s f^{sk} + c^{jk}_s f^{si} + c^{ki}_s f^{sj} = 0."""
    n = len(c)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                pairs = [
                    (x, y)
                    for s in range(n)
                    for x, y in ((c[i][j][s], f[s][k]), (c[j][k][s], f[s][i]), (c[k][i][s], f[s][j]))
                    if x and y
                ]
                if pairs and sum_of_products(pairs):
                    return (i, j, k)
    return None


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


def skew_from_vector(v: Sequence[Scalar], n: int) -> Matrix:
    m = linalg.zeros(n, n)
    for idx, (i, j) in enumerate(skew_pairs(n)):
        m[i][j] = v[idx]
        m[j][i] = -v[idx]
    return m


def _sym_index(n: int):
    idx = {}
    for pos, (i, j) in enumerate(sym_pairs(n)):
        idx[(i, j)] = pos
        idx[(j, i)] = pos
    return idx


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


def quadratic_casimir_space(g: LieAlgebra) -> SolutionSpace:
    n = g.dim
    c = g.c
    idx = _sym_index(n)
    rows = []
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                row: dict = {}
                for s in range(n):
                    if c[s][k][j]:
                        p = idx[(i, s)]
                        row[p] = row.get(p, Scalar(0)) + c[s][k][j]
                    if c[s][k][i]:
                        p = idx[(j, s)]
                        row[p] = row.get(p, Scalar(0)) + c[s][k][i]
                row = {p: v for p, v in row.items() if v}
                if row:
                    rows.append(row)
    sols = linalg.sparse_nullspace(rows, n * (n + 1) // 2)
    return SolutionSpace(g, [sym_from_vector(v, n) for v in sols], "casimir")


def compatible_metric_space(g: LieAlgebra) -> SolutionSpace:
    n = g.dim
    c = g.c
    idx = _sym_index(n)
    rows = []
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                row: dict = {}
                for s in range(n):
                    if c[j][k][s]:
                        p = idx[(i, s)]
                        row[p] = row.get(p, Scalar(0)) + c[j][k][s]
                    if c[i][k][s]:
                        p = idx[(j, s)]
                        row[p] = row.get(p, Scalar(0)) + c[i][k][s]
                row = {p: v for p, v in row.items() if v}
                if row:
                    rows.append(row)
    sols = linalg.sparse_nullspace(rows, n * (n + 1) // 2)
    return SolutionSpace(g, [sym_from_vector(v, n) for v in sols], "metric")


def coboundary_basis(g: LieAlgebra) -> List[Matrix]:
    """Canonical basis of B^2 = {f^{ij} = c^{ij}_k t_k : t in R^n}."""
    n = g.dim
    pairs = skew_pairs(n)
    rows = []
    for k in range(n):
        rows.append([g.c[i][j][k] for (i, j) in pairs])
    if not rows:
        return []
    red, pivots, rank = linalg.rref(rows)
    return [skew_from_vector(red[r], n) for r in range(rank)]


def two_cocycle_space(g: LieAlgebra) -> CocycleSpace:
    n = g.dim
    c = g.c
    pairs = skew_pairs(n)
    pos = {}
    for p, (i, j) in enumerate(pairs):
        pos[(i, j)] = (p, 1)
        pos[(j, i)] = (p, -1)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                row: dict = {}
                for s in range(n):
                    for coeff, other in ((c[i][j][s], k), (c[j][k][s], i), (c[k][i][s], j)):
                        if coeff and s != other:
                            p, sign = pos[(s, other)]
                            row[p] = row.get(p, Scalar(0)) + (coeff if sign > 0 else -coeff)
                row = {p: v for p, v in row.items() if v}
                if row:
                    rows.append(row)
    sols = linalg.sparse_nullspace(rows, len(pairs))
    return CocycleSpace(
        g,
        [skew_from_vector(v, n) for v in sols],
        "cocycle",
        coboundary_basis=coboundary_basis(g),
    )


def linear_casimirs(g: LieAlgebra) -> List[linalg.Vector]:
    """Coefficient vectors a with c^{ij}_k a_j = 0; densities a_i u^i."""
    from .lie import center

    return center(g)


# -- nondegenerate witnesses ------------------------------------------------


def _space_det_poly(basis: Sequence[Matrix]) -> Tuple[PolyRing, Poly]:
    """det(sum_k t_k B_k) as a polynomial in parameters t1..tk."""
    k = len(basis)
    n = len(basis[0]) if basis else 0
    d = 0
    for b in basis:
        for row in b:
            for x in row:
                if x.d:
                    d = x.d
    ring = PolyRing([], [f"t{m + 1}" for m in range(k)], d=d)
    entries = [[ring.zero for _ in range(n)] for _ in range(n)]
    for m, b in enumerate(basis):
        t = ring.var(f"t{m + 1}")
        for i in range(n):
            for j in range(n):
                if b[i][j]:
                    entries[i][j] = entries[i][j] + ring.const(b[i][j]) * t
    return ring, _det_minor_expansion(ring, entries)


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
    ring, detp = _space_det_poly(basis)
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
        inv_m = casimir_violation_matrix(g, linalg.inverse(mw_mat))
    return DualityReport(
        casimir_dim=cas.dim,
        metric_dim=met.dim,
        dims_equal=cas.dim == met.dim,
        casimir_witness=cw_mat,
        metric_witness=mw_mat,
        inverse_casimir_is_metric=inv_c,
        inverse_metric_is_casimir=inv_m,
    )


def casimir_violation_matrix(g: LieAlgebra, a: Matrix) -> bool:
    return casimir_residual(g.c, a) is None


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
    """Solve the mixed-block system for cocycles of g1 (+) g2.

    Unknowns beta^{i j'} (i in g1, j' in g2) subject to
    beta^{i j'} c^{hl}_i = 0 and beta^{i j'} gamma^{p'q'}_{j'} = 0; the
    report also checks dim Z^2(g1 (+) g2) = dim Z^2(g1) + dim Z^2(g2) + mixed.
    """
    from .lie import direct_sum

    n1, n2 = g1.dim, g2.dim
    rows = []
    pos = lambda i, j: i * n2 + j  # noqa: E731
    for h in range(n1):
        for l in range(h + 1, n1):
            for jp in range(n2):
                row = {pos(i, jp): g1.c[h][l][i] for i in range(n1) if g1.c[h][l][i]}
                if row:
                    rows.append(row)
    for pp in range(n2):
        for qp in range(pp + 1, n2):
            for i in range(n1):
                row = {pos(i, jp): g2.c[pp][qp][jp] for jp in range(n2) if g2.c[pp][qp][jp]}
                if row:
                    rows.append(row)
    sols = linalg.sparse_nullspace(rows, n1 * n2)
    total = n1 + n2
    mixed_basis = []
    for v in sols:
        m = linalg.zeros(total, total)
        for i in range(n1):
            for jp in range(n2):
                val = v[pos(i, jp)]
                if val:
                    m[i][n1 + jp] = val
                    m[n1 + jp][i] = -val
        mixed_basis.append(m)
    z1 = two_cocycle_space(g1).dim
    z2 = two_cocycle_space(g2).dim
    zsum = two_cocycle_space(direct_sum(g1, g2)).dim
    return MixedCocycleReport(
        mixed_dim=len(sols),
        z2_sum=zsum,
        z2_g1=z1,
        z2_g2=z2,
        formula_holds=zsum == z1 + z2 + len(sols),
        mixed_basis=mixed_basis,
    )
