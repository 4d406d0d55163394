"""Finite-dimensional real Lie algebras via structure constants.

The structure tensor is stored contravariantly: c[i][j][k] is the
coefficient of e^k in [e^i, e^j], skew in the upper pair (i, j).  The
constructor rejects tensors failing skew-symmetry (`linalg.first_asymmetry`)
or the Jacobi identity; `jacobi_defect` is the raw diagnostic entry point
for unvalidated data.  `transport_tensor` is the basis-change law of a
structure tensor behind `change_basis`; operators are moved by
`operators.transform_poly_operator`, whose substitution gives c the same law.

The four identities of the Darboux triple (Jacobi, quadratic Casimir,
compatible metric, 2-cocycle) and the center equations are defined here,
once each, as equation generators (`jacobi_terms`, `casimir_terms`,
`metric_terms`, `cocycle_terms`, `center_terms`).  An identity has two
readers: `defect` evaluates it, and `solve` returns its kernel when the
unknown entries are column markers.  Every checker, space solver, center
and mixed pencil condition of the package is derived from them.

`so_n` and `sl_n` build their bases as sparse integer matrices and read
each commutator's coordinates straight off its entries.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .errors import (
    NotACasimirError,
    NotALieAlgebraError,
    ShapeMismatchError,
)
from .poly import Poly, dot
from .scalars import ZERO, Scalar, field_tag, join_field_tags

Tensor3 = Tuple[Tuple[Tuple[Scalar, ...], ...], ...]


def _freeze_tensor(c) -> Tensor3:
    return tuple(tuple(tuple(Scalar.of(x) for x in row) for row in plane) for plane in c)


# -- the four identities, each written once --------------------------------
#
# An identity linear in a tensor x (quadratic identities are bilinear in
# (c, x) with x = c) is a generator of equations.  Each yields
# (key, [(coefficient from c, entry of x), ...]) in increasing key order,
# visiting only nonzero entries of c and x and skipping keys without a
# product.  `defect` sums the products; `solve` reads them as linear rows
# when x holds unknown markers; the mixed pencil conditions sum
# terms(c_B, x_A) and terms(c_A, x_B).


def _support(row) -> list:
    return [(t, v) for t, v in enumerate(row) if v]


def _cyclic(i: int, j: int, k: int) -> tuple:
    return ((i, j), k), ((j, k), i), ((k, i), j)


def jacobi_terms(c, x):
    """J^{ijk}_m = c^{ij}_s x^{sk}_m + c^{jk}_s x^{si}_m + c^{ki}_s x^{sj}_m, i < j < k.

    With x = c this is the Jacobi identity; for a skew tensor J is fully
    antisymmetric in (i, j, k), so i < j < k lists every equation.
    """
    n = len(c)
    cz = [[_support(row) for row in plane] for plane in c]
    xz = cz if x is c else [[_support(row) for row in plane] for plane in x]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                eqs: Dict[int, list] = {}
                for (a, b), last in _cyclic(i, j, k):
                    for s, y in cz[a][b]:
                        for m, z in xz[s][last]:
                            eqs.setdefault(m, []).append((y, z))
                for m in sorted(eqs):
                    yield (i, j, k, m), eqs[m]


def cocycle_terms(c, f):
    """c^{ij}_s f^{sk} + c^{jk}_s f^{si} + c^{ki}_s f^{sj}, i < j < k (2-cocycle f)."""
    n = len(c)
    cz = [[_support(row) for row in plane] for plane in c]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                eq = [(y, f[s][last]) for (a, b), last in _cyclic(i, j, k)
                      for s, y in cz[a][b] if f[s][last]]
                if eq:
                    yield (i, j, k), eq


def _symmetric_terms(table, x):
    """T^{sj}_k x_{is} + T^{si}_k x_{js}, keyed (i, j, k) with i <= j.

    `table[s][j]` lists the nonzero (k, T^{sj}_k): T^{sj}_k = c^{sk}_j for
    the Casimir equations, c^{jk}_s for the metric ones.
    """
    n = len(x)
    xz = [_support(row) for row in x]
    for i in range(n):
        for j in range(i, n):
            eqs: Dict[int, list] = {}
            for p, q in ((i, j), (j, i)):
                for s, z in xz[p]:
                    for k, y in table[s][q]:
                        eqs.setdefault(k, []).append((y, z))
            for k in sorted(eqs):
                yield (i, j, k), eqs[k]


def casimir_terms(c, a):
    """a_{is} c^{sk}_j + a_{js} c^{sk}_i, i <= j (quadratic Casimir a)."""
    n = len(c)
    table = [[[(k, c[s][k][j]) for k in range(n) if c[s][k][j]] for j in range(n)]
             for s in range(n)]
    return _symmetric_terms(table, a)


def metric_terms(c, eta):
    """eta^{is} c^{jk}_s + eta^{js} c^{ik}_s, i <= j (compatible metric eta)."""
    n = len(c)
    table = [[[(k, c[j][k][s]) for k in range(n) if c[j][k][s]] for j in range(n)]
             for s in range(n)]
    return _symmetric_terms(table, eta)


def center_terms(c, a):
    """c^{ij}_k a_j, keyed (i, k): a spans the center (`center`)."""
    for i, plane in enumerate(c):
        eqs: Dict[int, list] = {}
        for j, z in enumerate(a):
            if z:
                for k, y in _support(plane[j]):
                    eqs.setdefault(k, []).append((y, z))
        for k in sorted(eqs):
            yield (i, k), eqs[k]


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


def defect(*systems) -> Iterator[tuple]:
    """(key, value) of every nonzero equation of the summed systems, by increasing key.

    Equations with one key in several systems are added up.  The sums are
    lazy, so the first violation costs only the equations before it.
    """
    if len(systems) == 1:
        equations = systems[0]
    else:
        merged = groupby(heapq.merge(*systems, key=itemgetter(0)), key=itemgetter(0))
        equations = ((key, [p for _, pairs in group for p in pairs]) for key, group in merged)
    for key, pairs in equations:
        value = sum_of_products(pairs)
        if value:
            yield key, value


def first_violation(*systems) -> Optional[tuple]:
    """Key of the first nonzero equation of `defect(*systems)`, else None."""
    return next(defect(*systems), (None,))[0]


def solve(equations, ncols: int) -> List[linalg.Vector]:
    """Canonical kernel of equations whose x entries are (column, sign) markers.

    A polynomial coefficient gives one row per (key, monomial), so a
    solution holds identically in every indeterminate; the coefficients of
    one equation are all Scalars or all polynomials of one ring.
    """
    rows = []
    for _, eq in equations:
        by_monomial: Dict[tuple, dict] = {}
        for coeff, (col, sign) in eq:
            for e, v in coeff.terms.items() if type(coeff) is Poly else (((), coeff),):
                row = by_monomial.setdefault(e, {})
                row[col] = row.get(col, ZERO) + (v if sign > 0 else -v)
        rows += [{col: v for col, v in row.items() if v} for row in by_monomial.values()]
    return linalg.sparse_nullspace([row for row in rows if row], ncols)


def jacobi_defect(c: Sequence[Sequence[Sequence]]) -> Dict[tuple, Scalar]:
    """Nonzero entries of the Jacobi tensor (`jacobi_terms`), keyed by (i, j, k, m).

    The algebra is a Lie algebra iff the map is empty.
    """
    n = len(c)
    if any(len(plane) != n or any(len(row) != n for row in plane) for plane in c):
        raise ShapeMismatchError("structure tensor must be n x n x n")
    return dict(defect(jacobi_terms(c, c)))


@dataclass(frozen=True)
class StructureTags:
    abelian: bool
    nilpotent: bool
    nilpotency_class: Optional[int]
    solvable: bool
    semisimple: bool
    center_dim: int


class LieAlgebra:
    __slots__ = ("dim", "c", "labels")

    def __init__(self, c, labels: Optional[Sequence[str]] = None, _validated: bool = False):
        tensor = _freeze_tensor(c)
        n = len(tensor)
        if not _validated:
            if linalg.first_asymmetry(tensor, skew=True) is not None:
                raise NotALieAlgebraError("structure tensor is not skew in the upper pair")
            defect = jacobi_defect(tensor)
            if defect:
                key = min(defect)
                raise NotALieAlgebraError(
                    f"Jacobi identity fails, first violation at (i,j,k,m)={key}: {defect[key]}"
                )
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "c", tensor)
        object.__setattr__(self, "labels", tuple(labels) if labels else None)

    def __setattr__(self, *_):
        raise AttributeError("LieAlgebra is immutable")

    def __eq__(self, other):
        return isinstance(other, LieAlgebra) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"

    @classmethod
    def from_brackets(cls, dim: int, brackets: Dict[Tuple[int, int], Dict[int, object]],
                      labels: Optional[Sequence[str]] = None) -> "LieAlgebra":
        """Build from sparse brackets {(i, j): {k: coeff}} with 0-based i < j and k."""
        c = [[[Scalar(0) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        for (i, j), out in brackets.items():
            if not (0 <= i < j < dim):
                raise ShapeMismatchError(f"bracket pair {(i, j)} out of range for dim {dim}")
            for k, val in out.items():
                if not 0 <= k < dim:
                    raise ShapeMismatchError(f"bracket output index {k} out of range for dim {dim}")
                s = Scalar.of(val)
                c[i][j][k] = s
                c[j][i][k] = -s
        return cls(c, labels=labels)

    def field_tag(self) -> int:
        return field_tag(x for plane in self.c for row in plane for x in row)

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> List[Scalar]:
        n = self.dim
        out = [Scalar(0)] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                cij = self.c[i][j]
                coef = x[i] * y[j]
                for k in range(n):
                    if cij[k]:
                        out[k] = out[k] + coef * cij[k]
        return out


# -- structural invariants ------------------------------------------------


def killing_form(g: LieAlgebra) -> linalg.Matrix:
    """K^{ij} = c^{il}_m c^{jm}_l."""
    n = g.dim
    c = g.c
    k = linalg.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            total = Scalar(0)
            for l in range(n):
                for m in range(n):
                    a = c[i][l][m]
                    if a:
                        b = c[j][m][l]
                        if b:
                            total = total + a * b
            k[i][j] = total
            k[j][i] = total
    return k


def center(g: LieAlgebra) -> List[linalg.Vector]:
    """Canonical basis of {a : c^{ij}_k a_j = 0 for all i, k} (`center_terms`).

    The vectors are also the linear Casimirs a_i u^i of the Lie-Poisson
    bracket of g.
    """
    return solve(center_terms(g.c, [(j, 1) for j in range(g.dim)]), g.dim)


def _span_basis(vectors: Sequence[linalg.Vector]) -> List[linalg.Vector]:
    if not vectors:
        return []
    red, pivots, rank = linalg.rref(vectors)
    return red[:rank]


def _bracket_span(g: LieAlgebra, s1: Sequence[linalg.Vector],
                  s2: Sequence[linalg.Vector]) -> List[linalg.Vector]:
    vecs = [g.bracket(x, y) for x in s1 for y in s2]
    vecs = [v for v in vecs if any(v)]
    return _span_basis(vecs)


def _series(g: LieAlgebra, lower: bool) -> List[int]:
    """Dimensions of g_1 = g, g_{k+1} = [g, g_k] (lower) or [g_k, g_k], until stable."""
    full = current = linalg.identity(g.dim)
    dims = [g.dim]
    while dims[-1]:
        current = _bracket_span(g, full if lower else current, current)
        if len(current) == dims[-1]:
            break
        dims.append(len(current))
    return dims


def lower_central_series(g: LieAlgebra) -> List[int]:
    """Dimensions of g = g_1 >= g_2 = [g, g_1] >= ... until stabilization."""
    return _series(g, lower=True)


def derived_series(g: LieAlgebra) -> List[int]:
    """Dimensions of g >= [g, g] >= [[g, g], [g, g]] >= ... until stabilization."""
    return _series(g, lower=False)


def structure_tags(g: LieAlgebra) -> StructureTags:
    lcs = lower_central_series(g)
    ds = derived_series(g)
    nilpotent = lcs[-1] == 0
    solvable = ds[-1] == 0
    abelian = g.dim == 0 or (len(lcs) >= 2 and lcs[1] == 0)
    semisimple = g.dim > 0 and bool(linalg.det(killing_form(g)))
    return StructureTags(
        abelian=abelian,
        nilpotent=nilpotent,
        nilpotency_class=(len(lcs) - 1) if nilpotent else None,
        solvable=solvable,
        semisimple=semisimple,
        center_dim=len(center(g)),
    )


# -- constructions --------------------------------------------------------


def direct_sum(g1: LieAlgebra, g2: LieAlgebra) -> LieAlgebra:
    join_field_tags(g1.field_tag(), g2.field_tag(), "direct sum over sqrt({}) and sqrt({})")
    n1, n2 = g1.dim, g2.dim
    n = n1 + n2
    c = [[[Scalar(0) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            for k in range(n1):
                c[i][j][k] = g1.c[i][j][k]
    for i in range(n2):
        for j in range(n2):
            for k in range(n2):
                c[n1 + i][n1 + j][n1 + k] = g2.c[i][j][k]
    return LieAlgebra(c, _validated=True)


def transport_tensor(a, b, c) -> list:
    """c~^{ij}_k = a^i_l a^j_m c^{lm}_s b^s_k, the law of a basis change u~^i = a^i_l u^l.

    `a` and its inverse `b` are Scalar matrices; `c` has Scalar or
    polynomial entries.  One index is contracted at a time through
    `sum_of_products`, so each stage costs O(n^4).
    """
    n = len(c)
    if not n:
        return []
    zero = c[0][0][0] * 0

    def contract(pairs):
        pairs = [(x, y) for x, y in pairs if x and y]
        return sum_of_products(pairs) if pairs else zero

    rng = range(n)
    t1 = [[[contract((c[l][m][s], b[s][k]) for s in rng) for k in rng] for m in rng]
          for l in rng]
    t2 = [[[contract((a[j][m], t1[l][m][k]) for m in rng) for k in rng] for j in rng]
          for l in rng]
    return [[[contract((a[i][l], t2[l][j][k]) for l in rng) for k in rng] for j in rng]
            for i in rng]


def change_basis(g: LieAlgebra, a: Sequence[Sequence]) -> LieAlgebra:
    """Transport by u~^i = a^i_l u^l (`transport_tensor`)."""
    amat, b = linalg.basis_change_pair(a, g.dim)
    return LieAlgebra(transport_tensor(amat, b, g.c))


def build_two_step_nilpotent(g: LieAlgebra, a: Sequence[Sequence],
                             b: Sequence[Sequence]) -> Tuple[LieAlgebra, linalg.Matrix]:
    """Double g into the two-step algebra [e^i, e^j] = c^{ij}_s f^s.

    `a` must be a quadratic Casimir matrix of g and `b` any symmetric n x n
    matrix.  Returns the 2n-dimensional algebra together with its quadratic
    Casimir [[0, a], [a, b]] (e-f pairing block a, f-f block b); the Casimir
    property of the output is re-verified before returning.
    """
    amat = [[Scalar.of(x) for x in row] for row in a]
    bmat = [[Scalar.of(x) for x in row] for row in b]
    n = g.dim
    if any(len(m) != n or any(len(row) != n for row in m) for m in (amat, bmat)):
        raise ShapeMismatchError("blocks must match the input dimension")
    if linalg.first_asymmetry(amat) is not None or linalg.first_asymmetry(bmat) is not None:
        raise ShapeMismatchError("blocks must be symmetric")
    viol = first_violation(casimir_terms(g.c, amat))
    if viol is not None:
        raise NotACasimirError(f"input block fails the Casimir equations at {viol}")
    n2 = 2 * n
    c = [[[Scalar(0)] * n2 for _ in range(n2)] for _ in range(n2)]
    for i in range(n):
        for j in range(n):
            for s in range(n):
                c[i][j][n + s] = g.c[i][j][s]
    out = LieAlgebra(c)
    cas = linalg.zeros(n2, n2)
    for i in range(n):
        for j in range(n):
            cas[i][n + j] = amat[i][j]
            cas[n + i][j] = amat[j][i]
            cas[n + i][n + j] = bmat[i][j]
    viol = first_violation(casimir_terms(out.c, cas))
    if viol is not None:
        raise NotACasimirError(f"constructed matrix fails the Casimir equations at {viol}")
    return out, cas


# -- named algebras used throughout the tests and the catalog -------------


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra.from_brackets(n, {})


def heisenberg3() -> LieAlgebra:
    """n_{3,1}: [e2, e3] = e1."""
    return LieAlgebra.from_brackets(3, {(1, 2): {0: 1}})


def so3() -> LieAlgebra:
    """[L1, L2] = L3, [L2, L3] = L1, [L3, L1] = L2."""
    return LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})


def sl2_jbasis() -> LieAlgebra:
    """Basis {J+, J-, J3} with [J-, J+] = 4 J3, [J3, J+] = 2 J+, [J3, J-] = -2 J-."""
    return LieAlgebra.from_brackets(
        3, {(0, 1): {2: -4}, (0, 2): {0: -2}, (1, 2): {1: 2}}
    )


def su11_contact() -> LieAlgebra:
    """[e1, e2] = e2, [e1, e3] = -e3, [e2, e3] = -e1 (sl(2, R)-isomorphic)."""
    return LieAlgebra.from_brackets(3, {(0, 1): {1: 1}, (0, 2): {2: -1}, (1, 2): {0: -1}})


def s46() -> LieAlgebra:
    """s_{4,6}: [e2, e3] = e1, [e4, e2] = e2, [e4, e3] = -e3."""
    return LieAlgebra.from_brackets(
        4, {(1, 2): {0: 1}, (1, 3): {1: -1}, (2, 3): {2: 1}}
    )


def n52() -> LieAlgebra:
    """n_{5,2}: [e3, e4] = e2, [e3, e5] = e1, [e4, e5] = e3 (3-step nilpotent)."""
    return LieAlgebra.from_brackets(5, {(2, 3): {1: 1}, (2, 4): {0: 1}, (3, 4): {2: 1}})


def n61() -> LieAlgebra:
    """n_{6,1}: [n4, n5] = n2, [n4, n6] = n3, [n5, n6] = n1 (2-step nilpotent)."""
    return LieAlgebra.from_brackets(6, {(3, 4): {1: 1}, (3, 5): {2: 1}, (4, 5): {0: 1}})


def kdv_w_algebra() -> LieAlgebra:
    """[w1, w2] = -2 w3, [w1, w3] = 2 w2, [w2, w3] = 2 w1."""
    return LieAlgebra.from_brackets(3, {(0, 1): {2: -2}, (0, 2): {1: 2}, (1, 2): {0: 2}})


def _matrix_algebra(basis: List[Dict[Tuple[int, int], int]],
                    entries: List[Tuple[int, int]]) -> LieAlgebra:
    """Structure constants of the span of sparse integer matrices {(r, s): x}.

    The coordinate on basis[k] of a matrix of the span is its entry
    entries[k], so each commutator's coordinates are read off its entries.
    """
    dim = len(basis)
    index = {pos: k for k, pos in enumerate(entries)}
    c = [[[Scalar(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            bracket: Dict[Tuple[int, int], int] = {}
            for x, y, sign in ((basis[i], basis[j], 1), (basis[j], basis[i], -1)):
                for (r, t), p in x.items():
                    for (t2, s), q in y.items():
                        if t == t2 and (r, s) in index:
                            bracket[r, s] = bracket.get((r, s), 0) + sign * p * q
            for pos, v in bracket.items():
                if v:
                    c[i][j][index[pos]] = Scalar(v)
                    c[j][i][index[pos]] = Scalar(-v)
    return LieAlgebra(c)


def so_n(n: int) -> LieAlgebra:
    """so(n, R) on N_{ij} = E_{ij} - E_{ji}, pairs (i<j) in lex order; N_{ij} reads entry (i, j)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _matrix_algebra([{(i, j): 1, (j, i): -1} for i, j in pairs], pairs)


def sl_n(n: int) -> LieAlgebra:
    """sl(n, R) on H_i = E_{ii} - E_{nn} and the off-diagonal E_{ij}.

    H_i (i < n - 1) reads the diagonal entry (i, i) and E_{ij} entry (i, j).
    """
    diagonal = [(i, i) for i in range(n - 1)]
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    basis = [{(i, i): 1, (n - 1, n - 1): -1} for i, _ in diagonal] + [{pos: 1} for pos in off]
    return _matrix_algebra(basis, diagonal + off)
