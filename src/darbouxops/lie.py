"""Finite-dimensional real Lie algebras via structure constants.

The structure tensor is stored contravariantly: c[i][j][k] is the
coefficient of e^k in [e^i, e^j], skew in the upper pair (i, j).  The
constructor rejects tensors failing skew-symmetry or the Jacobi identity;
`jacobi_defect` is the raw diagnostic entry point for unvalidated data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import (
    FieldMismatchError,
    NotACasimirError,
    NotALieAlgebraError,
    ShapeMismatchError,
)
from .scalars import Scalar

Tensor3 = Tuple[Tuple[Tuple[Scalar, ...], ...], ...]


def _freeze_tensor(c) -> Tensor3:
    return tuple(tuple(tuple(Scalar.of(x) for x in row) for row in plane) for plane in c)


def jacobi_defect(c: Sequence[Sequence[Sequence]]) -> Dict[tuple, Scalar]:
    """Nonzero entries of the Jacobi tensor, keyed by (i, j, k, m).

    J^{ijk}_m = c^{ij}_s c^{sk}_m + c^{jk}_s c^{si}_m + c^{ki}_s c^{sj}_m.
    For a skew tensor J is fully antisymmetric in (i, j, k), so only
    i < j < k is reported; the algebra is a Lie algebra iff the map is empty.
    """
    n = len(c)
    if any(len(plane) != n or any(len(row) != n for row in plane) for plane in c):
        raise ShapeMismatchError("structure tensor must be n x n x n")
    # nonzero c^{ab}_s, listed once per pair (a, b)
    nz = [[[(s, x) for s, x in enumerate(c[a][b]) if x] for b in range(n)] for a in range(n)]
    zero = Scalar(0)
    out: Dict[tuple, Scalar] = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                totals: Dict[int, Scalar] = {}
                for (a, b), last in (((i, j), k), ((j, k), i), ((k, i), j)):
                    for s, x in nz[a][b]:
                        for m, y in nz[s][last]:
                            totals[m] = totals.get(m, zero) + x * y
                for m in sorted(totals):
                    if totals[m]:
                        out[(i, j, k, m)] = totals[m]
    return out


def is_skew_tensor(c: Sequence[Sequence[Sequence]]) -> bool:
    n = len(c)
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    return False
    return True


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
            if not is_skew_tensor(tensor):
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
        """Build from sparse brackets {(i, j): {k: coeff}} with 0-based i < j."""
        c = [[[Scalar(0) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        for (i, j), out in brackets.items():
            if not (0 <= i < j < dim):
                raise ShapeMismatchError(f"bracket pair {(i, j)} out of range for dim {dim}")
            for k, val in out.items():
                s = Scalar.of(val)
                c[i][j][k] = s
                c[j][i][k] = -s
        return cls(c, labels=labels)

    def field_tag(self) -> int:
        for plane in self.c:
            for row in plane:
                for x in row:
                    if x.d:
                        return x.d
        return 0

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
    """Canonical basis of {a : c^{ij}_k a_j = 0 for all i, k}."""
    n = g.dim
    rows = []
    for i in range(n):
        for k in range(n):
            row = {j: g.c[i][j][k] for j in range(n) if g.c[i][j][k]}
            if row:
                rows.append(row)
    return linalg.sparse_nullspace(rows, n)


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


def lower_central_series(g: LieAlgebra) -> List[int]:
    """Dimensions of g = g_1 >= g_2 = [g, g_1] >= ... until stabilization."""
    full = [row[:] for row in linalg.identity(g.dim)]
    dims = [g.dim]
    current = full
    while True:
        nxt = _bracket_span(g, full, current)
        d = len(nxt)
        if d == dims[-1]:
            break
        dims.append(d)
        current = nxt
        if d == 0:
            break
    return dims


def derived_series(g: LieAlgebra) -> List[int]:
    dims = [g.dim]
    current = [row[:] for row in linalg.identity(g.dim)]
    while True:
        nxt = _bracket_span(g, current, current)
        d = len(nxt)
        if d == dims[-1]:
            break
        dims.append(d)
        current = nxt
        if d == 0:
            break
    return dims


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
    d1, d2 = g1.field_tag(), g2.field_tag()
    if d1 and d2 and d1 != d2:
        raise FieldMismatchError(f"direct sum over sqrt({d1}) and sqrt({d2})")
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


def change_basis(g: LieAlgebra, a: Sequence[Sequence]) -> LieAlgebra:
    """Transport by u~^i = a^i_l u^l: c~^{ij}_k = a^i_l a^j_m c^{lm}_s b^s_k."""
    amat = [[Scalar.of(x) for x in row] for row in a]
    if len(amat) != g.dim or any(len(r) != g.dim for r in amat):
        raise ShapeMismatchError("basis-change matrix has wrong shape")
    b = linalg.inverse(amat)  # raises SingularMatrixError
    n = g.dim
    # contract stepwise to keep the cost at O(n^4) per stage
    t1 = [[[Scalar(0)] * n for _ in range(n)] for _ in range(n)]  # c^{lm}_s b^s_k
    for l in range(n):
        for m in range(n):
            row = g.c[l][m]
            for k in range(n):
                tot = Scalar(0)
                for s in range(n):
                    if row[s] and b[s][k]:
                        tot = tot + row[s] * b[s][k]
                t1[l][m][k] = tot
    t2 = [[[Scalar(0)] * n for _ in range(n)] for _ in range(n)]  # a^j_m t1^{lm}_k
    for l in range(n):
        for j in range(n):
            for k in range(n):
                tot = Scalar(0)
                for m in range(n):
                    if amat[j][m] and t1[l][m][k]:
                        tot = tot + amat[j][m] * t1[l][m][k]
                t2[l][j][k] = tot
    c_new = [[[Scalar(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                tot = Scalar(0)
                for l in range(n):
                    if amat[i][l] and t2[l][j][k]:
                        tot = tot + amat[i][l] * t2[l][j][k]
                c_new[i][j][k] = tot
    return LieAlgebra(c_new)


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
    if len(amat) != n or len(bmat) != n:
        raise ShapeMismatchError("blocks must match the input dimension")
    if not linalg.is_symmetric(amat) or not linalg.is_symmetric(bmat):
        raise ShapeMismatchError("blocks must be symmetric")
    viol = casimir_violation(g.c, amat)
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
    viol = casimir_violation(out.c, cas)
    if viol is not None:
        raise NotACasimirError(f"constructed matrix fails the Casimir equations at {viol}")
    return out, cas


def casimir_violation(c: Sequence[Sequence[Sequence]], a: Sequence[Sequence]):
    """First (i, j, k) with a_{is} c^{sk}_j + a_{js} c^{sk}_i != 0, else None."""
    n = len(c)
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                tot = Scalar(0)
                for s in range(n):
                    if a[i][s] and c[s][k][j]:
                        tot = tot + a[i][s] * c[s][k][j]
                    if a[j][s] and c[s][k][i]:
                        tot = tot + a[j][s] * c[s][k][i]
                if tot:
                    return (i, j, k)
    return None


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


def _matrix_algebra_from_basis(basis: List[List[List[Fraction]]]) -> LieAlgebra:
    """Structure constants of a matrix Lie algebra given a spanning basis.

    One sparse reduction of [basis columns | all commutators] gives every
    coordinate vector.  Its RREF is [R | E C], with E the row operations
    that take the basis columns to R, so a commutator's coordinates are its
    column of E C on the pivot rows, with free (dependent) basis directions
    set to 0.  A pivot in a commutator column means it leaves the span.
    """
    dim = len(basis)
    size = len(basis[0])
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    rows: List[Dict[int, Scalar]] = [{} for _ in range(size * size)]
    for k, m in enumerate(basis):
        for r in range(size):
            for s in range(size):
                if m[r][s]:
                    rows[r * size + s][k] = Scalar(m[r][s])
    for p, (i, j) in enumerate(pairs):
        for r in range(size):
            for s in range(size):
                acc = Fraction(0)
                for t in range(size):
                    acc += basis[i][r][t] * basis[j][t][s] - basis[j][r][t] * basis[i][t][s]
                if acc:
                    rows[r * size + s][dim + p] = Scalar(acc)
    pivots = linalg.sparse_rref(rows)
    if any(col >= dim for col in pivots):
        raise ShapeMismatchError("commutator leaves the span of the basis")
    c = [[[Scalar(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for p, (i, j) in enumerate(pairs):
        for k, prow in pivots.items():
            x = prow.get(dim + p)
            if x:
                c[i][j][k] = x
                c[j][i][k] = -x
    return LieAlgebra(c)


def so_n(n: int) -> LieAlgebra:
    """so(n, R) on the basis N_{ij} = E_{ij} - E_{ji}, pairs (i<j) in lex order."""
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            m = [[Fraction(0)] * n for _ in range(n)]
            m[i][j] = Fraction(1)
            m[j][i] = Fraction(-1)
            basis.append(m)
    return _matrix_algebra_from_basis(basis)


def sl_n(n: int) -> LieAlgebra:
    """sl(n, R) on H_i = E_{ii} - E_{nn} and the off-diagonal E_{ij}."""
    basis = []
    for i in range(n - 1):
        m = [[Fraction(0)] * n for _ in range(n)]
        m[i][i] = Fraction(1)
        m[n - 1][n - 1] = Fraction(-1)
        basis.append(m)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = [[Fraction(0)] * n for _ in range(n)]
            m[i][j] = Fraction(1)
            basis.append(m)
    return _matrix_algebra_from_basis(basis)
