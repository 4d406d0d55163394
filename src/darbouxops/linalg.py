"""Exact linear algebra over Q(sqrt(d)).

Matrices are plain lists of lists of Scalar; the large solver systems are
lists of sparse rows {column: Scalar}.  Every elimination goes through one
sparse row-insertion reducer: each row, taken in order, is reduced against
the pivot rows kept so far (leading column first), and whatever is left is
normalized and kept as the pivot row of its leading column.  `sparse_rref`
then back-substitutes to the reduced row echelon form.  The RREF is unique,
so pivots, nullspace bases (one vector per free column, free entry 1) and
everything derived from them are canonical.

`rref`, `nullspace` and `inverse` (which reduces [A | I]) are dense views of
that result.  `det` is the product of the leading coefficients met during
insertion times the sign of the permutation from row order to pivot column.

`first_asymmetry` is the package's one symmetry/skewness law: metrics,
cocycles, Casimirs, operator blocks and structure tensors (skew in the
upper pair), with Scalar or polynomial entries, are all checked by it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ShapeMismatchError, SingularMatrixError
from .scalars import ONE, ZERO, Scalar

Matrix = List[List[Scalar]]
Vector = List[Scalar]
SparseRow = Dict[int, Scalar]


def _as_scalar_rows(m: Sequence[Sequence]) -> Matrix:
    rows = [[Scalar.of(x) for x in row] for row in m]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ShapeMismatchError("ragged matrix")
    return rows


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> Matrix:
    return [[ZERO] * c for _ in range(r)]


def transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ShapeMismatchError("matrix product shape mismatch")
    bt = transpose(b)
    return [[_dot(row, col) for col in bt] for row in a]


def _dot(x: Sequence[Scalar], y: Sequence[Scalar]) -> Scalar:
    total = ZERO
    for a, b in zip(x, y):
        if a and b:
            total = total + a * b
    return total


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [_dot(row, v) for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def first_asymmetry(m, skew: bool = False) -> Optional[tuple]:
    """First (i, j) with i <= j where m[j][i] != m[i][j] (!= -m[i][j] if skew), else None.

    For a 3-tensor m[i][j][k] the law is checked in the first index pair
    and the key is (i, j, k).  Keys are visited in the order i, then j >= i,
    then k; entries may be Scalars or polynomials.
    """
    n = len(m)
    for i in range(n):
        for j in range(i, n):
            x, y = m[i][j], m[j][i]
            if isinstance(x, (list, tuple)):
                for k, (a, b) in enumerate(zip(x, y)):
                    if a != (-b if skew else b):
                        return (i, j, k)
            elif x != (-y if skew else y):
                return (i, j)
    return None


def _sparse_rows(m: Sequence[Sequence]) -> Tuple[List[SparseRow], int]:
    rows = _as_scalar_rows(m)
    return [{j: x for j, x in enumerate(row) if x} for row in rows], len(rows[0]) if rows else 0


def rref(m: Sequence[Sequence]) -> Tuple[Matrix, Tuple[int, ...], int]:
    """Reduced row echelon form with pivot columns and rank."""
    rows, ncols = _sparse_rows(m)
    pivots = sparse_rref(rows)
    cols = tuple(sorted(pivots))
    red = [[pivots[p].get(j, ZERO) for j in range(ncols)] for p in cols]
    red += [[ZERO] * ncols for _ in range(len(rows) - len(cols))]
    return red, cols, len(cols)


def nullspace(m: Sequence[Sequence], ncols: int | None = None) -> List[Vector]:
    """Canonical kernel basis: one vector per free column, free entry 1."""
    rows, width = _sparse_rows(m)
    if ncols is None:
        if not rows:
            raise ShapeMismatchError("nullspace of empty matrix needs ncols")
        ncols = width
    return sparse_nullspace(rows, ncols)


def det(m: Sequence[Sequence]) -> Scalar:
    rows, n = _sparse_rows(m)
    if len(rows) != n:
        raise ShapeMismatchError("determinant of non-square matrix")
    pivots: Dict[int, SparseRow] = {}
    out = ONE
    for row in rows:
        lead = _insert_row(row, pivots)
        if not lead:
            return ZERO
        out = out * lead
    # normalized rows sorted by pivot column form a unit upper triangle
    order = list(pivots)
    swaps = sum(order[i] > order[j] for i in range(n) for j in range(i + 1, n))
    return -out if swaps % 2 else out


def inverse(m: Sequence[Sequence]) -> Matrix:
    rows, n = _sparse_rows(m)
    if len(rows) != n:
        raise ShapeMismatchError("inverse of non-square matrix")
    for i, row in enumerate(rows):
        row[n + i] = ONE
    pivots = sparse_rref(rows)
    if any(p >= n for p in pivots):
        raise SingularMatrixError("matrix is singular")
    return [[pivots[i].get(n + j, ZERO) for j in range(n)] for i in range(n)]


def basis_change_pair(a: Sequence[Sequence], n: int) -> Tuple[Matrix, Matrix]:
    """(A, A^{-1}) for the n x n basis-change matrix `a`: the one coercion,
    shape check and inversion of every transport law."""
    amat = [[Scalar.of(x) for x in row] for row in a]
    if len(amat) != n or any(len(row) != n for row in amat):
        raise ShapeMismatchError(f"basis-change matrix must be {n} x {n}")
    return amat, inverse(amat)  # raises SingularMatrixError


# -- the sparse reducer ---------------------------------------------------


def _subtract(row: SparseRow, f: Scalar, other: SparseRow) -> None:
    """row -= f * other in place, dropping entries that cancel."""
    nf = -f
    for c, v in other.items():
        w = row.get(c)
        w = nf * v if w is None else w + nf * v
        if w:
            row[c] = w
        elif c in row:
            del row[c]


def _insert_row(row: SparseRow, pivots: Dict[int, SparseRow]) -> Scalar:
    """Reduce a copy of `row` against `pivots` and keep the remainder.

    The remainder, divided by its leading coefficient, becomes the pivot row
    of its leading column.  Returns that coefficient, or ZERO when the row is
    in the span of the pivot rows.
    """
    row = {c: v for c, v in row.items() if v}
    while row:
        c0 = min(row)
        f = row[c0]
        piv = pivots.get(c0)
        if piv is None:
            inv = f.inverse()
            pivots[c0] = {c: v * inv for c, v in row.items()}
            return f
        _subtract(row, f, piv)
    return ZERO


def sparse_rref(rows: Sequence[SparseRow]) -> Dict[int, SparseRow]:
    """Canonical reduced pivot rows (pivot -> normalized row)."""
    pivots: Dict[int, SparseRow] = {}
    for row in rows:
        _insert_row(row, pivots)
    # full back-substitution so the pivot rows form the unique RREF
    for p in sorted(pivots, reverse=True):
        prow = pivots[p]
        for q, qrow in pivots.items():
            if q < p and p in qrow:
                _subtract(qrow, qrow[p], prow)
    return pivots


def sparse_nullspace(rows: Sequence[SparseRow], ncols: int) -> List[Vector]:
    pivots = sparse_rref(rows)
    basis: List[Vector] = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for p, prow in pivots.items():
            coeff = prow.get(free)
            if coeff:
                v[p] = -coeff
        basis.append(v)
    return basis
