"""Exact linear algebra over Q(sqrt(d)).

Matrices are plain lists of lists of Scalar; sparse rows are
{column: Scalar}, and the solver systems of `lie` are integer rows
{column: (A, B)}.  Every elimination goes through one fraction-free sparse
reducer over Z[sqrt(d)] (after Bareiss 1968).  Scalar rows are written
once in the integer form of `scalars.to_integers`.  Taken in order, each
row is reduced against the pivot rows kept so far, leading column first,
by row <- p*row - f*pivot (p the pivot's integer lead, f the row's entry
there), with the integer content divided out after each step; the
remainder becomes the pivot row of its leading column, times the conjugate
of its lead if that lead carries sqrt(d).  A pivot row with one entry
says x_c = 0, and column c is dropped from the rows that follow it, so
the many such rows of `lie`'s solvers are reduced once.  `echelon` is
the entry point of integer rows into the reducer (only `det`, which
tracks each row's scale, inserts its rows itself): `lie` hands it the
rows of its solvers and series directly, and `sparse_rref`/
`sparse_nullspace` hand it their Scalar rows once written as integers.
`integer_rref` and `integer_nullspace` back-substitute the same way,
visiting the entries of each pivot row, and divide by each pivot row's
lead (a nonzero integer) once: Scalars are built (`scalars.from_integers`)
only for the result.  The RREF is unique, so pivots, nullspace bases (one
vector per free column, free entry 1) and everything derived from them are
canonical.

`rref`, `nullspace` and `inverse` (which reduces [A | I]) are dense views of
that result.  `det` is the product of the leads met during insertion, each
over its row's rational scale (tracked as two integers per step), times the
sign of the permutation from row order to pivot column.

`first_asymmetry` is the symmetry/skewness law of metrics, cocycles,
Casimirs, operator blocks and structure tensors (skew in the upper pair),
with Scalar or polynomial entries.  The `lie.LieAlgebra` constructor tests
skewness on its integer support table instead, which it builds anyway.
Basis-change matrices are checked and inverted by their one reader,
`operators.transform_poly_operator`.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ShapeMismatchError, SingularMatrixError
from .poly import Poly
from .scalars import ONE, ZERO, Scalar, from_integers, to_integers

Matrix = List[List[Scalar]]
Vector = List[Scalar]
SparseRow = Dict[int, Scalar]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> Matrix:
    return [[ZERO] * c for _ in range(r)]


def first_asymmetry(m, skew: bool = False) -> Optional[tuple]:
    """First (i, j) with i <= j where m[j][i] != m[i][j] (!= -m[i][j] if skew), else None.

    For a 3-tensor m[i][j][k] the law is checked in the first index pair
    and the key is (i, j, k).  Keys are visited in the order i, then j >= i,
    then k; entries may be Scalars or polynomials.  A pair of zeros is
    skipped, and two polynomials are compared term by term in place.
    """
    n = len(m)
    for i in range(n):
        for j in range(i, n):
            x, y = m[i][j], m[j][i]
            if isinstance(x, (list, tuple)):
                for k, (a, b) in enumerate(zip(x, y)):
                    if (a or b) and not _mirrored(a, b, skew):
                        return (i, j, k)
            elif (x or y) and not _mirrored(x, y, skew):
                return (i, j)
    return None


def _mirrored(x, y, skew: bool) -> bool:
    """x == -y if skew, else x == y."""
    if not skew:
        return x == y
    if type(x) is Poly and type(y) is Poly:
        xt, yt = x.terms, y.terms
        return x.ring == y.ring and len(xt) == len(yt) and all(
            e in yt and v == -yt[e] for e, v in xt.items())
    return x == -y


def _sparse_rows(m: Sequence[Sequence]) -> Tuple[List[SparseRow], int]:
    rows = [[Scalar.of(x) for x in row] for row in m]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ShapeMismatchError("ragged matrix")
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
    d, scale, int_rows = _integer_rows(rows)
    pivots: Dict[int, dict] = {}
    (a, b), num, den = (1, 0), scale**n, 1  # det = (a + b*sqrt(d)) * den / num
    for row in int_rows:
        row, content = _primitive(row)
        inserted = _insert(row, pivots, d)
        if inserted is None:
            return ZERO
        (x, y), mul, div = inserted
        a, b = a * x + d * b * y, a * y + b * x
        num, den = num * mul, den * content * div
    # sorted by pivot column the normalized rows form a unit upper triangle
    order = list(pivots)
    if sum(order[i] > order[j] for i in range(n) for j in range(i + 1, n)) % 2:
        num = -num
    return from_integers(a * den, b * den, num, d)


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


# -- the fraction-free reducer ---------------------------------------------
# An integer row {col: (A, B)} never stores (0, 0); a pivot row's lead is (P, 0), P != 0.


def _primitive(row: dict) -> Tuple[dict, int]:
    """(row / g, g) with g the gcd of all integers of the row (0 if it is empty)."""
    g = gcd(*chain.from_iterable(row.values()))
    if g < 2:
        return row, g
    return {c: (a // g, b // g) for c, (a, b) in row.items()}, g


def _integer_rows(rows: Sequence[SparseRow]) -> Tuple[int, int, List[dict]]:
    """(d, L, [R, ...]): the rows as integer rows R = L * row (`scalars.to_integers`).

    An explicit zero entry of a row is dropped.
    """
    d, den, ints = to_integers([x for row in rows for x in row.values()])
    ints = iter(ints)  # zip reads a row's columns first, so it takes only that row's pairs
    return d, den, [{c: p for c, p in zip(row, ints) if p != (0, 0)} for row in rows]


def _eliminate(row: dict, c0: int, piv: dict, d: int) -> Tuple[dict, int, int]:
    """(p * row - f * piv) / g with f = row[c0], p the lead of the pivot row
    of c0 (both first divided by their gcd) and g the content of the result;
    returns it, p and g.  `row` itself may be reused."""
    (fa, fb), p = row[c0], piv[c0][0]
    h = gcd(fa, fb, p)
    fa, fb, p = fa // h, fb // h, p // h
    dfb = d * fb
    out = {c: (p * a, p * b) for c, (a, b) in row.items()} if p != 1 else row
    for c, (u, v) in piv.items():
        a, b = out.get(c, (0, 0))
        a -= fa * u + dfb * v
        b -= fa * v + fb * u
        if a or b:
            out[c] = (a, b)
        else:  # Z[sqrt(d)] has no zero divisors, so c was present
            del out[c]
    out, g = _primitive(out)
    return out, p, g


def _insert(row: dict, pivots: Dict[int, dict], d: int) -> Optional[tuple]:
    """Reduce the integer row against `pivots` and keep the remainder as a pivot row.

    Returns (lead, mul, div): the remainder's lead before it is made
    rational, which is mul / div times the one that field arithmetic
    reaches by the same steps; None when the row is in the span of `pivots`.
    """
    mul = div = 1
    while row:
        c0 = min(row)
        piv = pivots.get(c0)
        if piv is None:
            lead = a, b = row[c0]
            if b:  # times the conjugate: the lead becomes a^2 - d*b^2
                row = _primitive({c: (x * a - d * b * y, y * a - x * b)
                                  for c, (x, y) in row.items()})[0]
            pivots[c0] = row
            return lead, mul, div
        row, p, g = _eliminate(row, c0, piv, d)
        mul *= p
        div *= g
    return None


def echelon(rows, d: int) -> Dict[int, dict]:
    """Echelon pivot rows (pivot -> integer row) of integer rows {col: (A, B)} over Z[sqrt(d)].

    The entry point of integer rows into the reducer: each row is made
    primitive and inserted; empty rows are skipped.  A pivot row with a
    single entry puts e_c in the row space, so column c is dropped from
    every later row before it is inserted (a row this leaves empty is
    skipped): each remainder keeps its lead, and the pivots are found in
    the same order as without the drop.  The given rows are left as they
    are: a row that neither step copies is copied before it is inserted.
    """
    pivots: Dict[int, dict] = {}
    units = set()
    for given in rows:
        row = given
        if units and not units.isdisjoint(row):
            row = {c: x for c, x in row.items() if c not in units}
        if not row:
            continue
        row = _primitive(row)[0]
        if row is given:  # `_eliminate` writes into the row it reduces
            row = dict(row)
        if _insert(row, pivots, d) is not None:
            c = next(reversed(pivots))
            if len(pivots[c]) == 1:
                units.add(c)
    return pivots


def _reduced(rows, d: int) -> Dict[int, dict]:
    """`echelon`, back-substituted so that the pivot rows form the unique RREF
    up to the integer lead of each row."""
    pivots = echelon(rows, d)
    for q in sorted(pivots, reverse=True):  # the rows of later pivots are reduced already
        qrow = pivots[q]
        for p in [c for c in qrow if c != q and c in pivots]:
            qrow = _eliminate(qrow, p, pivots[p], d)[0]
        pivots[q] = qrow
    return pivots


def integer_rref(rows, d: int) -> Dict[int, SparseRow]:
    """Canonical reduced pivot rows (pivot -> normalized Scalar row) of integer
    rows, in the order the pivots are found."""
    return {p: {c: from_integers(a, b, row[p][0], d) for c, (a, b) in row.items()}
            for p, row in _reduced(rows, d).items()}


def integer_nullspace(rows, ncols: int, d: int) -> List[Vector]:
    """Canonical kernel basis of integer rows: one vector per free column, free entry 1.

    The basis does not depend on the order of the rows, so they are reduced
    shortest first: the single-entry rows become pivots before the others
    are inserted (`echelon`).
    """
    pivots = _reduced(sorted(rows, key=len), d)
    basis: List[Vector] = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for p, prow in pivots.items():
            x = prow.get(free)
            if x:
                v[p] = from_integers(-x[0], -x[1], prow[p][0], d)
        basis.append(v)
    return basis


def sparse_rref(rows: Sequence[SparseRow]) -> Dict[int, SparseRow]:
    """Canonical reduced pivot rows (pivot -> normalized row), in the order
    the pivots are found."""
    d, _, int_rows = _integer_rows(rows)
    return integer_rref(int_rows, d)


def sparse_nullspace(rows: Sequence[SparseRow], ncols: int) -> List[Vector]:
    d, _, int_rows = _integer_rows(rows)
    return integer_nullspace(int_rows, ncols, d)
