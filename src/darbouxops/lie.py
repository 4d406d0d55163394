"""Finite-dimensional real Lie algebras via structure constants.

The structure tensor is stored contravariantly: c[i][j][k] is the
coefficient of e^k in [e^i, e^j], skew in the upper pair (i, j).  A basis
change moves c as the linear part of the Lie-Poisson operator
omega = c.u, so it lives with the operators (`operators.change_basis`).

The four identities of the Darboux triple (Jacobi, quadratic Casimir,
compatible metric, 2-cocycle) and the center equations are defined here,
once each, as equation generators (`jacobi_terms`, `casimir_terms`,
`metric_terms`, `cocycle_terms`, `center_terms`) over the support rows of
c: cz[i][j] lists the nonzero (k, c^{ij}_k).  An identity has two
readers: `defect` evaluates it, and `solve` returns its kernel when the
unknown entries are column markers.  Every checker, space solver, center
and mixed pencil condition of the package is derived from them.  The
identities summed cyclically over i < j < k (Jacobi, cocycle and
`operators.schouten_terms`) iterate one enumeration, `cyclic_triples`.

A `LieAlgebra` caches one integer support table of its tensor
(`SupportTable`, built once in the constructor): the support rows with
each c^{ij}_k in the integer form of `scalars.to_integers`, whose common
denominator is left out.  The constructor checks skewness and Jacobi on
it (a ragged tensor is a ShapeMismatchError), and every reader of the
algebra's tensor reads it: the solvers hand `linalg.echelon` integer rows
straight from it, the lower central and derived series keep each g_k as
echelon integer rows of integer brackets (`_bracket`), and the Killing
form, the center and the coboundaries read it too.  Scalars are built
(`scalars.from_integers`) only for outputs.  Scalar and polynomial tensors
(`jacobi_defect`, the residual checkers, operators and pencils) get their
support rows from `support_rows`, once per call.

`so_n` and `sl_n` build their bases as sparse integer matrices and read
each commutator's coordinates straight off its entries.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations, groupby
from math import lcm
from operator import itemgetter
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .errors import (
    NotACasimirError,
    NotALieAlgebraError,
    ShapeMismatchError,
)
from .poly import Poly, _operand_form, dot
from .scalars import ZERO, Frozen, Scalar, from_integers, join_field_tags, to_integers

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


def support_rows(c) -> list:
    """cz[i][j] = [(k, c^{ij}_k), ...] over the nonzero entries of the n x n x n tensor c.

    ShapeMismatchError unless c is n x n x n.
    """
    n = len(c)
    if any(len(plane) != n or any(len(row) != n for row in plane) for plane in c):
        raise ShapeMismatchError("structure tensor must be n x n x n")
    return [[_support(row) for row in plane] for plane in c]


def cyclic_triples(n: int) -> Iterator[tuple]:
    """((i, j, k), (((i, j), k), ((j, k), i), ((k, i), j))) for i < j < k < n,
    in increasing order: the keys and the three cyclic terms of every
    identity summed cyclically over a triple (`jacobi_terms`,
    `cocycle_terms`, `operators.schouten_terms`)."""
    for i, j, k in combinations(range(n), 3):
        yield (i, j, k), (((i, j), k), ((j, k), i), ((k, i), j))


def jacobi_terms(cz, xz):
    """J^{ijk}_m = c^{ij}_s x^{sk}_m + c^{jk}_s x^{si}_m + c^{ki}_s x^{sj}_m, i < j < k.

    With x = c this is the Jacobi identity; for a skew tensor J is fully
    antisymmetric in (i, j, k), so i < j < k lists every equation.
    """
    for key, cyclic in cyclic_triples(len(cz)):
        eqs: Dict[int, list] = {}
        for (a, b), last in cyclic:
            for s, y in cz[a][b]:
                for m, z in xz[s][last]:
                    eqs.setdefault(m, []).append((y, z))
        for m in sorted(eqs):
            yield key + (m,), eqs[m]


def cocycle_terms(cz, f):
    """c^{ij}_s f^{sk} + c^{jk}_s f^{si} + c^{ki}_s f^{sj}, i < j < k (2-cocycle f)."""
    for key, cyclic in cyclic_triples(len(cz)):
        eq = [(y, f[s][last]) for (a, b), last in cyclic for s, y in cz[a][b] if f[s][last]]
        if eq:
            yield key, eq


def _symmetric_terms(table, x):
    """T^{sj}_k x_{is} + T^{si}_k x_{js}, keyed (i, j, k) with i <= j.

    `table[s][j]` lists the nonzero (k, T^{sj}_k) by increasing k:
    T^{sj}_k = c^{sk}_j for the Casimir equations, c^{jk}_s for the metric ones.
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


def casimir_terms(cz, a):
    """a_{is} c^{sk}_j + a_{js} c^{sk}_i, i <= j (quadratic Casimir a)."""
    n = len(cz)
    table = [[[] for _ in range(n)] for _ in range(n)]
    for s, plane in enumerate(cz):
        for k, row in enumerate(plane):
            for j, y in row:
                table[s][j].append((k, y))
    return _symmetric_terms(table, a)


def metric_terms(cz, eta):
    """eta^{is} c^{jk}_s + eta^{js} c^{ik}_s, i <= j (compatible metric eta)."""
    n = len(cz)
    table = [[[] for _ in range(n)] for _ in range(n)]
    for j, plane in enumerate(cz):
        for k, row in enumerate(plane):
            for s, y in row:
                table[s][j].append((k, y))
    return _symmetric_terms(table, eta)


def center_terms(cz, a):
    """c^{ij}_k a_j, keyed (i, k): a spans the center (`center`)."""
    for i, plane in enumerate(cz):
        eqs: Dict[int, list] = {}
        for j, z in enumerate(a):
            if z:
                for k, y in plane[j]:
                    eqs.setdefault(k, []).append((y, z))
        for k in sorted(eqs):
            yield (i, k), eqs[k]


def _int_dot(pairs, d: int) -> Tuple[int, int]:
    """The sum of x*y over pairs of integer pairs (A, B), for A + B*sqrt(d)."""
    a = b = 0
    for (a1, b1), (a2, b2) in pairs:
        a += a1 * a2 + d * b1 * b2
        b += a1 * b2 + b1 * a2
    return a, b


def defect(*systems) -> Iterator[tuple]:
    """(key, value) of every nonzero equation of the summed systems, by increasing key.

    Equations with one key in several systems are added up.  The sums are
    lazy, so the first violation costs only the equations before it.  An
    equation with a polynomial factor is summed by the integer kernel
    `poly.dot`, one of Scalars with Scalar arithmetic.
    """
    if len(systems) == 1:
        equations = systems[0]
    else:
        merged = groupby(heapq.merge(*systems, key=itemgetter(0)), key=itemgetter(0))
        equations = ((key, [p for _, pairs in group for p in pairs]) for key, group in merged)
    for key, pairs in equations:
        x, y = pairs[0]
        if type(x) is Poly or type(y) is Poly:
            value = dot((x if type(x) is Poly else y).ring, pairs)
        else:
            value = x * y
            for x, y in pairs[1:]:
                value = value + x * y
        if value:
            yield key, value


def first_violation(*systems) -> Optional[tuple]:
    """Key of the first nonzero equation of `defect(*systems)`, else None."""
    return next(defect(*systems), (None,))[0]


def solve(equations, ncols: int, d: int = 0) -> List[linalg.Vector]:
    """Canonical kernel of equations whose x entries are (column, sign) markers.

    A coefficient is an integer pair (A, B), for A + B*sqrt(d), such as an
    entry of a `LieAlgebra`'s support table (its common denominator scales
    every row alike and is left out), or a polynomial; the coefficients of
    one equation are all pairs or all polynomials of one ring.  A
    polynomial gives one row per (key, monomial), so a solution holds
    identically in every indeterminate; its integer form (`Poly._ints`) is
    read over the lcm denominator of the equation.  The integer rows go
    straight to `linalg.integer_nullspace`: Scalars are built only for the
    kernel basis.
    """
    rows = []
    for _, eq in equations:
        if eq and type(eq[0][0]) is Poly:
            forms = [(_operand_form(x.ring, x, True), marker) for x, marker in eq]
            den = lcm(*[form[1] for form, _ in forms])
            by_monomial: Dict[object, dict] = {}
            for (dx, fden, terms), (col, sign) in forms:
                d = join_field_tags(d, dx)
                k = sign * (den // fden)
                for e, a, b in terms:
                    _add_to_row(by_monomial.setdefault(e, {}), col, k * a, k * b)
            rows += [row for row in by_monomial.values() if row]
        else:
            row = {}
            for (a, b), (col, sign) in eq:
                _add_to_row(row, col, sign * a, sign * b)
            if row:
                rows.append(row)
    return linalg.integer_nullspace(rows, ncols, d)


def _add_to_row(row: dict, col: int, a: int, b: int) -> None:
    """row[col] += (a, b), the entry dropped when the sum is zero."""
    w = row.pop(col, None)
    if w is not None:
        a, b = a + w[0], b + w[1]
    if a or b:
        row[col] = (a, b)


def jacobi_defect(c: Sequence[Sequence[Sequence]]) -> Dict[tuple, Scalar]:
    """Nonzero entries of the Jacobi tensor (`jacobi_terms`), keyed by (i, j, k, m).

    The algebra is a Lie algebra iff the map is empty.
    """
    cz = support_rows(c)
    return dict(defect(jacobi_terms(cz, cz)))


class SupportTable(NamedTuple):
    """The nonzero entries of a structure tensor in the integer form of
    `scalars.to_integers`: rows[i][j] lists (k, (A, B)) by increasing k,
    with c^{ij}_k = (A + B*sqrt(d)) / den."""

    d: int
    den: int
    rows: list


def _support_table(tensor) -> SupportTable:
    """The support table of a Scalar tensor; ShapeMismatchError unless it is n x n x n."""
    cz = support_rows(tensor)
    d, den, ints = to_integers([x for plane in cz for row in plane for _, x in row])
    ints = iter(ints)
    return SupportTable(d, den, [[[(k, next(ints)) for k, _ in row] for row in plane]
                                 for plane in cz])


@dataclass(frozen=True)
class StructureTags:
    abelian: bool
    nilpotent: bool
    nilpotency_class: Optional[int]
    solvable: bool
    semisimple: bool
    center_dim: int


class LieAlgebra(Frozen):
    """A structure tensor `c` of Scalars with its cached `SupportTable`, `_table`.

    Unless `_validated`, the constructor checks on the table that c is skew
    in the upper pair and satisfies Jacobi (`jacobi_terms`, summed over the
    integers); the first violation is reported with its value as a Scalar.
    """

    __slots__ = ("dim", "c", "_table")

    def __init__(self, c, _validated: bool = False):
        tensor = _freeze_tensor(c)
        table = _support_table(tensor)
        if not _validated:
            rows, d = table.rows, table.d
            n = len(rows)
            if any(rows[j][i] != [(k, (-a, -b)) for k, (a, b) in rows[i][j]]
                   for i in range(n) for j in range(i, n)):
                raise NotALieAlgebraError("structure tensor is not skew in the upper pair")
            for key, pairs in jacobi_terms(rows, rows):
                a, b = _int_dot(pairs, d)
                if a or b:
                    value = from_integers(a, b, table.den ** 2, d)
                    raise NotALieAlgebraError(
                        f"Jacobi identity fails, first violation at (i,j,k,m)={key}: {value}")
        object.__setattr__(self, "dim", len(tensor))
        object.__setattr__(self, "c", tensor)
        object.__setattr__(self, "_table", table)

    def __eq__(self, other):
        return isinstance(other, LieAlgebra) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"

    @classmethod
    def from_brackets(cls, dim: int,
                      brackets: Dict[Tuple[int, int], Dict[int, object]]) -> "LieAlgebra":
        """Build from sparse brackets {(i, j): {k: coeff}} with 0-based i < j and k."""
        c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), out in brackets.items():
            if not (0 <= i < j < dim):
                raise ShapeMismatchError(f"bracket pair {(i, j)} out of range for dim {dim}")
            for k, val in out.items():
                if not 0 <= k < dim:
                    raise ShapeMismatchError(f"bracket output index {k} out of range for dim {dim}")
                s = Scalar.of(val)
                c[i][j][k] = s
                c[j][i][k] = -s
        return cls(c)

    def field_tag(self) -> int:
        return self._table.d

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> List[Scalar]:
        """[x, y] on dense coordinate lists (`_bracket` on their integer forms)."""
        parts = _support(x), _support(y)
        d, den, ints = to_integers([v for part in parts for _, v in part])
        ints = iter(ints)
        xs, ys = [[(i, next(ints)) for i, _ in part] for part in parts]
        table = self._table
        d = join_field_tags(d, table.d)
        out = [ZERO] * self.dim
        for k, (a, b) in _bracket(table.rows, xs, ys, d).items():
            out[k] = from_integers(a, b, den * den * table.den, d)
        return out


def _bracket(rows, x, y, d: int) -> Dict[int, Tuple[int, int]]:
    """[x, y] = x_i y_j c^{ij}_k, times the table denominator, as {k: nonzero (A, B)}.

    x and y are the (index, (A, B)) pairs of nonzero integer coordinates
    and rows the support table rows, so no zero entry is visited.
    """
    out: Dict[int, Tuple[int, int]] = {}
    for i, (a1, b1) in x:
        plane = rows[i]
        for j, (a2, b2) in y:
            row = plane[j]
            if row:
                p, q = a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2
                for k, (u, v) in row:
                    s, t = out.get(k, (0, 0))
                    out[k] = (s + p * u + d * q * v, t + p * v + q * u)
    return {k: v for k, v in out.items() if v != (0, 0)}


# -- structural invariants ------------------------------------------------


def _killing_rows(g: LieAlgebra) -> List[dict]:
    """K^{ij} times den^2 as integer rows {j: (A, B)}: c^{il}_m c^{jm}_l summed
    over the nonzero c^{il}_m of the support table only."""
    table = g._table
    nonzero = [{(l, m): a for l, row in enumerate(plane) for m, a in row} for plane in table.rows]
    k: List[dict] = [{} for _ in range(g.dim)]
    for i, own in enumerate(nonzero):
        for j in range(i, g.dim):
            other = nonzero[j]
            value = _int_dot([(a, other[m, l]) for (l, m), a in own.items() if (m, l) in other],
                             table.d)
            if value != (0, 0):
                k[i][j] = k[j][i] = value
    return k


def killing_form(g: LieAlgebra) -> linalg.Matrix:
    """K^{ij} = c^{il}_m c^{jm}_l (`_killing_rows`)."""
    table = g._table
    scale = table.den ** 2
    return [[from_integers(*row[j], scale, table.d) if j in row else ZERO for j in range(g.dim)]
            for row in _killing_rows(g)]


def center(g: LieAlgebra) -> List[linalg.Vector]:
    """Canonical basis of {a : c^{ij}_k a_j = 0 for all i, k} (`center_terms`).

    The vectors are also the linear Casimirs a_i u^i of the Lie-Poisson
    bracket of g.
    """
    table = g._table
    return solve(center_terms(table.rows, [(j, 1) for j in range(g.dim)]), g.dim, table.d)


def _series(g: LieAlgebra, lower: bool) -> List[int]:
    """Dimensions of g_1 = g, g_{k+1} = [g, g_k] (lower) or [g_k, g_k], until stable.

    Each g_k is held as the echelon integer rows of `linalg.echelon`;
    g_{k+1} is the echelon form of the integer brackets (`_bracket`) of the
    basis vectors or rows of g with those of g_k.  Only dimensions are
    read, so no RREF and no Scalar is built.
    """
    table = g._table
    full = current = [[(i, (1, 0))] for i in range(g.dim)]
    dims = [g.dim]
    while dims[-1]:
        pivots = linalg.echelon([_bracket(table.rows, x, y, table.d)
                                 for x in (full if lower else current) for y in current], table.d)
        current = [list(row.items()) for row in pivots.values()]
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
    semisimple = g.dim > 0 and len(linalg.echelon(_killing_rows(g), g._table.d)) == g.dim
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
    n1, n = g1.dim, g1.dim + g2.dim
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for shift, h in ((0, g1), (n1, g2)):
        for i, plane in enumerate(h.c):
            for j, row in enumerate(plane):
                c[shift + i][shift + j][shift:shift + h.dim] = row
    return LieAlgebra(c, _validated=True)


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
    viol = first_violation(casimir_terms(support_rows(g.c), amat))
    if viol is not None:
        raise NotACasimirError(f"input block fails the Casimir equations at {viol}")
    n2 = 2 * n
    c = [[[ZERO] * n2 for _ in range(n2)] for _ in range(n2)]
    for i in range(n):
        for j in range(n):
            c[i][j][n:] = g.c[i][j]
    out = LieAlgebra(c)
    cas = linalg.zeros(n2, n2)
    for i in range(n):
        for j in range(n):
            cas[i][n + j] = amat[i][j]
            cas[n + i][j] = amat[j][i]
            cas[n + i][n + j] = bmat[i][j]
    viol = first_violation(casimir_terms(support_rows(out.c), cas))
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
    c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
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
