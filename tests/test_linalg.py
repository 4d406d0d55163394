import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from darbouxops import invariants, lie, linalg
from darbouxops.errors import FieldMismatchError, SingularMatrixError
from darbouxops.scalars import Scalar


def test_rref_identity():
    red, pivots, rank = linalg.rref(linalg.identity(3))
    assert rank == 3
    assert pivots == (0, 1, 2)
    assert helpers.mat_eq(red, linalg.identity(3))


def test_rref_zero_matrix():
    red, pivots, rank = linalg.rref(linalg.zeros(2, 4))
    assert rank == 0
    assert pivots == ()


def test_rref_rank_one():
    red, pivots, rank = linalg.rref([[1, 2], [2, 4]])
    assert rank == 1
    assert [str(x) for x in red[0]] == ["1", "2"]


def test_nullspace_identity_empty():
    assert linalg.nullspace(linalg.identity(4)) == []


def test_nullspace_zero_row():
    basis = linalg.nullspace([[0, 0, 0]])
    assert len(basis) == 3


def test_nullspace_canonical_form():
    basis = linalg.nullspace([[1, 1, 0]])
    assert [[str(x) for x in v] for v in basis] == [["-1", "1", "0"], ["0", "0", "1"]]


def test_inverse_diagonal():
    inv = linalg.inverse([[2, 0], [0, Fraction(1, 3)]])
    assert [[str(x) for x in row] for row in inv] == [["1/2", "0"], ["0", "3"]]


def test_inverse_antidiagonal():
    inv = linalg.inverse([[0, -16], [-16, 0]])
    assert [[str(x) for x in row] for row in inv] == [["0", "-1/16"], ["-1/16", "0"]]


def test_inverse_singular():
    with pytest.raises(SingularMatrixError):
        linalg.inverse([[1, 1], [1, 1]])


def test_det():
    assert linalg.det([[1, 1], [1, 1]]) == Scalar(0)
    assert linalg.det([[0, -16], [-16, 0]]) == Scalar(-256)


entries = st.fractions(min_value=-30, max_value=30, max_denominator=6)


def matrices(min_n=1, max_n=4):
    return st.integers(min_n, max_n).flatmap(
        lambda r: st.integers(min_n, max_n).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_idempotent_and_rank_nullity(m):
    red, pivots, rank = linalg.rref(m)
    red2, pivots2, rank2 = linalg.rref(red)
    assert helpers.mat_eq(red, red2)
    assert pivots == pivots2 and rank == rank2
    basis = linalg.nullspace(m)
    assert rank + len(basis) == len(m[0])
    for v in basis:
        assert all(not x for x in helpers.mat_vec([[Scalar.of(e) for e in row] for row in m], v))


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def _to_sympy(sp, x: Scalar):
    return sp.Rational(x.a.numerator, x.a.denominator) + sp.Rational(
        x.b.numerator, x.b.denominator) * sp.sqrt(x.d)


@settings(max_examples=150, deadline=None)
@given(matrices(min_n=1, max_n=4))
def test_matches_sympy(sp, m):
    """rref, nullspace, det and inverse against sympy over Q."""
    ref = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in m])
    ref_red, ref_pivots = ref.rref()
    red, pivots, rank = linalg.rref(m)
    assert pivots == ref_pivots and rank == len(ref_pivots)
    assert [[_to_sympy(sp, x) for x in row] for row in red] == ref_red.tolist()
    ref_null = [list(v) for v in ref.nullspace()]
    assert [[_to_sympy(sp, x) for x in v] for v in linalg.nullspace(m)] == ref_null
    rows = [{j: Scalar(x) for j, x in enumerate(row) if x} for row in m]
    sparse = linalg.sparse_nullspace(rows, len(m[0]))
    assert [[_to_sympy(sp, x) for x in v] for v in sparse] == ref_null
    if len(m) != len(m[0]):
        return
    assert _to_sympy(sp, linalg.det(m)) == ref.det()
    if ref.det() == 0:
        with pytest.raises(SingularMatrixError):
            linalg.inverse(m)
    else:
        inv = [[_to_sympy(sp, x) for x in row] for row in linalg.inverse(m)]
        assert inv == ref.inv().tolist()


small = st.integers(-3, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.tuples(small, small), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_inverse_sqrt2_match_sympy(sp, pairs):
    """det and inverse over Q(sqrt(2)) against sympy's algebraic field."""
    from sympy.polys.matrices import DomainMatrix

    field = sp.QQ.algebraic_field(sp.sqrt(2))
    m = [[Scalar(a, b, 2) for a, b in row] for row in pairs]
    n = len(m)
    ref = DomainMatrix(
        [[field.from_sympy(_to_sympy(sp, x)) for x in row] for row in m], (n, n), field)
    ref_det = ref.det()
    assert field.from_sympy(_to_sympy(sp, linalg.det(m))) == ref_det
    if not ref_det:
        with pytest.raises(SingularMatrixError):
            linalg.inverse(m)
        return
    ref_inv = ref.inv()
    inv = linalg.inverse(m)
    for i in range(n):
        for j in range(n):
            assert field.from_sympy(_to_sympy(sp, inv[i][j])) == ref_inv[i, j].element


def test_det_sign_of_permutation_matrices():
    for perm in itertools.permutations(range(4)):
        m = [[1 if perm[i] == j else 0 for j in range(4)] for i in range(4)]
        # parity from the cycle decomposition, independent of inversion counting
        seen, cycles = set(), 0
        for start in range(4):
            if start not in seen:
                cycles += 1
                k = start
                while k not in seen:
                    seen.add(k)
                    k = perm[k]
        sign = 1 if (4 - cycles) % 2 == 0 else -1
        assert linalg.det(m) == Scalar(sign)
        assert linalg.det([[3 * x for x in row] for row in m]) == Scalar(81 * sign)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_inverse_roundtrip(m):
    try:
        inv = linalg.inverse(m)
    except SingularMatrixError:
        assert not linalg.det(m)
        return
    n = len(m)
    mm = [[Scalar.of(x) for x in row] for row in m]
    assert helpers.mat_eq(helpers.mat_mul(mm, inv), linalg.identity(n))
    assert helpers.mat_eq(helpers.mat_mul(inv, mm), linalg.identity(n))


def test_rref_over_extension_field():
    s2 = Scalar(0, 1, 2)
    m = [[s2, Scalar(2)], [Scalar(1), s2]]
    # rows are proportional: sqrt(2)*(1, sqrt(2)) = (sqrt(2), 2)
    red, pivots, rank = linalg.rref(m)
    assert rank == 1
    basis = linalg.nullspace(m)
    assert len(basis) == 1
    assert all(not x for x in helpers.mat_vec(m, basis[0]))


# -- reference: the Scalar reducer the integer one replaced ------------------


def ref_subtract(row, f, other):
    """row -= f * other in place, dropping entries that cancel."""
    nf = -f
    for c, v in other.items():
        w = row.get(c)
        w = nf * v if w is None else w + nf * v
        if w:
            row[c] = w
        elif c in row:
            del row[c]


def ref_insert_row(row, pivots):
    """Reduce a copy of `row` against `pivots`; keep the remainder, divided by
    its leading coefficient, as a pivot row; return that coefficient or 0."""
    row = {c: v for c, v in row.items() if v}
    while row:
        c0 = min(row)
        f = row[c0]
        piv = pivots.get(c0)
        if piv is None:
            inv = f.inverse()
            pivots[c0] = {c: v * inv for c, v in row.items()}
            return f
        ref_subtract(row, f, piv)
    return Scalar(0)


def ref_sparse_rref(rows):
    pivots = {}
    for row in rows:
        ref_insert_row(row, pivots)
    for p in sorted(pivots, reverse=True):
        prow = pivots[p]
        for q, qrow in pivots.items():
            if q < p and p in qrow:
                ref_subtract(qrow, qrow[p], prow)
    return pivots


def ref_det(m):
    rows = [{j: x for j, x in enumerate(row) if x} for row in m]
    n = len(rows)
    pivots, out = {}, Scalar(1)
    for row in rows:
        lead = ref_insert_row(row, pivots)
        if not lead:
            return Scalar(0)
        out = out * lead
    order = list(pivots)
    swaps = sum(order[i] > order[j] for i in range(n) for j in range(i + 1, n))
    return -out if swaps % 2 else out


def ref_inverse(m):
    """The inverse from the reference RREF of [A | I], or None when A is singular."""
    n = len(m)
    rows = [{j: x for j, x in enumerate(row) if x} for row in m]
    for i, row in enumerate(rows):
        row[n + i] = Scalar(1)
    pivots = ref_sparse_rref(rows)
    if any(p >= n for p in pivots):
        return None
    return [[pivots[i].get(n + j, Scalar(0)) for j in range(n)] for i in range(n)]


# Entries a + b*sqrt(d): small fractions, and integers and fractions near
# 10**40, so that coefficient growth in the integer reducer shows.
big = st.integers(-10**6, 10**6).map(lambda k: 10**40 + k) | st.integers(-10**40, 10**40)
rational_parts = (st.fractions(min_value=-30, max_value=30, max_denominator=6)
                  | big | st.builds(Fraction, big, st.integers(1, 10**40)))


@st.composite
def field_matrices(draw, square=False):
    """(d, rows of Scalars over Q(sqrt(d))), with zero, duplicate and scaled
    rows, and unit rows (one nonzero entry): alone, repeated, or followed
    by a multiple of the unit row plus a multiple of an earlier row."""
    d = draw(st.sampled_from([0, 2, 3]))
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 6))
    parts = st.tuples(rational_parts, rational_parts if d else st.just(0))
    sparse = st.one_of(st.just((0, 0)), parts)

    def nonzero():
        a, b = draw(parts)
        return Scalar(a, b, d) or Scalar(1)

    rows = [[Scalar(a, b, d) for a, b in draw(st.lists(sparse, min_size=ncols, max_size=ncols))]
            for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        kind = draw(st.sampled_from(["zero", "copy", "scaled", "unit", "units", "unit+row"]))
        if kind == "zero":
            rows[i] = [Scalar(0)] * ncols
        elif kind in ("copy", "scaled"):
            factor = Scalar(1) if kind == "copy" else nonzero()
            rows[i] = [x * factor for x in rows[j]]
        else:
            unit = [Scalar(0)] * ncols
            unit[draw(st.integers(0, ncols - 1))] = nonzero()
            i, j = min(i, j), max(i, j)
            rows[i] = unit
            if kind == "units":
                rows[j] = [x * nonzero() for x in unit]
            elif kind == "unit+row" and j > i:
                factor, earlier = nonzero(), rows[draw(st.integers(0, j - 1))]
                rows[j] = [u * nonzero() + x * factor for u, x in zip(unit, earlier)]
    return d, rows


@settings(max_examples=200, deadline=None)
@given(field_matrices())
def test_sparse_rref_matches_the_scalar_reference(case):
    """Pivots, RREF rows, dense rref and nullspace bases over Q, Q(sqrt 2), Q(sqrt 3)."""
    _, m = case
    ncols = len(m[0])
    rows = [{j: x for j, x in enumerate(row) if x} for row in m]
    ref = ref_sparse_rref([dict(r) for r in rows])
    got = linalg.sparse_rref(rows)
    assert list(got) == list(ref) and got == ref
    red, pivots, rank = linalg.rref(m)
    assert pivots == tuple(sorted(ref)) and rank == len(ref)
    assert red[:rank] == [[ref[p].get(j, Scalar(0)) for j in range(ncols)] for p in pivots]
    assert all(not any(row) for row in red[rank:])
    ref_null = []
    for free in range(ncols):
        if free not in ref:
            v = [Scalar(0)] * ncols
            v[free] = Scalar(1)
            for p, prow in ref.items():
                if prow.get(free):
                    v[p] = -prow[free]
            ref_null.append(v)
    assert linalg.nullspace(m) == ref_null
    # explicit zero entries in a sparse row are ignored
    padded = [dict(r) for r in rows]
    for r in padded:
        r.update({j: Scalar(0) for j in range(ncols) if j not in r})
    assert linalg.sparse_nullspace(padded, ncols) == ref_null


@settings(max_examples=100, deadline=None)
@given(field_matrices(), st.randoms(use_true_random=False))
def test_integer_nullspace_does_not_depend_on_row_order(case, rnd):
    """`integer_nullspace` reduces its rows shortest first, which is sound
    only because the canonical basis is the same for every row order."""
    _, m = case
    ncols = len(m[0])
    rows = [{j: x for j, x in enumerate(row) if x} for row in m]
    rnd.shuffle(rows)
    d, _, shuffled = linalg._integer_rows(rows)
    assert linalg.integer_nullspace(shuffled, ncols, d) == linalg.nullspace(m)


@settings(max_examples=100, deadline=None)
@given(field_matrices())
def test_reducers_leave_their_input_rows_as_they_are(case):
    """`echelon`, `integer_rref`, `integer_nullspace` and `sparse_rref` only read
    their rows: `_eliminate` writes into the row it reduces, so a row that
    reaches the reducer as given must be a copy."""
    _, m = case
    ncols = len(m[0])
    rows = [{j: x for j, x in enumerate(row) if x} for row in m]
    d, _, ints = linalg._integer_rows(rows)
    unit_lead = [{0: (1, 0), 1: (1, 0)}, {0: (1, 0), 2: (1, 0)}]
    for call, given in ((lambda r: linalg.echelon(r, d), ints),
                        (lambda r: linalg.integer_rref(r, d), ints),
                        (lambda r: linalg.integer_nullspace(r, ncols, d), ints),
                        (linalg.sparse_rref, rows),
                        (lambda r: linalg.echelon(r, 0), unit_lead),
                        (lambda r: linalg.integer_rref(r, 0), unit_lead),
                        (lambda r: linalg.integer_nullspace(r, 3, 0), unit_lead)):
        before = [dict(row) for row in given]  # the entries themselves are immutable
        call(given)
        assert given == before


def test_unit_rows_skip_the_reducer(monkeypatch):
    """so(5)'s Casimir system is 450 nonzero rows, 300 of them x_c = 0; once
    e_c is a pivot row, `echelon` drops column c from the later rows, so
    only 75 rows reach `_insert`, where inserting every row would make 450."""
    calls = []
    insert = linalg._insert
    monkeypatch.setattr(linalg, "_insert", lambda *a: calls.append(1) or insert(*a))
    space = invariants.quadratic_casimir_space(lie.so_n(5))
    assert len(space.basis) == 1
    assert len(calls) <= 100


@settings(max_examples=200, deadline=None)
@given(field_matrices(square=True))
def test_det_and_inverse_match_the_scalar_reference(case):
    _, m = case
    assert linalg.det(m) == ref_det(m)
    ref = ref_inverse(m)
    if ref is None:
        assert not linalg.det(m)
        with pytest.raises(SingularMatrixError):
            linalg.inverse(m)
    else:
        assert linalg.inverse(m) == ref


def test_reducer_refuses_two_radicals():
    """Values of two radicals are refused even where their rows never meet."""
    m = [[Scalar(0, 1, 2), 0], [0, Scalar(0, 1, 3)]]
    for fn in (linalg.rref, linalg.det, linalg.inverse, linalg.nullspace):
        with pytest.raises(FieldMismatchError):
            fn(m)


small_sqrt2 = st.integers(1, 4).flatmap(lambda r: st.integers(1, 5).flatmap(
    lambda c: st.lists(st.lists(st.tuples(small, small), min_size=c, max_size=c),
                       min_size=r, max_size=r)))


@settings(max_examples=30, deadline=None)
@given(small_sqrt2)
def test_rref_nullspace_sqrt2_match_sympy(sp, pairs):
    """rref and nullspace over Q(sqrt(2)) against sympy's DomainMatrix over QQ<sqrt(2)>."""
    from sympy.polys.matrices import DomainMatrix

    field = sp.QQ.algebraic_field(sp.sqrt(2))
    m = [[Scalar(a, b, 2) for a, b in row] for row in pairs]
    shape = (len(m), len(m[0]))

    def ours(x):
        return field.from_sympy(_to_sympy(sp, x))

    ref = DomainMatrix([[ours(x) for x in row] for row in m], shape, field)
    ref_red, ref_pivots = ref.rref()
    red, pivots, rank = linalg.rref(m)
    assert pivots == tuple(ref_pivots) and rank == len(ref_pivots)
    assert [[ours(x) for x in row] for row in red] == ref_red.to_list()
    ref_null = ref.nullspace(divide_last=True).to_list() if rank < shape[1] else []
    assert [[ours(x) for x in v] for v in linalg.nullspace(m)] == ref_null
