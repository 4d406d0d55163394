import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darbouxops import linalg
from darbouxops.errors import SingularMatrixError
from darbouxops.scalars import Scalar


def test_rref_identity():
    red, pivots, rank = linalg.rref(linalg.identity(3))
    assert rank == 3
    assert pivots == (0, 1, 2)
    assert linalg.mat_eq(red, linalg.identity(3))


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
    assert linalg.mat_eq(red, red2)
    assert pivots == pivots2 and rank == rank2
    basis = linalg.nullspace(m)
    assert rank + len(basis) == len(m[0])
    for v in basis:
        assert all(not x for x in linalg.mat_vec([[Scalar.of(e) for e in row] for row in m], v))


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
    assert linalg.mat_eq(linalg.mat_mul(mm, inv), linalg.identity(n))
    assert linalg.mat_eq(linalg.mat_mul(inv, mm), linalg.identity(n))


def test_rref_over_extension_field():
    s2 = Scalar(0, 1, 2)
    m = [[s2, Scalar(2)], [Scalar(1), s2]]
    # rows are proportional: sqrt(2)*(1, sqrt(2)) = (sqrt(2), 2)
    red, pivots, rank = linalg.rref(m)
    assert rank == 1
    basis = linalg.nullspace(m)
    assert len(basis) == 1
    assert all(not x for x in linalg.mat_vec(m, basis[0]))
