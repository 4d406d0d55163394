from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from darbouxops import catalog, linalg, lie
from darbouxops import operators as ops
from darbouxops.errors import (
    FieldMismatchError,
    NotACasimirError,
    NotALieAlgebraError,
    ShapeMismatchError,
    SingularMatrixError,
)
from darbouxops.invariants import casimir_residual, quadratic_casimir_space
from darbouxops.scalars import Scalar


def tensor_from_brackets(dim, brackets):
    c = [[[Scalar(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), out in brackets.items():
        for k, v in out.items():
            c[i][j][k] = Scalar.of(v)
            c[j][i][k] = -Scalar.of(v)
    return c


def test_jacobi_defect_abelian_zero():
    assert lie.jacobi_defect(tensor_from_brackets(4, {})) == {}


def test_jacobi_defect_so3_zero():
    assert lie.jacobi_defect(lie.so3().c) == {}


def test_jacobi_defect_detects_violation():
    # [e1,e2]=e2, [e1,e3]=e3, [e2,e3]=e1 fails: the cyclic sum leaves 2*e1
    c = tensor_from_brackets(3, {(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}})
    defect = lie.jacobi_defect(c)
    assert defect == {(0, 1, 2, 0): Scalar(2)}
    with pytest.raises(NotALieAlgebraError):
        lie.LieAlgebra(c)


def _jacobi_defect_dense(c):
    """The dense loop over all (i<j<k, m, s), kept as the reference."""
    n = len(c)
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for m in range(n):
                    total = Scalar(0)
                    for s in range(n):
                        cij = c[i][j][s]
                        if cij:
                            total = total + cij * c[s][k][m]
                        cjk = c[j][k][s]
                        if cjk:
                            total = total + cjk * c[s][i][m]
                        cki = c[k][i][s]
                        if cki:
                            total = total + cki * c[s][j][m]
                    if total:
                        out[(i, j, k, m)] = total
    return out


def _assert_same_defect(c):
    got, want = lie.jacobi_defect(c), _jacobi_defect_dense(c)
    assert got == want
    assert list(got) == list(want)
    if want:
        assert min(got) == min(want)


def test_jacobi_defect_matches_dense_loop_on_catalog():
    for name in catalog.catalog_list():
        _assert_same_defect(catalog.catalog_get(name).algebra.c)


_ENTRY = st.sampled_from([Scalar(0)] * 6 + [Scalar(1), Scalar(-2), Scalar(Fraction(1, 3)),
                                            Scalar(0, 1, 2), Scalar(Fraction(-1, 2), 3, 2)])


@st.composite
def _tensors(draw, skew):
    n = draw(st.integers(2, 5))
    c = [[[Scalar(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(0 if not skew else i + 1, n):
            for k in range(n):
                c[i][j][k] = draw(_ENTRY)
                if skew:
                    c[j][i][k] = -c[i][j][k]
    return c


@settings(max_examples=60, deadline=None)
@given(_tensors(skew=True))
def test_jacobi_defect_matches_dense_loop_on_skew_tensors(c):
    _assert_same_defect(c)


@settings(max_examples=30, deadline=None)
@given(_tensors(skew=False))
def test_jacobi_defect_matches_dense_loop_on_raw_tensors(c):
    _assert_same_defect(c)


def test_hyperbolic_rotation_tensor_is_a_lie_algebra():
    # c^{12}_3 = c^{13}_2 = 1 does satisfy Jacobi: [[e1,e2],e3] + cyclic
    # telescopes to zero, so the constructor must accept it.
    c = tensor_from_brackets(3, {(0, 1): {2: 1}, (0, 2): {1: 1}})
    assert lie.jacobi_defect(c) == {}
    lie.LieAlgebra(c)


def test_constructor_rejects_a_ragged_tensor():
    ragged = [[[0, 0], [0, 0]], [[0, 0]]]
    with pytest.raises(ShapeMismatchError, match="n x n x n"):
        lie.LieAlgebra(ragged)
    with pytest.raises(ShapeMismatchError, match="n x n x n"):
        lie.LieAlgebra([[[0, 0], [0]], [[0, 0], [0, 0]]], _validated=True)
    with pytest.raises(ShapeMismatchError, match="n x n x n"):
        lie.jacobi_defect(ragged)


@pytest.mark.parametrize("brackets, message", [
    # J^{012}_0 = 1/2 * 1 + 1/3 * 1: integers 30 over the denominator 6^2
    ({(0, 1): {1: Fraction(1, 2)}, (0, 2): {2: Fraction(1, 3)}, (1, 2): {0: 1}},
     "(i,j,k,m)=(0, 1, 2, 0): 5/6"),
    ({(0, 1): {1: Scalar(Fraction(1, 2), 1, 2)}, (0, 2): {2: Fraction(1, 3)},
      (1, 2): {0: Scalar(0, Fraction(1, 3), 2)}},
     "(i,j,k,m)=(0, 1, 2, 0): 2/3+5/18*sqrt(2)"),
], ids=["rational", "sqrt2"])
def test_jacobi_failure_names_the_first_violation_and_its_value(brackets, message):
    c = tensor_from_brackets(3, brackets)
    with pytest.raises(NotALieAlgebraError) as err:
        lie.LieAlgebra(c)
    assert str(err.value) == f"Jacobi identity fails, first violation at {message}"
    key = min(lie.jacobi_defect(c))
    assert message == f"(i,j,k,m)={key}: {lie.jacobi_defect(c)[key]}"


def test_constructor_rejects_non_skew():
    c = [[[Scalar(0)] * 2 for _ in range(2)] for _ in range(2)]
    c[0][1][0] = Scalar(1)
    c[1][0][0] = Scalar(1)
    with pytest.raises(NotALieAlgebraError):
        lie.LieAlgebra(c)


def test_killing_so3():
    k = lie.killing_form(lie.so3())
    assert [[str(x) for x in row] for row in k] == [
        ["-2", "0", "0"],
        ["0", "-2", "0"],
        ["0", "0", "-2"],
    ]


def test_killing_sl2_jbasis():
    k = lie.killing_form(lie.sl2_jbasis())
    assert [[str(x) for x in row] for row in k] == [
        ["0", "-16", "0"],
        ["-16", "0", "0"],
        ["0", "0", "8"],
    ]


def test_killing_abelian_zero():
    k = lie.killing_form(lie.abelian(3))
    assert all(not x for row in k for x in row)


def test_killing_son_scalars():
    # computed scalar is -2(n-2), recorded against the claimed -(n+2)
    for n, expected in ((3, -2), (4, -4), (5, -6)):
        g = lie.so_n(n)
        k = lie.killing_form(g)
        dim = n * (n - 1) // 2
        for i in range(dim):
            for j in range(dim):
                assert k[i][j] == Scalar(expected if i == j else 0)


def test_from_brackets_rejects_an_output_index_out_of_range():
    # k = -1 used to build [e1, e2] = e3 silently, k = 5 a bare IndexError
    for k in (-1, 3, 5):
        with pytest.raises(ShapeMismatchError, match=f"output index {k} out of range"):
            lie.LieAlgebra.from_brackets(3, {(0, 1): {k: 1}})
    assert lie.LieAlgebra.from_brackets(3, {(0, 1): {2: 1}}).c[0][1][2] == Scalar(1)


def test_center_examples():
    assert lie.center(lie.abelian(4)) == [
        [Scalar(1 if i == j else 0) for j in range(4)] for i in range(4)
    ]
    s46_center = lie.center(lie.s46())
    assert len(s46_center) == 1
    assert [str(x) for x in s46_center[0]] == ["1", "0", "0", "0"]
    assert lie.center(lie.so3()) == []


def test_series_and_tags():
    assert lie.structure_tags(lie.heisenberg3()).nilpotency_class == 2
    assert lie.structure_tags(lie.n52()).nilpotency_class == 3
    so3_tags = lie.structure_tags(lie.so3())
    assert so3_tags.semisimple and not so3_tags.solvable
    assert lie.derived_series(lie.so3()) == [3]
    assert lie.lower_central_series(lie.heisenberg3()) == [3, 1, 0]
    s46_tags = lie.structure_tags(lie.s46())
    assert s46_tags.solvable and not s46_tags.nilpotent and not s46_tags.semisimple
    assert lie.structure_tags(lie.abelian(2)).abelian


def test_direct_sum_block_structure():
    g = lie.direct_sum(lie.s46(), lie.abelian(1))
    assert g.dim == 5
    assert len(lie.center(g)) == 2
    tags = lie.structure_tags(g)
    assert tags.solvable


def test_direct_sum_with_zero_dimensional_is_identity():
    g = lie.s46()
    assert lie.direct_sum(g, lie.abelian(0)) == g


def test_direct_sum_center_additivity():
    pairs = [
        (lie.so3(), lie.abelian(2)),
        (lie.heisenberg3(), lie.s46()),
        (lie.n52(), lie.abelian(1)),
    ]
    for g1, g2 in pairs:
        total = lie.direct_sum(g1, g2)
        assert len(lie.center(total)) == len(lie.center(g1)) + len(lie.center(g2))


def test_direct_sum_field_mismatch():
    s2 = Scalar(0, 1, 2)
    s3 = Scalar(0, 1, 3)
    g1 = lie.LieAlgebra.from_brackets(3, {(0, 1): {2: s2}})
    g2 = lie.LieAlgebra.from_brackets(3, {(0, 1): {2: s3}})
    with pytest.raises(FieldMismatchError):
        lie.direct_sum(g1, g2)


def test_change_basis_identity():
    g = lie.so3()
    assert ops.change_basis(g, linalg.identity(3)) == g


def test_change_basis_singular_rejected():
    with pytest.raises(SingularMatrixError):
        ops.change_basis(lie.so3(), [[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def test_change_basis_sqrt3_maps_kdv_algebra_to_su11():
    """The quadratic-extension transformation sends the {w} brackets to the
    catalogued su(1,1) structure constants."""
    g = lie.kdv_w_algebra()
    h = Fraction(1, 2)
    r3h = Scalar(0, h, 3)
    a = [
        [Scalar(-1), r3h, Scalar(-h)],
        [r3h, Scalar(-1), Scalar(0)],
        [Scalar(1), -r3h, Scalar(-h)],
    ]
    mapped = ops.change_basis(g, a)
    expected = lie.LieAlgebra.from_brackets(
        3, {(0, 1): {0: 1}, (0, 2): {1: -2}, (1, 2): {2: 1}}
    )
    assert mapped == expected


def test_change_basis_odd_permutation_flips_so3():
    # swapping two labels of the rotation algebra flips every sign
    g = lie.so3()
    swapped = ops.change_basis(g, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert swapped.c[i][j][k] == -g.c[i][j][k]


def test_change_basis_killing_transformation_law():
    import random

    rnd = random.Random(7)
    g = lie.s46()
    for _ in range(20):
        a = _random_invertible(rnd, g.dim)
        moved = ops.change_basis(g, a)
        k_moved = lie.killing_form(moved)
        expected = helpers.mat_mul(helpers.mat_mul(a_scalar(a), lie.killing_form(g)), helpers.transpose(a_scalar(a)))
        assert helpers.mat_eq(k_moved, expected)
        assert len(lie.center(moved)) == len(lie.center(g))


def a_scalar(a):
    return [[Scalar.of(x) for x in row] for row in a]


def _random_invertible(rnd, n):
    while True:
        a = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if linalg.det(a):
            return a


def test_two_step_builder_su11():
    g = lie.su11_contact()
    a = [[1, 0, 0], [0, 0, -1], [0, -1, 0]]  # quadratic Casimir of g
    b = [[0] * 3 for _ in range(3)]
    out, cas = lie.build_two_step_nilpotent(g, a, b)
    assert out.dim == 6
    tags = lie.structure_tags(out)
    assert tags.nilpotent and tags.nilpotency_class == 2
    # the constructed Casimir is the e-f pairing with block a
    assert cas[0][3] == Scalar(1)
    assert cas[1][5] == Scalar(-1)
    assert cas[2][4] == Scalar(-1)
    assert casimir_residual(out.c, cas) is None


def test_two_step_builder_abelian():
    g = lie.abelian(2)
    out, cas = lie.build_two_step_nilpotent(g, linalg.identity(2), [[0, 0], [0, 0]])
    assert lie.structure_tags(out).abelian
    assert cas[0][2] == Scalar(1) and cas[1][3] == Scalar(1)


def test_two_step_builder_so3():
    g = lie.so3()
    quarter = Fraction(1, 4)
    a = [[quarter, 0, 0], [0, quarter, 0], [0, 0, quarter]]
    b = [[1, 2, 0], [2, 0, 1], [0, 1, 5]]
    out, cas = lie.build_two_step_nilpotent(g, a, b)
    assert lie.jacobi_defect(out.c) == {}
    assert casimir_residual(out.c, cas) is None
    assert lie.structure_tags(out).nilpotency_class == 2


def test_two_step_builder_rejects_non_casimir():
    g = lie.so3()
    bad = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]  # not ad-invariant for so3
    with pytest.raises(NotACasimirError):
        lie.build_two_step_nilpotent(g, bad, [[0] * 3 for _ in range(3)])


def test_n61_shares_invariants_with_built_two_step():
    """The catalogued 2-step algebra on six generators is isomorphic to the
    doubled su(1,1); all computed invariants must agree."""
    from darbouxops.invariants import two_cocycle_space

    n61 = lie.n61()
    g = lie.su11_contact()
    a = [[1, 0, 0], [0, 0, -1], [0, -1, 0]]
    ntilde, _ = lie.build_two_step_nilpotent(g, a, [[0] * 3 for _ in range(3)])
    t1, t2 = lie.structure_tags(n61), lie.structure_tags(ntilde)
    assert t1.nilpotency_class == t2.nilpotency_class == 2
    assert t1.center_dim == t2.center_dim == 3
    assert quadratic_casimir_space(n61).dim == quadratic_casimir_space(ntilde).dim
    assert two_cocycle_space(n61).dim == two_cocycle_space(ntilde).dim
