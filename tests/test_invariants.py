from fractions import Fraction

from darbouxops import invariants as inv
from darbouxops import lie, linalg
from darbouxops.scalars import Scalar


def dims(g):
    return (
        inv.quadratic_casimir_space(g).dim,
        inv.compatible_metric_space(g).dim,
        inv.two_cocycle_space(g).dim,
    )


def test_abelian_dims():
    for n in (2, 3, 4):
        assert dims(lie.abelian(n)) == (
            n * (n + 1) // 2,
            n * (n + 1) // 2,
            n * (n - 1) // 2,
        )


def test_simple_dims():
    assert dims(lie.sl2_jbasis()) == (1, 1, 3)
    assert dims(lie.so3()) == (1, 1, 3)


def test_s46_dims_and_named_basis():
    g = lie.s46()
    assert dims(g) == (2, 2, 3)
    cas = inv.quadratic_casimir_space(g)
    # (e1)^2 and e1e4 + e2e3 must both solve the Casimir equations
    sq = linalg.zeros(4, 4)
    sq[0][0] = Scalar(1)
    half = Scalar(Fraction(1, 2))
    pairing = linalg.zeros(4, 4)
    pairing[0][3] = pairing[3][0] = half
    pairing[1][2] = pairing[2][1] = half
    assert inv.casimir_residual(g.c, sq) is None
    assert inv.casimir_residual(g.c, pairing) is None
    # and the catalogued cocycle directions span theta2^theta3, 2^4, 3^4
    coc = inv.two_cocycle_space(g)
    assert coc.dim == 3
    for i, j in ((1, 2), (1, 3), (2, 3)):
        e = linalg.zeros(4, 4)
        e[i][j] = Scalar(1)
        e[j][i] = Scalar(-1)
        assert inv.cocycle_residual(g.c, e) is None


def test_heisenberg_spaces():
    g = lie.heisenberg3()
    cas = inv.quadratic_casimir_space(g)
    assert cas.dim == 1
    sq = linalg.zeros(3, 3)
    sq[0][0] = Scalar(1)
    assert inv.casimir_residual(g.c, sq) is None
    assert inv.nondegenerate_witness(cas.basis) is None
    # the metric space is larger here (the inversion bijection needs a
    # nondegenerate element, and there is none on either side)
    met = inv.compatible_metric_space(g)
    assert met.dim == 3
    assert inv.nondegenerate_witness(met.basis) is None


def test_two_dim_nonabelian_metric_degenerate():
    g = lie.LieAlgebra.from_brackets(2, {(0, 1): {0: 1}})
    met = inv.compatible_metric_space(g)
    assert met.dim == 1
    assert inv.nondegenerate_witness(met.basis) is None


def test_su11_metric_family_shape():
    g = lie.LieAlgebra.from_brackets(3, {(0, 1): {0: 1}, (0, 2): {1: -2}, (1, 2): {2: 1}})
    met = inv.compatible_metric_space(g)
    assert met.dim == 1
    expected = [
        [Scalar(0), Scalar(0), Scalar(1)],
        [Scalar(0), Scalar(Fraction(1, 2)), Scalar(0)],
        [Scalar(1), Scalar(0), Scalar(0)],
    ]
    assert inv.metric_residual(g.c, expected) is None
    # one-dimensional, so the canonical basis is proportional to it
    b = met.basis[0]
    ratio = None
    for i in range(3):
        for j in range(3):
            if expected[i][j]:
                r = b[i][j] / expected[i][j]
                assert ratio is None or r == ratio
                ratio = r
            else:
                assert not b[i][j]


def test_witnesses():
    w = inv.nondegenerate_witness(inv.quadratic_casimir_space(lie.so3()).basis)
    assert w is not None and w[0] == (1,)
    so4 = lie.direct_sum(lie.so3(), lie.so3())
    cas4 = inv.quadratic_casimir_space(so4)
    assert cas4.dim == 2
    w4 = inv.nondegenerate_witness(cas4.basis)
    assert w4 is not None and w4[0] == (1, 1)


def test_witness_none_only_when_det_vanishes_identically():
    # single degenerate direction
    m = linalg.zeros(2, 2)
    m[0][0] = Scalar(1)
    assert inv.nondegenerate_witness([m]) is None
    # two directions that only together become nondegenerate
    m2 = linalg.zeros(2, 2)
    m2[1][1] = Scalar(1)
    w = inv.nondegenerate_witness([m, m2])
    assert w is not None
    assert linalg.det(w[1])


def test_duality_reports():
    for g, d in ((lie.sl2_jbasis(), 1), (lie.abelian(3), 6), (lie.s46(), 2)):
        rep = inv.casimir_metric_duality(g)
        assert rep.passed
        assert rep.casimir_dim == rep.metric_dim == d
    # sl(2): the Casimir witness must be proportional to the inverse Killing
    rep = inv.casimir_metric_duality(lie.sl2_jbasis())
    kinv = linalg.inverse(lie.killing_form(lie.sl2_jbasis()))
    w = rep.casimir_witness
    ratio = None
    for i in range(3):
        for j in range(3):
            if kinv[i][j]:
                r = w[i][j] / kinv[i][j]
                assert ratio is None or r == ratio
                ratio = r
            else:
                assert not w[i][j]


def test_cocycle_space_structure():
    z = inv.two_cocycle_space(lie.sl2_jbasis())
    assert z.dim == 3 and z.h2_dim == 0 and len(z.coboundary_basis) == 3
    z = inv.two_cocycle_space(lie.abelian(4))
    assert z.dim == 6 and z.h2_dim == 6 and not z.coboundary_basis
    z = inv.two_cocycle_space(lie.s46())
    assert z.dim == 3
    for b in z.coboundary_basis:
        assert inv.cocycle_residual(lie.s46().c, b) is None


def test_mixed_cocycle_blocks():
    assert inv.mixed_cocycle_check(lie.sl2_jbasis(), lie.abelian(2)).mixed_dim == 0
    for k in (1, 2, 3):
        rep = inv.mixed_cocycle_check(lie.s46(), lie.abelian(k))
        assert rep.mixed_dim == k
        assert rep.formula_holds
        # the free mixed directions pair the fourth generator with the
        # abelian ones
        for m in rep.mixed_basis:
            for i in (0, 1, 2):
                assert all(not m[i][4 + j] for j in range(k))
    rep = inv.mixed_cocycle_check(lie.so3(), lie.so3())
    assert rep.mixed_dim == 0 and rep.formula_holds


def test_linear_casimirs():
    # the linear Casimirs a_i u^i of g are its center
    assert len(lie.center(lie.abelian(4))) == 4
    assert lie.center(lie.sl2_jbasis()) == []
    vecs = lie.center(lie.n52())
    assert len(vecs) == 2
    span_coords = {tuple(str(x) for x in v) for v in vecs}
    assert span_coords == {("1", "0", "0", "0", "0"), ("0", "1", "0", "0", "0")}


def test_every_basis_element_resubstitutes():
    for g in (lie.s46(), lie.n52(), lie.so3(), lie.direct_sum(lie.so3(), lie.abelian(2))):
        for a in inv.quadratic_casimir_space(g).basis:
            assert inv.casimir_residual(g.c, a) is None
        for eta in inv.compatible_metric_space(g).basis:
            assert inv.metric_residual(g.c, eta) is None
        for f in inv.two_cocycle_space(g).basis:
            assert inv.cocycle_residual(g.c, f) is None


def test_space_dims_invariant_under_change_basis(rng):
    pool = [lie.s46(), lie.so3(), lie.n52(), lie.heisenberg3()]
    for _ in range(25):
        g = pool[rng.randrange(len(pool))]
        while True:
            a = [[rng.randint(-3, 3) for _ in range(g.dim)] for _ in range(g.dim)]
            if linalg.det(a):
                break
        moved = lie.change_basis(g, a)
        assert dims(moved) == dims(g)
