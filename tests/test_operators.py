from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from darbouxops import invariants as inv
from darbouxops import lie, linalg
from darbouxops import operators as ops
from darbouxops.errors import (
    FieldMismatchError,
    MetricIncompatibleError,
    NonHydrodynamicDensityError,
    NotACocycleError,
    ShapeMismatchError,
    SingularMatrixError,
)
from darbouxops.poly import dot
from darbouxops.scalars import Scalar


def test_build_darboux_so3_family():
    g = lie.so3()
    op = ops.build_darboux(
        g,
        [["alpha", 0, 0], [0, "alpha", 0], [0, 0, "alpha"]],
        [[0, "f12", "f13"], ["-f12", 0, "f23"], ["-f13", "-f23", 0]],
        params=["alpha", "f12", "f13", "f23"],
    )
    rep = ops.verify_darboux(op)
    assert rep.passed
    omega = op.omega()
    assert str(omega[0][1]) == "u3+f12"
    assert str(omega[0][2]) == "-u2+f13"


def test_build_darboux_abelian_constant_operator():
    g = lie.abelian(3)
    op = ops.build_darboux(
        g,
        [[1, 2, 0], [2, 5, 1], [0, 1, 3]],
        [[0, 1, -2], [-1, 0, 4], [2, -4, 0]],
    )
    assert ops.verify_darboux(op).passed
    assert all(e.is_u_free() for row in op.omega() for e in row)


def test_build_darboux_rejects_incompatible_metric():
    g = lie.so3()
    with pytest.raises(MetricIncompatibleError):
        ops.build_darboux(g, [[1, 0, 0], [0, 1, 0], [0, 0, 2]], [[0] * 3 for _ in range(3)])


def test_build_darboux_rejects_non_cocycle():
    g = lie.s46()
    eta = inv.nondegenerate_witness(inv.compatible_metric_space(g).basis)[1]
    bad_f = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(NotACocycleError):
        ops.build_darboux(g, eta, bad_f)


def test_verify_darboux_diagnostic_mode():
    # unvalidated triple: so(3) constants with a non-isotropic metric
    ring = ops.field_ring(3)
    op = ops.DarbouxOperator(
        ring,
        helpers.tensor(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}),
        [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
        [[0] * 3 for _ in range(3)],
        _checked=True,
    )
    rep = ops.verify_darboux(op)
    assert not rep.passed
    assert rep.failed_names() == ["metric-compatibility"]


def test_three_waves_operator_verifies():
    op = helpers.three_waves()
    assert ops.verify_darboux(op).passed
    assert ops.verify_hamiltonian(op.to_poly_operator()).passed


def test_kdv_operators_verify():
    assert ops.verify_darboux(helpers.kdv_A()).passed
    assert ops.verify_darboux(helpers.kdv_B()).passed
    assert ops.verify_hamiltonian(helpers.kdv_B().to_poly_operator()).passed


def test_phi_tensor_darboux_is_constant():
    op = helpers.kdv_A().to_poly_operator()
    phi = ops.phi_tensor(op)
    fidx = op.ring.field_indices()
    for plane in phi:
        for row in plane:
            for entry in row:
                assert entry.is_u_free()
                for r in fidx:
                    assert entry.partial(r).is_zero()
    # for eta d_x + (c.u + f): Phi^{ijk} = eta^{is} c^{jk}_s
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expected = op.ring.zero
                for s in range(3):
                    expected = expected + op.g[i][s] * helpers.kdv_A().c[j][k][s]
                assert phi[i][j][k] == expected


def test_phi_vanishes_for_constant_omega():
    ring = ops.field_ring(2)
    op = ops.PolyOperator(ring, [[1, 0], [0, 1]],
                          [[ring.zero, ring.one], [-ring.one, ring.zero]])
    phi = ops.phi_tensor(op)
    assert all(e.is_zero() for plane in phi for row in plane for e in row)


def test_generalized_kdv_phi_vanishes():
    ring = ops.field_ring(3)
    u1 = ring.var("u1")
    coeff = ring.const(-9) * u1  # cubic case
    z, one = ring.zero, ring.one
    op = ops.PolyOperator(ring, [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
                          [[z, one, z], [-one, z, coeff], [z, -coeff, z]])
    phi = ops.phi_tensor(op)
    assert all(e.is_zero() for plane in phi for row in plane for e in row)
    assert ops.verify_hamiltonian(op).passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generalized_kdv_operator_is_hamiltonian(n):
    ring = ops.field_ring(3)
    u1 = ring.var("u1")
    coeff = ring.const(-3 * (n + 1)) * u1 ** (n - 1)
    z, one = ring.zero, ring.one
    op = ops.PolyOperator(ring, [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
                          [[z, one, z], [-one, z, coeff], [z, -coeff, z]])
    assert ops.verify_hamiltonian(op).passed


def test_quadratic_omega_fails_phi_symmetry():
    ring = ops.field_ring(2)
    u1, u2 = ring.var("u1"), ring.var("u2")
    om12 = u1 * u2
    op = ops.PolyOperator(ring, [[1, 0], [0, 1]], [[ring.zero, om12], [-om12, ring.zero]])
    rep = ops.verify_hamiltonian(op)
    names = {c.name: c.ok for c in rep.conditions}
    assert names["omega-skew"]
    assert names["schouten"]  # n = 2: the cyclic sum needs three indices
    assert not names["phi-cyclic-symmetry"]


def test_schouten_decomposes_into_jacobi_and_cocycle_parts(rng):
    """For omega = c.u + f the Schouten residual equals
    -(jacobi_defect(c).u + cocycle_residual(f)) coefficient-wise."""
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        ring = ops.field_ring(n)
        uvars = [ring.var(f"u{i + 1}") for i in range(n)]
        c = [[[ring.const(0)] * n for _ in range(n)] for _ in range(n)]
        f = [[ring.const(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                fv = ring.const(rng.randint(-2, 2))
                f[i][j] = fv
                f[j][i] = -fv
                for k in range(n):
                    v = ring.const(rng.randint(-2, 2))
                    c[i][j][k] = v
                    c[j][i][k] = -v
        omega = [
            [
                f[i][j] + sum((c[i][j][k] * uvars[k] for k in range(n)), ring.zero)
                for j in range(n)
            ]
            for i in range(n)
        ]
        fidx = ring.field_indices()
        dom = [[[omega[j][k].partial(fidx[s]) for s in range(n)] for k in range(n)] for j in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    schouten = ring.zero
                    for s in range(n):
                        schouten = (
                            schouten
                            + omega[i][s] * dom[j][k][s]
                            + omega[j][s] * dom[k][i][s]
                            + omega[k][s] * dom[i][j][s]
                        )
                    jac = ring.zero
                    for m in range(n):
                        tot = ring.zero
                        for s in range(n):
                            tot = (
                                tot
                                + c[i][j][s] * c[s][k][m]
                                + c[j][k][s] * c[s][i][m]
                                + c[k][i][s] * c[s][j][m]
                            )
                        jac = jac + tot * uvars[m]
                    coc = ring.zero
                    for s in range(n):
                        coc = (
                            coc
                            + c[i][j][s] * f[s][k]
                            + c[j][k][s] * f[s][i]
                            + c[k][i][s] * f[s][j]
                        )
                    assert (schouten + jac + coc).is_zero()


def test_phi_symmetry_residual_recovers_metric_condition(rng):
    """compa2^{ijk} equals R^{ijk} + R^{jik} for R = Phi - cyclic(Phi)."""
    for _ in range(20):
        n = rng.choice([3, 4])
        ring = ops.field_ring(n)
        c = [[[ring.const(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for k in range(n):
                c[i][i][k] = ring.zero
            for j in range(i + 1, n):
                for k in range(n):
                    c[j][i][k] = -c[i][j][k]
        eta = [[ring.const(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                eta[j][i] = eta[i][j]
        phi = [
            [
                [
                    sum((eta[i][s] * c[j][k][s] for s in range(n)), ring.zero)
                    for k in range(n)
                ]
                for j in range(n)
            ]
            for i in range(n)
        ]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    compa2 = sum(
                        (eta[i][s] * c[j][k][s] + eta[j][s] * c[i][k][s] for s in range(n)),
                        ring.zero,
                    )
                    r_ijk = phi[i][j][k] - phi[k][i][j]
                    r_jik = phi[j][i][k] - phi[k][j][i]
                    assert (compa2 - (r_ijk + r_jik)).is_zero()


def test_apply_to_density_zero():
    op = helpers.kdv_A().to_poly_operator()
    v, w = ops.apply_to_density(op, op.ring.zero)
    assert all(e.is_zero() for row in v for e in row)
    assert all(e.is_zero() for e in w)


def test_apply_to_density_linearity(rng):
    op = helpers.kdv_B().to_poly_operator()
    ring = op.ring
    u1, u2, u3 = (ring.var(f"u{i}") for i in (1, 2, 3))
    h1 = u1 * u2 - u3**2
    h2 = u2 * u3 + ring.const(3) * u1
    v1, w1 = ops.apply_to_density(op, h1)
    v2, w2 = ops.apply_to_density(op, h2)
    v12, w12 = ops.apply_to_density(op, h1 + h2)
    for i in range(3):
        assert (w12[i] - w1[i] - w2[i]).is_zero()
        for k in range(3):
            assert (v12[i][k] - v1[i][k] - v2[i][k]).is_zero()


def test_apply_pencil_additivity():
    a = helpers.kdv_A().to_poly_operator()
    b = helpers.kdv_B().to_poly_operator()
    ring = a.ring
    h = ring.var("u1") * ring.var("u3") + ring.var("u2") ** 2
    summed = ops.PolyOperator(
        ring,
        [[a.g[i][j] + b.g[i][j] for j in range(3)] for i in range(3)],
        [[a.omega[i][j] + b.omega[i][j] for j in range(3)] for i in range(3)],
        _checked=True,
    )
    va, wa = ops.apply_to_density(a, h)
    vb, wb = ops.apply_to_density(b, h)
    vs, ws = ops.apply_to_density(summed, h)
    for i in range(3):
        assert (ws[i] - wa[i] - wb[i]).is_zero()
        for k in range(3):
            assert (vs[i][k] - va[i][k] - vb[i][k]).is_zero()


def test_parse_density_rejects_parameters_and_unknowns():
    ring = ops.field_ring(2, ["alpha"])
    op = ops.PolyOperator(ring, [[1, 0], [0, 1]],
                          [[ring.zero, ring.one], [-ring.one, ring.zero]])
    with pytest.raises(NonHydrodynamicDensityError):
        ops.parse_density(op, "alpha*u1")
    with pytest.raises(NonHydrodynamicDensityError):
        ops.parse_density(op, "u1_x*u2")
    assert ops.parse_density(op, "u1^2-u2") == ring.parse("u1^2-u2")


def test_transform_identity():
    op = helpers.kdv_A()
    moved = ops.transform_darboux(op, linalg.identity(3))
    assert ops.verify_darboux(moved).passed
    for i in range(3):
        for j in range(3):
            assert moved.eta[i][j] == op.eta[i][j]
            assert moved.f[i][j] == op.f[i][j]
            for k in range(3):
                assert moved.c[i][j][k] == op.c[i][j][k]


def test_transform_kdv_sqrt3_lands_on_catalog_form():
    """The quadratic-extension change of variables maps the first KdV
    operator onto the su(1,1) catalog family at alpha = -1/2 with zero
    cocycle part."""
    ring = ops.field_ring(3, d=3)
    zero = [[0] * 3 for _ in range(3)]
    op = ops.DarbouxOperator(
        ring, helpers.tensor(3, helpers.KDV_A_BRACKETS), [[1, 0, 0], [0, -1, 0], [0, 0, -1]], zero
    )
    h = Fraction(1, 2)
    r3h = Scalar(0, h, 3)
    a = [
        [Scalar(-1), r3h, Scalar(-h)],
        [r3h, Scalar(-1), Scalar(0)],
        [Scalar(1), -r3h, Scalar(-h)],
    ]
    moved = ops.transform_darboux(op, a)
    assert ops.verify_darboux(moved).passed
    expected_eta = [
        [Scalar(0), Scalar(0), Scalar(-h)],
        [Scalar(0), Scalar(Fraction(-1, 4)), Scalar(0)],
        [Scalar(-h), Scalar(0), Scalar(0)],
    ]
    for i in range(3):
        for j in range(3):
            assert moved.eta[i][j] == ring.const(expected_eta[i][j])
            assert moved.f[i][j].is_zero()
    # structure constants are the su(1,1) ones
    expected_c = helpers.tensor(3, {(0, 1): {0: 1}, (0, 2): {1: -2}, (1, 2): {2: 1}})
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert moved.c[i][j][k] == ring.const(expected_c[i][j][k])


def test_transform_scaling_so3():
    g = lie.so3()
    op = ops.build_darboux(g, linalg.identity(3), [[0] * 3 for _ in range(3)])
    moved = ops.transform_darboux(op, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert ops.verify_darboux(moved).passed
    for i in range(3):
        assert moved.eta[i][i] == moved.ring.const(4)
        for j in range(3):
            for k in range(3):
                assert moved.c[i][j][k] == op.c[i][j][k] * Scalar(2)


def test_transform_poly_matches_darboux_route(rng):
    op = helpers.kdv_A()
    for _ in range(10):
        a = helpers.random_invertible(rng, 3)
        via_triple = ops.transform_darboux(op, a).to_poly_operator()
        via_poly = ops.transform_poly_operator(op.to_poly_operator(), a)
        for i in range(3):
            for j in range(3):
                assert (via_triple.g[i][j] - via_poly.g[i][j]).is_zero()
                assert (via_triple.omega[i][j] - via_poly.omega[i][j]).is_zero()


_WRONG_SHAPES = [
    [[1, 0], [0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0], [0, 1], [0, 0, 1]],
    [],
]


@pytest.mark.parametrize("transport", [
    lambda op, a: lie.change_basis(lie.so3(), a),
    ops.transform_darboux,
    lambda op, a: ops.transform_poly_operator(op.to_poly_operator(), a),
], ids=["change_basis", "transform_darboux", "transform_poly_operator"])
def test_basis_change_shape_and_singularity(transport):
    """All three transport laws share one matrix check (`linalg.basis_change_pair`)."""
    op = helpers.kdv_A()
    for a in _WRONG_SHAPES:
        with pytest.raises(ShapeMismatchError, match="must be 3 x 3"):
            transport(op, a)
    with pytest.raises(SingularMatrixError):
        transport(op, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def test_transform_poly_operator_joins_field_tags():
    """A rational operator moved by a sqrt(2) matrix lives over Q(sqrt(2))."""
    op = ops.build_darboux(lie.so3(), linalg.identity(3), [[0] * 3 for _ in range(3)])
    a = [[1, 0, 0], [0, Scalar.sqrt(2), 0], [0, 0, 1]]
    moved = ops.transform_poly_operator(op.to_poly_operator(), a)
    assert moved.ring.d == 2
    assert all(x.ring is moved.ring for m in (moved.g, moved.omega) for row in m for x in row)
    assert str(moved.omega[0][1]) == "sqrt(2)*u3"
    assert ops.verify_hamiltonian(moved).passed
    # equal tags keep the operator's ring
    again = ops.transform_poly_operator(moved, a)
    assert again.ring == moved.ring
    with pytest.raises(FieldMismatchError, match="sqrt\\(2\\) moved by a matrix over sqrt\\(3\\)"):
        ops.transform_poly_operator(moved, [[1, 0, 0], [0, Scalar.sqrt(3), 0], [0, 0, 1]])


def test_nonaffine_entry():
    op = helpers.kdv_A().to_poly_operator()
    assert ops.nonaffine_entry(op.ring, op.omega) is None
    ring = ops.field_ring(2, ["a"])
    omega = ops.lift_matrix(ring, [[0, "a^2*u1+a"], ["-a^2*u1-a", "u1*u2"]])
    assert ops.nonaffine_entry(ring, omega) == (1, 1)
    with pytest.raises(ShapeMismatchError, match="omega\\[1\\]\\[1\\] is not affine"):
        ops.darboux_view(ops.PolyOperator(ring, [[1, 0], [0, 1]], omega, _checked=True))


def test_operator_casimir_functionals():
    ring2 = ops.field_ring(2)
    op = ops.DarbouxOperator(
        ring2,
        helpers.tensor(2, {}),
        [[1, 0], [0, 1]],
        [[0, 1], [-1, 0]],
        _checked=True,
    )
    assert ops.operator_casimir_functionals(op) == []

    ring3 = ops.field_ring(3)
    f = [[0, 1, 0], [-1, 0, 2], [0, -2, 0]]  # rank 2, odd dimension
    op = ops.DarbouxOperator(ring3, helpers.tensor(3, {}), linalg.identity(3), f, _checked=True)
    vecs = ops.operator_casimir_functionals(op)
    assert len(vecs) == 1
    # f.a = 0 with f rank 2: a2 = 0 and a1 = 2 a3
    assert [str(x) for x in vecs[0]] == ["2", "0", "1"]

    so3_op = ops.build_darboux(lie.so3(), linalg.identity(3), [[0] * 3 for _ in range(3)])
    assert ops.operator_casimir_functionals(so3_op) == []


@pytest.mark.parametrize("checked", [False, True])
def test_constructors_check_the_shape_against_the_ring(checked):
    eye3, zero3 = linalg.identity(3), [[0] * 3 for _ in range(3)]
    # a 3 x 3 operator over two field variables: was a bare IndexError later
    with pytest.raises(ShapeMismatchError, match="dimension 3 over a ring with 2 field"):
        ops.PolyOperator(ops.field_ring(2), eye3, zero3, _checked=checked)
    # a 2 x 2 operator over three field variables: d/du3 was never taken, so it verified
    with pytest.raises(ShapeMismatchError, match="dimension 2 over a ring with 3 field"):
        ops.PolyOperator(ops.field_ring(3), linalg.identity(2), [[0, "u3"], ["-u3", 0]],
                         _checked=checked)
    # so(3) with eta = I_3 over two field variables: .omega() was a bare IndexError
    with pytest.raises(ShapeMismatchError, match="dimension 3 over a ring with 2 field"):
        ops.DarbouxOperator(ops.field_ring(2), lie.so3().c, eye3, zero3, _checked=checked)
    ragged = [list(plane) for plane in lie.so3().c]
    ragged[1] = ragged[1][:2]
    with pytest.raises(ShapeMismatchError, match="blocks disagree"):
        ops.DarbouxOperator(ops.field_ring(3), ragged, eye3, zero3, _checked=checked)
    ragged = [[1, 0, 0], [0, 1], [0, 0, 1]]
    for g, omega in ((eye3, ragged), (ragged, zero3)):
        with pytest.raises(ShapeMismatchError, match="blocks disagree"):
            ops.PolyOperator(ops.field_ring(3), g, omega, _checked=checked)


def test_darboux_general_equivalence_on_samples(rng):
    pool = [lie.so3(), lie.s46(), lie.heisenberg3(), lie.abelian(3)]
    for _ in range(25):
        g = pool[rng.randrange(len(pool))]
        eta = helpers.random_combination(rng, inv.compatible_metric_space(g).basis)
        f = helpers.random_combination(rng, inv.two_cocycle_space(g).basis)
        ring = ops.field_ring(g.dim)
        op = ops.DarbouxOperator(ring, g.c, eta, f, _checked=True)
        assert ops.verify_darboux(op).passed
        assert ops.verify_hamiltonian(op.to_poly_operator()).passed


def test_jacobi_residual_string_over_sqrt2_with_parameter():
    """The reported Jacobi residual is the pinned polynomial, radicals and all."""
    ring = ops.field_ring(3, ["alpha"], d=2)
    c = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k), v, w in (((0, 1, 1), "alpha", "-alpha"),
                            ((0, 2, 2), "1/2*sqrt(2)", "-1/2*sqrt(2)"),
                            ((1, 2, 0), "1+sqrt(2)*alpha", "-1-sqrt(2)*alpha")):
        c[i][j][k], c[j][i][k] = v, w
    zero = [["0"] * 3 for _ in range(3)]
    rep = ops.verify_darboux(ops.DarbouxOperator(ring, c, zero, zero, _checked=True))
    jac = next(x for x in rep.conditions if x.name == "jacobi")
    assert jac.first_violation == (0, 1, 2, 0)
    assert jac.residual == "sqrt(2)*alpha^2+2*alpha+1/2*sqrt(2)"
    assert rep.failed_names() == ["jacobi"]


# -- verify_hamiltonian against the difference and derivative loops ------------


def _reference_schouten(ring, omega):
    """The Schouten loop before `schouten_terms`: one dot over all 3n pairs per key."""
    n = len(omega)
    domega = ops.field_jacobian(ring, omega)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                pairs = [pair for s in range(n) for pair in (
                    (omega[i][s], domega[j][k][s]),
                    (omega[j][s], domega[k][i][s]),
                    (omega[k][s], domega[i][j][s]),
                )]
                if dot(ring, pairs):
                    return (i, j, k)
    return None


def _reference_phi(op):
    """The Phi loop before `phi_sum`: g^{is} d omega^{jk}/du^s, zero products included."""
    n = op.n
    domega = ops.field_jacobian(op.ring, op.omega)
    return [[[dot(op.ring, [(op.g[i][s], domega[j][k][s]) for s in range(n)])
              for k in range(n)] for j in range(n)] for i in range(n)]


def _reference_verify_hamiltonian(op):
    """Phi - Phi' and d/du^r loops, each check taking its own Jacobian of omega:
    kept as the reference for verify_hamiltonian."""
    n = op.n
    fidx = op.ring.field_indices()
    report = ops.VerificationReport()
    report.add("omega-skew", linalg.first_asymmetry(op.omega, skew=True))
    report.add("schouten", _reference_schouten(op.ring, op.omega))
    phi = _reference_phi(op)
    report.add("phi-cyclic-symmetry", next(
        ((i, j, k) for i in range(n) for j in range(n) for k in range(n)
         if not (phi[i][j][k] - phi[k][i][j]).is_zero()),
        None,
    ))
    report.add("phi-constant", next(
        ((i, j, k, r) for i in range(n) for j in range(n) for k in range(n) for r in range(n)
         if not phi[i][j][k].partial(fidx[r]).is_zero()),
        None,
    ))
    return report


def _skew_operator(ring, g, upper):
    n = len(g)
    omega = [[ring.zero] * n for _ in range(n)]
    for (i, j), text in upper.items():
        omega[i][j] = ring.parse(text)
        omega[j][i] = -omega[i][j]
    return ops.PolyOperator(ring, g, omega)


@pytest.mark.parametrize("ring, g, upper, violations", [
    (ops.field_ring(3, d=2),
     [[1, 0, 0], [0, "sqrt(2)", 0], [0, 0, 0]],
     {(0, 1): "sqrt(2)*u1^2+u3", (0, 2): "u2*u3", (1, 2): "(1+sqrt(2))*u1"},
     {"schouten": (0, 1, 2), "phi-cyclic-symmetry": (0, 0, 1), "phi-constant": (0, 0, 1, 0)}),
    (ops.field_ring(3, ["alpha"]),
     [[0, 1, 0], [1, 0, 0], [0, 0, "alpha"]],
     {(0, 1): "alpha*u2^2+u1", (1, 2): "u3-alpha", (0, 2): "alpha^2*u2"},
     {"schouten": (0, 1, 2), "phi-cyclic-symmetry": (0, 0, 1), "phi-constant": (0, 0, 1, 1)}),
])
def test_verify_hamiltonian_first_violations_match_reference(ring, g, upper, violations):
    op = _skew_operator(ring, g, upper)
    rep = ops.verify_hamiltonian(op)
    assert rep.as_dict() == _reference_verify_hamiltonian(op).as_dict()
    got = {c.name: c.first_violation for c in rep.conditions if not c.ok}
    assert got == violations


_ENTRY_TEXTS = ["0", "u1", "-u2", "u1*u3", "sqrt(2)*u2^2", "alpha*u1", "(1-sqrt(2))*alpha",
                "u3+alpha^2", "1/2*u1*u2", "2"]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_verify_hamiltonian_matches_reference_on_random_operators(data):
    ring = ops.field_ring(3, ["alpha"], d=2)
    entry = st.lists(st.sampled_from(_ENTRY_TEXTS), min_size=1, max_size=3).map("+".join)
    upper = {(i, j): data.draw(entry) for i in range(3) for j in range(i + 1, 3)}
    diag = data.draw(st.lists(st.sampled_from(["0", "1", "-1", "sqrt(2)", "alpha"]),
                              min_size=3, max_size=3))
    off = data.draw(st.sampled_from(["0", "1", "alpha"]))
    g = [[diag[0], off, "0"], [off, diag[1], "0"], ["0", "0", diag[2]]]
    op = _skew_operator(ring, g, upper)
    if data.draw(st.booleans()):  # break skewness too
        omega = [row[:] for row in op.omega]
        omega[1][0] = omega[1][0] + ring.var("u1")
        op = ops.PolyOperator(ring, g, omega)
    assert ops.verify_hamiltonian(op).as_dict() == _reference_verify_hamiltonian(op).as_dict()
