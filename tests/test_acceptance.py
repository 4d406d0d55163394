"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Everything here is an exact algebraic identity; there are no numerical
tolerances.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion report lines.  The randomized suites take their seed from
the --seed option (fixed default).
"""

import random
import time
from fractions import Fraction

import pytest

import helpers
from darbouxops import catalog, invariants as inv
from darbouxops import lie, linalg, pencil
from darbouxops import operators as ops
from darbouxops.scalars import Scalar


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[ACCEPTANCE] criterion {criterion}: {status}{suffix}")
    return ok


# -- 1: full catalog regression --------------------------------------------


def test_criterion_1_catalog_regression():
    t0 = time.monotonic()
    reports = catalog.verify_all()
    elapsed = time.monotonic() - t0
    passed = sum(1 for r in reports if r.passed)
    ok = passed == len(reports) == 35 and elapsed < 60.0
    assert report(
        1,
        ok,
        f"{passed}/35 entries verified identically in their parameters,"
        f" {sum(1 for r in reports if r.flags)} carry data flags, {elapsed:.1f}s",
    )


# -- 2: Killing forms --------------------------------------------------------


def test_criterion_2_killing_forms():
    k_so3 = lie.killing_form(lie.so3())
    ok = helpers.mat_eq(
        k_so3, [[Scalar(-2 if i == j else 0) for j in range(3)] for i in range(3)]
    )
    k_sl2 = lie.killing_form(lie.sl2_jbasis())
    expected = [[0, -16, 0], [-16, 0, 0], [0, 0, 8]]
    ok = ok and helpers.mat_eq(k_sl2, [[Scalar(x) for x in row] for row in expected])
    scalars = {}
    for n in (3, 4, 5):
        k = lie.killing_form(lie.so_n(n))
        dim = n * (n - 1) // 2
        diag = k[0][0]
        ok = ok and all(
            k[i][j] == (diag if i == j else Scalar(0)) for i in range(dim) for j in range(dim)
        )
        scalars[n] = diag
    # recorded values follow K = -2(n-2) I; the claimed -(n+2) disagrees
    # already at n = 3, which is exactly the discrepancy to flag
    flag = all(scalars[n] != Scalar(-(n + 2)) for n in (3,))
    ok = ok and flag and scalars[3] == Scalar(-2)
    assert report(
        2,
        ok,
        "so(3) and sl(2,R) match exactly; so(n) scalar recorded as "
        + ", ".join(f"n={n}: {scalars[n]}" for n in (3, 4, 5))
        + " (flag: differs from the claimed -(n+2))",
    )


# -- 3: invariant dimensions -------------------------------------------------


def _dims(g):
    return (
        inv.quadratic_casimir_space(g).dim,
        inv.compatible_metric_space(g).dim,
        inv.two_cocycle_space(g).dim,
    )


def test_criterion_3_invariant_dimensions():
    ok = True
    for n in (2, 3, 4, 5):
        ok = ok and _dims(lie.abelian(n)) == (
            n * (n + 1) // 2,
            n * (n + 1) // 2,
            n * (n - 1) // 2,
        )
    ok = ok and _dims(lie.sl2_jbasis()) == (1, 1, 3)
    ok = ok and _dims(lie.so3()) == (1, 1, 3)
    ok = ok and _dims(lie.s46()) == (2, 2, 3)
    # Heisenberg: Casimir space is the line through (e1)^2 and admits no
    # nondegenerate element; the metric side, recomputed with the nullspace
    # oracle, is 3-dimensional (the stated "1" presumes the inversion
    # bijection, which needs a nondegenerate element and there is none).
    heis = lie.heisenberg3()
    cas = inv.quadratic_casimir_space(heis)
    met = inv.compatible_metric_space(heis)
    ok = ok and cas.dim == 1
    ok = ok and inv.nondegenerate_witness(cas.basis) is None
    ok = ok and met.dim == 3
    ok = ok and inv.nondegenerate_witness(met.basis) is None
    ok = ok and inv.two_cocycle_space(heis).dim == 3
    so4 = lie.direct_sum(lie.so3(), lie.so3())
    ok = ok and inv.quadratic_casimir_space(so4).dim == 2
    assert report(
        3,
        ok,
        "abelian/sl2/so3/s46/so4 dims exact; Heisenberg (casimir, metric,"
        " cocycle) = (1, 3, 3) with no nondegenerate witness on either side"
        " (metric dim recomputed by the oracle; the inversion bijection does"
        " not apply without a witness)",
    )


# -- 4: Casimir-metric bijection on the catalog ------------------------------


def test_criterion_4_casimir_metric_bijection():
    ok = True
    with_witness = 0
    for name in catalog.catalog_list():
        entry = catalog.catalog_get(name)
        rep = inv.casimir_metric_duality(entry.algebra)
        ok = ok and rep.passed
        if rep.casimir_witness is not None:
            with_witness += 1
    assert report(
        4,
        ok and with_witness == 35,
        f"inversion lands in the dual space and dims agree on all 35"
        f" catalog algebras (witnesses found on {with_witness})",
    )


# -- 5: KdV end to end --------------------------------------------------------


def test_criterion_5ab_kdv_operators_and_pencil():
    t0 = time.monotonic()
    a, b = helpers.kdv_A(), helpers.kdv_B()
    ok = ops.verify_darboux(a).passed and ops.verify_darboux(b).passed
    ok = ok and a.ring.d == 2
    dar, gen = pencil.pencil_compatible_both(a.to_poly_operator(), b.to_poly_operator())
    ok = ok and dar.passed and gen.passed
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    assert report(
        "5ab",
        ok,
        f"both operators verify over Q(sqrt(2)) and the pair passes both"
        f" pencil criteria, {elapsed:.2f}s",
    )


def _kdv_apply_residuals():
    a = helpers.kdv_A().to_poly_operator()
    b = helpers.kdv_B().to_poly_operator()
    va, wa = ops.apply_to_density(a, helpers.kdv_density_A())
    vb, wb = ops.apply_to_density(b, helpers.kdv_density_B())
    vt, wt = helpers.kdv_target_system()
    return (va, wa), (vb, wb), (vt, wt)


def _system_eq(sys1, sys2, scale=1):
    (v1, w1), (v2, w2) = sys1, sys2
    s = Scalar.of(scale)
    for i in range(3):
        if not (w1[i] - w2[i] * s).is_zero():
            return False
        for k in range(3):
            if not (v1[i][k] - v2[i][k] * s).is_zero():
                return False
    return True


def test_criterion_5c_bihamiltonian_flow_content():
    """The two densities drive one and the same flow: A(dH_A) = B(-dH_B),
    and that flow is exactly twice the displayed system."""
    sys_a, sys_b, target = _kdv_apply_residuals()
    ok = _system_eq(sys_a, target, scale=2)
    ok = ok and _system_eq(sys_b, target, scale=-2)
    va, wa = sys_a
    vb, wb = sys_b
    same_flow = all(
        (wa[i] + wb[i]).is_zero()
        and all((va[i][k] + vb[i][k]).is_zero() for k in range(3))
        for i in range(3)
    )
    ok = ok and same_flow
    assert report(
        "5c",
        ok,
        "A(grad h_A) = -B(grad h_B) = 2x the displayed system, coefficient"
        " exact; the displayed normalization is off by the factors +2/-2"
        " (see 5c-literal)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the displayed densities reproduce the displayed system only up to"
    " the factors +2 (first operator) and -2 (second operator); the"
    " coefficient-exact relations are asserted in"
    " test_criterion_5c_bihamiltonian_flow_content",
)
def test_criterion_5c_literal_reproduction():
    sys_a, sys_b, target = _kdv_apply_residuals()
    ok = _system_eq(sys_a, target) and _system_eq(sys_b, target)
    report("5c-literal", ok, "apply(A, h_A) == displayed system == apply(B, h_B)")
    assert ok


def test_criterion_5d_sqrt3_transform():
    ring = ops.field_ring(3, d=3)
    zero = [[0] * 3 for _ in range(3)]
    op = ops.DarbouxOperator(
        ring, helpers.tensor(3, helpers.KDV_A_BRACKETS),
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]], zero,
    )
    h = Fraction(1, 2)
    r3h = Scalar(0, h, 3)
    a = [
        [Scalar(-1), r3h, Scalar(-h)],
        [r3h, Scalar(-1), Scalar(0)],
        [Scalar(1), -r3h, Scalar(-h)],
    ]
    moved = ops.transform_darboux(op, a)
    alpha = Scalar(-h)
    expected_eta = [
        [Scalar(0), Scalar(0), alpha],
        [Scalar(0), alpha * Scalar(h), Scalar(0)],
        [alpha, Scalar(0), Scalar(0)],
    ]
    expected_c = helpers.tensor(3, {(0, 1): {0: 1}, (0, 2): {1: -2}, (1, 2): {2: 1}})
    ok = ops.verify_darboux(moved).passed
    for i in range(3):
        for j in range(3):
            ok = ok and moved.eta[i][j] == ring.const(expected_eta[i][j])
            ok = ok and moved.f[i][j].is_zero()
            for k in range(3):
                ok = ok and moved.c[i][j][k] == ring.const(expected_c[i][j][k])
    assert report(
        "5d",
        ok,
        "the Q(sqrt(3)) change maps the first KdV operator onto the"
        " su(1,1) catalog form at alpha = -1/2 with zero cocycle",
    )


# -- 6: generalized KdV chain -------------------------------------------------


def test_criterion_6_generalized_kdv():
    ok = True
    for n in (1, 2, 3):
        ring = ops.field_ring(3)
        u1 = ring.var("u1")
        coeff = ring.const(-3 * (n + 1)) * u1 ** (n - 1)
        z, one = ring.zero, ring.one
        op = ops.PolyOperator(
            ring,
            [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
            [[z, one, z], [-one, z, coeff], [z, -coeff, z]],
        )
        ok = ok and ops.verify_hamiltonian(op).passed
    assert report(6, ok, "the displayed operator is Hamiltonian for n = 1, 2, 3, exactly")


# -- 7: randomized property suites (>= 200 cases each) ------------------------

CASES = 200


def _algebra_pool():
    return [
        lie.abelian(2),
        lie.abelian(3),
        lie.heisenberg3(),
        lie.so3(),
        lie.sl2_jbasis(),
        lie.su11_contact(),
        lie.s46(),
        lie.n52(),
        lie.kdv_w_algebra(),
    ]


def test_criterion_7a_basis_change_invariance(seed):
    rnd = random.Random(seed)
    pool = _algebra_pool()
    ok = True
    for _ in range(CASES):
        g = pool[rnd.randrange(len(pool))]
        a = helpers.random_invertible(rnd, g.dim, -2, 2)
        moved = ops.change_basis(g, a)
        ok = ok and _dims(moved) == _dims(g)
        eta = helpers.random_combination(rnd, inv.compatible_metric_space(g).basis)
        f = helpers.random_combination(rnd, inv.two_cocycle_space(g).basis)
        ring = ops.field_ring(g.dim)
        op = ops.DarbouxOperator(ring, g.c, eta, f, _checked=True)
        verdict = ops.verify_darboux(op).passed
        moved_op = ops.darboux_view(ops.transform_poly_operator(op.to_poly_operator(), a))
        ok = ok and verdict and ops.verify_darboux(moved_op).passed == verdict
        if not ok:
            break
    # verdict invariance must also hold on failing triples
    rnd2 = random.Random(seed + 1)
    for _ in range(40):
        g = pool[rnd2.randrange(len(pool))]
        n = g.dim
        eta = [[Scalar(rnd2.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                eta[j][i] = eta[i][j]
        f = [[Scalar(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = Scalar(rnd2.randint(-2, 2))
                f[i][j] = v
                f[j][i] = -v
        ring = ops.field_ring(n)
        op = ops.DarbouxOperator(ring, g.c, eta, f, _checked=True)
        verdict = ops.verify_darboux(op).passed
        a = helpers.random_invertible(rnd2, n, -2, 2)
        moved_op = ops.darboux_view(ops.transform_poly_operator(op.to_poly_operator(), a))
        ok = ok and ops.verify_darboux(moved_op).passed == verdict
        if not ok:
            break
    assert report(
        "7a", ok, f"{CASES} basis changes preserve dims and verdicts (plus 40 mutated triples)"
    )


def test_criterion_7b_triple_vs_general_equivalence(seed):
    rnd = random.Random(seed + 2)
    pool = _algebra_pool()
    agreements = 0
    ok = True
    for case in range(CASES):
        g = pool[rnd.randrange(len(pool))]
        n = g.dim
        eta = helpers.random_combination(rnd, inv.compatible_metric_space(g).basis)
        f = helpers.random_combination(rnd, inv.two_cocycle_space(g).basis)
        if case % 2:
            # mutate: symmetric / skew noise on eta and f
            i, j = rnd.randrange(n), rnd.randrange(n)
            eta[i][j] = eta[i][j] + Scalar(rnd.randint(1, 2))
            eta[j][i] = eta[i][j] if i != j else eta[i][j]
            if n >= 2:
                i, j = 0, 1
                bump = Scalar(rnd.randint(0, 2))
                f[i][j] = f[i][j] + bump
                f[j][i] = -f[i][j]
        ring = ops.field_ring(n)
        op = ops.DarbouxOperator(ring, g.c, eta, f, _checked=True)
        v_darboux = ops.verify_darboux(op).passed
        v_general = ops.verify_hamiltonian(op.to_poly_operator()).passed
        ok = ok and (v_darboux == v_general)
        agreements += v_darboux == v_general
        if not ok:
            break
    assert report("7b", ok, f"{agreements}/{CASES} verdicts agree between the two verifiers")


def test_criterion_7c_lambda_expansion_orders(seed):
    rnd = random.Random(seed + 3)
    ok = True
    for _ in range(CASES):
        n = rnd.choice([2, 3])
        base = ops.field_ring(n)
        ring = base.extend_params(["lam"])
        lam = ring.var("lam")
        lam_idx = ring.index("lam")
        uvars = [ring.var(f"u{i + 1}") for i in range(n)]

        def rnd_triple():
            c = [[[ring.zero] * n for _ in range(n)] for _ in range(n)]
            f = [[ring.zero] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    fv = ring.const(rnd.randint(-2, 2))
                    f[i][j] = fv
                    f[j][i] = -fv
                    for k in range(n):
                        v = ring.const(rnd.randint(-2, 2))
                        c[i][j][k] = v
                        c[j][i][k] = -v
            return c, f

        c1, f1 = rnd_triple()
        c2, f2 = rnd_triple()
        om = [
            [
                f1[i][j]
                + sum((c1[i][j][k] * uvars[k] for k in range(n)), ring.zero)
                + lam
                * (f2[i][j] + sum((c2[i][j][k] * uvars[k] for k in range(n)), ring.zero))
                for j in range(n)
            ]
            for i in range(n)
        ]
        fidx = ring.field_indices()
        dom = [[[om[j][k].partial(fidx[s]) for s in range(n)] for k in range(n)] for j in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    schouten = sum(
                        (
                            om[i][s] * dom[j][k][s]
                            + om[j][s] * dom[k][i][s]
                            + om[k][s] * dom[i][j][s]
                            for s in range(n)
                        ),
                        ring.zero,
                    )
                    lam1 = schouten.coefficient_of_power(lam_idx, 1)
                    mixed_jac_u = ring.zero
                    for m in range(n):
                        tot = ring.zero
                        for p in range(n):
                            tot = (
                                tot
                                + c2[i][j][p] * c1[p][k][m]
                                + c2[j][k][p] * c1[p][i][m]
                                + c2[k][i][p] * c1[p][j][m]
                                + c1[i][j][p] * c2[p][k][m]
                                + c1[j][k][p] * c2[p][i][m]
                                + c1[k][i][p] * c2[p][j][m]
                            )
                        mixed_jac_u = mixed_jac_u + tot * uvars[m]
                    mixed_coc = sum(
                        (
                            c2[i][j][p] * f1[p][k]
                            + c2[j][k][p] * f1[p][i]
                            + c2[k][i][p] * f1[p][j]
                            + c1[i][j][p] * f2[p][k]
                            + c1[j][k][p] * f2[p][i]
                            + c1[k][i][p] * f2[p][j]
                            for p in range(n)
                        ),
                        ring.zero,
                    )
                    ok = ok and (lam1 + mixed_jac_u + mixed_coc).is_zero()
                    # order 0 and order 2 reproduce the operands' own identities
                    own_a = sum(
                        (
                            sum(
                                (
                                    c1[i][j][s] * c1[s][k][m]
                                    + c1[j][k][s] * c1[s][i][m]
                                    + c1[k][i][s] * c1[s][j][m]
                                    for s in range(n)
                                ),
                                ring.zero,
                            )
                            * uvars[m]
                            for m in range(n)
                        ),
                        ring.zero,
                    ) + sum(
                        (
                            c1[i][j][s] * f1[s][k]
                            + c1[j][k][s] * f1[s][i]
                            + c1[k][i][s] * f1[s][j]
                            for s in range(n)
                        ),
                        ring.zero,
                    )
                    ok = ok and (schouten.coefficient_of_power(lam_idx, 0) + own_a).is_zero()
        if not ok:
            break
    assert report("7c", ok, f"{CASES} pencils: lambda orders 0/1/2 match the mixed identities")


def test_criterion_7d_direct_sum_cocycle_formula(seed):
    rnd = random.Random(seed + 4)
    pool = _algebra_pool()
    ok = True
    for _ in range(CASES):
        g1 = pool[rnd.randrange(len(pool))]
        g2 = pool[rnd.randrange(len(pool))]
        rep = inv.mixed_cocycle_check(g1, g2)
        ok = ok and rep.formula_holds
        if not ok:
            break
    for k in (1, 2, 3):
        rep = inv.mixed_cocycle_check(lie.s46(), lie.abelian(k))
        ok = ok and rep.mixed_dim == k and rep.formula_holds
    assert report(
        "7d", ok, f"{CASES} random pairs satisfy the sum formula; s46 (+) k abelian gives mixed dim k"
    )


# -- 8: two-step nilpotent builder ---------------------------------------------


def test_criterion_8_two_step_builder():
    ok = True
    # doubled su(1,1)-type constants reproduce the catalogued Casimir
    g = lie.su11_contact()
    half = Fraction(1, 2)
    a = [[half, 0, 0], [0, 0, -half], [0, -half, 0]]
    out, cas = lie.build_two_step_nilpotent(g, a, [[0] * 3 for _ in range(3)])
    ok = ok and lie.jacobi_defect(out.c) == {}
    ok = ok and inv.casimir_residual(out.c, cas) is None
    # quadratic form of cas is exactly e1 f1 - e2 f3 - e3 f2
    expected = linalg.zeros(6, 6)
    expected[0][3] = expected[3][0] = Scalar(half)
    expected[1][5] = expected[5][1] = Scalar(-half)
    expected[2][4] = expected[4][2] = Scalar(-half)
    ok = ok and helpers.mat_eq(cas, expected)
    # and the direction lies in the computed Casimir space of the output
    ok = ok and inv.casimir_residual(out.c, expected) is None

    quarter = Fraction(1, 4)
    out2, cas2 = lie.build_two_step_nilpotent(
        lie.so3(),
        [[quarter, 0, 0], [0, quarter, 0], [0, 0, quarter]],
        [[1, 0, 2], [0, 3, 0], [2, 0, 0]],
    )
    ok = ok and lie.jacobi_defect(out2.c) == {}
    ok = ok and inv.casimir_residual(out2.c, cas2) is None
    ok = ok and lie.structure_tags(out2).nilpotency_class == 2

    out3, cas3 = lie.build_two_step_nilpotent(
        lie.abelian(2), linalg.identity(2), [[0, 0], [0, 0]]
    )
    ok = ok and lie.structure_tags(out3).abelian
    ok = ok and inv.casimir_residual(out3.c, cas3) is None
    assert report(
        8,
        ok,
        "doubled su(1,1)/so(3)/abelian algebras pass Jacobi, the block"
        " matrix solves the Casimir equations, and the catalogued Casimir"
        " e1f1 - e2f3 - e3f2 is reproduced exactly",
    )


# -- 9: the exceptional 14-dimensional entry ----------------------------------


def test_criterion_9_g2():
    t0 = time.monotonic()
    rep = catalog.verify_entry("g2")
    entry = catalog.catalog_get("g2")
    ok = rep.passed
    ok = ok and lie.jacobi_defect(entry.algebra.c) == {}
    z2 = inv.two_cocycle_space(entry.algebra)
    ok = ok and z2.dim == 14 and z2.h2_dim == 0
    for p in entry.f_params:
        direction = [
            [entry.fmat[i][j].coefficient_of_power(p, 1).constant_value() for j in range(14)]
            for i in range(14)
        ]
        ok = ok and inv.cocycle_residual(entry.algebra.c, direction) is None
    eta1 = [
        [entry.eta[i][j].subs({"alpha": entry.ring.one}).constant_value() for j in range(14)]
        for i in range(14)
    ]
    ok = ok and inv.casimir_residual(entry.algebra.c, linalg.inverse(eta1)) is None
    flagged = any("f params 10 != cocycle dim 14" in f for f in rep.flags)
    ok = ok and flagged
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    assert report(
        9,
        ok,
        f"Jacobi exact, inverse metric is a Casimir, all 10 displayed"
        f" cocycle directions lie in the 14-dimensional Z^2 (dimension"
        f" mismatch emitted as a flag), {elapsed:.1f}s",
    )
