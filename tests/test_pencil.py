from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from darbouxops import catalog, catalog_data, lie, linalg, pencil
from darbouxops import invariants as inv
from darbouxops import operators as ops
from darbouxops.errors import InvalidOperandError, ShapeMismatchError
from darbouxops.scalars import Scalar


def test_kdv_pair_compatible_both_routes():
    a, b = helpers.kdv_A(), helpers.kdv_B()
    dar, gen = pencil.pencil_compatible_both(a.to_poly_operator(), b.to_poly_operator())
    assert dar.passed
    assert gen.passed
    assert [c.name for c in dar.conditions] == ["mixed-jacobi", "mixed-cocycle", "mixed-metric"]


def test_self_pair_compatible():
    a = helpers.kdv_A()
    rep = pencil.pencil_compatible_darboux(a, a)
    assert rep.passed


def test_zero_operator_compatible_with_anything():
    a = helpers.kdv_A()
    zero = ops.DarbouxOperator(
        a.ring,
        helpers.tensor(3, {}),
        [[0] * 3 for _ in range(3)],
        [[0] * 3 for _ in range(3)],
    )
    dar, gen = pencil.pencil_compatible_both(a.to_poly_operator(), zero.to_poly_operator())
    assert dar.passed and gen.passed


def test_conclusions_example_pair():
    """su(1,1)-type constants against the Heisenberg-like representative:
    the mixed Jacobi and cocycle conditions vanish identically and the two corner metrics match."""
    ring = ops.field_ring(3, ["alpha", "f12", "f13", "f23", "h12", "h13", "h23"])
    alpha = ring.var("alpha")
    half = Scalar(Fraction(1, 2))
    eta1 = [
        [-alpha, ring.zero, ring.zero],
        [ring.zero, alpha, ring.zero],
        [ring.zero, ring.zero, alpha],
    ]
    f1 = [
        [ring.zero, ring.var("f12"), ring.var("f13")],
        [-ring.var("f12"), ring.zero, ring.var("f23")],
        [-ring.var("f13"), -ring.var("f23"), ring.zero],
    ]
    a = ops.DarbouxOperator(ring, helpers.tensor(3, helpers.KDV_A_BRACKETS), eta1, f1)
    mah = ring.const(-half) * alpha
    eta2 = [
        [mah, ring.zero, mah],
        [ring.zero, ring.zero, ring.zero],
        [mah, ring.zero, mah],
    ]
    f2 = [
        [ring.zero, ring.var("h12"), ring.var("h13")],
        [-ring.var("h12"), ring.zero, ring.var("h23")],
        [-ring.var("h13"), -ring.var("h23"), ring.zero],
    ]
    b = ops.DarbouxOperator(ring, helpers.tensor(3, helpers.KDV_B_BRACKETS), eta2, f2)
    rep = pencil.pencil_compatible_darboux(a, b)
    assert rep.passed
    # identically in alpha and in all six cocycle parameters
    assert all(c.ok for c in rep.conditions)


def _so3_vs_affine_pair():
    """so(3) against [e1, e2] = e1 (zero metric and cocycle on the second).

    Any basis transport of so(3) stays compatible with so(3): in three
    dimensions the polarized Jacobi condition preserves the trace-free
    class, so breaking the mixed Jacobi condition needs a partner outside it.
    """
    ring = ops.field_ring(3)
    zero = [[0] * 3 for _ in range(3)]
    a = ops.DarbouxOperator(ring, lie.so3().c, linalg.identity(3), zero)
    g2 = lie.LieAlgebra.from_brackets(3, {(0, 1): {0: 1}})
    b = ops.DarbouxOperator(ring, g2.c, zero, zero)
    return a, b


def test_so3_against_affine_algebra_breaks_mixed_jacobi():
    a, b = _so3_vs_affine_pair()
    rep = pencil.pencil_compatible_darboux(a, b)
    assert not rep.passed
    assert "mixed-jacobi" in [c.name for c in rep.conditions if not c.ok]


def test_so3_transports_stay_compatible(rng):
    """Companion fact: transported so(3) never breaks the mixed Jacobi condition against so(3)."""
    ring = ops.field_ring(3)
    zero = [[0] * 3 for _ in range(3)]
    a = ops.DarbouxOperator(ring, lie.so3().c, linalg.identity(3), zero)
    for _ in range(10):
        m = helpers.random_invertible(rng, 3)
        g2 = ops.change_basis(lie.so3(), m)
        eta2 = inv.nondegenerate_witness(inv.compatible_metric_space(g2).basis)[1]
        b = ops.DarbouxOperator(ring, g2.c, eta2, zero)
        rep = pencil.pencil_compatible_darboux(a, b)
        assert rep.conditions[0].ok  # mixed Jacobi


def test_so3_against_affine_fails_lambda_route_too():
    a, b = _so3_vs_affine_pair()
    rep = pencil.pencil_compatible_general(a.to_poly_operator(), b.to_poly_operator())
    assert not rep.passed


def test_invalid_operand_rejected():
    a = helpers.kdv_A()
    ring = a.ring
    # break the metric of B: eta no longer compatible
    bad_eta = [[Fraction(1, 3), 0, Fraction(1, 2)], [0, 0, 0], [Fraction(1, 2), 0, Fraction(1, 2)]]
    b = ops.DarbouxOperator(
        ring, helpers.tensor(3, helpers.KDV_B_BRACKETS), bad_eta,
        [[0] * 3 for _ in range(3)], _checked=True,
    )
    with pytest.raises(InvalidOperandError):
        pencil.pencil_compatible_darboux(a, b)


def test_both_routes_check_the_shared_ring_first():
    """Operands over different rings are a ShapeMismatchError on both routes,
    also when A is not Hamiltonian, which over one ring is an
    InvalidOperandError."""
    ring, other = ops.field_ring(2), ops.field_ring(2, ["alpha"])
    u1, u2 = ring.var("u1"), ring.var("u2")
    zero = [[0, 0], [0, 0]]
    curved = ops.PolyOperator(ring, linalg.identity(2), [[0, u1 * u2], [-u1 * u2, 0]])
    # [e1, e2] = e1 is not compatible with the metric eta = 1
    affine = ops.DarbouxOperator(ring, [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]],
                                 linalg.identity(2), zero, _checked=True)
    for b_ring, error in ((other, ShapeMismatchError), (ring, InvalidOperandError)):
        b = ops.DarbouxOperator(b_ring, [[[0, 0], [0, 0]]] * 2, zero, zero)
        with pytest.raises(error):
            pencil.pencil_compatible_general(curved, b.to_poly_operator())
        with pytest.raises(error):
            pencil.pencil_compatible_general(affine.to_poly_operator(), b.to_poly_operator())
        with pytest.raises(error):
            pencil.pencil_compatible_darboux(affine, b)


def test_symmetry_and_scaling(rng):
    a, b = helpers.kdv_A(), helpers.kdv_B()
    ab = pencil.pencil_compatible_darboux(a, b)
    ba = pencil.pencil_compatible_darboux(b, a)
    assert ab.passed == ba.passed
    for s in (2, -3, Fraction(5, 7)):
        scaled = ops.DarbouxOperator(
            b.ring,
            [[[b.c[i][j][k] * Scalar.of(s) for k in range(3)] for j in range(3)] for i in range(3)],
            [[b.eta[i][j] * Scalar.of(s) for j in range(3)] for i in range(3)],
            [[b.f[i][j] * Scalar.of(s) for j in range(3)] for i in range(3)],
        )
        assert pencil.pencil_compatible_darboux(a, scaled).passed


def _random_triple(rng, ring, n, skew_f=True):
    """Random (c, eta, f) with the right symmetries, no validity assumed."""
    c = [[[ring.zero] * n for _ in range(n)] for _ in range(n)]
    f = [[ring.zero] * n for _ in range(n)]
    eta = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        eta[i][i] = ring.const(rng.randint(-2, 2))
        for j in range(i + 1, n):
            v = ring.const(rng.randint(-2, 2))
            eta[i][j] = v
            eta[j][i] = v
            fv = ring.const(rng.randint(-2, 2))
            f[i][j] = fv
            f[j][i] = -fv
            for k in range(n):
                cv = ring.const(rng.randint(-2, 2))
                c[i][j][k] = cv
                c[j][i][k] = -cv
    return c, eta, f


def test_lambda_expansion_matches_mixed_identities(rng):
    """Coefficient-wise: the Schouten residual of A + lam B splits as
    lam^0 -> A's own residual, lam^1 -> the mixed identities, lam^2 -> B's own;
    the Phi-symmetry residual R obeys mixed-metric = R + R(swap i,j) at order 1.

    The identities hold for arbitrary triples, valid or not, so they are
    tested on unconstrained random data.
    """
    for _ in range(40):
        n = rng.choice([2, 3])
        base = ops.field_ring(n)
        ring = base.extend_params(["lam"])
        lam = ring.var("lam")
        lam_idx = ring.index("lam")
        c1, g1, f1 = _random_triple(rng, ring, n)
        c2, g2, f2 = _random_triple(rng, ring, n)
        uvars = [ring.var(f"u{i + 1}") for i in range(n)]

        def omega_of(c, f):
            return [
                [
                    f[i][j] + sum((c[i][j][k] * uvars[k] for k in range(n)), ring.zero)
                    for j in range(n)
                ]
                for i in range(n)
            ]

        om = [
            [omega_of(c1, f1)[i][j] + lam * omega_of(c2, f2)[i][j] for j in range(n)]
            for i in range(n)
        ]
        g = [[g1[i][j] + lam * g2[i][j] for j in range(n)] for i in range(n)]
        fidx = ring.field_indices()
        dom = [[[om[j][k].partial(fidx[s]) for s in range(n)] for k in range(n)] for j in range(n)]

        def jacobi_val(c, i, j, k, m):
            return sum(
                (
                    c[i][j][s] * c[s][k][m] + c[j][k][s] * c[s][i][m] + c[k][i][s] * c[s][j][m]
                    for s in range(n)
                ),
                ring.zero,
            )

        def cocycle_val(c, f, i, j, k):
            return sum(
                (
                    c[i][j][s] * f[s][k] + c[j][k][s] * f[s][i] + c[k][i][s] * f[s][j]
                    for s in range(n)
                ),
                ring.zero,
            )

        for i in range(n):
            for j in range(n):
                for k in range(n):
                    schouten = sum(
                        (
                            om[i][s] * dom[j][k][s]
                            + om[j][s] * dom[k][i][s]
                            + om[k][s] * dom[i][j][s]
                            for s in range(n)
                        ),
                        ring.zero,
                    )
                    lam0 = schouten.coefficient_of_power(lam_idx, 0)
                    lam1 = schouten.coefficient_of_power(lam_idx, 1)
                    lam2 = schouten.coefficient_of_power(lam_idx, 2)
                    own_a = sum(
                        (jacobi_val(c1, i, j, k, m) * uvars[m] for m in range(n)), ring.zero
                    ) + cocycle_val(c1, f1, i, j, k)
                    own_b = sum(
                        (jacobi_val(c2, i, j, k, m) * uvars[m] for m in range(n)), ring.zero
                    ) + cocycle_val(c2, f2, i, j, k)
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
                    assert (lam0 + own_a).is_zero()
                    assert (lam1 + mixed_jac_u + mixed_coc).is_zero()
                    assert (lam2 + own_b).is_zero()

        # Phi-symmetry residual at order lambda: mixed-metric = R^{ijk} + R^{jik}
        phi = [
            [
                [
                    sum((g[i][s] * dom[j][k][s] for s in range(n)), ring.zero)
                    for k in range(n)
                ]
                for j in range(n)
            ]
            for i in range(n)
        ]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    r_ijk = (phi[i][j][k] - phi[k][i][j]).coefficient_of_power(lam_idx, 1)
                    r_jik = (phi[j][i][k] - phi[k][j][i]).coefficient_of_power(lam_idx, 1)
                    cond = sum(
                        (
                            g1[i][s] * c2[j][k][s]
                            + g1[j][s] * c2[i][k][s]
                            + g2[i][s] * c1[j][k][s]
                            + g2[j][s] * c1[i][k][s]
                            for s in range(n)
                        ),
                        ring.zero,
                    )
                    assert (cond - r_ijk - r_jik).is_zero()


def test_unify_operators_renames_colliding_params():
    ring = ops.field_ring(2, ["f12"])
    a = ops.PolyOperator(ring, [[1, 0], [0, 1]],
                         [[ring.zero, ring.var("f12")], [-ring.var("f12"), ring.zero]])
    b = ops.PolyOperator(ring, [[2, 0], [0, 2]],
                         [[ring.zero, ring.var("f12")], [-ring.var("f12"), ring.zero]])
    a2, b2 = pencil.unify_operators(a, b)
    assert a2.ring == b2.ring
    names = a2.ring.names
    assert "f12" in names and "f12_b" in names
    assert str(b2.omega[0][1]) == "f12_b"
    rep = pencil.pencil_compatible_general(a2, b2)
    assert rep.passed


def test_pencil_operator_rejects_a_taken_parameter_name():
    ring = ops.field_ring(2, ["lam"])
    op = ops.PolyOperator(ring, [[1, 0], [0, 1]], [[0, "lam"], ["-lam", 0]])
    for name in ("lam", "u1"):
        with pytest.raises(ShapeMismatchError, match="already names"):
            pencil.pencil_operator(op, op, name)
    assert pencil.pencil_operator(op, op, "lam_").ring.names == ("u1", "u2", "lam", "lam_")


# -- the lambda route against A + lambda B built in full ---------------------


def ref_pencil_compatible_general(a, b):
    """The lambda route before it computed only the lambda^1 coefficient:
    `verify_hamiltonian` of A + lambda B, lambda a name not yet in the ring."""
    ra = ops.verify_hamiltonian(a)
    rb = ops.verify_hamiltonian(b)
    if not ra.passed or not rb.passed:
        raise InvalidOperandError(
            f"operands must be Hamiltonian before pairing: "
            f"A failed {ra.failed_names()}, B failed {rb.failed_names()}"
        )
    lam = "lam"
    existing = set(a.ring.names)
    while lam in existing:
        lam += "_"
    pen = pencil.pencil_operator(a, b, lam)
    return ops.verify_hamiltonian(pen)


def _outcome(route, a, b):
    try:
        rep = route(a, b)
    except InvalidOperandError as exc:
        return str(exc)
    return rep.as_dict()


_QSQRT2 = [Scalar(0), Scalar(0), Scalar(1), Scalar(-1), Scalar(0, 1, 2),
           Scalar(Fraction(1, 2), -1, 2)]


@st.composite
def _catalog_pair(draw, dims=(2, 3, 4)):
    """Two catalog operators of one dimension moved by one matrix over Q(sqrt(2)):
    a self pair is compatible, most pairs of different entries are not."""
    dim = draw(st.sampled_from(dims))
    names = [rec["name"] for rec in catalog_data.ENTRIES if rec["dim"] == dim]
    a = [[draw(st.sampled_from(_QSQRT2)) + (3 if i == j else 0) for j in range(dim)]
         for i in range(dim)]
    assume(linalg.det(a))
    moved = [ops.transform_poly_operator(
        catalog.catalog_get(draw(st.sampled_from(names))).operator().to_poly_operator(), a)
        for _ in range(2)]
    return pencil.unify_operators(*moved)


_PLANAR_RING = ops.field_ring(2, ["alpha"], d=2)
# In two dimensions only Phi constrains (g, omega^{12} = w): g grad(w) = 0.
# Each g with the terms w may hold; a term outside that list may break it.
_PLANAR = [
    ([[0, 0], [0, 0]], ["u1^2", "u1*u2", "u2^3", "alpha*u1", "1"]),
    ([[1, 0], [0, 0]], ["u2^2", "alpha*u2^3", "u2", "sqrt(2)"]),
    ([[0, 0], [0, "alpha"]], ["u1^2", "sqrt(2)*u1", "alpha"]),
    ([[1, 1], [1, 1]], ["u1^2-2*u1*u2+u2^2", "u1-u2"]),
]


@st.composite
def _planar_operator(draw):
    g, allowed = draw(st.sampled_from(_PLANAR))
    terms = draw(st.lists(st.sampled_from(allowed), min_size=1, max_size=3))
    if draw(st.integers(0, 3)) == 0:
        terms.append(draw(st.sampled_from(["u1*u2", "u1^2", "u2^2"])))
    w = _PLANAR_RING.parse("+".join(terms))
    return ops.PolyOperator(_PLANAR_RING, g, [[0, w], [-w, 0]])


_SPACE_RING = ops.field_ring(3, ["alpha"])


def _space_operator(spec):
    """g = 0 and omega^{ij} = eps^{ijk} dC/du^k (a Poisson operator for every C),
    or omega given by its upper triangle."""
    ring = _SPACE_RING
    omega = [[ring.zero] * 3 for _ in range(3)]
    if isinstance(spec, str):
        cas = ring.parse(spec)
        upper = {(i, j): cas.partial(f"u{k + 1}") for i, j, k in ((0, 1, 2), (1, 2, 0), (0, 2, 1))}
        upper[(0, 2)] = -upper[(0, 2)]
    else:
        upper = {key: ring.parse(text) for key, text in spec.items()}
    for (i, j), x in upper.items():
        omega[i][j], omega[j][i] = x, -x
    return ops.PolyOperator(ring, [[0] * 3 for _ in range(3)], omega)


# Casimirs C, then upper triangles: two Lie-Poisson brackets, one quadratic
# Poisson bracket and two omegas that fail the Schouten identity.
_SPACE_SPECS = ["u1^2+u2^2+u3^2", "u1*u2*u3", "u1^3-alpha*u2", "u3^2", "u1*u2",
                {(0, 1): "u1"}, {(0, 1): "u2", (0, 2): "alpha*u3"}, {(0, 1): "u1", (1, 2): "u3^2"},
                {(0, 1): "u3", (0, 2): "u1*u2"}, {(0, 1): "u1^2", (1, 2): "u2"}]


def _pairs(catalog_dims=(2, 3, 4)):
    planar = st.tuples(_planar_operator(), _planar_operator())
    space = st.tuples(*[st.sampled_from(_SPACE_SPECS).map(_space_operator)] * 2)
    return st.one_of(_catalog_pair(catalog_dims), planar, space)


def _with_lam(data, a, b):
    """Optionally move the pair into a ring that already holds lam (and lam_),
    with B scaled by the parameter lam, which keeps it Hamiltonian."""
    extra = data.draw(st.sampled_from([(), ("lam",), ("lam", "lam_")]))
    if not extra:
        return a, b
    ring = a.ring.extend_params(extra)
    a, b = a.embedded(ring), b.embedded(ring)
    if data.draw(st.booleans()):
        lam = ring.var("lam")
        b = ops.PolyOperator(ring, [[lam * x for x in row] for row in b.g],
                             [[lam * x for x in row] for row in b.omega])
    return a, b


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lambda_route_matches_the_full_pencil(data):
    """Reports and InvalidOperandError texts are those of
    `verify_hamiltonian` on A + lambda B: transported catalog pairs over
    Q(sqrt(2)), non-affine pairs with degenerate g, failing operands, rings
    holding lam."""
    a, b = _with_lam(data, *data.draw(_pairs()))
    assert _outcome(pencil.pencil_compatible_general, a, b) == _outcome(
        ref_pencil_compatible_general, a, b)


def test_lambda_route_matches_the_full_pencil_on_listed_pairs():
    """Every pair of the listed operators, so that each verdict occurs: a
    compatible pair, a failing operand, and a lambda^1 failure of Schouten,
    of Phi symmetry and of Phi constancy."""
    a = [[Scalar(3 if i == j else 0, 1 if i < j else 0, 2) for j in range(4)] for i in range(4)]
    by_dim = {}
    for rec in catalog_data.ENTRIES:
        if rec["dim"] <= 4:
            op = catalog.catalog_get(rec["name"]).operator().to_poly_operator()
            n = op.n
            by_dim.setdefault(n, []).append(
                ops.transform_poly_operator(op, [row[:n] for row in a[:n]]))
    planar = [ops.PolyOperator(_PLANAR_RING, g, [[0, w], [-w, 0]]) for g, allowed in _PLANAR
              for w in (_PLANAR_RING.parse("+".join(allowed)),
                        _PLANAR_RING.parse("+".join(allowed + ["u1*u2"])))]
    space = [_space_operator(spec) for spec in _SPACE_SPECS]
    seen = set()
    for group in [*by_dim.values(), planar, space]:
        for x, y in product(group, repeat=2):
            x, y = pencil.unify_operators(x, y)
            got = _outcome(pencil.pencil_compatible_general, x, y)
            assert got == _outcome(ref_pencil_compatible_general, x, y)
            seen.add("invalid" if isinstance(got, str) else tuple(
                c["name"] for c in got["conditions"] if not c["ok"]))
    assert {"invalid", (), ("schouten",), ("phi-cyclic-symmetry",)} <= seen
    assert any("phi-constant" in kind for kind in seen)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_lambda_route_matches_sympy_expansion(data):
    """sympy expands the Schouten sum and Phi of A + lambda B: the lambda^0
    and lambda^2 coefficients vanish for Hamiltonian operands, and the route
    reports the first key of each nonzero lambda^1 coefficient, so it passes
    exactly when that coefficient vanishes."""
    sp = pytest.importorskip("sympy")
    a, b = data.draw(_pairs(catalog_dims=(2, 3)))
    try:
        rep = pencil.pencil_compatible_general(a, b)
    except InvalidOperandError:
        assume(False)
    ring, n = a.ring, a.n
    syms = [sp.Symbol(name) for name in ring.names]
    u = [syms[i] for i in ring.field_indices()]
    lam = sp.Dummy("lambda")
    g = [[helpers.sympy_of(sp, x, syms) + lam * helpers.sympy_of(sp, y, syms) for x, y in zip(ra, rb)]
         for ra, rb in zip(a.g, b.g)]
    w = [[helpers.sympy_of(sp, x, syms) + lam * helpers.sympy_of(sp, y, syms) for x, y in zip(ra, rb)]
         for ra, rb in zip(a.omega, b.omega)]
    dw = [[[sp.diff(w[j][k], u[s]) for s in range(n)] for k in range(n)] for j in range(n)]

    def order_one(expr):
        expr = sp.expand(expr)
        return expr.coeff(lam, 0), expr.coeff(lam, 1), expr.coeff(lam, 2)

    schouten = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                schouten[(i, j, k)] = order_one(sum(
                    w[i][s] * dw[j][k][s] + w[j][s] * dw[k][i][s] + w[k][s] * dw[i][j][s]
                    for s in range(n)))
    phi = [[[sum(g[i][s] * dw[j][k][s] for s in range(n)) for k in range(n)] for j in range(n)]
           for i in range(n)]
    cyclic = {key: order_one(phi[key[0]][key[1]][key[2]] - phi[key[2]][key[0]][key[1]])
              for key in product(range(n), repeat=3)}
    constant = {key: order_one(sp.diff(phi[key[0]][key[1]][key[2]], u[key[3]]))
                for key in product(range(n), repeat=4)}
    expected = {"omega-skew": None}
    for name, coeffs in (("schouten", schouten), ("phi-cyclic-symmetry", cyclic),
                         ("phi-constant", constant)):
        assert all(c0 == 0 and c2 == 0 for c0, _, c2 in coeffs.values())
        expected[name] = next((key for key in sorted(coeffs) if coeffs[key][1] != 0), None)
    assert {c.name: c.first_violation for c in rep.conditions} == expected
    assert rep.passed == all(key is None for key in expected.values())


# -- `pencil_compatible_both`: each operand checked once ---------------------


@st.composite
def _mutated_catalog_operator(draw):
    """A catalog operator of dimension 2..4 moved by an invertible matrix
    over Q(sqrt(d)), d in {2, 3, 5}, and the same operator with one mutation:
    a symmetric bump of g (eta), or a constant (f) or a u^k term (omega)
    added to omega^{ij}, mirrored into omega^{ji} or not."""
    dim = draw(st.sampled_from((2, 3, 4)))
    d = draw(st.sampled_from((2, 3, 5)))
    small = st.integers(-1, 1)
    a = [[Scalar(draw(small) + (2 if i == j else 0), draw(small), d) for j in range(dim)]
         for i in range(dim)]
    assume(linalg.det(a))
    names = [rec["name"] for rec in catalog_data.ENTRIES if rec["dim"] == dim]
    op = ops.transform_poly_operator(
        catalog.catalog_get(draw(st.sampled_from(names))).operator().to_poly_operator(), a)
    ring = op.ring
    i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    kind = draw(st.sampled_from(("eta", "f", "omega")))
    bump = ring.const(draw(st.sampled_from((1, -2, Fraction(1, 2)))))
    g, omega = [row[:] for row in op.g], [row[:] for row in op.omega]
    if kind == "eta":
        g[i][j] = g[i][j] + bump
        g[j][i] = g[i][j]
    else:
        if kind == "omega":
            bump = bump * ring.var(draw(st.sampled_from(ring.names[:ring.nfields])))
        omega[i][j] = omega[i][j] + bump
        if draw(st.booleans()):
            omega[j][i] = omega[j][i] - bump
    return op, ops.PolyOperator(ring, g, omega)


@settings(max_examples=40, deadline=None)
@given(_mutated_catalog_operator())
def test_darboux_view_check_decides_hamiltonianity(pair):
    """On affine omega, the one operand check of `pencil_compatible_both`
    (`verify_darboux` of the Darboux view) has the verdict of `verify_hamiltonian`."""
    op, mutated = pair
    assert ops.verify_hamiltonian(op).passed
    for x in (op, mutated):
        assert ops.verify_darboux(ops.darboux_view(x)).passed == ops.verify_hamiltonian(x).passed


def _counted(monkeypatch, *names):
    """Replace each verifier `pencil` calls by name with one recording its operand."""
    calls = {name: [] for name in names}
    for name in names:
        def counting(op, *rest, _name=name, _fn=getattr(pencil, name)):
            calls[_name].append(op)
            return _fn(op, *rest)
        monkeypatch.setattr(pencil, name, counting)
    return calls


@pytest.mark.parametrize("route, verifier", [
    ("both", "verify_darboux"), ("darboux", "verify_darboux"), ("lambda", "verify_hamiltonian")])
def test_each_route_checks_each_operand_once(monkeypatch, route, verifier):
    """`both` checks each operand once, with `verify_darboux` of its Darboux
    view; a route run alone checks its operands with its own verifier."""
    a, b = (x.to_poly_operator() for x in (helpers.kdv_A(), helpers.kdv_B()))
    calls = _counted(monkeypatch, "verify_darboux", "verify_hamiltonian")
    run = {"both": lambda: pencil.pencil_compatible_both(a, b),
           "darboux": lambda: pencil.pencil_compatible_darboux(*pencil.darboux_operands(a, b)),
           "lambda": lambda: pencil.pencil_compatible_general(a, b)}[route]
    assert all(rep.passed for rep in (run() if route == "both" else [run()]))
    operands = [a, b] if verifier == "verify_hamiltonian" else [ops.darboux_view(a),
                                                                 ops.darboux_view(b)]
    assert calls == {name: operands if name == verifier else [] for name in calls}
