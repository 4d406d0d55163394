"""The structural laws against the copies they replaced.

`linalg.first_asymmetry` is the one symmetry/skewness law,
`lie.transport_tensor` the one basis-change law of a structure tensor,
`invariants.general_element` the one general element sum_k t_k B_k and
`lie._series` the one series loop; `operators._two_tensor` contracts one
index at a time as `transport_tensor` does.  The references below are the
earlier implementations: eight symmetry and skewness predicates, the staged
loops of `change_basis`, the direct sums of `transform_darboux` and of the
(2,0) law, the entry builder of `space_latex` and both series loops.  They are compared with
hypothesis over Q and Q(sqrt(2)), on Scalar entries and on polynomial
entries with a parameter, on matrices and on 3-tensors.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from darbouxops import catalog, latexout, lie, linalg
from darbouxops import invariants as inv
from darbouxops import operators as ops
from darbouxops.poly import PolyRing, dot
from darbouxops.scalars import Scalar

# -- references: symmetry and skewness ---------------------------------------


def ref_is_symmetric(m):
    """linalg.is_symmetric."""
    n = len(m)
    return all(len(r) == n for r in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n)
    )


def ref_is_skew(m):
    """linalg.is_skew."""
    n = len(m)
    return (
        all(len(r) == n for r in m)
        and all(not m[i][i] for i in range(n))
        and all(m[i][j] == -m[j][i] for i in range(n) for j in range(i + 1, n))
    )


def ref_is_skew_tensor(c):
    """lie.is_skew_tensor."""
    n = len(c)
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    return False
    return True


def ref_c_skew(c):
    """The c-skew loop of verify_darboux."""
    n = len(c)
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                if not (c[i][j][k] + c[j][i][k]).is_zero():
                    return (i, j, k)
    return None


def ref_poly_is_symmetric(m):
    """operators._poly_is_symmetric."""
    n = len(m)
    return all((m[i][j] - m[j][i]).is_zero() for i in range(n) for j in range(i + 1, n))


def ref_poly_is_skew(m):
    """operators._poly_is_skew."""
    n = len(m)
    if any(not m[i][i].is_zero() for i in range(n)):
        return False
    return all((m[i][j] + m[j][i]).is_zero() for i in range(n) for j in range(i + 1, n))


def ref_first_symmetry_violation(m):
    """operators._first_symmetry_violation."""
    n = len(m)
    for i in range(n):
        for j in range(i + 1, n):
            if not (m[i][j] - m[j][i]).is_zero():
                return (i, j)
    return None


def ref_first_skew_violation(m):
    """operators._first_skew_violation."""
    n = len(m)
    for i in range(n):
        if not m[i][i].is_zero():
            return (i, i)
        for j in range(i + 1, n):
            if not (m[i][j] + m[j][i]).is_zero():
                return (i, j)
    return None


# -- references: basis change, general element, series -----------------------


def ref_change_basis(c, amat, b):
    """The three staged loops of lie.change_basis, c~^{ij}_k = a^i_l a^j_m c^{lm}_s b^s_k."""
    n = len(c)
    t1 = [[[Scalar(0)] * n for _ in range(n)] for _ in range(n)]  # c^{lm}_s b^s_k
    for l in range(n):
        for m in range(n):
            row = c[l][m]
            for k in range(n):
                tot = Scalar(0)
                for s in range(n):
                    if row[s] and b[s][k]:
                        tot = tot + row[s] * b[s][k]
                t1[l][m][k] = tot
    t2 = [[[Scalar(0)] * n for _ in range(n)] for _ in range(n)]  # a^j_m t1^{lm}_k
    for l in range(n):
        for j in range(n):
            for k in range(n):
                tot = Scalar(0)
                for m in range(n):
                    if amat[j][m] and t1[l][m][k]:
                        tot = tot + amat[j][m] * t1[l][m][k]
                t2[l][j][k] = tot
    c_new = [[[Scalar(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                tot = Scalar(0)
                for l in range(n):
                    if amat[i][l] and t2[l][j][k]:
                        tot = tot + amat[i][l] * t2[l][j][k]
                c_new[i][j][k] = tot
    return c_new


def ref_transport_direct(ring, amat, b, c):
    """The direct c-sum of operators.transform_darboux."""
    n = len(c)
    return [[[dot(ring, [
        (amat[i][l] * amat[j][m] * b[s][k], c[l][m][s])
        for l in range(n) if amat[i][l]
        for m in range(n) if amat[j][m]
        for s in range(n) if b[s][k] and c[l][m][s]
    ]) for k in range(n)] for j in range(n)] for i in range(n)]


def ref_two_tensor(ring, amat, m):
    """The n^4 sum of operators._two_tensor, a^i_k m^{kl} a^j_l, one Scalar product per pair."""
    n = len(amat)
    return [[dot(ring, [
        (amat[i][k] * amat[j][l], m[k][l])
        for k in range(n) if amat[i][k]
        for l in range(n) if amat[j][l] and m[k][l]
    ]) for j in range(n)] for i in range(n)]


def ref_general_element(basis, symbol):
    """The entry builder of invariants._space_det_poly and latexout.space_latex."""
    n = len(basis[0])
    k = len(basis)
    d = 0
    for mat in basis:
        for row in mat:
            for x in row:
                if isinstance(x, Scalar) and x.d:
                    d = x.d
    ring = PolyRing([], [f"{symbol}{m + 1}" for m in range(k)], d=d)
    general = [[ring.zero for _ in range(n)] for _ in range(n)]
    for m, mat in enumerate(basis):
        t = ring.var(f"{symbol}{m + 1}")
        for i in range(n):
            for j in range(n):
                if mat[i][j]:
                    general[i][j] = general[i][j] + ring.const(mat[i][j]) * t
    return ring, general


def ref_space_latex(basis, symbol="t"):
    if not basis:
        return "\\varnothing"
    return latexout.matrix_latex(ref_general_element(basis, symbol)[1])


def ref_lower_central_series(g):
    full = [row[:] for row in linalg.identity(g.dim)]
    dims = [g.dim]
    current = full
    while True:
        nxt = lie._bracket_span(g, full, current)
        d = len(nxt)
        if d == dims[-1]:
            break
        dims.append(d)
        current = nxt
        if d == 0:
            break
    return dims


def ref_derived_series(g):
    dims = [g.dim]
    current = [row[:] for row in linalg.identity(g.dim)]
    while True:
        nxt = lie._bracket_span(g, current, current)
        d = len(nxt)
        if d == dims[-1]:
            break
        dims.append(d)
        current = nxt
        if d == 0:
            break
    return dims


# -- random data -------------------------------------------------------------

_Q = [Scalar(0)] * 5 + [Scalar(1), Scalar(-1), Scalar(2), Scalar(Fraction(-1, 3))]
_QSQRT2 = _Q + [Scalar(0, 1, 2), Scalar(Fraction(1, 2), -1, 2)]
_SCALAR_POOLS = st.sampled_from([_Q, _QSQRT2])

RING = ops.field_ring(3, ["alpha"], d=2)
_ALPHA = RING.var("alpha")
_POLY = [RING.zero] * 5 + [RING.const(1), RING.const(-2), _ALPHA, _ALPHA * _ALPHA - RING.one,
                            RING.const(Scalar(0, 1, 2)) * _ALPHA + RING.const(Fraction(1, 2))]


@st.composite
def _matrix(draw, pool, n):
    """Symmetric, skew or unconstrained, with a few entries then overwritten."""
    law = draw(st.sampled_from([1, -1, 0]))
    m = [[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)]
    if law:
        for i in range(n):
            if law < 0:
                m[i][i] = pool[0]
            for j in range(i + 1, n):
                m[j][i] = law * m[i][j]
    for _ in range(draw(st.integers(0, 2))):
        m[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.sampled_from(pool))
    return m


@st.composite
def _tensor(draw, pool, n):
    """Skew in the upper pair, with a few entries then overwritten."""
    c = [[[pool[0]] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                c[i][j][k] = draw(st.sampled_from(pool))
                c[j][i][k] = -c[i][j][k]
    for _ in range(draw(st.integers(0, 2))):
        c[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))][
            draw(st.integers(0, n - 1))] = draw(st.sampled_from(pool))
    return c


@st.composite
def _invertible(draw, pool, n):
    a = [[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        a[i][i] = a[i][i] + 3
    assume(linalg.det(a))
    return a


# -- symmetry and skewness ---------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_first_asymmetry_matches_scalar_predicates(data):
    pool = data.draw(_SCALAR_POOLS)
    n = data.draw(st.integers(1, 4))
    m = data.draw(_matrix(pool, n))
    assert (linalg.first_asymmetry(m) is None) == ref_is_symmetric(m)
    assert (linalg.first_asymmetry(m, skew=True) is None) == ref_is_skew(m)
    c = data.draw(_tensor(pool, n))
    assert (linalg.first_asymmetry(c, skew=True) is None) == ref_is_skew_tensor(c)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_first_asymmetry_matches_first_violation_keys(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(_matrix(_POLY, n))
    sym, skew = linalg.first_asymmetry(m), linalg.first_asymmetry(m, skew=True)
    assert sym == ref_first_symmetry_violation(m)
    assert skew == ref_first_skew_violation(m)
    assert (sym is None) == ref_poly_is_symmetric(m)
    assert (skew is None) == ref_poly_is_skew(m)
    c = data.draw(_tensor(_POLY, n))
    assert linalg.first_asymmetry(c, skew=True) == ref_c_skew(c)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verifiers_report_the_reference_keys(data):
    n = data.draw(st.integers(1, 3))
    c = data.draw(_tensor(_POLY, n))
    eta = data.draw(_matrix(_POLY, n))
    f = data.draw(_matrix(_POLY, n))
    rep = ops.verify_darboux(ops.DarbouxOperator(RING, c, eta, f, _checked=True))
    keys = {cond.name: cond.first_violation for cond in rep.conditions}
    assert keys["c-skew"] == ref_c_skew(c)
    assert keys["eta-symmetric"] == ref_first_symmetry_violation(eta)
    assert keys["f-skew"] == ref_first_skew_violation(f)
    omega = data.draw(_matrix(_POLY, n))
    rep = ops.verify_hamiltonian(ops.PolyOperator(RING, linalg.identity(n), omega))
    assert rep.conditions[0].name == "omega-skew"
    assert rep.conditions[0].first_violation == ref_first_skew_violation(omega)


# -- the basis-change law ----------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_transport_tensor_matches_change_basis_loops(data):
    pool = data.draw(_SCALAR_POOLS)
    n = data.draw(st.integers(1, 4))
    a = data.draw(_invertible(pool, n))
    c = data.draw(_tensor(pool, n))
    b = linalg.inverse(a)
    assert lie.transport_tensor(a, b, c) == ref_change_basis(c, a, b)


_ALGEBRAS = [lie.so3(), lie.heisenberg3(), lie.sl2_jbasis(), lie.su11_contact(), lie.s46(),
             lie.kdv_w_algebra(), lie.LieAlgebra.from_brackets(3, {(0, 1): {2: Scalar(0, 1, 2)}})]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_change_basis_matches_staged_loops(data):
    g = data.draw(st.sampled_from(_ALGEBRAS))
    a = data.draw(_invertible(data.draw(_SCALAR_POOLS), g.dim))
    ref = ref_change_basis(g.c, a, linalg.inverse(a))
    moved = lie.change_basis(g, a)
    assert [[list(row) for row in plane] for plane in moved.c] == ref


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_transport_tensor_matches_direct_sum_on_polynomials(data):
    n = data.draw(st.integers(1, 3))
    a = data.draw(_invertible(data.draw(_SCALAR_POOLS), n))
    c = data.draw(_tensor(_POLY, n))
    b = linalg.inverse(a)
    assert lie.transport_tensor(a, b, c) == ref_transport_direct(RING, a, b, c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_transform_darboux_matches_reference_triples(data):
    n = data.draw(st.integers(1, 3))
    a = data.draw(_invertible(data.draw(_SCALAR_POOLS), n))
    c, eta, f = data.draw(_tensor(_POLY, n)), data.draw(_matrix(_POLY, n)), data.draw(
        _matrix(_POLY, n))
    op = ops.DarbouxOperator(RING, c, eta, f, _checked=True)
    moved = ops.transform_darboux(op, a, validate=False)
    b = linalg.inverse(a)
    assert moved.c == ref_transport_direct(RING, a, b, op.c)
    assert moved.eta == ref_two_tensor(RING, a, op.eta)
    assert moved.f == ref_two_tensor(RING, a, op.f)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_two_tensor_matches_direct_sum(data):
    """The staged (2,0) law against the n^4 sum, on Scalar matrices over Q and
    Q(sqrt(2)) (singular ones included) and polynomial entries with a parameter."""
    n = data.draw(st.integers(1, 4))
    pool = data.draw(_SCALAR_POOLS)
    a = [[data.draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)]
    m = data.draw(_matrix(_POLY, n))
    assert ops._two_tensor(RING, a, m) == ref_two_tensor(RING, a, m)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_transform_poly_operator_matches_direct_sum(data):
    """A non-affine omega: substitute u = a^{-1} u~, then the n^4 sum on g and omega."""
    n = data.draw(st.integers(1, 3))
    a = data.draw(_invertible(_QSQRT2, n))
    ring = ops.field_ring(n, ["alpha"], d=2)
    alpha, u = ring.var("alpha"), [ring.var(f"u{i + 1}") for i in range(n)]
    pool = [ring.zero] * 3 + [ring.const(1), alpha, ring.const(Scalar(0, 1, 2)) * alpha - 1,
                              u[-1], u[0] * u[-1], alpha * u[0] - u[-1] ** 2]
    op = ops.PolyOperator(ring, data.draw(_matrix(pool[:5], n)), data.draw(_matrix(pool, n)),
                          _checked=True)
    moved = ops.transform_poly_operator(op, a)
    b = linalg.inverse(a)
    fields = [ring.var(f"u{i + 1}") for i in range(n)]
    subs = {f"u{l + 1}": dot(ring, [(b[l][m], fields[m]) for m in range(n)]) for l in range(n)}
    assert moved.g == ref_two_tensor(ring, a, op.g)
    assert moved.omega == ref_two_tensor(ring, a, [[x.subs(subs) for x in row]
                                                   for row in op.omega])


def test_transported_catalog_operators_match_direct_sum():
    """Catalog triples, one with a modulus kept symbolic in c."""
    for name in ("A_{3,2}", "A_{3,3}", "A_{4,2}", "A_{6,11}"):
        op = catalog.catalog_get(name).operator()
        n = op.n
        a = [[Scalar(3 if i == j else (i + 2 * j) % 3 - 1) for j in range(n)] for i in range(n)]
        moved = ops.transform_darboux(op, a, validate=False)
        assert moved.c == ref_transport_direct(op.ring, a, linalg.inverse(a), op.c)
        assert moved.eta == ref_two_tensor(op.ring, a, op.eta)
        assert moved.f == ref_two_tensor(op.ring, a, op.f)


# -- the general element and the series --------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_space_latex_matches_reference(data):
    pool = data.draw(_SCALAR_POOLS)
    n = data.draw(st.integers(1, 4))
    basis = data.draw(st.lists(_matrix(pool, n), max_size=3))
    symbol = data.draw(st.sampled_from(["t", "s"]))
    assert latexout.space_latex(basis, symbol) == ref_space_latex(basis, symbol)
    if basis:
        ring, general = inv.general_element(basis, symbol)
        ref_ring, ref = ref_general_element(basis, symbol)
        assert (ring, general) == (ref_ring, ref)


def test_space_latex_matches_reference_on_solution_spaces():
    for g in _ALGEBRAS + [lie.n52(), lie.n61()]:
        for space in (inv.quadratic_casimir_space(g), inv.compatible_metric_space(g),
                      inv.two_cocycle_space(g)):
            assert latexout.space_latex(space.basis) == ref_space_latex(space.basis)


def test_series_match_reference_loops():
    algebras = _ALGEBRAS + [lie.abelian(0), lie.abelian(3), lie.n52(), lie.n61(), lie.so_n(4),
                            lie.sl_n(3)]
    algebras += [catalog.catalog_get(name).algebra for name in catalog.catalog_list()
                 if catalog.catalog_get(name).dim <= 6]
    for g in algebras:
        assert lie.lower_central_series(g) == ref_lower_central_series(g)
        assert lie.derived_series(g) == ref_derived_series(g)
