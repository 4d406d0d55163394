"""The identities against the hand-written loops they replaced.

`lie.jacobi_terms`, `casimir_terms`, `metric_terms`, `cocycle_terms` and
`center_terms` define each identity once; the residual checkers, the space
solvers, the center, the operator Casimirs, the mixed pencil conditions and
the mixed-block cocycle system are derived from them through `lie.defect`
and `lie.solve`.  The references below are the earlier implementations,
one loop per use, summed with plain ring arithmetic.  They are compared on
random tensors over Q and Q(sqrt(2)), and on polynomial entries with a
parameter.  The polarization test is an independent oracle for the mixed
Jacobi condition, and sympy's `linsolve` one for the operator Casimirs of
parametric operators.
"""

from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from darbouxops import catalog, lie, linalg, pencil
from darbouxops import invariants as inv
from darbouxops import operators as ops
from darbouxops.poly import dot
from darbouxops.scalars import Scalar

# -- references --------------------------------------------------------------


def _total(pairs):
    return reduce(add, (x * y for x, y in pairs))


def _first(keys, value):
    """First key whose (nonempty) pair list sums to nonzero, else None."""
    for key in keys:
        pairs = [(x, y) for x, y in value(key) if x and y]
        if pairs and _total(pairs):
            return key
    return None


def _triples(n):
    return [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)]


def _sym_keys(n):
    return [(i, j, k) for i in range(n) for j in range(i, n) for k in range(n)]


def _jacobi_pairs(c, i, j, k, m):
    n = len(c)
    return [pair for s in range(n) for pair in (
        (c[i][j][s], c[s][k][m]), (c[j][k][s], c[s][i][m]), (c[k][i][s], c[s][j][m]))]


def ref_jacobi_residual(c):
    n = len(c)
    return _first([t + (m,) for t in _triples(n) for m in range(n)],
                  lambda key: _jacobi_pairs(c, *key))


def ref_jacobi_value(c, key):
    """The residual `verify_darboux` reported: the Jacobi sum at `key`."""
    pairs = [(x, y) for x, y in _jacobi_pairs(c, *key) if x and y]
    return _total(pairs) if pairs else None


def ref_casimir_residual(c, a):
    n = len(c)
    return _first(_sym_keys(n), lambda key: [
        pair for s in range(n)
        for pair in ((a[key[0]][s], c[s][key[2]][key[1]]), (a[key[1]][s], c[s][key[2]][key[0]]))])


def ref_casimir_violation(c, a):
    """lie.casimir_violation: the first (i, j, k) with a nonzero Casimir sum."""
    n = len(c)
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                tot = Scalar(0)
                for s in range(n):
                    if a[i][s] and c[s][k][j]:
                        tot = tot + a[i][s] * c[s][k][j]
                    if a[j][s] and c[s][k][i]:
                        tot = tot + a[j][s] * c[s][k][i]
                if tot:
                    return (i, j, k)
    return None


def ref_metric_residual(c, eta):
    n = len(c)
    return _first(_sym_keys(n), lambda key: [
        pair for s in range(n)
        for pair in ((eta[key[0]][s], c[key[1]][key[2]][s]),
                     (eta[key[1]][s], c[key[0]][key[2]][s]))])


def ref_cocycle_residual(c, f):
    n = len(c)
    return _first(_triples(n), lambda key: [
        pair for s in range(n)
        for pair in ((c[key[0]][key[1]][s], f[s][key[2]]), (c[key[1]][key[2]][s], f[s][key[0]]),
                     (c[key[2]][key[0]][s], f[s][key[1]]))])


def ref_mixed_jacobi_residual(c1, c2):
    n = len(c1)
    return _first([t + (s,) for t in _triples(n) for s in range(n)], lambda key: (
        _jacobi_pairs_mixed(c1, c2, *key) + _jacobi_pairs_mixed(c2, c1, *key)))


def _jacobi_pairs_mixed(c1, c2, i, j, k, s):
    n = len(c1)
    return [pair for p in range(n) for pair in (
        (c2[i][j][p], c1[p][k][s]), (c2[j][k][p], c1[p][i][s]), (c2[k][i][p], c1[p][j][s]))]


def ref_mixed_cocycle_residual(c1, f1, c2, f2):
    n = len(c1)
    return _first(_triples(n), lambda key: [
        pair for p in range(n)
        for cc, ff in ((c2, f1), (c1, f2))
        for pair in ((cc[key[0]][key[1]][p], ff[p][key[2]]),
                     (cc[key[1]][key[2]][p], ff[p][key[0]]),
                     (cc[key[2]][key[0]][p], ff[p][key[1]]))])


def ref_mixed_metric_residual(g1, c1, g2, c2):
    n = len(c1)
    return _first(_sym_keys(n), lambda key: [
        pair for s in range(n)
        for gg, cc in ((g1, c2), (g2, c1))
        for pair in ((gg[key[0]][s], cc[key[1]][key[2]][s]),
                     (gg[key[1]][s], cc[key[0]][key[2]][s]))])


def _sym_index(n):
    idx = {}
    for pos, (i, j) in enumerate(inv.sym_pairs(n)):
        idx[(i, j)] = pos
        idx[(j, i)] = pos
    return idx


def _add_to(row, p, v):
    row[p] = row.get(p, Scalar(0)) + v


def _keep(rows, row):
    row = {p: v for p, v in row.items() if v}
    if row:
        rows.append(row)


def ref_casimir_basis(c):
    n = len(c)
    idx = _sym_index(n)
    rows = []
    for i, j, k in _sym_keys(n):
        row = {}
        for s in range(n):
            if c[s][k][j]:
                _add_to(row, idx[(i, s)], c[s][k][j])
            if c[s][k][i]:
                _add_to(row, idx[(j, s)], c[s][k][i])
        _keep(rows, row)
    sols = linalg.sparse_nullspace(rows, n * (n + 1) // 2)
    return [inv.sym_from_vector(v, n) for v in sols]


def ref_metric_basis(c):
    n = len(c)
    idx = _sym_index(n)
    rows = []
    for i, j, k in _sym_keys(n):
        row = {}
        for s in range(n):
            if c[j][k][s]:
                _add_to(row, idx[(i, s)], c[j][k][s])
            if c[i][k][s]:
                _add_to(row, idx[(j, s)], c[i][k][s])
        _keep(rows, row)
    sols = linalg.sparse_nullspace(rows, n * (n + 1) // 2)
    return [inv.sym_from_vector(v, n) for v in sols]


def ref_cocycle_basis(c):
    n = len(c)
    pos = {}
    for p, (i, j) in enumerate(inv.skew_pairs(n)):
        pos[(i, j)] = (p, 1)
        pos[(j, i)] = (p, -1)
    rows = []
    for i, j, k in _triples(n):
        row = {}
        for s in range(n):
            for coeff, other in ((c[i][j][s], k), (c[j][k][s], i), (c[k][i][s], j)):
                if coeff and s != other:
                    p, sign = pos[(s, other)]
                    _add_to(row, p, coeff if sign > 0 else -coeff)
        _keep(rows, row)
    sols = linalg.sparse_nullspace(rows, n * (n - 1) // 2)
    return [inv.skew_from_vector(v, n) for v in sols]


def ref_mixed_basis(g1, g2):
    """The hand-built mixed-block rows of `mixed_cocycle_check`."""
    n1, n2 = g1.dim, g2.dim
    rows = []
    for h in range(n1):
        for l in range(h + 1, n1):
            for jp in range(n2):
                _keep(rows, {i * n2 + jp: g1.c[h][l][i] for i in range(n1) if g1.c[h][l][i]})
    for pp in range(n2):
        for qp in range(pp + 1, n2):
            for i in range(n1):
                _keep(rows, {i * n2 + jp: g2.c[pp][qp][jp] for jp in range(n2)
                             if g2.c[pp][qp][jp]})
    out = []
    for v in linalg.sparse_nullspace(rows, n1 * n2):
        m = linalg.zeros(n1 + n2, n1 + n2)
        for i in range(n1):
            for jp in range(n2):
                if v[i * n2 + jp]:
                    m[i][n1 + jp] = v[i * n2 + jp]
                    m[n1 + jp][i] = -v[i * n2 + jp]
        out.append(m)
    return out


def ref_center(c):
    """The hand-built row loop of `lie.center`."""
    n = len(c)
    rows = []
    for i in range(n):
        for k in range(n):
            row = {j: c[i][j][k] for j in range(n) if c[i][j][k]}
            if row:
                rows.append(row)
    return linalg.sparse_nullspace(rows, n)


def ref_operator_casimir_functionals(op):
    """The hand-built rows of `operator_casimir_functionals`: c^{ij}_k a_j = 0
    and f^{ij} a_j = 0, read with `constant_value` (parameter-free only)."""
    n = op.n
    rows = []
    for i in range(n):
        for k in range(n):
            row = {}
            for j in range(n):
                val = op.c[i][j][k]
                if val:
                    row[j] = val.constant_value()
            if row:
                rows.append(row)
    for i in range(n):
        row = {}
        for j in range(n):
            val = op.f[i][j]
            if val:
                row[j] = val.constant_value()
        if row:
            rows.append(row)
    return linalg.sparse_nullspace(rows, n)


# -- random data -------------------------------------------------------------

_Q = [Scalar(0)] * 6 + [Scalar(1), Scalar(-1), Scalar(2), Scalar(Fraction(-1, 3))]
_QSQRT2 = _Q + [Scalar(0, 1, 2), Scalar(Fraction(1, 2), -1, 2)]


def _poly_pool(ring):
    alpha = ring.var("alpha")
    return [ring.zero] * 6 + [ring.const(1), ring.const(-2), alpha, alpha * alpha - ring.one,
                              ring.const(Scalar(0, 1, 2)) * alpha + ring.const(Fraction(1, 2))]


# operators need a ring with one field variable per dimension
_RINGS = {n: ops.field_ring(n, ["alpha"], d=2) for n in (1, 2, 3)}
_POLYS = {n: _poly_pool(ring) for n, ring in _RINGS.items()}

_POOLS = st.sampled_from([_Q, _QSQRT2])


@st.composite
def _tensor(draw, pool, n, skew=True):
    c = [[[pool[0]] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if skew else 0, n):
            for k in range(n):
                c[i][j][k] = draw(st.sampled_from(pool))
                if skew:
                    c[j][i][k] = -c[i][j][k]
    return c


@st.composite
def _matrix(draw, pool, n, sign):
    """Symmetric (sign 1) or skew (sign -1) matrix with entries from pool."""
    m = [[pool[0]] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if sign > 0 else i + 1, n):
            m[i][j] = draw(st.sampled_from(pool))
            m[j][i] = m[i][j] if sign > 0 else -m[i][j]
    return m


@st.composite
def _triple(draw, pool, n):
    """Unconstrained (c, eta, f) with the right symmetries."""
    return (draw(_tensor(pool, n)), draw(_matrix(pool, n, 1)), draw(_matrix(pool, n, -1)))


@st.composite
def _scalar_case(draw):
    pool = draw(_POOLS)
    n = draw(st.integers(1, 5))
    return pool, n, draw(_triple(pool, n))


@st.composite
def _poly_case(draw):
    n = draw(st.integers(1, 3))
    return n, draw(_triple(_POLYS[n], n)), draw(_triple(_POLYS[n], n))


def _strings(basis):
    return [[[str(x) for x in row] for row in m] for m in basis]


def _vector_strings(vectors):
    return [[str(x) for x in v] for v in vectors]


# -- checkers ----------------------------------------------------------------


def _assert_checkers_match(c, a, f):
    assert inv.jacobi_residual(c) == ref_jacobi_residual(c)
    assert inv.casimir_residual(c, a) == ref_casimir_residual(c, a)
    assert inv.metric_residual(c, a) == ref_metric_residual(c, a)
    assert inv.cocycle_residual(c, f) == ref_cocycle_residual(c, f)


@settings(max_examples=80, deadline=None)
@given(_scalar_case())
def test_residuals_match_reference_loops(case):
    _, _, (c, a, f) = case
    _assert_checkers_match(c, a, f)
    assert lie.first_violation(lie.casimir_terms(c, a)) == ref_casimir_violation(c, a)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_residuals_match_reference_loops_on_raw_tensors(data):
    pool = data.draw(_POOLS)
    n = data.draw(st.integers(2, 4))
    c = data.draw(_tensor(pool, n, skew=False))
    assert inv.jacobi_residual(c) == ref_jacobi_residual(c)
    assert lie.jacobi_defect(c) == dict(
        (t + (m,), _total([(x, y) for x, y in _jacobi_pairs(c, *t, m) if x and y]))
        for t in _triples(n) for m in range(n)
        if ref_jacobi_value(c, t + (m,))
    )


@settings(max_examples=40, deadline=None)
@given(_poly_case())
def test_verify_darboux_matches_reference_on_polynomial_entries(case):
    n, (c, eta, f), _ = case
    _assert_checkers_match(c, eta, f)
    rep = ops.verify_darboux(ops.DarbouxOperator(_RINGS[n], c, eta, f, _checked=True))
    by_name = {cond.name: cond for cond in rep.conditions}
    key = ref_jacobi_residual(c)
    assert by_name["jacobi"].first_violation == key
    assert by_name["jacobi"].residual == (None if key is None else str(ref_jacobi_value(c, key)))
    assert by_name["cocycle"].first_violation == ref_cocycle_residual(c, f)
    assert by_name["metric-compatibility"].first_violation == ref_metric_residual(c, eta)


# -- solvers -----------------------------------------------------------------


def _assert_spaces_match(g):
    assert _strings(inv.quadratic_casimir_space(g).basis) == _strings(ref_casimir_basis(g.c))
    assert _strings(inv.compatible_metric_space(g).basis) == _strings(ref_metric_basis(g.c))
    assert _strings(inv.two_cocycle_space(g).basis) == _strings(ref_cocycle_basis(g.c))


@settings(max_examples=40, deadline=None)
@given(_scalar_case())
def test_space_bases_match_reference_rows_on_random_tensors(case):
    # the solvers read rows off any skew tensor; Jacobi is not needed for that
    _, _, (c, _, _) = case
    _assert_spaces_match(lie.LieAlgebra(c, _validated=True))


def test_space_bases_match_reference_rows_on_catalog():
    for name in catalog.catalog_list():
        _assert_spaces_match(catalog.catalog_get(name).algebra)
    _assert_spaces_match(lie.so_n(5))


# -- mixed conditions ----------------------------------------------------------


def _mixed(terms, c_a, x_a, c_b, x_b):
    return lie.first_violation(terms(c_b, x_a), terms(c_a, x_b))


@settings(max_examples=40, deadline=None)
@given(_poly_case())
def test_mixed_conditions_match_reference_loops(case):
    _, (c1, g1, f1), (c2, g2, f2) = case
    assert _mixed(lie.jacobi_terms, c1, c1, c2, c2) == ref_mixed_jacobi_residual(c1, c2)
    assert _mixed(lie.cocycle_terms, c1, f1, c2, f2) == ref_mixed_cocycle_residual(c1, f1, c2, f2)
    assert _mixed(lie.metric_terms, c1, g1, c2, g2) == ref_mixed_metric_residual(g1, c1, g2, c2)


def test_pencil_verdicts_match_reference_loops_on_catalog_pairs():
    names = [name for name in catalog.catalog_list() if catalog.catalog_get(name).dim == 4]
    for x in names[:4]:
        for y in names[:4]:
            a, b = pencil.unify_operators(catalog.catalog_get(x).operator().to_poly_operator(),
                                          catalog.catalog_get(y).operator().to_poly_operator())
            a, b = pencil.darboux_view(a), pencil.darboux_view(b)
            rep = pencil.pencil_compatible_darboux(a, b)
            assert [(cond.name, cond.first_violation) for cond in rep.conditions] == [
                ("mixed-jacobi", ref_mixed_jacobi_residual(a.c, b.c)),
                ("mixed-cocycle", ref_mixed_cocycle_residual(a.c, a.f, b.c, b.f)),
                ("mixed-metric", ref_mixed_metric_residual(a.eta, a.c, b.eta, b.c)),
            ]


@settings(max_examples=40, deadline=None)
@given(_poly_case())
def test_mixed_jacobi_is_the_polarization_of_jacobi(case):
    """mixed(A, B) = J(c_A + c_B) - J(c_A) - J(c_B), key by key."""
    n, (c1, _, _), (c2, _, _) = case
    total = [[[c1[i][j][k] + c2[i][j][k] for k in range(n)] for j in range(n)] for i in range(n)]
    j_sum, j_1, j_2 = (lie.jacobi_defect(c) for c in (total, c1, c2))
    polar = {}
    for key in set(j_sum) | set(j_1) | set(j_2):
        zero = _RINGS[n].zero
        value = j_sum.get(key, zero) - j_1.get(key, zero) - j_2.get(key, zero)
        if value:
            polar[key] = value
    mixed = dict(lie.defect(lie.jacobi_terms(c2, c1), lie.jacobi_terms(c1, c2)))
    assert mixed == polar
    assert list(mixed) == sorted(mixed)


_SMALL = [lie.abelian(1), lie.abelian(2), lie.heisenberg3(), lie.so3(), lie.sl2_jbasis(),
          lie.s46(), lie.LieAlgebra.from_brackets(2, {(0, 1): {1: 1}})]


def test_mixed_block_bases_match_reference_rows():
    for g1 in _SMALL:
        for g2 in _SMALL:
            rep = inv.mixed_cocycle_check(g1, g2)
            assert _strings(rep.mixed_basis) == _strings(ref_mixed_basis(g1, g2))
            assert rep.formula_holds


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_mixed_block_bases_match_reference_rows_on_random_tensors(data):
    pool = data.draw(_POOLS)
    g1, g2 = (lie.LieAlgebra(data.draw(_tensor(pool, data.draw(st.integers(1, 3)))),
                             _validated=True) for _ in range(2))
    rep = inv.mixed_cocycle_check(g1, g2)
    assert _strings(rep.mixed_basis) == _strings(ref_mixed_basis(g1, g2))


# -- the center and the operator Casimirs ----------------------------------------


@settings(max_examples=60, deadline=None)
@given(_scalar_case())
def test_center_matches_reference_loop_on_random_tensors(case):
    _, _, (c, _, _) = case
    g = lie.LieAlgebra(c, _validated=True)
    got = lie.center(g)
    assert got == ref_center(g.c)
    assert _vector_strings(got) == _vector_strings(ref_center(g.c))


def _catalog_algebras():
    return [catalog.catalog_get(name).algebra for name in catalog.catalog_list()]


def test_center_matches_reference_loop_on_catalog_and_matrix_algebras():
    matrix_algebras = [lie.so_n(n) for n in range(2, 7)] + [lie.sl_n(n) for n in range(2, 6)]
    for g in _catalog_algebras() + matrix_algebras:
        assert _vector_strings(lie.center(g)) == _vector_strings(ref_center(g.c))


def _ring_of(n, pool):
    return ops.field_ring(n, d=2 if pool is _QSQRT2 else 0)


@settings(max_examples=60, deadline=None)
@given(_scalar_case())
def test_operator_casimir_functionals_match_reference_loops(case):
    pool, n, (c, eta, f) = case
    op = ops.DarbouxOperator(_ring_of(n, pool), c, eta, f, _checked=True)
    got = ops.operator_casimir_functionals(op)
    assert got == ref_operator_casimir_functionals(op)
    assert _vector_strings(got) == _vector_strings(ref_operator_casimir_functionals(op))


def test_operator_casimir_functionals_match_reference_loops_on_catalog_algebras():
    """Parameter-free operators on every catalog algebra: f = 0 and each cocycle basis element."""
    for g in _catalog_algebras():
        ring = ops.field_ring(g.dim, d=g.field_tag())
        zero = linalg.zeros(g.dim, g.dim)
        for f in [zero] + inv.two_cocycle_space(g).basis:
            op = ops.DarbouxOperator(ring, g.c, zero, f, _checked=True)
            assert _vector_strings(ops.operator_casimir_functionals(op)) == _vector_strings(
                ref_operator_casimir_functionals(op))


def _linear_density(ring, v):
    return dot(ring, [(x, ring.var(ring.names[i])) for x, i in zip(v, ring.field_indices()) if x])


def test_operator_casimir_functionals_answer_on_every_catalog_entry():
    """Every catalog operator carries parameters (the old rows raised on all
    35); each vector a gives W = omega a = 0 for the density a.u."""
    dims = []
    for name in catalog.catalog_list():
        op = catalog.catalog_get(name).operator()
        vecs = ops.operator_casimir_functionals(op)
        poly_op = op.to_poly_operator()
        for v in vecs:
            _, w = ops.apply_to_density(poly_op, _linear_density(op.ring, v))
            assert not any(w)
        dims.append(len(vecs))
    assert len(dims) == 35 and set(dims) == {0, 1}


def test_solve_splits_polynomial_coefficients_by_monomial():
    ring = ops.field_ring(1, ["alpha"])
    alpha = ring.var("alpha")
    # (alpha + 1) a_0 - a_1 = 0 identically in alpha forces a_0 = a_1 = 0 ...
    assert lie.solve([((0,), [(alpha + 1, (0, 1)), (ring.one, (1, -1))])], 2) == []
    # ... while the Scalar equation a_0 - a_1 = 0 keeps a_0 = a_1
    assert lie.solve([((0,), [(Scalar(1), (0, 1)), (Scalar(1), (1, -1))])], 2) == [
        [Scalar(1), Scalar(1)]]


def test_operator_casimir_functionals_match_sympy_linsolve():
    """omega a = 0 collected in u and every parameter, solved by sympy."""
    sp = pytest.importorskip("sympy")
    names = catalog.catalog_list()
    seen = set()
    for name in names[::3]:
        op = catalog.catalog_get(name).operator()
        ring, n = op.ring, op.n
        syms = [sp.Symbol(x) for x in ring.names]
        a = [sp.Dummy(f"a{j}") for j in range(n)]  # parameters may be named a1, ...
        eqs = []
        for row in op.omega():
            expr = sp.expand(sum(helpers.sympy_of(sp, x, syms) * a[j] for j, x in enumerate(row)))
            if expr != 0:
                eqs += sp.Poly(expr, *syms).coeffs()
        (solution,) = sp.linsolve(eqs, a) if eqs else [a]
        dim = len(set().union(*(sp.sympify(x).free_symbols for x in solution)) & set(a))
        vecs = ops.operator_casimir_functionals(op)
        assert len(vecs) == dim
        for v in vecs:
            values = dict(zip(a, (helpers.sympy_of(sp, ring.const(x), syms) for x in v)))
            assert all(sp.expand(eq.subs(values)) == 0 for eq in eqs)
        seen.add(dim)
    assert seen == {0, 1}
