"""The structural laws against the copies they replaced.

`linalg.first_asymmetry` is the one symmetry/skewness law,
`operators.transform_poly_operator` the one basis-change law (a structure
tensor moves as the Lie-Poisson operator omega = c.u, `change_basis`),
`invariants.general_element` the one general element sum_k t_k B_k and
`lie._series` the one series loop and `lie._span_basis` the one span
reader; `operators._two_tensor` contracts one index at a time, and
`so_n`/`sl_n` read commutator coordinates off matrix entries.  The
bracket, the series, `killing_form`, `operators.linear_parts` and
`first_asymmetry` read only nonzero entries,
`catalog._at_moduli` is `constant_value`, after `Poly.subs` for an entry
with moduli, `catalog._eta_directions` is one `linear_parts` pass on the
eta parameters, `operators.parse_matrix` parses each distinct entry text
once, `lie.solve` sums a pair equation straight into one row, and
each minor of `invariants._det_minor_expansion` is one `poly.dot` call.
The references below are the earlier implementations: eight symmetry
and skewness predicates and the pair-by-pair `first_asymmetry`, the
staged loops of the former `lie.change_basis`, the direct sums of
`transform_darboux` and of the (2,0) law, the entry builder
of `space_latex`, the dense bracket and both series loops on it with the
dense rref, the n^4 Killing form, the n-scan `linear_parts`, the k*n^2
degree-1 coefficient scans of `_eta_directions`, the per-entry
`parse_matrix`, the monomial-grouping pair branch of `solve`, the
per-term evaluator of `_at_moduli`, the per-term Laplace expansion of
the witness determinant, the rref slice of `coboundary_basis`, the
sparse reduction of the matrix algebras, and the n^3 Jacobian and Phi
tensors with the n^4 Phi-constancy loop of the Hamiltonian verifier (now
built on j <= k for a skew omega).  They are compared with hypothesis over
Q and Q(sqrt(2)), on Scalar entries and on polynomial entries with a
parameter, on matrices and on 3-tensors; sympy's matrix commutators are an
independent oracle for so(n) and sl(n), and sympy's tr(ad_x ad_y) and
spans of ad images one for the Killing form and the series.

Every reader of a `LieAlgebra`'s tensor reads its integer support table
(`LieAlgebra._table`).  The Scalar readers it replaced are references
too: the identity generators building their own `_support` rows, `solve`
over Scalar rows, the series through `linalg.sparse_rref`, det(Killing
form) as the semisimple test and the dense `coboundary_basis`, with the
constructor's `first_asymmetry` and Scalar Jacobi check.  Independently
of all of them, the three space dimensions are unknowns minus the rank of
systems written out entry by entry and ranked by sympy's `DomainMatrix`.

`scalars.to_integers` is the one Z[sqrt(d)] integer form.  The three
encoders it replaced, the coefficient loop of `poly._int_form`,
`linalg._integer_rows` (one lcm denominator per row) and
`lie._support_table`, are references for the forms the package builds now,
and for the error type of a sqrt(2)/sqrt(3) mix.
"""

from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from darbouxops import catalog, latexout, lie, linalg, pencil, poly
from darbouxops import invariants as inv
from darbouxops import operators as ops
from darbouxops.errors import (
    FieldMismatchError,
    NotALieAlgebraError,
    ParseError,
    ShapeMismatchError,
)
from darbouxops.poly import Poly, PolyRing, dot
from darbouxops.scalars import ZERO, Scalar, join_field_tags

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
    """The three staged loops of the former lie.change_basis, c~^{ij}_k = a^i_l a^j_m c^{lm}_s b^s_k."""
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


def ref_det_minor_expansion(ring, m):
    """invariants._det_minor_expansion with one product and one sum per
    (entry, sub-minor) term, the running total copied by each `+`."""
    n = len(m)
    if n == 0:
        return ring.one
    cache = {(): ring.one}

    def minor(cols):
        if cols in cache:
            return cache[cols]
        i = n - len(cols)
        total = ring.zero
        sign = 1
        for pos, cjx in enumerate(cols):
            entry = m[i][cjx]
            if entry:
                sub = minor(cols[:pos] + cols[pos + 1:])
                if sub:
                    term = entry * sub
                    total = total + (term if sign > 0 else -term)
            sign = -sign
        cache[cols] = total
        return total

    return minor(tuple(range(n)))


def ref_space_latex(basis, symbol="t"):
    if not basis:
        return "\\varnothing"
    return latexout.matrix_latex(ref_general_element(basis, symbol)[1])


def ref_bracket(g, x, y):
    """LieAlgebra.bracket as a dense loop over every coordinate pair and output index."""
    n = g.dim
    out = [Scalar(0)] * n
    for i in range(n):
        if not x[i]:
            continue
        for j in range(n):
            if not y[j]:
                continue
            cij = g.c[i][j]
            coef = x[i] * y[j]
            for k in range(n):
                if cij[k]:
                    out[k] = out[k] + coef * cij[k]
    return out


def ref_bracket_span(g, s1, s2):
    """lie._bracket_span: dense brackets of all pairs, reduced by the dense rref."""
    vecs = [v for v in (ref_bracket(g, x, y) for x in s1 for y in s2) if any(v)]
    if not vecs:
        return []
    red, _, rank = linalg.rref(vecs)
    return red[:rank]


def ref_lower_central_series(g):
    full = [row[:] for row in linalg.identity(g.dim)]
    dims = [g.dim]
    current = full
    while True:
        nxt = ref_bracket_span(g, full, current)
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
        nxt = ref_bracket_span(g, current, current)
        d = len(nxt)
        if d == dims[-1]:
            break
        dims.append(d)
        current = nxt
        if d == 0:
            break
    return dims


def ref_killing_form(g):
    """lie.killing_form with its n^4 zero tests."""
    n = g.dim
    c = g.c
    k = linalg.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            total = Scalar(0)
            for l in range(n):
                for m in range(n):
                    a = c[i][l][m]
                    if a:
                        b = c[j][m][l]
                        if b:
                            total = total + a * b
            k[i][j] = total
            k[j][i] = total
    return k


def ref_linear_parts(ring, omega):
    """operators.linear_parts as n degree-1 `coefficient_of_power` scans and one
    u-free filter per entry."""
    fidx = ring.field_indices()
    n = len(omega)
    c = [[[x.coefficient_of_power(fidx[k], 1) for k in range(n)] for x in row] for row in omega]
    f = [[Poly(ring, {e: v for e, v in x.terms.items() if not any(e[i] for i in fidx)})
          for x in row] for row in omega]
    return c, f


def ref_at_moduli(entries, ring, moduli):
    """catalog._at_moduli as each term evaluated at the moduli directly;
    ShapeMismatchError when an entry keeps another indeterminate."""
    at = [(ring.index(name), Scalar(val)) for name, val in moduli.items()]

    def value(x):
        if isinstance(x, list):
            return [value(y) for y in x]
        total, rest = ZERO, {}
        for e, v in x.terms.items():
            kept = list(e)
            for i, m in at:
                if e[i]:
                    kept[i] = 0
                    v = v * m ** e[i]
            if any(kept):
                key = tuple(kept)
                rest[key] = rest[key] + v if key in rest else v
            else:
                total = total + v if total else v
        if any(rest.values()):
            rest[ring._zero_exp] = total
            raise ShapeMismatchError(f"{Poly(ring, rest)} is not constant")
        return total

    return value(entries)


def ref_eta_directions(entry):
    """catalog._eta_directions as one degree-1 `coefficient_of_power` scan per eta
    parameter and entry (k*n^2 scans), each direction evaluated at the
    moduli on its own."""
    n = entry.dim
    return [ref_at_moduli([[entry.eta[i][j].coefficient_of_power(p, 1) for j in range(n)]
                           for i in range(n)], entry.ring, entry.moduli)
            for p in entry.eta_params]


def ref_parse_matrix(ring, text, n, kind):
    """operators.parse_matrix with every entry text parsed on its own."""
    rows = [r for r in text.split(";") if r.strip()]
    if len(rows) != n:
        raise ParseError(f"{kind} needs {n} rows, got {len(rows)}")
    m = [[ring.parse(x) for x in row.split(",")] for row in rows]
    if any(len(row) != n for row in m):
        raise ParseError(f"{kind} rows need {n} entries each")
    return m


def ref_solve_pairs(equations, ncols, d):
    """lie.solve on integer-pair coefficients through the per-monomial
    grouping layer of polynomial coefficients (one group, key None)."""
    rows = []
    for _, eq in equations:
        entries = [(None, col, sign * a, sign * b) for (a, b), (col, sign) in eq]
        by_monomial = {}
        for e, col, a, b in entries:
            row = by_monomial.setdefault(e, {})
            w = row.pop(col, None)
            if w is not None:
                a, b = a + w[0], b + w[1]
            if a or b:
                row[col] = (a, b)
        rows += [row for row in by_monomial.values() if row]
    return linalg.integer_nullspace(rows, ncols, d)


def ref_first_asymmetry(m, skew=False):
    """linalg.first_asymmetry comparing every pair, through a negated copy when skew."""
    n = len(m)
    for i in range(n):
        for j in range(i, n):
            x, y = m[i][j], m[j][i]
            if isinstance(x, (list, tuple)):
                for k, (a, b) in enumerate(zip(x, y)):
                    if a != (-b if skew else b):
                        return (i, j, k)
            elif x != (-y if skew else y):
                return (i, j)
    return None


# -- references: spans and matrix algebras -----------------------------------


def ref_coboundary_basis(g):
    """invariants.coboundary_basis before it read `lie._span_basis`."""
    n = g.dim
    pairs = inv.skew_pairs(n)
    rows = [[g.c[i][j][k] for (i, j) in pairs] for k in range(n)]
    if not rows:
        return []
    red, _, rank = linalg.rref(rows)
    return [inv._matrix(red[r], n, inv.skew_pairs(n), True) for r in range(rank)]


def ref_matrix_algebra_from_basis(basis):
    """lie._matrix_algebra_from_basis: one sparse reduction of [basis
    columns | all commutators], commutators by a dense Fraction loop."""
    dim = len(basis)
    size = len(basis[0])
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    rows = [{} for _ in range(size * size)]
    for k, m in enumerate(basis):
        for r in range(size):
            for s in range(size):
                if m[r][s]:
                    rows[r * size + s][k] = Scalar(m[r][s])
    for p, (i, j) in enumerate(pairs):
        for r in range(size):
            for s in range(size):
                acc = Fraction(0)
                for t in range(size):
                    acc += basis[i][r][t] * basis[j][t][s] - basis[j][r][t] * basis[i][t][s]
                if acc:
                    rows[r * size + s][dim + p] = Scalar(acc)
    pivots = linalg.sparse_rref(rows)
    assert all(col < dim for col in pivots), "commutator leaves the span of the basis"
    c = [[[Scalar(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for p, (i, j) in enumerate(pairs):
        for k, prow in pivots.items():
            x = prow.get(dim + p)
            if x:
                c[i][j][k] = x
                c[j][i][k] = -x
    return c


def ref_so_basis(n):
    """N_{ij} = E_{ij} - E_{ji}, pairs (i<j) in lex order, as dense Fraction matrices."""
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            m = [[Fraction(0)] * n for _ in range(n)]
            m[i][j] = Fraction(1)
            m[j][i] = Fraction(-1)
            basis.append(m)
    return basis


def ref_sl_basis(n):
    """H_i = E_{ii} - E_{nn}, then the off-diagonal E_{ij}, as dense Fraction matrices."""
    basis = []
    for i in range(n - 1):
        m = [[Fraction(0)] * n for _ in range(n)]
        m[i][i] = Fraction(1)
        m[n - 1][n - 1] = Fraction(-1)
        basis.append(m)
    for i in range(n):
        for j in range(n):
            if i != j:
                m = [[Fraction(0)] * n for _ in range(n)]
                m[i][j] = Fraction(1)
                basis.append(m)
    return basis


# -- references: the Hamiltonian verifier on the full tensors ----------------


def ref_phi_sum(ring, *factors):
    """Phi^{ijk} summed for every (i, j, k)."""
    n = len(factors[0][0])
    return [
        [[dot(ring, [(x, y) for g, domega in factors for x, y in zip(g[i], domega[j][k])
                     if x and y]) for k in range(n)]
         for j in range(n)]
        for i in range(n)
    ]


def ref_hamiltonian_report(ring, omega, schouten, phi):
    """omega-skew read off omega, and one `depends_on` per entry and field variable."""
    n = len(phi)
    report = ops.VerificationReport()
    report.add("omega-skew", linalg.first_asymmetry(omega, skew=True))
    report.add("schouten", schouten)
    report.add("phi-cyclic-symmetry", next(
        ((i, j, k) for i in range(n) for j in range(n) for k in range(n)
         if phi[i][j][k].terms != phi[k][i][j].terms),
        None,
    ))
    fidx = ring.field_indices()
    report.add("phi-constant", next(
        ((i, j, k, r) for i in range(n) for j in range(n) for k in range(n) for r in range(n)
         if phi[i][j][k].depends_on(fidx[r])),
        None,
    ))
    return report


def ref_verify_hamiltonian(op):
    domega = ops.field_jacobian(op.ring, op.omega)
    return ref_hamiltonian_report(op.ring, op.omega,
                                  lie.first_violation(ops.schouten_terms(op.omega, domega)),
                                  ref_phi_sum(op.ring, (op.g, domega)))


def ref_lambda_report(a, b):
    """The lambda^1 report of the pencil on the full Jacobians and Phi."""
    da, db = ops.field_jacobian(a.ring, a.omega), ops.field_jacobian(b.ring, b.omega)
    return ref_hamiltonian_report(
        a.ring, b.omega,
        lie.first_violation(ops.schouten_terms(a.omega, db), ops.schouten_terms(b.omega, da)),
        ref_phi_sum(a.ring, (a.g, db), (b.g, da)),
    )


# -- references: the Scalar readers of the support table ----------------------


def ref_support(row):
    return [(t, v) for t, v in enumerate(row) if v]


def ref_jacobi_terms(c, x):
    """lie.jacobi_terms when it built the `_support` rows of c and x itself."""
    n = len(c)
    cz = [[ref_support(row) for row in plane] for plane in c]
    xz = cz if x is c else [[ref_support(row) for row in plane] for plane in x]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                eqs = {}
                for (a, b), last in (((i, j), k), ((j, k), i), ((k, i), j)):
                    for s, y in cz[a][b]:
                        for m, z in xz[s][last]:
                            eqs.setdefault(m, []).append((y, z))
                for m in sorted(eqs):
                    yield (i, j, k, m), eqs[m]


def ref_cocycle_terms(c, f):
    n = len(c)
    cz = [[ref_support(row) for row in plane] for plane in c]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                eq = [(y, f[s][last]) for (a, b), last in (((i, j), k), ((j, k), i), ((k, i), j))
                      for s, y in cz[a][b] if f[s][last]]
                if eq:
                    yield (i, j, k), eq


def ref_symmetric_terms(table, x):
    n = len(x)
    xz = [ref_support(row) for row in x]
    for i in range(n):
        for j in range(i, n):
            eqs = {}
            for p, q in ((i, j), (j, i)):
                for s, z in xz[p]:
                    for k, y in table[s][q]:
                        eqs.setdefault(k, []).append((y, z))
            for k in sorted(eqs):
                yield (i, j, k), eqs[k]


def ref_casimir_terms(c, a):
    """lie.casimir_terms with its dense n^3 table scan."""
    n = len(c)
    table = [[[(k, c[s][k][j]) for k in range(n) if c[s][k][j]] for j in range(n)]
             for s in range(n)]
    return ref_symmetric_terms(table, a)


def ref_metric_terms(c, eta):
    n = len(c)
    table = [[[(k, c[j][k][s]) for k in range(n) if c[j][k][s]] for j in range(n)]
             for s in range(n)]
    return ref_symmetric_terms(table, eta)


def ref_center_terms(c, a):
    for i, plane in enumerate(c):
        eqs = {}
        for j, z in enumerate(a):
            if z:
                for k, y in ref_support(plane[j]):
                    eqs.setdefault(k, []).append((y, z))
        for k in sorted(eqs):
            yield (i, k), eqs[k]


def ref_solve(equations, ncols):
    """lie.solve over Scalar rows, handed to `linalg.sparse_nullspace`."""
    rows = []
    for _, eq in equations:
        row = {}
        for coeff, (col, sign) in eq:
            v = coeff if sign > 0 else -coeff
            w = row.pop(col, None)
            if w is not None:
                v = w + v
            if w is None or v:
                row[col] = v
        if row:
            rows.append(row)
    return linalg.sparse_nullspace(rows, ncols)


def ref_sparse_bracket(rows, x, y):
    """lie._bracket on Scalar coordinates and `_support` rows."""
    out = {}
    for i, a in x:
        for j, b in y:
            for k, v in rows[i][j]:
                out[k] = out[k] + a * b * v if k in out else a * b * v
    return {k: v for k, v in out.items() if v}


def ref_sparse_series(g, lower):
    """lie._series through `linalg.sparse_rref`, each g_k as its RREF Scalar rows."""
    rows = [[ref_support(row) for row in plane] for plane in g.c]
    full = current = [[(i, Scalar(1))] for i in range(g.dim)]
    dims = [g.dim]
    while dims[-1]:
        brackets = [ref_sparse_bracket(rows, x, y) for x in (full if lower else current)
                    for y in current]
        current = [list(row.items())
                   for row in linalg.sparse_rref([b for b in brackets if b]).values()]
        if len(current) == dims[-1]:
            break
        dims.append(len(current))
    return dims


def ref_spaces(g):
    """The Casimir, metric and cocycle bases through `ref_solve` on the `_support` generators."""
    n = g.dim
    sym, skew = inv.sym_pairs(n), inv.skew_pairs(n)
    cas = ref_solve(ref_casimir_terms(g.c, inv._unknowns(n, sym, False)), len(sym))
    met = ref_solve(ref_metric_terms(g.c, inv._unknowns(n, sym, False)), len(sym))
    coc = ref_solve(ref_cocycle_terms(g.c, inv._unknowns(n, skew, True)), len(skew))
    return ([inv._matrix(v, n, sym, False) for v in cas],
            [inv._matrix(v, n, sym, False) for v in met],
            [inv._matrix(v, n, skew, True) for v in coc])


def ref_center(g):
    return ref_solve(ref_center_terms(g.c, [(j, 1) for j in range(g.dim)]), g.dim)


def ref_structure_tags(g):
    """structure_tags from the Scalar series, det(Killing form) and the Scalar center."""
    lcs, ds = ref_sparse_series(g, True), ref_sparse_series(g, False)
    nilpotent = lcs[-1] == 0
    return lie.StructureTags(
        abelian=g.dim == 0 or (len(lcs) >= 2 and lcs[1] == 0),
        nilpotent=nilpotent,
        nilpotency_class=(len(lcs) - 1) if nilpotent else None,
        solvable=ds[-1] == 0,
        semisimple=g.dim > 0 and bool(linalg.det(ref_killing_form(g))),
        center_dim=len(ref_center(g)),
    )


# -- references: the three integer encoders ------------------------------------


def ref_poly_int_form(p):
    """The coefficient loop of `poly._int_form`: (d, D, [(A, B), ...]) by term."""
    d = 0
    den = 1
    for c in p.terms.values():
        if c.d:
            if d and c.d != d:
                raise FieldMismatchError(f"cannot mix sqrt({d}) and sqrt({c.d})")
            d = c.d
            den = lcm(den, c.a.denominator, c.b.denominator)
        else:
            den = lcm(den, c.a.denominator)
    return d, den, [(c.a.numerator * (den // c.a.denominator),
                     c.b.numerator * (den // c.b.denominator)) for c in p.terms.values()]


def ref_integer_rows(rows):
    """`linalg._integer_rows`: (d, [(R, L), ...]), each row as R = L * row with
    L its own lcm denominator."""
    d = 0
    for tag in sorted({x.d for row in rows for x in row.values()}):
        d = join_field_tags(d, tag)
    out = []
    for row in rows:
        parts = [(c, x.a, x.b) for c, x in row.items() if x]
        den = lcm(*[q.denominator for _, a, b in parts for q in (a, b)])
        out.append(({c: (a.numerator * (den // a.denominator),
                         b.numerator * (den // b.denominator)) for c, a, b in parts}, den))
    return d, out


def ref_support_table(tensor):
    """`lie._support_table`: (d, den, rows) with rows[i][j] = [(k, (A, B)), ...]."""
    cz = lie.support_rows(tensor)
    d, den = 0, 1
    for plane in cz:
        for row in plane:
            for _, x in row:
                if x.d:
                    d = join_field_tags(d, x.d)
                    den = lcm(den, x.a.denominator, x.b.denominator)
                elif x.a.denominator != 1:
                    den = lcm(den, x.a.denominator)
    return d, den, [
        [[(k, (x.a.numerator * (den // x.a.denominator), x.b.numerator * (den // x.b.denominator)))
          for k, x in row] for row in plane] for plane in cz]


# -- random data -------------------------------------------------------------

_Q = [Scalar(0)] * 5 + [Scalar(1), Scalar(-1), Scalar(2), Scalar(Fraction(-1, 3))]
_QSQRT2 = _Q + [Scalar(0, 1, 2), Scalar(Fraction(1, 2), -1, 2)]
_QSQRT3 = _Q + [Scalar(0, 1, 3), Scalar(Fraction(2, 5), Fraction(-1, 7), 3)]
_SCALAR_POOLS = st.sampled_from([_Q, _QSQRT2])
# plain numbers, which `Scalar.of` coerces, alone and beside sqrt(2) Scalars
_NUMBERS = [0] * 5 + [1, -1, 2, Fraction(-1, 3), Fraction(5, 2)]
_NUMBER_POOLS = st.sampled_from([_Q, _QSQRT2, _NUMBERS, _NUMBERS + _QSQRT2[-2:]])


def _poly_pool(ring):
    alpha = ring.var("alpha")
    return [ring.zero] * 5 + [ring.const(1), ring.const(-2), alpha, alpha * alpha - ring.one,
                              ring.const(Scalar(0, 1, 2)) * alpha + ring.const(Fraction(1, 2))]


# operators need a ring with one field variable per dimension
_RINGS = {n: ops.field_ring(n, ["alpha"], d=2) for n in (1, 2, 3)}
_POLYS = {n: _poly_pool(ring) for n, ring in _RINGS.items()}
RING, _POLY = _RINGS[3], _POLYS[3]


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
    ring, pool = _RINGS[n], _POLYS[n]
    c = data.draw(_tensor(pool, n))
    eta = data.draw(_matrix(pool, n))
    f = data.draw(_matrix(pool, n))
    rep = ops.verify_darboux(ops.DarbouxOperator(ring, c, eta, f, _checked=True))
    keys = {cond.name: cond.first_violation for cond in rep.conditions}
    assert keys["c-skew"] == ref_c_skew(c)
    assert keys["eta-symmetric"] == ref_first_symmetry_violation(eta)
    assert keys["f-skew"] == ref_first_skew_violation(f)
    omega = data.draw(_matrix(pool, n))
    rep = ops.verify_hamiltonian(ops.PolyOperator(ring, linalg.identity(n), omega))
    assert rep.conditions[0].name == "omega-skew"
    assert rep.conditions[0].first_violation == ref_first_skew_violation(omega)


# -- the basis-change law ----------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_change_basis_matches_staged_loops_on_random_tensors(data):
    """Over Q, Q(sqrt(2)) and Q(sqrt(3)).  Skewness and Jacobi do not depend
    on the basis, so a tensor that fails them is refused after the move."""
    pool = data.draw(st.sampled_from([_Q, _QSQRT2, _QSQRT3]))
    n = data.draw(st.integers(1, 4))
    a = data.draw(_invertible(pool, n))
    c = data.draw(_tensor(pool, n))
    g = lie.LieAlgebra(c, _validated=True)
    if _constructor_verdict(c) is None:
        moved = ops.change_basis(g, a)
        assert [[list(row) for row in plane] for plane in moved.c] == ref_change_basis(
            c, a, linalg.inverse(a))
    else:
        with pytest.raises(NotALieAlgebraError):
            ops.change_basis(g, a)


_ALGEBRAS = [lie.so3(), lie.heisenberg3(), lie.sl2_jbasis(), lie.su11_contact(), lie.s46(),
             lie.kdv_w_algebra(), lie.LieAlgebra.from_brackets(3, {(0, 1): {2: Scalar(0, 1, 2)}})]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_change_basis_matches_staged_loops(data):
    g = data.draw(st.sampled_from(_ALGEBRAS))
    a = data.draw(_invertible(data.draw(_SCALAR_POOLS), g.dim))
    ref = ref_change_basis(g.c, a, linalg.inverse(a))
    moved = ops.change_basis(g, a)
    assert [[list(row) for row in plane] for plane in moved.c] == ref


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_transform_poly_operator_matches_direct_sum_on_lie_poisson_tensors(data):
    """omega = c.u with polynomial c moves to c~.u, c~ the direct sum (the law
    `change_basis` reads back)."""
    n = data.draw(st.integers(1, 3))
    a = data.draw(_invertible(data.draw(_SCALAR_POOLS), n))
    ring, pool = _RINGS[n], _POLYS[n]
    c = data.draw(_tensor(pool, n))
    zero = [[ring.zero] * n for _ in range(n)]
    op = ops.DarbouxOperator(ring, c, zero, zero, _checked=True).to_poly_operator()
    moved = ops.transform_poly_operator(op, a)
    u = [ring.var(f"u{k + 1}") for k in range(n)]
    ref = ref_transport_direct(ring, a, linalg.inverse(a), c)
    assert moved.omega == [[dot(ring, list(zip(ref[i][j], u))) for j in range(n)]
                           for i in range(n)]
    assert moved.g == zero


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_transform_darboux_matches_reference_triples(data):
    n = data.draw(st.integers(1, 3))
    a = data.draw(_invertible(data.draw(_SCALAR_POOLS), n))
    ring, pool = _RINGS[n], _POLYS[n]
    c, eta, f = data.draw(_tensor(pool, n)), data.draw(_matrix(pool, n)), data.draw(
        _matrix(pool, n))
    op = ops.DarbouxOperator(ring, c, eta, f, _checked=True)
    moved = ops.darboux_view(ops.transform_poly_operator(op.to_poly_operator(), a))
    b = linalg.inverse(a)
    assert moved.c == ref_transport_direct(ring, a, b, op.c)
    assert moved.eta == ref_two_tensor(ring, a, op.eta)
    assert moved.f == ref_two_tensor(ring, a, op.f)


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
        moved = ops.darboux_view(ops.transform_poly_operator(op.to_poly_operator(), a))
        assert moved.c == ref_transport_direct(op.ring, a, linalg.inverse(a), op.c)
        assert moved.eta == ref_two_tensor(op.ring, a, op.eta)
        assert moved.f == ref_two_tensor(op.ring, a, op.f)


# -- the Hamiltonian verifier on j <= k --------------------------------------


def _field_pool(ring):
    alpha, u = ring.var("alpha"), [ring.var(name) for name in ring.names[:-1]]
    r2 = ring.const(Scalar(0, 1, 2))
    return [ring.zero] * 4 + [ring.const(1), alpha, r2 * alpha - 1, u[-1], u[0] * u[-1],
                              alpha * u[0] - u[-1] ** 2, (r2 + 1) * u[0], r2 * u[0] * u[0]]


def _assert_skew_half_matches(op):
    ring, omega = op.ring, op.omega
    skew = linalg.first_asymmetry(omega, skew=True) is None
    domega = ops.field_jacobian(ring, omega)
    assert ops.phi_sum(ring, (op.g, domega), skew=skew) == ref_phi_sum(ring, (op.g, domega))
    assert ops.verify_hamiltonian(op).as_dict() == ref_verify_hamiltonian(op).as_dict()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_skew_half_verifier_matches_full_tensors(data):
    """Skew omegas (Phi on j <= k) and omegas that fail
    omega-skew (the full tensors), g constant, symmetric or not."""
    n = data.draw(st.integers(1, 4))
    ring = ops.field_ring(n, ["alpha"], d=2)
    pool = _field_pool(ring)
    g = data.draw(_matrix(pool[:7], n))
    if data.draw(st.booleans()):
        omega = [[ring.zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                omega[i][j] = data.draw(st.sampled_from(pool))
                omega[j][i] = -omega[i][j]
    else:
        omega = data.draw(_matrix(pool, n))
    _assert_skew_half_matches(ops.PolyOperator(ring, g, omega, _checked=True))


def test_non_skew_omega_reports_the_first_varying_phi_below_the_diagonal():
    """omega^{10} = u1^2 with omega^{01} = 0: Phi^{010} = 0 but Phi^{100} = 2 u1."""
    ring = ops.field_ring(2, ["alpha"], d=2)
    u1 = ring.var("u1")
    op = ops.PolyOperator(ring, linalg.identity(2), [[ring.zero, ring.zero], [u1 * u1, ring.zero]])
    _assert_skew_half_matches(op)
    got = {c.name: c.first_violation for c in ops.verify_hamiltonian(op).conditions}
    assert got["omega-skew"] == (0, 1)
    assert got["phi-constant"] == (0, 1, 0, 0)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_skew_half_lambda_route_matches_full_tensors(data):
    """Catalog operators moved over Q(sqrt(2)) and paired: each operand's
    report (`_assert_skew_half_matches`) and the lambda^1 report, first
    violations included."""
    names = data.draw(st.sampled_from([["A_{3,2}", "A_{3,3}"], ["A_{4,2}", "A_{4,4}", "A_{4,5}"]]))
    moved = []
    for _ in range(2):
        op = catalog.catalog_get(data.draw(st.sampled_from(names))).operator().to_poly_operator()
        moved.append(ops.transform_poly_operator(op, data.draw(_invertible(_QSQRT2, op.n))))
    a, b = pencil.unify_operators(*moved)
    for x in (a, b):
        _assert_skew_half_matches(x)
    assert pencil.pencil_compatible_general(a, b).as_dict() == ref_lambda_report(a, b).as_dict()


# -- the general element and the series --------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_space_latex_matches_reference(data):
    pool = data.draw(_NUMBER_POOLS)
    n = data.draw(st.integers(1, 4))
    basis = data.draw(st.lists(_matrix(pool, n), max_size=3))
    symbol = data.draw(st.sampled_from(["t", "s"]))
    assert latexout.space_latex(basis, symbol) == ref_space_latex(basis, symbol)
    if basis:
        ring, general = inv.general_element(basis, symbol)
        ref_ring, ref = ref_general_element(basis, symbol)
        assert (ring, general) == (ref_ring, ref)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_det_minor_expansion_matches_per_term_sums(data):
    """Square matrices of linear forms in t1..t3, n = 0..5, over Q and Q(sqrt(2))."""
    pool = data.draw(_SCALAR_POOLS)
    ring = PolyRing([], ["t1", "t2", "t3"], d=2 if pool is _QSQRT2 else 0)
    ts = [ring.var(name) for name in ring.names]
    n = data.draw(st.integers(0, 5))
    m = [[dot(ring, [(data.draw(st.sampled_from(pool)), t) for t in ts]) for _ in range(n)]
         for _ in range(n)]
    got = inv._det_minor_expansion(ring, m)
    assert got.terms == ref_det_minor_expansion(ring, m).terms
    assert all(got.terms.values())


def test_det_minor_expansion_matches_per_term_sums_on_catalog_eta_families():
    for name in catalog.catalog_list():
        ring, general = inv.general_element(catalog._eta_directions(catalog.catalog_get(name)))
        assert inv._det_minor_expansion(ring, general).terms == \
            ref_det_minor_expansion(ring, general).terms, name


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


def _tensor_strings(c):
    return [[[str(x) for x in row] for row in plane] for plane in c]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coboundary_basis_matches_rref_slice(data):
    pool = data.draw(_SCALAR_POOLS)
    g = lie.LieAlgebra(data.draw(_tensor(pool, data.draw(st.integers(1, 4)))), _validated=True)
    assert inv.coboundary_basis(g) == ref_coboundary_basis(g)


def test_coboundary_basis_matches_rref_slice_on_catalog():
    for name in catalog.catalog_list():
        g = catalog.catalog_get(name).algebra
        assert _tensor_strings(inv.coboundary_basis(g)) == _tensor_strings(ref_coboundary_basis(g))


@pytest.mark.parametrize("build, ref_basis, sizes", [
    (lie.so_n, ref_so_basis, range(2, 7)),
    (lie.sl_n, ref_sl_basis, range(2, 6)),
])
def test_matrix_algebras_match_the_sparse_reduction(build, ref_basis, sizes):
    for n in sizes:
        c = build(n).c
        ref = ref_matrix_algebra_from_basis(ref_basis(n))
        assert c == tuple(tuple(tuple(row) for row in plane) for plane in ref)
        assert _tensor_strings(c) == _tensor_strings(ref)


@pytest.mark.parametrize("build, ref_basis, sizes", [
    (lie.so_n, ref_so_basis, range(2, 6)),
    (lie.sl_n, ref_sl_basis, range(2, 5)),
])
def test_matrix_algebras_match_sympy_commutators(build, ref_basis, sizes):
    """[B_i, B_j] by sympy matrix products, read in the basis by least squares
    over the flattened basis, which must reproduce the commutator exactly."""
    sp = pytest.importorskip("sympy")
    for n in sizes:
        mats = [sp.Matrix(m) for m in ref_basis(n)]
        columns = sp.Matrix.hstack(*(m.reshape(n * n, 1) for m in mats))
        coords_of = (columns.T * columns).inv() * columns.T
        c = build(n).c
        for i, x in enumerate(mats):
            for j, y in enumerate(mats):
                bracket = (x * y - y * x).reshape(n * n, 1)
                coords = coords_of * bracket
                assert columns * coords == bracket
                assert [sp.Rational(str(v)) for v in c[i][j]] == list(coords)


# -- the sparse readers ------------------------------------------------------


def _vector(pool, n):
    return st.lists(st.sampled_from(pool), min_size=n, max_size=n)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sparse_bracket_series_and_killing_match_dense_references(data):
    """On tensors skew or not, Jacobi or not: the readers of nonzero entries
    agree with the dense loops."""
    pool = data.draw(_SCALAR_POOLS)
    n = data.draw(st.integers(1, 5))
    g = lie.LieAlgebra(data.draw(_tensor(pool, n)), _validated=True)
    x, y = data.draw(_vector(pool, n)), data.draw(_vector(pool, n))
    assert [str(v) for v in g.bracket(x, y)] == [str(v) for v in ref_bracket(g, x, y)]
    assert g.bracket(x, y) == ref_bracket(g, x, y)
    assert _tensor_strings([lie.killing_form(g)]) == _tensor_strings([ref_killing_form(g)])
    assert lie.lower_central_series(g) == ref_lower_central_series(g)
    assert lie.derived_series(g) == ref_derived_series(g)


def test_killing_form_matches_reference_on_catalog_and_matrix_algebras():
    algebras = [catalog.catalog_get(name).algebra for name in catalog.catalog_list()]
    algebras += [lie.so_n(n) for n in range(2, 6)] + [lie.sl_n(n) for n in range(2, 5)]
    for g in algebras:
        assert _tensor_strings([lie.killing_form(g)]) == _tensor_strings([ref_killing_form(g)])


_LP_RING = ops.field_ring(3, ["alpha", "beta"], d=2)


@st.composite
def _any_polys(draw, ring, max_exponent=2):
    """Polynomials in every indeterminate of `ring`, affine in u or not."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        e = tuple(draw(st.integers(0, max_exponent)) for _ in ring.names)
        terms[e] = draw(st.sampled_from(_QSQRT2[5:]))
    return Poly(ring, terms)


def _terms_in_order(x):
    if isinstance(x, list):
        return [_terms_in_order(y) for y in x]
    return list(x.terms.items())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_linear_parts_matches_n_scan(data):
    """Term dicts equal in content and in order, on affine and non-affine omega."""
    omega = [[data.draw(_any_polys(_LP_RING)) for _ in range(3)] for _ in range(3)]
    assert _terms_in_order(list(ops.linear_parts(_LP_RING, omega))) == \
        _terms_in_order(list(ref_linear_parts(_LP_RING, omega)))


def test_linear_parts_matches_n_scan_on_catalog_operators():
    for name in catalog.catalog_list():
        entry = catalog.catalog_get(name)
        assert _terms_in_order(list(ops.linear_parts(entry.ring, entry.omega))) == \
            _terms_in_order(list(ref_linear_parts(entry.ring, entry.omega)))


_MODULI_RING = PolyRing(["u1"], ["alpha", "m1", "m2"], d=2)


def _value_or_error(read, *args):
    try:
        return [str(v) for v in read(*args)]
    except Exception as exc:  # the reference and the reader must fail alike
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_at_moduli_matches_subs(data):
    """`subs` values, or the non-constant error with its message, as the
    per-term evaluator gives them; entries in alpha or u1 often cancel at
    the moduli."""
    moduli = data.draw(st.sampled_from([{}, {"m1": Fraction(1, 2)},
                                        {"m1": Fraction(-2), "m2": Fraction(1, 3)}]))
    ring = _MODULI_RING
    pool = [ring.parse(t) for t in ("0", "3/2", "m1", "m1^2-1/4", "m1*m2+sqrt(2)",
                                    "alpha*m1-1/2*alpha", "u1*m2-1/3*u1", "alpha", "u1")]
    pool.append(data.draw(_any_polys(ring)))
    entries = [data.draw(st.sampled_from(pool)) for _ in range(data.draw(st.integers(0, 4)))]
    assert _value_or_error(catalog._at_moduli, entries, ring, moduli) == \
        _value_or_error(ref_at_moduli, entries, ring, moduli)


def test_at_moduli_matches_subs_on_catalog_entries():
    for name in catalog.catalog_list():
        entry = catalog.catalog_get(name)
        new = catalog._at_moduli(entry.c, entry.ring, entry.moduli)
        assert _tensor_strings(new) == _tensor_strings(ref_at_moduli(entry.c, entry.ring,
                                                                     entry.moduli))


_ETA_RING = PolyRing(["u1"], ["alpha", "beta", "m1"], d=2)


def _strings_or_error(read, *args):
    try:
        return _tensor_strings(read(*args))
    except Exception as exc:  # the reader and the reference must fail alike
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eta_directions_match_per_parameter_scans(data):
    """The directions, or the non-constant error with its message, as the
    k*n^2 scans give them: alpha^2 is dropped, alpha*beta and a leftover u1
    or unset modulus raise ShapeMismatchError."""
    ring = _ETA_RING
    n = data.draw(st.integers(1, 3))
    pool = [ring.parse(t) for t in ("0", "0", "alpha", "beta", "alpha-sqrt(2)*beta", "3/2",
                                    "alpha^2", "alpha^2+beta", "alpha*beta", "m1*alpha",
                                    "alpha*m1^2-1/2*beta+m1", "u1*beta")]
    pool.append(data.draw(_any_polys(ring)))
    entry = SimpleNamespace(
        dim=n, ring=ring,
        eta=[[data.draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)],
        eta_params=data.draw(st.sampled_from([["alpha"], ["alpha", "beta"], ["beta", "alpha"]])),
        moduli=data.draw(st.sampled_from([{}, {"m1": Fraction(1, 3)}])))
    assert _strings_or_error(catalog._eta_directions, entry) == \
        _strings_or_error(ref_eta_directions, entry)


def test_eta_directions_drop_higher_powers_and_refuse_products():
    ring = _ETA_RING
    entry = SimpleNamespace(dim=1, ring=ring, eta=[[ring.parse("alpha^2+2*beta")]],
                            eta_params=["alpha", "beta"], moduli={})
    assert _tensor_strings(catalog._eta_directions(entry)) == [[["0"]], [["2"]]]
    entry.eta = [[ring.parse("alpha*beta")]]
    with pytest.raises(ShapeMismatchError, match="^beta is not constant$"):
        catalog._eta_directions(entry)
    with pytest.raises(ShapeMismatchError, match="^beta is not constant$"):
        ref_eta_directions(entry)


def test_eta_directions_match_per_parameter_scans_on_catalog_entries():
    for name in catalog.catalog_list():
        entry = catalog.catalog_get(name)
        assert _tensor_strings(catalog._eta_directions(entry)) == \
            _tensor_strings(ref_eta_directions(entry)), name


# readable literals, repeated ones, and literals that fail in different ways
_LITERALS = ["0", "0", "0", " 0", "1", "u1", "alpha", "-alpha+1/2", "sqrt(2)*u2", "u1^2*beta",
             "", "u1+", "2*", "zeta", "(1", "sqrt(3)", "1/0"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parse_matrix_matches_per_entry_parse(data):
    """The same values, or the same first error, as parsing every entry on
    its own; equal entry texts share one polynomial."""
    n = data.draw(st.integers(1, 3))
    lengths = st.sampled_from([n] * 6 + [n - 1, n + 1])
    rows = [",".join(data.draw(st.lists(st.sampled_from(_LITERALS), min_size=k, max_size=k)))
            for k in data.draw(st.lists(lengths, min_size=max(n - 1, 0), max_size=n + 1))]
    if rows and data.draw(st.booleans()):
        rows.insert(data.draw(st.integers(0, len(rows))), " ")  # a blank row, skipped
    text = ";".join(rows)

    def read(parse):
        try:
            return _terms_in_order(parse(_LP_RING, text, n, "eta"))
        except Exception as exc:
            return type(exc), str(exc)

    got = read(ops.parse_matrix)
    assert got == read(ref_parse_matrix)
    if isinstance(got, list):
        m = ops.parse_matrix(_LP_RING, text, n, "eta")
        texts = [x for r in text.split(";") if r.strip() for x in r.split(",")]
        entries = [x for row in m for x in row]
        for t, x in zip(texts, entries):
            assert x is entries[texts.index(t)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pair_solve_matches_monomial_grouping(data):
    """Rows summed straight into one dict give the kernel the grouping layer
    gives, with repeated columns, cancelling pairs and -1 markers."""
    d = data.draw(st.sampled_from([0, 2, 3]))
    ncols = data.draw(st.integers(1, 5))
    coeff = st.tuples(st.integers(-2, 2), st.integers(-2, 2) if d else st.just(0)).filter(any)
    marker = st.tuples(st.integers(0, ncols - 1), st.sampled_from([1, -1]))
    equations = []
    for key in range(data.draw(st.integers(0, 6))):
        eq = data.draw(st.lists(st.tuples(coeff, marker), max_size=6))
        if eq and data.draw(st.booleans()):  # a pair and its negation cancel
            ab, (col, sign) = data.draw(st.sampled_from(eq))
            eq.insert(data.draw(st.integers(0, len(eq))), (ab, (col, -sign)))
        equations.append((key, eq))
    assert lie.solve(equations, ncols, d) == ref_solve_pairs(equations, ncols, d)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_first_asymmetry_matches_pairwise_reference(data):
    pool = data.draw(st.sampled_from([_Q, _QSQRT2, _POLY]))
    n = data.draw(st.integers(1, 4))
    m = data.draw(_matrix(pool, n))
    c = data.draw(_tensor(pool, n))
    for x in (m, c):
        for skew in (False, True):
            assert linalg.first_asymmetry(x, skew) == ref_first_asymmetry(x, skew)


# -- sympy: the Killing form and the series ------------------------------------


def _sympy_scalar(sp, x):
    value = sp.Rational(x.a.numerator, x.a.denominator)
    return value + sp.Rational(x.b.numerator, x.b.denominator) * sp.sqrt(x.d) if x.d else value


def _sympy_ad(sp, g):
    """ad(e_i) as sympy matrices, (ad e_i)_{kj} = c^{ij}_k."""
    n = g.dim
    return [sp.Matrix(n, n, lambda k, j: _sympy_scalar(sp, g.c[i][j][k])) for i in range(n)]


def _sympy_series(sp, ad, lower):
    """Dimensions of the lower central or derived series as ranks of spans of
    ad images: [x, y] = sum_i x_i ad(e_i) y."""
    n = len(ad)
    full = current = [sp.eye(n)[:, i] for i in range(n)]
    dims = [n]
    while dims[-1]:
        ad_x = [sum((x[i] * ad[i] for i in range(n) if x[i]), sp.zeros(n, n))
                for x in (full if lower else current)]
        images = [a * y for a in ad_x for y in current]
        current = sp.Matrix.hstack(*images).columnspace()
        if len(current) == dims[-1]:
            break
        dims.append(len(current))
    return dims


def _oracle_algebras():
    algebras = [(name, catalog.catalog_get(name).algebra) for name in catalog.catalog_list()]
    algebras += [(f"so_{n}", lie.so_n(n)) for n in range(2, 6)]
    return algebras + [(f"sl_{n}", lie.sl_n(n)) for n in range(2, 6)]


@pytest.mark.parametrize("name, g", _oracle_algebras(), ids=[n for n, _ in _oracle_algebras()])
def test_killing_form_and_series_match_sympy(name, g):
    """K(x, y) = tr(ad x ad y), read as vec(ad e_i) . vec(ad(e_j)^T)."""
    sp = pytest.importorskip("sympy")
    ad = _sympy_ad(sp, g)
    n = g.dim
    vec = sp.Matrix([list(a) for a in ad])
    vec_transposed = sp.Matrix([list(a.T) for a in ad])
    killing = sp.expand(vec * vec_transposed.T) if n else sp.zeros(0, 0)
    k = lie.killing_form(g)
    ours = sp.Matrix(n, n, lambda i, j: _sympy_scalar(sp, k[i][j]))
    assert ours == killing
    assert lie.lower_central_series(g) == _sympy_series(sp, ad, lower=True)
    assert lie.derived_series(g) == _sympy_series(sp, ad, lower=False)


# -- the support table against the Scalar readers --------------------------------


def _table_as_scalars(g):
    table = g._table
    return [[[(k, Scalar(Fraction(a, table.den), Fraction(b, table.den), table.d))
              for k, (a, b) in row] for row in plane] for plane in table.rows]


def _assert_table_readers_match(g):
    """The table, the generators, the three bases, the coboundaries, the center,
    the tags and `jacobi_defect` (keys, order and values) against the references."""
    n, c = g.dim, g.c
    cz = lie.support_rows(c)
    assert _table_as_scalars(g) == cz == [[ref_support(row) for row in plane] for plane in c]
    sym = inv._unknowns(n, inv.sym_pairs(n), False)
    skew = inv._unknowns(n, inv.skew_pairs(n), True)
    markers = [(j, 1) for j in range(n)]
    assert list(lie.jacobi_terms(cz, cz)) == list(ref_jacobi_terms(c, c))
    assert list(lie.casimir_terms(cz, sym)) == list(ref_casimir_terms(c, sym))
    assert list(lie.metric_terms(cz, sym)) == list(ref_metric_terms(c, sym))
    assert list(lie.cocycle_terms(cz, skew)) == list(ref_cocycle_terms(c, skew))
    assert list(lie.center_terms(cz, markers)) == list(ref_center_terms(c, markers))
    cas, met, coc = ref_spaces(g)
    cocycles = inv.two_cocycle_space(g)
    for new, ref in ((inv.quadratic_casimir_space(g).basis, cas),
                     (inv.compatible_metric_space(g).basis, met),
                     (cocycles.basis, coc), (cocycles.coboundary_basis, ref_coboundary_basis(g)),
                     ([lie.center(g)], [ref_center(g)])):
        assert _tensor_strings(new) == _tensor_strings(ref)
    assert lie.structure_tags(g) == ref_structure_tags(g)
    defect = lie.jacobi_defect(c)
    ref_defect = dict(lie.defect(ref_jacobi_terms(c, c)))
    assert list(defect) == list(ref_defect)
    assert [str(v) for v in defect.values()] == [str(v) for v in ref_defect.values()]


def _constructor_verdict(c):
    try:
        lie.LieAlgebra(c)
    except NotALieAlgebraError as exc:
        return str(exc)
    return None


def ref_constructor_verdict(c):
    """The parent constructor's checks: `first_asymmetry`, then the Scalar Jacobi defect."""
    if linalg.first_asymmetry(c, skew=True) is not None:
        return "structure tensor is not skew in the upper pair"
    defect = dict(lie.defect(ref_jacobi_terms(c, c)))
    if defect:
        key = min(defect)
        return f"Jacobi identity fails, first violation at (i,j,k,m)={key}: {defect[key]}"
    return None


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_support_table_readers_match_scalar_references_on_random_tensors(data):
    """Over Q and Q(sqrt(2)), skew or not, Jacobi or not."""
    pool = data.draw(_SCALAR_POOLS)
    c = data.draw(_tensor(pool, data.draw(st.integers(1, 4))))
    assert _constructor_verdict(c) == ref_constructor_verdict(c)
    _assert_table_readers_match(lie.LieAlgebra(c, _validated=True))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_support_table_readers_match_scalar_references_over_sqrt2(data):
    """Lie algebras over Q(sqrt(2)): a catalogued algebra moved by a sqrt(2) matrix."""
    g = data.draw(st.sampled_from(_ALGEBRAS + [lie.n52(), lie.abelian(2)]))
    a = data.draw(_invertible(_QSQRT2, g.dim))
    assume(any(x.d for row in a for x in row))
    moved = ops.change_basis(g, a)
    assert moved.field_tag() == next((x.d for plane in moved.c for row in plane for x in row
                                      if x.d), 0)
    _assert_table_readers_match(moved)


def test_support_table_readers_match_scalar_references_on_catalog_and_matrix_algebras():
    algebras = [catalog.catalog_get(name).algebra for name in catalog.catalog_list()]
    algebras += [lie.so_n(n) for n in range(2, 6)] + [lie.sl_n(n) for n in range(2, 5)]
    for g in algebras:
        _assert_table_readers_match(g)


def test_bracket_reads_the_table_with_coordinates_over_sqrt2():
    g = lie.LieAlgebra.from_brackets(3, {(0, 1): {2: Fraction(1, 2)}, (1, 2): {0: 3}})
    x = [Scalar(0, 1, 2), Scalar(Fraction(2, 3)), Scalar(0)]
    y = [Scalar(1), Scalar(Fraction(1, 5), 1, 2), Scalar(-1)]
    assert g.bracket(x, y) == ref_bracket(g, x, y)
    assert g.bracket(x, x) == [Scalar(0)] * 3


# -- sympy: the dimensions of the three spaces ------------------------------------


def _sympy_rank(sp, rows, ncols):
    """Rank over QQ of sparse rows {column: rational}, as a sympy DomainMatrix."""
    from sympy.polys.matrices import DomainMatrix

    rows = [row for row in rows if any(row.values())]
    if not rows or not ncols:
        return 0
    entries = {r: {k: sp.QQ(v) for k, v in row.items() if v} for r, row in enumerate(rows)}
    return DomainMatrix(entries, (len(rows), ncols), sp.QQ).rank()


def _sympy_space_dims(sp, g):
    """(dim Casimirs, dim metrics, dim Z^2, dim B^2, Killing nondegenerate), each an
    unknown count minus the rank of a system written here entry by entry."""
    n = g.dim
    c = [[[Fraction(x.a) for x in row] for row in plane] for plane in g.c]
    sym_index = {p: k for k, p in enumerate((i, j) for i in range(n) for j in range(i, n))}
    skew_index = {p: k for k, p in enumerate((i, j) for i in range(n) for j in range(i + 1, n))}

    def sym_var(i, j):
        return sym_index[min(i, j), max(i, j)]

    def skew_var(i, j):
        return (skew_index[i, j], 1) if i < j else (skew_index[j, i], -1)

    def add(row, col, value):
        row[col] = row.get(col, 0) + value

    casimir, metric = [], []
    for i, j in sym_index:
        for k in range(n):
            cas_row, met_row = {}, {}
            for s in range(n):  # a_is c^{sk}_j + a_js c^{sk}_i ; eta^is c^{jk}_s + eta^js c^{ik}_s
                add(cas_row, sym_var(i, s), c[s][k][j])
                add(cas_row, sym_var(j, s), c[s][k][i])
                add(met_row, sym_var(i, s), c[j][k][s])
                add(met_row, sym_var(j, s), c[i][k][s])
            casimir.append(cas_row)
            metric.append(met_row)
    cocycle = []
    for i, j, k in ((i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)):
        row = {}
        for (a, b), last in (((i, j), k), ((j, k), i), ((k, i), j)):
            for s in range(n):
                if s != last and c[a][b][s]:
                    col, sign = skew_var(s, last)
                    add(row, col, sign * c[a][b][s])
        cocycle.append(row)
    coboundary = [{skew_index[p]: c[p[0]][p[1]][k] for p in skew_index} for k in range(n)]
    killing = [{j: sum(c[i][l][m] * c[j][m][l] for l in range(n) for m in range(n))
                for j in range(n)} for i in range(n)]
    nsym, nskew = len(sym_index), len(skew_index)
    return (nsym - _sympy_rank(sp, casimir, nsym), nsym - _sympy_rank(sp, metric, nsym),
            nskew - _sympy_rank(sp, cocycle, nskew), _sympy_rank(sp, coboundary, nskew),
            n > 0 and _sympy_rank(sp, killing, n) == n)


def _space_oracle_algebras():
    algebras = [(name, catalog.catalog_get(name).algebra) for name in catalog.catalog_list()]
    algebras += [(f"so_{n}", lie.so_n(n)) for n in range(3, 7)]
    return algebras + [(f"sl_{n}", lie.sl_n(n)) for n in range(2, 5)]


@pytest.mark.parametrize("name, g", _space_oracle_algebras(),
                         ids=[n for n, _ in _space_oracle_algebras()])
def test_space_dimensions_match_sympy_ranks(name, g):
    sp = pytest.importorskip("sympy")
    assert g.field_tag() == 0
    cas, met, z2, b2, semisimple = _sympy_space_dims(sp, g)
    cocycles = inv.two_cocycle_space(g)
    assert (inv.quadratic_casimir_space(g).dim, inv.compatible_metric_space(g).dim,
            cocycles.dim, len(cocycles.coboundary_basis)) == (cas, met, z2, b2)
    assert lie.structure_tags(g).semisimple == semisimple
    if semisimple:  # Whitehead's second lemma: H^2 = 0
        assert z2 - b2 == 0 == cocycles.h2_dim


# -- the integer form against the three encoders it replaced ---------------------

# sqrt(3) values join the Q(sqrt(2)) pool only to be refused with it
_MIXED = _QSQRT2 + [Scalar(0, 1, 3)]
_ENCODER_POOLS = st.sampled_from([_Q, _QSQRT2, _QSQRT3, _MIXED])


def _outcome(call):
    """call(), or the type of the FieldMismatchError it raises."""
    try:
        return call()
    except FieldMismatchError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_polynomial_integer_form_matches_the_deleted_encoder(data):
    pool = data.draw(_ENCODER_POOLS)
    ring = PolyRing(["u1", "u2"], ["alpha"])
    exps = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=6, unique=True))
    p = Poly(ring, {e: data.draw(st.sampled_from(pool)) for e in exps})
    form, ref = _outcome(lambda: poly._int_form(p)), _outcome(lambda: ref_poly_int_form(p))
    if ref is FieldMismatchError:
        assert form is FieldMismatchError
    else:
        d, den, terms = form
        assert (d, den, [(a, b) for _, a, b in terms]) == ref
        assert [key for key, _, _ in terms] == [
            int.from_bytes(ring._exp_struct.pack(*e), "little") for e in p.terms]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_rows_match_the_deleted_encoder(data):
    """One common denominator now, one per row before: each row is the
    reference row times L over its own denominator, explicit zeros dropped."""
    pool = data.draw(_ENCODER_POOLS)
    ncols = data.draw(st.integers(1, 5))
    rows = [{j: data.draw(st.sampled_from(pool)) for j in range(ncols)
             if data.draw(st.booleans())} for _ in range(data.draw(st.integers(0, 5)))]
    new = _outcome(lambda: linalg._integer_rows(rows))
    ref = _outcome(lambda: ref_integer_rows(rows))
    if ref is FieldMismatchError:
        assert new is FieldMismatchError
    else:
        (d, den, int_rows), (ref_d, ref_rows) = new, ref
        assert d == ref_d and den == lcm(*[scale for _, scale in ref_rows])
        assert int_rows == [{c: (a * (den // scale), b * (den // scale))
                             for c, (a, b) in row.items()} for row, scale in ref_rows]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_support_table_matches_the_deleted_encoder(data):
    pool = data.draw(_ENCODER_POOLS)
    c = lie._freeze_tensor(data.draw(_tensor(pool, data.draw(st.integers(1, 4)))))
    assert _outcome(lambda: tuple(lie._support_table(c))) == _outcome(lambda: ref_support_table(c))


def test_support_table_matches_the_deleted_encoder_on_catalog_algebras():
    for name in catalog.catalog_list():
        c = catalog.catalog_get(name).algebra.c
        assert tuple(lie._support_table(c)) == ref_support_table(c)
