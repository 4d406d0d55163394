"""Hamiltonian operators of type 1+0 with constant leading coefficient.

Two views of the same object:

* DarbouxOperator: a triple (structure tensor c, constant symmetric eta,
  constant skew f) so the zero-order part is omega = c.u + f.  The three
  defining identities (Jacobi, cocycle, metric compatibility) are checked
  exactly, identically in any formal parameters carried by the entries.

* PolyOperator: a constant symmetric g plus an arbitrary polynomial skew
  omega(u); the first-order Christoffel part is fixed to zero.  The general
  verifier checks skewness, the Schouten identity, cyclic symmetry of
  Phi^{ijk} = g^{is} d omega^{jk} / d u^s and constancy of Phi.  Both
  identities are bilinear (`schouten_terms`, `phi_sum`), so the pencil's
  lambda route reads its lambda^1 coefficient through the same code.  The
  omega-skew condition is decided first; for a skew omega Phi is skew in
  j, k, so only j <= k is summed and the rest is filled in by negation
  (`phi_sum`).

The views meet in one reader and one transport: `linear_parts` reads
omega = c.u + f back as (c, f) in one pass over the terms of each entry,
and `darboux_view` turns an affine-omega PolyOperator into a triple;
`transform_poly_operator` moves an operator by a basis change (the one
basis-change law of the package), `transform_darboux` is that move read
back as a triple and `change_basis` the move of a Lie-Poisson operator
omega = c.u read back as a `LieAlgebra`.
`PolyOperator.embedded` is the one move of an operator into a larger ring.

Verification never raises on a failing condition; failures land in the
returned report with the first violating index tuple and its residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import (
    DarbouxOpsError,
    MetricIncompatibleError,
    NonHydrodynamicDensityError,
    NotACocycleError,
    ParseError,
    ShapeMismatchError,
)
from .lie import (
    LieAlgebra,
    cocycle_terms,
    cyclic_triples,
    defect,
    first_violation,
    jacobi_terms,
    metric_terms,
    solve,
    support_rows,
)
from .poly import Poly, PolyRing, _poly, dot, ring_embedding
from .scalars import Scalar, field_tag, join_field_tags

PolyMatrix = List[List[Poly]]


def field_ring(n: int, params: Sequence[str] = (), d: int = 0) -> PolyRing:
    return PolyRing([f"u{i + 1}" for i in range(n)], params, d=d)


def _lift_entry(ring: PolyRing, x) -> Poly:
    if isinstance(x, Poly):
        if x.ring is not ring and x.ring != ring:
            raise ShapeMismatchError(f"an entry from {x.ring!r} in an operator over {ring!r}")
        return x
    if isinstance(x, str):
        return ring.parse(x)
    return ring.const(Scalar.of(x))


def lift_matrix(ring: PolyRing, m: Sequence[Sequence]) -> PolyMatrix:
    return [[_lift_entry(ring, x) for x in row] for row in m]


def lift_tensor(ring: PolyRing, c: Sequence[Sequence[Sequence]]):
    return [[[_lift_entry(ring, x) for x in row] for row in plane] for plane in c]


def parse_matrix(ring: PolyRing, text: str, n: int, kind: str) -> PolyMatrix:
    """The n x n matrix displayed as "a,b;c,d": rows split on ";", blank rows
    skipped, and entries on ",".  The row count is checked before any entry
    is parsed, then the row lengths; either mismatch is a ParseError naming
    `kind`.  Each distinct entry text is parsed once, and its entries share
    the one immutable `Poly` (most displayed entries are "0")."""
    rows = [r for r in text.split(";") if r.strip()]
    if len(rows) != n:
        raise ParseError(f"{kind} needs {n} rows, got {len(rows)}")
    read = {}
    m = [[read[x] if x in read else read.setdefault(x, ring.parse(x)) for x in row.split(",")]
         for row in rows]
    if any(len(row) != n for row in m):
        raise ParseError(f"{kind} rows need {n} entries each")
    return m


@dataclass
class ConditionResult:
    name: str
    ok: bool
    first_violation: Optional[tuple] = None
    residual: Optional[str] = None

    def record(self) -> dict:
        """{name, ok, first_violation}, as every report prints a condition
        (`VerificationReport.as_dict` adds the residual)."""
        return {"name": self.name, "ok": self.ok,
                "first_violation": list(self.first_violation) if self.first_violation else None}


@dataclass
class VerificationReport:
    conditions: List[ConditionResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.conditions)

    def add(self, name: str, violation: Optional[tuple], residual=None):
        self.conditions.append(
            ConditionResult(
                name,
                violation is None,
                violation,
                None if residual is None else str(residual),
            )
        )

    def failed_names(self) -> List[str]:
        return [c.name for c in self.conditions if not c.ok]

    def as_dict(self) -> dict:
        return {"passed": self.passed,
                "conditions": [{**c.record(), "residual": c.residual} for c in self.conditions]}


def _check_shape(ring: PolyRing, n: int, *blocks: Tuple[object, int]) -> None:
    """ShapeMismatchError unless `ring` has n field variables and each
    (block, depth) is an n x ... x n nested list `depth` levels deep."""
    def fits(m, depth):
        return len(m) == n and (depth == 1 or all(fits(x, depth - 1) for x in m))

    fields = len(ring.field_indices())
    if fields != n:
        raise ShapeMismatchError(
            f"operator of dimension {n} over a ring with {fields} field variables")
    if not all(fits(m, depth) for m, depth in blocks):
        raise ShapeMismatchError("operator blocks disagree in dimension")


class DarbouxOperator:
    """Validated triple (c, eta, f); omega = c.u + f."""

    __slots__ = ("ring", "n", "c", "eta", "f")

    def __init__(self, ring: PolyRing, c, eta, f, _checked=False):
        n = len(eta)
        _check_shape(ring, n, (c, 3), (eta, 2), (f, 2))
        cp = lift_tensor(ring, c)
        etap = lift_matrix(ring, eta)
        fp = lift_matrix(ring, f)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", cp)
        object.__setattr__(self, "eta", etap)
        object.__setattr__(self, "f", fp)
        if not _checked:
            report = verify_darboux(self)
            if not report.passed:
                bad = report.failed_names()
                if "metric-compatibility" in bad or "eta-symmetric" in bad:
                    raise MetricIncompatibleError(f"conditions failed: {bad}")
                if "cocycle" in bad or "f-skew" in bad:
                    raise NotACocycleError(f"conditions failed: {bad}")
                raise ShapeMismatchError(f"conditions failed: {bad}")

    def __setattr__(self, *_):
        raise AttributeError("DarbouxOperator is immutable")

    def omega(self) -> PolyMatrix:
        ring = self.ring
        uvars = [ring.var(ring.names[i]) for i in ring.field_indices()]
        n = self.n
        return [
            [self.f[i][j] + dot(ring, [(self.c[i][j][k], uvars[k]) for k in range(n)])
             for j in range(n)]
            for i in range(n)
        ]

    def to_poly_operator(self) -> "PolyOperator":
        return PolyOperator(self.ring, self.eta, self.omega(), _checked=True)


def build_darboux(g: LieAlgebra, eta, f, params: Sequence[str] = ()) -> DarbouxOperator:
    """Validated Darboux operator from a Lie algebra and constant blocks.

    eta must solve the metric-compatibility equations of g and f must be a
    2-cocycle; violations raise METRIC_INCOMPATIBLE / NOT_A_COCYCLE.
    """
    ring = field_ring(g.dim, params, d=g.field_tag())
    return DarbouxOperator(ring, g.c, eta, f)


def verify_darboux(op) -> VerificationReport:
    """Check the three defining identities on a (c, eta, f) triple.

    Accepts a DarbouxOperator or any object with .c/.eta/.f poly entries;
    unvalidated triples are welcome, failures are reported not raised.
    """
    c, eta, f = op.c, op.eta, op.f
    report = VerificationReport()
    skew_c = linalg.first_asymmetry(c, skew=True)
    report.add("c-skew", skew_c)
    report.add("eta-symmetric", linalg.first_asymmetry(eta))
    report.add("f-skew", linalg.first_asymmetry(f, skew=True))
    cz = support_rows(c)
    if skew_c is None:
        key, value = next(defect(jacobi_terms(cz, cz)), (None, None))
        report.add("jacobi", key, value)
    else:
        report.add("jacobi", skew_c)
    report.add("cocycle", first_violation(cocycle_terms(cz, f)))
    report.add("metric-compatibility", first_violation(metric_terms(cz, eta)))
    return report


class PolyOperator:
    """g d_x + omega(u) with g constant symmetric and b = 0."""

    __slots__ = ("ring", "n", "g", "omega")

    def __init__(self, ring: PolyRing, g, omega, _checked=False):
        n = len(g)
        _check_shape(ring, n, (g, 2), (omega, 2))
        gp = lift_matrix(ring, g)
        om = lift_matrix(ring, omega)
        if not _checked:
            if not all(x.is_u_free() for row in gp for x in row):
                raise ShapeMismatchError("leading coefficient must be constant in u")
            if linalg.first_asymmetry(gp) is not None:
                raise ShapeMismatchError("leading coefficient must be symmetric")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "g", gp)
        object.__setattr__(self, "omega", om)

    def __setattr__(self, *_):
        raise AttributeError("PolyOperator is immutable")

    def embedded(self, ring: PolyRing, renames=None) -> "PolyOperator":
        """The same operator over `ring`, indeterminates matched by name (`ring_embedding`)."""
        lift = ring_embedding(self.ring, ring, renames)
        return PolyOperator(ring, [[lift(x) for x in row] for row in self.g],
                            [[lift(x) for x in row] for row in self.omega], _checked=True)


def field_jacobian(ring: PolyRing, omega: PolyMatrix):
    """d omega^{jk} / d u^s, indexed [j][k][s]."""
    n = len(omega)
    fidx = ring.field_indices()
    return [[[omega[j][k].partial(fidx[s]) for s in range(n)] for k in range(n)] for j in range(n)]


def phi_sum(ring: PolyRing, *factors, skew: bool = False) -> list:
    """Phi^{ijk} = sum over the (g, domega) factors of g^{is} domega[j][k][s].

    One factor gives the Phi tensor of an operator (`phi_tensor`).  With
    `skew` (every domega skew in j, k, as the Jacobian of a skew omega is)
    only j <= k is summed and Phi^{ikj} is the negation of Phi^{ijk}.
    """
    n = len(factors[0][0])
    phi = [
        [[dot(ring, [(x, y) for g, domega in factors for x, y in zip(g[i], domega[j][k])
                     if x and y]) if j <= k or not skew else None for k in range(n)]
         for j in range(n)]
        for i in range(n)
    ]
    if skew:
        for plane in phi:
            for j in range(n):
                for k in range(j):
                    plane[j][k] = -plane[k][j]
    return phi


def phi_tensor(op: PolyOperator, domega=None):
    """Phi^{ijk} = g^{is} d omega^{jk} / d u^s (b = 0), the full n^3 tensor.

    `domega` is `field_jacobian(op.ring, op.omega)`, computed when not given.
    """
    if domega is None:
        domega = field_jacobian(op.ring, op.omega)
    return phi_sum(op.ring, (op.g, domega))


def schouten_terms(omega, domega):
    """S^{ijk} = omega^{is} domega[j][k][s] + omega^{js} domega[k][i][s]
    + omega^{ks} domega[i][j][s], i < j < k: with domega the Jacobian of
    omega (`field_jacobian`), the Schouten-Jacobi identity.

    A `lie`-style generator of ((i, j, k), pairs) over `lie.cyclic_triples`,
    skipping zero factors and keys without a product.
    """
    for key, cyclic in cyclic_triples(len(omega)):
        pairs = [(x, y) for (p, q), r in cyclic for x, y in zip(omega[p], domega[q][r])
                 if x and y]
        if pairs:
            yield key, pairs


def _first_field(p: Poly, fidx) -> Optional[int]:
    """The least r such that a term of p has a positive exponent of the
    field variable at index fidx[r], or None when p is constant in u."""
    return min((r for e in p.terms for r, i in enumerate(fidx) if e[i]), default=None)


def hamiltonian_report(ring: PolyRing, skew: Optional[tuple], schouten: Optional[tuple],
                       phi) -> VerificationReport:
    """The report of `verify_hamiltonian`: the given omega-skew and Schouten
    violations, then Phi^{ijk} = Phi^{kij} and Phi constant in u read off
    `phi`.  Poly terms are canonical, so equal terms mean a zero difference
    and a term with a positive exponent of u^r means a nonzero d/du^r.

    Each entry of Phi is read once for constancy.  When omega is skew
    (`skew` is None) Phi is skew in j, k, so the first non-constant entry
    has j <= k and only those entries are read.
    """
    n = len(phi)
    report = VerificationReport()
    report.add("omega-skew", skew)
    report.add("schouten", schouten)
    report.add("phi-cyclic-symmetry", next(
        ((i, j, k) for i in range(n) for j in range(n) for k in range(n)
         if phi[i][j][k].terms != phi[k][i][j].terms),
        None,
    ))
    fidx = ring.field_indices()
    keys = ((i, j, k, _first_field(phi[i][j][k], fidx)) for i in range(n) for j in range(n)
            for k in range(j if skew is None else 0, n))
    report.add("phi-constant", next((key for key in keys if key[3] is not None), None))
    return report


def verify_hamiltonian(op: PolyOperator, domega=None) -> VerificationReport:
    """Hamiltonianity of g d_x + omega with constant symmetric g, b = 0.

    Conditions: omega skew; Schouten-Jacobi identity; Phi^{ijk} = Phi^{kij};
    Phi constant in u (`hamiltonian_report`).  A pass means every identity
    holds identically in the field variables and all formal parameters.
    The omega-skew condition is decided first; when it holds, Phi is built
    on j <= k (`phi_sum`).  `domega` is `field_jacobian(op.ring, op.omega)`,
    computed when not given, and shared by the Schouten and Phi checks.
    """
    ring, omega = op.ring, op.omega
    skew = linalg.first_asymmetry(omega, skew=True)
    if domega is None:
        domega = field_jacobian(ring, omega)
    return hamiltonian_report(ring, skew, first_violation(schouten_terms(omega, domega)),
                              phi_sum(ring, (op.g, domega), skew=skew is None))


def apply_to_density(op: PolyOperator, h: Poly) -> Tuple[PolyMatrix, List[Poly]]:
    """Quasilinear system u^i_t = V^i_k(u) u^k_x + W^i(u) from a density h(u).

    V^i_k = g^{ij} d2h/du^j du^k and W^i = omega^{ij} dh/du^j.  The density
    must be hydrodynamic: a polynomial in the field variables (parameters
    are allowed as coefficients).
    """
    ring = op.ring
    if h.ring != ring:
        raise ShapeMismatchError("density lives in a different ring")
    n = op.n
    fidx = ring.field_indices()
    grad = [h.partial(fidx[j]) for j in range(n)]
    hess = [[grad[j].partial(fidx[k]) for k in range(n)] for j in range(n)]
    v = [[dot(ring, [(op.g[i][j], hess[j][k]) for j in range(n)]) for k in range(n)]
         for i in range(n)]
    w = [dot(ring, [(op.omega[i][j], grad[j]) for j in range(n)]) for i in range(n)]
    return v, w


def parse_density(op: PolyOperator, text: str) -> Poly:
    """Parse a hydrodynamic density; reject any non-field indeterminate.

    Only the package's typed errors become NonHydrodynamicDensityError;
    any other exception is a bug and propagates.
    """
    try:
        h = op.ring.parse(text)
    except DarbouxOpsError as exc:
        raise NonHydrodynamicDensityError(
            f"density must be polynomial in the field variables: {exc}"
        ) from exc
    for idx in op.ring.param_indices():
        if h.depends_on(idx):
            raise NonHydrodynamicDensityError(
                f"density depends on parameter {op.ring.names[idx]!r}"
            )
    return h


def transform_darboux(op: DarbouxOperator, a: Sequence[Sequence]) -> DarbouxOperator:
    """Push forward along u~^i = a^i_l u^l: `transform_poly_operator` of
    g = eta, omega = c.u + f, read back as a verified triple (`linear_parts`).

    The result lives over the joined field of the operator and the matrix.
    """
    moved = transform_poly_operator(op.to_poly_operator(), a)
    c, f = linear_parts(moved.ring, moved.omega)
    return DarbouxOperator(moved.ring, c, moved.g, f)


def _two_tensor(ring: PolyRing, a, m: PolyMatrix) -> PolyMatrix:
    """(2,0) law a^i_k m^{kl} a^j_l, with a a Scalar matrix.

    One index is contracted at a time, m^{kl} a^j_l and then a^i_k:
    2 n^3 products instead of n^4.
    """
    n = len(a)
    half = [[dot(ring, [(x, y) for x, y in zip(m[k], a[j]) if x and y]) for j in range(n)]
            for k in range(n)]
    return [[dot(ring, [(a[i][k], half[k][j]) for k in range(n) if a[i][k] and half[k][j]])
             for j in range(n)] for i in range(n)]


def transform_poly_operator(op: PolyOperator, a: Sequence[Sequence]) -> PolyOperator:
    """(2,0) transport of a general operator, substituting u = a^{-1} u~.

    The result lives over the joined field of the operator and the matrix
    (`join_field_tags`), so a rational operator moved by a sqrt(d) matrix
    is written with field_sqrt d.
    """
    n = op.n
    amat = [[Scalar.of(x) for x in row] for row in a]
    if len(amat) != n or any(len(row) != n for row in amat):
        raise ShapeMismatchError(f"basis-change matrix must be {n} x {n}")
    b = linalg.inverse(amat)  # raises SingularMatrixError
    ring = op.ring
    d = join_field_tags(ring.d, field_tag(x for row in amat for x in row),
                        "operator over sqrt({}) moved by a matrix over sqrt({})")
    if d != ring.d:
        ring = PolyRing([ring.names[i] for i in ring.field_indices()],
                        [ring.names[i] for i in ring.param_indices()], d=d)
        op = op.embedded(ring)
    fnames = [ring.names[i] for i in ring.field_indices()]
    uvars = [ring.var(name) for name in fnames]
    subs_map = {
        fnames[l]: dot(ring, [(b[l][m], uvars[m]) for m in range(n)]) for l in range(n)
    }
    omega_sub = [[op.omega[k][l].subs(subs_map) for l in range(n)] for k in range(n)]
    return PolyOperator(ring, _two_tensor(ring, amat, op.g),
                        _two_tensor(ring, amat, omega_sub), _checked=True)


def change_basis(g: LieAlgebra, a: Sequence[Sequence]) -> LieAlgebra:
    """Transport by u~^i = a^i_l u^l: `transform_poly_operator` of the
    Lie-Poisson operator of g (omega = c.u, eta = f = 0), whose c is read
    back (`linear_parts`) into a `LieAlgebra`, so skewness and Jacobi are
    checked again.  c~^{ij}_k = a^i_l a^j_m c^{lm}_s b^s_k, b = a^{-1}.
    """
    zero = [[0] * g.dim for _ in range(g.dim)]
    op = DarbouxOperator(field_ring(g.dim, d=g.field_tag()), g.c, zero, zero, _checked=True)
    moved = transform_poly_operator(op.to_poly_operator(), a)
    c, _ = linear_parts(moved.ring, moved.omega)
    return LieAlgebra([[[x.constant_value() for x in row] for row in plane] for plane in c])


def operator_casimir_functionals(op: DarbouxOperator) -> List[linalg.Vector]:
    """Linear densities a_i u^i with omega^{ij}(u) a_j = 0, that is A grad(a.u) = 0,
    identically in u and every parameter (`lie.solve`)."""
    equations = (((i,), [(x, (j, 1)) for j, x in enumerate(row) if x])
                 for i, row in enumerate(op.omega()))
    return solve(equations, op.n)


def nonaffine_entry(ring: PolyRing, omega: PolyMatrix) -> Optional[Tuple[int, int]]:
    """The first (i, j) with omega[i][j] of degree above 1 in the field
    variables, or None when omega is affine in u (has a Darboux form)."""
    fidx = ring.field_indices()
    for i, row in enumerate(omega):
        for j, entry in enumerate(row):
            if entry.degree_on(fidx) > 1:
                return i, j
    return None


def linear_parts(ring: PolyRing, matrix: PolyMatrix, indices: Optional[Sequence[int]] = None):
    """Read matrix = c.x + f on the indeterminates x^k at `indices` (by
    default the field variables u): c[i][j][k] is the coefficient of x^k in
    matrix[i][j] and f[i][j] its value at x = 0.

    Each entry is read in one pass over its terms: a term without any x
    goes to f, and a term is sorted into c[i][j][k] once for each x^k it
    holds to the first power, the other indeterminates kept.  Never raises;
    the split is exact only when the matrix is affine in x (for omega in u,
    `nonaffine_entry`), and then no entry of c or f holds an x.  This is
    the one reader of "linear in these indeterminates": omega's (c, f) and
    the eta directions of a catalog entry (`catalog._eta_directions`).
    """
    xidx = ring.field_indices() if indices is None else indices
    empty = _poly(ring, {})  # every empty part is this one Poly
    c, f = [], []
    for row in matrix:
        c_row, f_row = [], []
        for x in row:
            if not x.terms:
                c_row.append([empty] * len(xidx))
                f_row.append(empty)
                continue
            parts = [{} for _ in xidx]
            const = {}
            for e, v in x.terms.items():
                linear = False
                for k, i in enumerate(xidx):
                    if e[i]:
                        linear = True
                        if e[i] == 1:
                            parts[k][e[:i] + (0,) + e[i + 1:]] = v
                if not linear:
                    const[e] = v
            c_row.append([_poly(ring, p) if p else empty for p in parts])
            f_row.append(_poly(ring, const) if const else empty)
        c.append(c_row)
        f.append(f_row)
    return c, f


def darboux_view(op: PolyOperator) -> DarbouxOperator:
    """Reinterpret an affine-omega operator as a Darboux triple (unchecked);
    ShapeMismatchError if omega is not affine in u."""
    bad = nonaffine_entry(op.ring, op.omega)
    if bad is not None:
        raise ShapeMismatchError(f"omega[{bad[0]}][{bad[1]}] is not affine in u")
    c, f = linear_parts(op.ring, op.omega)
    return DarbouxOperator(op.ring, c, op.g, f, _checked=True)
