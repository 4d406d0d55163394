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
  lambda route reads its lambda^1 coefficient through the same code.

The views meet in one reader and one transport: `linear_parts` reads
omega = c.u + f back as (c, f) and `darboux_view` turns an affine-omega
PolyOperator into a triple; `transform_poly_operator` moves an operator by
a basis change, and `transform_darboux` is that move read back as a triple.
`PolyOperator.embedded` is the one move of an operator into a larger ring.

Verification never raises on a failing condition; failures land in the
returned report with the first violating index tuple and its residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import (
    MetricIncompatibleError,
    NonHydrodynamicDensityError,
    NotACocycleError,
    ShapeMismatchError,
)
from .invariants import cocycle_residual, metric_residual
from .lie import LieAlgebra, defect, first_violation, jacobi_terms, solve
from .poly import Poly, PolyRing, dot, ring_embedding
from .scalars import Scalar, field_tag, join_field_tags

PolyMatrix = List[List[Poly]]


def field_ring(n: int, params: Sequence[str] = (), d: int = 0) -> PolyRing:
    return PolyRing([f"u{i + 1}" for i in range(n)], params, d=d)


def _lift_entry(ring: PolyRing, x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, str):
        return ring.parse(x)
    return ring.const(Scalar.of(x))


def lift_matrix(ring: PolyRing, m: Sequence[Sequence]) -> PolyMatrix:
    return [[_lift_entry(ring, x) for x in row] for row in m]


def lift_tensor(ring: PolyRing, c: Sequence[Sequence[Sequence]]):
    return [[[_lift_entry(ring, x) for x in row] for row in plane] for plane in c]


@dataclass
class ConditionResult:
    name: str
    ok: bool
    first_violation: Optional[tuple] = None
    residual: Optional[str] = None


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
        return {
            "passed": self.passed,
            "conditions": [
                {
                    "name": c.name,
                    "ok": c.ok,
                    "first_violation": list(c.first_violation) if c.first_violation else None,
                    "residual": c.residual,
                }
                for c in self.conditions
            ],
        }


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
    if skew_c is None:
        key, value = next(defect(jacobi_terms(c, c)), (None, None))
        report.add("jacobi", key, value)
    else:
        report.add("jacobi", skew_c)
    viol = cocycle_residual(c, f)
    report.add("cocycle", viol)
    viol = metric_residual(c, eta)
    report.add("metric-compatibility", viol)
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


def phi_sum(ring: PolyRing, *factors) -> list:
    """Phi^{ijk} = sum over the (g, domega) factors of g^{is} domega[j][k][s].

    One factor gives the Phi tensor of an operator (`phi_tensor`).
    """
    n = len(factors[0][0])
    return [
        [[dot(ring, [(x, y) for g, domega in factors for x, y in zip(g[i], domega[j][k])
                     if x and y]) for k in range(n)]
         for j in range(n)]
        for i in range(n)
    ]


def phi_tensor(op: PolyOperator, domega=None):
    """Phi^{ijk} = g^{is} d omega^{jk} / d u^s (b = 0).

    `domega` is `field_jacobian(op.ring, op.omega)`, computed when not given.
    """
    if domega is None:
        domega = field_jacobian(op.ring, op.omega)
    return phi_sum(op.ring, (op.g, domega))


def schouten_terms(omega, domega):
    """S^{ijk} = omega^{is} domega[j][k][s] + omega^{js} domega[k][i][s]
    + omega^{ks} domega[i][j][s], i < j < k: with domega the Jacobian of
    omega (`field_jacobian`), the Schouten-Jacobi identity.

    A `lie`-style generator of ((i, j, k), pairs) in increasing key order,
    skipping zero factors and keys without a product.
    """
    n = len(omega)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                pairs = [(x, y) for p, q, r in ((i, j, k), (j, k, i), (k, i, j))
                         for x, y in zip(omega[p], domega[q][r]) if x and y]
                if pairs:
                    yield (i, j, k), pairs


def schouten_residual(ring: PolyRing, omega: PolyMatrix, domega=None) -> Optional[tuple]:
    """First (i, j, k) violating the Schouten-Jacobi identity for omega.

    `domega` is `field_jacobian(ring, omega)`, computed when not given.
    """
    if domega is None:
        domega = field_jacobian(ring, omega)
    return first_violation(schouten_terms(omega, domega))


def hamiltonian_report(ring: PolyRing, omega: PolyMatrix, schouten: Optional[tuple],
                       phi) -> VerificationReport:
    """The report of `verify_hamiltonian`: omega skew, the given Schouten
    violation, then Phi^{ijk} = Phi^{kij} and Phi constant in u read off
    `phi`.  Poly terms are canonical, so equal terms mean a zero difference
    and a term with a positive exponent of u^r means a nonzero d/du^r.
    """
    n = len(phi)
    report = VerificationReport()
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


def verify_hamiltonian(op: PolyOperator, domega=None) -> VerificationReport:
    """Hamiltonianity of g d_x + omega with constant symmetric g, b = 0.

    Conditions: omega skew; Schouten-Jacobi identity; Phi^{ijk} = Phi^{kij};
    Phi constant in u (`hamiltonian_report`).  A pass means every identity
    holds identically in the field variables and all formal parameters.
    `domega` is `field_jacobian(op.ring, op.omega)`, computed when not
    given, and shared by the Schouten and Phi checks.
    """
    if domega is None:
        domega = field_jacobian(op.ring, op.omega)
    return hamiltonian_report(op.ring, op.omega, schouten_residual(op.ring, op.omega, domega),
                              phi_tensor(op, domega))


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
    """Parse a hydrodynamic density; reject any non-field indeterminate."""
    try:
        h = op.ring.parse(text)
    except Exception as exc:
        raise NonHydrodynamicDensityError(
            f"density must be polynomial in the field variables: {exc}"
        ) from exc
    for idx in op.ring.param_indices():
        if h.depends_on(idx):
            raise NonHydrodynamicDensityError(
                f"density depends on parameter {op.ring.names[idx]!r}"
            )
    return h


def transform_darboux(op: DarbouxOperator, a: Sequence[Sequence],
                      validate: bool = True) -> DarbouxOperator:
    """Push forward along u~^i = a^i_l u^l: `transform_poly_operator` of
    g = eta, omega = c.u + f, read back as a triple (`linear_parts`).

    The result lives over the joined field of the operator and the matrix.
    With validate=False it is returned unverified, which lets diagnostics
    transport failing triples and compare verdicts.
    """
    moved = transform_poly_operator(op.to_poly_operator(), a)
    c, f = linear_parts(moved.ring, moved.omega)
    return DarbouxOperator(moved.ring, c, moved.g, f, _checked=not validate)


def _two_tensor(ring: PolyRing, a, m: PolyMatrix) -> PolyMatrix:
    """(2,0) law a^i_k m^{kl} a^j_l, with a a Scalar matrix.

    One index is contracted at a time, m^{kl} a^j_l and then a^i_k, as in
    `lie.transport_tensor`: 2 n^3 products instead of n^4.
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
    amat, b = linalg.basis_change_pair(a, op.n)
    n = op.n
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


def linear_parts(ring: PolyRing, omega: PolyMatrix):
    """Read omega = c.u + f: c[i][j][k] is the coefficient of u^k in
    omega[i][j] and f[i][j] its value at u = 0.

    Never raises; the split is exact only when omega is affine in u
    (`nonaffine_entry`), and then every entry of c and f is u-free.
    """
    fidx = ring.field_indices()
    n = len(omega)
    c = [[[x.coefficient_of_var(fidx[k]) for k in range(n)] for x in row] for row in omega]
    f = [[x.at_zero(fidx) for x in row] for row in omega]
    return c, f


def darboux_view(op: PolyOperator) -> DarbouxOperator:
    """Reinterpret an affine-omega operator as a Darboux triple (unchecked);
    ShapeMismatchError if omega is not affine in u."""
    bad = nonaffine_entry(op.ring, op.omega)
    if bad is not None:
        raise ShapeMismatchError(f"omega[{bad[0]}][{bad[1]}] is not affine in u")
    c, f = linear_parts(op.ring, op.omega)
    return DarbouxOperator(op.ring, c, op.g, f, _checked=True)
