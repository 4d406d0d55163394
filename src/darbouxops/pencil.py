"""Bi-Hamiltonian compatibility of pairs of 1+0 operators in Darboux form.

Two routes to the same verdict:

* the Darboux criterion: three mixed identities on the pair of triples,
  namely compatibility of the two brackets (mixed Jacobi), the mixed
  cocycle condition and the mixed metric condition.  Each is the bilinear
  part of an identity of `lie`, terms(c_B, x_A) + terms(c_A, x_B);

* the lambda route: A + lambda B must pass the general Hamiltonianity
  verifier identically in lambda, the field variables and every other
  parameter.  Each condition has degree at most 2 in lambda, and its
  lambda^0 and lambda^2 coefficients are the operands' own checks, run
  first; so only the lambda^1 coefficient is computed, without building
  A + lambda B (`pencil_operator`).

Agreement of the two routes, order by order in lambda, is a tested
invariant of the package.
"""

from __future__ import annotations

from typing import Tuple

from .errors import InvalidOperandError, ShapeMismatchError
from .lie import cocycle_terms, first_violation, jacobi_terms, metric_terms, support_rows
from .operators import (
    DarbouxOperator,
    PolyOperator,
    VerificationReport,
    field_jacobian,
    hamiltonian_report,
    phi_sum,
    schouten_terms,
    verify_darboux,
    verify_hamiltonian,
)
from .poly import PolyRing
from .scalars import join_field_tags


def _require_common_ring(a, b) -> None:
    """Both operators over one ring (which also fixes their common dimension)."""
    if a.ring != b.ring:
        raise ShapeMismatchError("pencil operands must share one ring; use unify_operators first")


def _require_hamiltonian(ra: VerificationReport, rb: VerificationReport) -> None:
    """InvalidOperandError unless both operands' own reports passed."""
    if not ra.passed or not rb.passed:
        raise InvalidOperandError(
            f"operands must be Hamiltonian before pairing: "
            f"A failed {ra.failed_names()}, B failed {rb.failed_names()}"
        )


def pencil_compatible_darboux(a: DarbouxOperator, b: DarbouxOperator) -> VerificationReport:
    """Darboux-form pencil criterion: the report of mixed-jacobi, mixed-cocycle
    and mixed-metric; both operands must verify on their own."""
    _require_common_ring(a, b)
    ra, rb = verify_darboux(a), verify_darboux(b)
    _require_hamiltonian(ra, rb)
    report = VerificationReport()
    # each condition is the bilinear part of its identity: terms(c_B, x_A) + terms(c_A, x_B)
    cza, czb = support_rows(a.c), support_rows(b.c)
    for name, terms, x_a, x_b in (("mixed-jacobi", jacobi_terms, cza, czb),
                                  ("mixed-cocycle", cocycle_terms, a.f, b.f),
                                  ("mixed-metric", metric_terms, a.eta, b.eta)):
        report.add(name, first_violation(terms(czb, x_a), terms(cza, x_b)))
    return report


def pencil_operator(a: PolyOperator, b: PolyOperator, lam: str = "lam") -> PolyOperator:
    """A + lambda B over a ring extended by the pencil parameter `lam`,
    which must not already name an indeterminate of the operands' ring."""
    _require_common_ring(a, b)
    if lam in a.ring.names:
        raise ShapeMismatchError(f"pencil parameter {lam!r} already names an indeterminate")
    ring = a.ring.extend_params([lam])
    a, b = a.embedded(ring), b.embedded(ring)
    lpoly = ring.var(lam)
    n = a.n
    g = [[a.g[i][j] + lpoly * b.g[i][j] for j in range(n)] for i in range(n)]
    om = [[a.omega[i][j] + lpoly * b.omega[i][j] for j in range(n)] for i in range(n)]
    return PolyOperator(ring, g, om, _checked=True)


def pencil_compatible_general(a: PolyOperator, b: PolyOperator) -> VerificationReport:
    """Hamiltonianity of A + lambda B, identically in lambda, from its
    lambda^1 coefficient once A and B pass: omega_B skew,
    S(omega_A, d omega_B) + S(omega_B, d omega_A) (`schouten_terms`) and
    Phi(g_A, d omega_B) + Phi(g_B, d omega_A) (`phi_sum`).  The report is
    that of `verify_hamiltonian(pencil_operator(a, b, lam))`, lam fresh.
    """
    _require_common_ring(a, b)
    da, db = field_jacobian(a.ring, a.omega), field_jacobian(b.ring, b.omega)
    ra, rb = verify_hamiltonian(a, da), verify_hamiltonian(b, db)
    _require_hamiltonian(ra, rb)
    ring = a.ring
    # both operands passed, so omega_A and omega_B are skew: the lambda^1
    # omega-skew condition holds and the lambda^1 Phi is skew in j, k
    return hamiltonian_report(
        ring, None,
        first_violation(schouten_terms(a.omega, db), schouten_terms(b.omega, da)),
        phi_sum(ring, (a.g, db), (b.g, da), skew=True),
    )


def pencil_compatible_both(a: DarbouxOperator,
                           b: DarbouxOperator) -> Tuple[VerificationReport, VerificationReport]:
    darboux = pencil_compatible_darboux(a, b)
    return darboux, pencil_compatible_general(a.to_poly_operator(), b.to_poly_operator())


def unify_operators(a: PolyOperator, b: PolyOperator) -> Tuple[PolyOperator, PolyOperator]:
    """Move two operators into one shared ring.

    Parameters of B that collide with parameters of A are renamed with a
    "_b" suffix so the mixed conditions treat the two families as
    independent.  Field tags must agree or one must be plain Q
    (`join_field_tags`, FieldMismatchError otherwise).
    """
    if a.n != b.n:
        raise ShapeMismatchError("operators disagree in dimension")
    d = join_field_tags(a.ring.d, b.ring.d, "operators live over sqrt({}) and sqrt({})")
    params_a = [a.ring.names[i] for i in a.ring.param_indices()]
    rename = {}
    taken = set(params_a) | set(a.ring.names)
    params_b = []
    for p in (b.ring.names[i] for i in b.ring.param_indices()):
        q = p
        while q in taken:
            q = q + "_b"
        rename[p] = q
        taken.add(q)
        params_b.append(q)
    fields = [a.ring.names[i] for i in a.ring.field_indices()]
    ring = PolyRing(fields, params_a + params_b, d=d)
    return a.embedded(ring), b.embedded(ring, rename)
