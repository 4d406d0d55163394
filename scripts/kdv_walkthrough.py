#!/usr/bin/env python3
"""End-to-end walkthrough of the KdV pair over Q(sqrt(2)).

Builds both operators, verifies them individually and as a pencil (both
criteria), applies the two densities, and transports the first operator by
the Q(sqrt(3)) change of variables onto its dimension-3 catalog form.

The density application also demonstrates an exact normalization finding:
the two displayed densities generate one and the same flow, equal to twice
the displayed quasilinear system (first operator) and minus twice it
(second operator).
"""

import sys
from fractions import Fraction

sys.path.insert(0, "tests")  # reuse the shared operator constructions

import helpers  # noqa: E402
from darbouxops import operators as ops  # noqa: E402
from darbouxops import pencil  # noqa: E402
from darbouxops.scalars import Scalar  # noqa: E402


def show_system(v, w):
    n = len(w)
    for i in range(n):
        terms = [f"({v[i][k]})*u{k + 1}_x" for k in range(n) if v[i][k]]
        if w[i]:
            terms.append(f"({w[i]})")
        print(f"  u{i + 1}_t = " + (" + ".join(terms) if terms else "0"))


def main() -> int:
    a, b = helpers.kdv_A(), helpers.kdv_B()
    print("operator A verifies:", ops.verify_darboux(a).passed)
    print("operator B verifies:", ops.verify_darboux(b).passed)

    dar, gen = pencil.pencil_compatible_both(a, b)
    print("pencil (Darboux criterion):", dar.passed)
    print("pencil (lambda criterion): ", gen.passed)

    pa = a.to_poly_operator()
    pb = b.to_poly_operator()
    va, wa = ops.apply_to_density(pa, helpers.kdv_density_A())
    vb, wb = ops.apply_to_density(pb, helpers.kdv_density_B())
    print("\nA applied to its density:")
    show_system(va, wa)
    print("B applied to its density:")
    show_system(vb, wb)
    same = all(
        (wa[i] + wb[i]).is_zero()
        and all((va[i][k] + vb[i][k]).is_zero() for k in range(3))
        for i in range(3)
    )
    print("A(grad h_A) == -B(grad h_B):", same)
    vt, wt = helpers.kdv_target_system()
    double = all(
        (wa[i] - Scalar(2) * wt[i]).is_zero()
        and all((va[i][k] - Scalar(2) * vt[i][k]).is_zero() for k in range(3))
        for i in range(3)
    )
    print("flow equals 2x the displayed system:", double)

    print("\ntransport of A by the Q(sqrt(3)) change of variables:")
    ring3 = ops.field_ring(3, d=3)
    zero = [[0] * 3 for _ in range(3)]
    a3 = ops.DarbouxOperator(
        ring3, helpers.tensor(3, helpers.KDV_A_BRACKETS),
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]], zero,
    )
    h = Fraction(1, 2)
    r3h = Scalar(0, h, 3)
    m = [
        [Scalar(-1), r3h, Scalar(-h)],
        [r3h, Scalar(-1), Scalar(0)],
        [Scalar(1), -r3h, Scalar(-h)],
    ]
    moved = ops.transform_darboux(a3, m)
    print("  eta ->")
    for row in moved.eta:
        print("   [" + ", ".join(str(x) for x in row) + "]")
    print("  omega ->")
    for row in moved.omega():
        print("   [" + ", ".join(str(x) for x in row) + "]")
    print("  still verifies:", ops.verify_darboux(moved).passed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
