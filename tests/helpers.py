"""Shared fixtures-in-code for the operator and pencil tests."""

from fractions import Fraction

from darbouxops import linalg
from darbouxops.operators import DarbouxOperator, field_ring
from darbouxops.scalars import Scalar


def tensor(dim, brackets):
    c = [[[Scalar(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), out in brackets.items():
        for k, v in out.items():
            c[i][j][k] = Scalar.of(v)
            c[j][i][k] = -Scalar.of(v)
    return c


HALF = Fraction(1, 2)
SQRT2_HALF = Scalar(0, HALF, 2)

KDV_RING = field_ring(3, d=2)

KDV_A_BRACKETS = {(0, 1): {2: -2}, (0, 2): {1: 2}, (1, 2): {0: 2}}
KDV_B_BRACKETS = {(0, 1): {0: 1, 2: -1}, (1, 2): {0: -1, 2: 1}}


def kdv_A() -> DarbouxOperator:
    eta = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    zero = [[0] * 3 for _ in range(3)]
    return DarbouxOperator(KDV_RING, tensor(3, KDV_A_BRACKETS), eta, zero)


def kdv_B() -> DarbouxOperator:
    eta = [[HALF, 0, HALF], [0, 0, 0], [HALF, 0, HALF]]
    f = [
        [Scalar(0), SQRT2_HALF, Scalar(0)],
        [-SQRT2_HALF, Scalar(0), SQRT2_HALF],
        [Scalar(0), -SQRT2_HALF, Scalar(0)],
    ]
    return DarbouxOperator(KDV_RING, tensor(3, KDV_B_BRACKETS), eta, f)


def kdv_density_A():
    ring = KDV_RING
    w1, w3 = ring.var("u1"), ring.var("u3")
    return ring.const(Scalar(-HALF)) * (w1 - w3) ** 2 + ring.const(SQRT2_HALF) * (w1 + w3)


def kdv_density_B():
    ring = KDV_RING
    w1, w2, w3 = (ring.var(f"u{i}") for i in (1, 2, 3))
    return w1 * w1 - w2 * w2 - w3 * w3


def kdv_target_system():
    """The quasilinear system the pair is bi-Hamiltonian for, as displayed:
    V and W with w1_t = -(1/2)(w1-w3)_x + w2(w1-w3) + (1/sqrt2) w2, etc."""
    ring = KDV_RING
    w1, w2, w3 = (ring.var(f"u{i}") for i in (1, 2, 3))
    mh = ring.const(Scalar(-HALF))
    ph = ring.const(Scalar(HALF))
    z = ring.zero
    v = [[mh, z, ph], [z, z, z], [mh, z, ph]]
    s2 = ring.const(SQRT2_HALF)
    w = [
        w2 * (w1 - w3) + s2 * w2,
        (w1 - w3) ** 2 + s2 * (w1 + w3),
        w2 * (w1 - w3) - s2 * w2,
    ]
    return v, w


def three_waves() -> DarbouxOperator:
    ring = field_ring(3)
    eta = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    zero = [[0] * 3 for _ in range(3)]
    return DarbouxOperator(ring, tensor(3, KDV_A_BRACKETS), eta, zero)


def random_invertible(rnd, n, lo=-3, hi=3):
    while True:
        a = [[rnd.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if linalg.det(a):
            return a


def random_combination(rnd, basis, lo=-4, hi=4):
    """Random integer combination of a matrix basis (possibly zero)."""
    if not basis:
        n = 0
        return []
    n = len(basis[0])
    out = linalg.zeros(n, n)
    for b in basis:
        c = rnd.randint(lo, hi)
        if not c:
            continue
        for i in range(n):
            for j in range(n):
                if b[i][j]:
                    out[i][j] = out[i][j] + b[i][j] * c
    return out


def sympy_of(sp, p, symbols):
    """A polynomial as a sympy expression in `symbols`, one per ring indeterminate."""
    total = sp.Integer(0)
    for e, c in p.terms.items():
        coeff = sp.Rational(c.a.numerator, c.a.denominator)
        if c.d:
            coeff += sp.Rational(c.b.numerator, c.b.denominator) * sp.sqrt(c.d)
        total += coeff * sp.Mul(*(s**k for s, k in zip(symbols, e)))
    return total
