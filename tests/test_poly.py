from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darbouxops.errors import ShapeMismatchError, UnknownIndeterminateError
from darbouxops.poly import Poly, PolyRing
from darbouxops.scalars import Scalar


@pytest.fixture
def ring():
    return PolyRing(["u1", "u2", "u3"], ["alpha", "f12"])


def test_partial_power_rule(ring):
    p = ring.parse("2*u1^2-3*u1*u2")
    assert p.partial("u1") == ring.parse("4*u1-3*u2")
    assert p.partial("u3").is_zero()


def test_partial_constant(ring):
    assert ring.parse("7/3").partial("u1").is_zero()


def test_partial_parameter_coefficient(ring):
    p = ring.parse("alpha*u3")
    assert p.partial("u3") == ring.var("alpha")


def test_partial_unknown_indeterminate(ring):
    with pytest.raises(UnknownIndeterminateError):
        ring.parse("u1").partial("u9")


def test_identically_zero_after_cancellation(ring):
    u1, u2 = ring.var("u1"), ring.var("u2")
    assert (u1 - u1).is_zero()
    assert ((u1 + u2) ** 2 - u1**2 - 2 * u1 * u2 - u2**2).is_zero()
    assert not (ring.var("f12") * u1).is_zero()


def test_parse_print_roundtrip_with_radicals():
    ring = PolyRing(["u1", "u2"], ["beta"], d=2)
    p = ring.parse("1/2*sqrt(2)*u1^2-beta*u2+3")
    assert ring.parse(str(p)) == p
    q = ring.parse("(1/2+1/2*sqrt(2))*u1")
    assert ring.parse(str(q)) == q


def test_ring_from_generators():
    ring = PolyRing((x for x in ["u1", "u2"]), (p for p in ["a"]))
    assert ring.names == ("u1", "u2", "a")
    assert ring.field_indices() == (0, 1)
    assert ring.param_indices() == (2,)


def test_ring_mismatch_rejected(ring):
    other = PolyRing(["u1", "u2", "u3"], ["alpha"])
    with pytest.raises(ShapeMismatchError):
        ring.var("u1") + other.var("u1")


def test_subs_linear_change(ring):
    # u1 -> u1 + u2 in u1^2
    p = ring.parse("u1^2")
    q = p.subs({"u1": ring.parse("u1+u2")})
    assert q == ring.parse("u1^2+2*u1*u2+u2^2")


def test_graded_lex_display_order(ring):
    p = ring.parse("u2+u1^2+1+u1*u2")
    assert str(p) == "u1^2+u1*u2+u2+1"


def test_constant_value(ring):
    assert ring.parse("5/2").constant_value() == Scalar(Fraction(5, 2))
    with pytest.raises(ShapeMismatchError):
        ring.parse("u1").constant_value()


def test_coefficient_extraction(ring):
    p = ring.parse("3*u1+alpha*u2+f12")
    assert p.coefficient_of_var("u1") == ring.const(3)
    assert p.coefficient_of_var("u2") == ring.var("alpha")
    assert p.at_zero(ring.field_indices()) == ring.var("f12")


small_polys = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-100, max_value=100, max_denominator=10),
    ),
    max_size=6,
)


def _mk(ring, items):
    terms = {}
    for (e1, e2), coeff in items:
        key = (e1, e2)
        terms[key] = terms.get(key, Scalar(0)) + Scalar(coeff)
    return Poly(ring, {e: c for e, c in terms.items() if c})


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys)
def test_product_rule(items_p, items_q):
    ring = PolyRing(["x", "y"])
    p = _mk(ring, items_p)
    q = _mk(ring, items_q)
    for v in ("x", "y"):
        lhs = (p * q).partial(v)
        rhs = p.partial(v) * q + p * q.partial(v)
        assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys)
def test_ring_axioms(items_p, items_q):
    ring = PolyRing(["x", "y"])
    p = _mk(ring, items_p)
    q = _mk(ring, items_q)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + ring.one) == p * q + p
