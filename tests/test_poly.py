from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darbouxops.errors import (
    DarbouxOpsError,
    ExponentOverflowError,
    FieldMismatchError,
    ParseError,
    ShapeMismatchError,
    UnknownIndeterminateError,
)
from darbouxops.poly import MAX_EXPONENT, Poly, PolyRing, dot
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


def test_parse_reads_terms_directly():
    ring = PolyRing(["u1", "u2"], ["alpha"], d=2)
    u1, u2, alpha = ring.var("u1"), ring.var("u2"), ring.var("alpha")
    r2 = Scalar.sqrt(2)
    cases = {
        "2*u1^2*u2-3/4*alpha": 2 * u1 * u1 * u2 - Fraction(3, 4) * alpha,
        "-(1/2+sqrt(2))*u1*u1+u1^2": (Scalar(Fraction(1, 2)) - r2) * u1 * u1,
        "u1*u2-u2*u1": ring.zero,
        "0*u1+0": ring.zero,
        "--u1": u1,
        "2*-3*u1": -6 * u1,
        "u1^0*3": ring.const(3),
        "0^0": ring.one,
        "2^3*alpha": 8 * alpha,
        "sqrt(2)*sqrt(2)*u2": 2 * u2,
        "u1^2*u1^3": u1**5,
    }
    for text, want in cases.items():
        got = ring.parse(text)
        assert got.terms == want.terms, text
        assert all(c for c in got.terms.values())
    assert ring.parse("sqrt(2)*sqrt(2)*u2").terms[(0, 1, 0)].d == 0


@pytest.mark.parametrize("text, error", [
    ("", ParseError),
    ("u1+", ParseError),
    ("+", ParseError),
    ("u1*", ParseError),
    ("u1^x", ParseError),
    ("u1^-1", ParseError),
    ("(u1)", ParseError),
    ("()", ParseError),
    ("sqrt(x)", ParseError),
    ("1/0*u1", ParseError),
    ("(1/0)*u1", ParseError),
    ("u9", UnknownIndeterminateError),
    ("u1**u2", UnknownIndeterminateError),
    ("(2)^2*u1", UnknownIndeterminateError),
    ("u1()", UnknownIndeterminateError),
    ("sqrt(2)*sqrt(3)", FieldMismatchError),
    ("sqrt(3)*u1+sqrt(2)*u1", FieldMismatchError),
    ("u1^²", ParseError),
    ("u1^40000", ParseError),
    (f"u1^{MAX_EXPONENT + 1}", ParseError),
    (f"u1^{MAX_EXPONENT}*u1", ParseError),
    ("2^40000*u1", ParseError),
])
def test_parse_errors(text, error):
    ring = PolyRing(["u1", "u2"], ["alpha"], d=2)
    with pytest.raises(error):
        ring.parse(text)


def test_parse_digit_limit_is_a_parse_error():
    """A literal above Python's int-string digit limit is a ParseError, not a ValueError."""
    ring = PolyRing(["u1", "u2"], ["alpha"], d=2)
    digits = "9" * 5000
    for text in (f"{digits}*u1", f"({digits})*u1", f"1/{digits}*u1", f"u1^{digits}",
                 f"sqrt({digits})*u1", f"({digits}*sqrt(2))*u2"):
        with pytest.raises(ParseError, match="too long"):
            ring.parse(text)


def test_parse_value_above_digit_limit_is_a_parse_error():
    """Short literals whose value prints above Python's digit limit are refused."""
    ring = PolyRing(["u1", "u2"], ["alpha"], d=2)
    assert len(str(ring.parse("10^4299*u1"))) == 4303  # 4300 digits, the limit
    for text in ("10^4300*u1", "10^4000*10^4000*u1", "1/2^20000*u2",
                 "9" * 4000 + "^32767*u1",  # refused before the power is taken
                 "10^2200*sqrt(2)*10^2200*alpha",
                 "+".join(f"1/{10**2000 + k}*u1" for k in (1, 3, 7))):
        with pytest.raises(ParseError, match="more than 4300 digits"):
            ring.parse(text)


def test_parse_accepts_max_exponent():
    ring = PolyRing(["u1", "u2"])
    p = ring.parse(f"3*u1^{MAX_EXPONENT}*u2^{MAX_EXPONENT - 1}*u2")
    assert p.terms == {(MAX_EXPONENT, MAX_EXPONENT): Scalar(3)}


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


# -- the integer sum-of-products kernel ---------------------------------------


def _reference_dot(ring, pairs):
    """Term-by-term Scalar arithmetic, kept as the reference for `dot`."""
    out = {}
    for x, y in pairs:
        for e1, c1 in x.terms.items():
            for e2, c2 in y.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Scalar(0)) + c1 * c2
    return Poly(ring, out)


def _assert_same_poly(got, want):
    assert got.terms == want.terms
    assert str(got) == str(want)
    assert hash(got) == hash(want)
    for c in got.terms.values():
        assert c
        assert type(c.a) is Fraction and type(c.b) is Fraction
        assert (c.d == 0) == (c.b == 0)


_FRACS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _sqrt_polys(draw, ring):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        e = (draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 1)))
        b = draw(_FRACS) if ring.d and draw(st.booleans()) else 0
        terms[e] = terms.get(e, Scalar(0)) + Scalar(draw(_FRACS), b, ring.d)
    return Poly(ring, terms)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dot_and_mul_match_scalar_reference(data):
    ring = PolyRing(["u1", "u2"], ["a"], d=data.draw(st.sampled_from([0, 2, 3])))
    polys = st.lists(st.tuples(_sqrt_polys(ring), _sqrt_polys(ring)), max_size=4)
    pairs = data.draw(polys)
    _assert_same_poly(dot(ring, pairs), _reference_dot(ring, pairs))
    for x, y in pairs:
        _assert_same_poly(x * y, _reference_dot(ring, [(x, y)]))
    if pairs:
        x, y = pairs[0]
        # the negated pair cancels every product, rational and radical parts alike
        assert dot(ring, pairs + [(-x, y)]) == dot(ring, pairs[1:])


def test_dot_cancellations_and_zero_operands():
    ring = PolyRing(["u1", "u2"], d=2)
    u1, u2 = ring.var("u1"), ring.var("u2")
    r2 = ring.const(Scalar.sqrt(2))
    assert dot(ring, []) == ring.zero
    assert dot(ring, [(u1, ring.zero), (ring.zero, u2)]).is_zero()
    assert (u1 * ring.zero).is_zero() and (ring.zero * u1).is_zero()
    assert dot(ring, [(u1, u2), (-u2, u1)]).is_zero()
    # the sqrt(2) parts cancel: the coefficient drops back to plain Q
    sq = (r2 * u1) * (r2 * u1)
    assert sq.terms == {(2, 0): Scalar(2)}
    assert sq.terms[(2, 0)].d == 0
    conj = (ring.one + r2 * u1) * (ring.one - r2 * u1)
    assert str(conj) == "-2*u1^2+1"
    assert all(c.d == 0 for c in conj.terms.values())
    mixed = dot(ring, [(r2, u1), (ring.one, u2), (-r2, u1)])
    assert mixed == u2 and mixed.terms[(0, 1)].d == 0


def test_dot_rejects_mixed_radicals_and_rings():
    ring = PolyRing(["u1"])
    r2 = ring.const(Scalar.sqrt(2)) * ring.var("u1")
    r3 = ring.const(Scalar.sqrt(3))
    with pytest.raises(FieldMismatchError):
        r2 * r3
    with pytest.raises(FieldMismatchError):
        dot(ring, [(r2, ring.one), (r3, ring.one)])
    other = PolyRing(["u1"], ["a"])
    with pytest.raises(ShapeMismatchError):
        ring.var("u1") * other.var("u1")
    with pytest.raises(ShapeMismatchError):
        dot(ring, [(ring.one, other.one)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mul_matches_sympy(data):
    sympy = pytest.importorskip("sympy")
    d = data.draw(st.sampled_from([0, 2, 3]))
    ring = PolyRing(["u1", "u2"], ["a"], d=d)
    x, y = data.draw(_sqrt_polys(ring)), data.draw(_sqrt_polys(ring))
    syms = sympy.symbols("u1 u2 a")

    def to_sympy(p):
        total = sympy.Integer(0)
        for e, c in p.terms.items():
            coeff = sympy.Rational(c.a.numerator, c.a.denominator)
            if c.d:
                coeff += sympy.Rational(c.b.numerator, c.b.denominator) * sympy.sqrt(c.d)
            total += coeff * sympy.Mul(*(s**k for s, k in zip(syms, e)))
        return total

    assert sympy.expand(to_sympy(x) * to_sympy(y) - to_sympy(x * y)) == 0


# -- packed monomials: wide rings, exponent bound, substitution ---------------

_EXPONENTS = st.one_of(
    st.sampled_from([1, 2, MAX_EXPONENT - 1, MAX_EXPONENT]), st.integers(0, MAX_EXPONENT)
)


@st.composite
def _wide_polys(draw, ring):
    """A few terms, each with a few nonzero exponents anywhere in 0..MAX_EXPONENT."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exp = [0] * ring.nvars
        for i in draw(st.lists(st.integers(0, ring.nvars - 1), max_size=4)):
            exp[i] = draw(_EXPONENTS)
        b = draw(_FRACS) if ring.d and draw(st.booleans()) else 0
        e = tuple(exp)
        terms[e] = terms.get(e, Scalar(0)) + Scalar(draw(_FRACS), b, ring.d)
    return Poly(ring, terms)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dot_wide_ring_and_large_exponents(data):
    # 30 indeterminates, the size of the witness ring of abelian(7)'s metric space
    ring = PolyRing([f"u{i}" for i in range(1, 21)], [f"t{i}" for i in range(1, 11)],
                    d=data.draw(st.sampled_from([0, 2])))
    pairs = data.draw(st.lists(st.tuples(_wide_polys(ring), _wide_polys(ring)), max_size=3))
    _assert_same_poly(dot(ring, pairs), _reference_dot(ring, pairs))
    for x, y in pairs:
        _assert_same_poly(x * y, _reference_dot(ring, [(x, y)]))


def test_exponent_above_max_rejected_as_operand():
    ring = PolyRing(["u1", "u2"], ["a"])
    u1, u2 = ring.var("u1"), ring.var("u2")
    top = u1**MAX_EXPONENT
    assert top.terms == {(MAX_EXPONENT, 0, 0): Scalar(1)}
    # the largest product exponent still fits its field: nothing carries into u2
    assert (top * (top * u2)).terms == {(2 * MAX_EXPONENT, 1, 0): Scalar(1)}
    over = top * u1
    assert over.terms == {(MAX_EXPONENT + 1, 0, 0): Scalar(1)}
    with pytest.raises(ExponentOverflowError):
        u1 ** (MAX_EXPONENT + 1)
    for bad in (over, Poly(ring, {(0, 70000, 0): Scalar(1)}), Poly(ring, {(0, 0, -1): Scalar(1)})):
        with pytest.raises(ExponentOverflowError):
            bad * u1
        with pytest.raises(ExponentOverflowError):
            dot(ring, [(u2, u1), (u1, bad)])
    assert issubclass(ExponentOverflowError, DarbouxOpsError)


def test_only_sums_of_products_cache_operand_forms():
    ring = PolyRing(["u1", "u2"], d=2)
    x, y = ring.parse("u1+sqrt(2)*u2"), ring.parse("u1-u2")
    prod = x * y
    assert x._ints is None and y._ints is None
    assert dot(ring, [(x, y)]) == prod
    assert x._ints is not None and y._ints is not None
    assert x * y == prod


def _reference_subs(p, mapping):
    """One polynomial product per substituted power, kept as the reference for `subs`."""
    ring = p.ring
    sub = {ring.index(k): (v if isinstance(v, Poly) else ring.const(v)) for k, v in mapping.items()}
    out = ring.zero
    for e, c in p.terms.items():
        kept = list(e)
        powers = []
        for i, value in sub.items():
            if e[i]:
                kept[i] = 0
                powers.append(value ** e[i])
        term = Poly(ring, {tuple(kept): c})
        for power in powers:
            term = term * power
        out = out + term
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subs_matches_per_term_products(data):
    ring = PolyRing(["u1", "u2"], ["a"], d=data.draw(st.sampled_from([0, 2])))
    p = data.draw(_sqrt_polys(ring))
    constants = st.sampled_from([0, 1, -2, Fraction(3, 4), Scalar(1, 1, ring.d)]).flatmap(
        lambda v: st.sampled_from([v, ring.const(v)])
    )
    values = st.one_of(constants, _sqrt_polys(ring))
    names = data.draw(st.lists(st.sampled_from(ring.names), unique=True, min_size=1))
    mapping = {name: data.draw(values) for name in names}
    _assert_same_poly(p.subs(mapping), _reference_subs(p, mapping))


def test_subs_constant_and_polynomial_values():
    ring = PolyRing(["u1", "u2"], ["a"], d=2)
    p = ring.parse("(1+sqrt(2))*u1^2*a-3*u1*u2+a^3+sqrt(2)")
    for mapping in (
        {"a": 2},
        {"a": Scalar.sqrt(2), "u1": 0},
        {"u1": ring.parse("u1+u2"), "a": Fraction(1, 2)},
        {"u2": ring.parse("sqrt(2)*a-u1"), "a": ring.parse("u1")},
    ):
        _assert_same_poly(p.subs(mapping), _reference_subs(p, mapping))
    assert p.subs({"a": 0}) == ring.parse("-3*u1*u2+sqrt(2)")
