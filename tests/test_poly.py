import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darbouxops import poly as poly_module
from darbouxops.errors import (
    DarbouxOpsError,
    ExponentOverflowError,
    FieldMismatchError,
    ParseError,
    ShapeMismatchError,
    UnknownIndeterminateError,
)
from darbouxops.poly import MAX_EXPONENT, Poly, PolyRing, _latex_name, dot, parse_poly
from darbouxops.scalars import ONE, Scalar, _int, _literal_power, _printable, parse_scalar


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


# -- the reader against the character-loop reader it replaced ----------------


def _ref_split_factors(term):
    chunks = []
    depth = 0
    start = 0
    for i, ch in enumerate(term):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch == "*" and i > start:
            chunks.append(term[start:i])
            start = i + 1
    chunks.append(term[start:])
    return chunks


def _ref_parse_factor(ring, factor, context):
    if factor.startswith("(") and factor.endswith(")"):
        return parse_scalar(factor[1:-1])
    if factor.startswith("sqrt(") and factor.endswith(")"):
        return parse_scalar(factor)
    name, caret, exp = factor.partition("^")
    if caret:
        if not exp.isdecimal():
            raise ParseError(f"bad exponent in {factor!r} ({context!r})")
        power = _int(exp)
        if power > MAX_EXPONENT:
            raise ParseError(f"exponent {exp} above MAX_EXPONENT = {MAX_EXPONENT} ({context!r})")
    else:
        power = 1
    if re.fullmatch(r"-?\d+(/\d+)?", name):
        return _literal_power(name, power, context)
    if name in ring._index:
        return (ring._index[name], power)
    raise UnknownIndeterminateError(f"{name!r} not in ring {ring.names} ({context!r})")


def ref_parse_poly(ring, text):
    """The reader before the factor pattern: terms carved at top-level signs
    and factors at top-level "*" by character loops, one `parse_scalar` per
    parenthesised, radical or numeric factor."""
    s = "".join(text.split())
    if not s:
        raise ParseError("empty polynomial literal")
    terms = []
    depth = 0
    start = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start and s[i - 1] not in "*/^(+-":
            terms.append(s[start:i])
            start = i
    terms.append(s[start:])
    out = {}
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ParseError(f"dangling sign in {text!r}")
        coef = None
        exp = list(ring._zero_exp)
        for factor in _ref_split_factors(term):
            if not factor:
                raise ParseError(f"empty factor in {term!r}")
            value = _ref_parse_factor(ring, factor, text)
            if type(value) is Scalar:
                coef = value if coef is None else _printable(coef * value, text)
            else:
                i, power = value
                exp[i] += power
                if exp[i] > MAX_EXPONENT:
                    raise ParseError(f"exponent {exp[i]} above MAX_EXPONENT ({text!r})")
        if coef is None:
            coef = ONE
        elif not coef:
            continue
        if sign < 0:
            coef = -coef
        e = tuple(exp)
        prev = out.get(e)
        if prev is None:
            out[e] = coef
        else:
            coef = _printable(prev + coef, text)
            if coef:
                out[e] = coef
            else:
                del out[e]
    return Poly(ring, out)


_PARSE_RINGS = [PolyRing(["u1", "u2"], ["alpha"], d=2), PolyRing(["u1", "u2", "u3"], ["a", "f12"]),
                PolyRing(["u1"], ["lam_b", "a.b", "x/y", "²", "2a"], d=5)]
# the characters and pieces of `test_parse_errors`, and long or odd exponents,
# zero denominators, unbalanced parentheses
_MUTATIONS = list("+-*^()/0123456789 ") + [
    "u1", "u2", "u9", "alpha", "a", "sqrt(", "sqrt(2)", "sqrt(3)", "sqrt(4)", "²", "^40000",
    "/0", "(", ")", "((", "))", "**", "()", "u1()", "(2)^2", ".", "_", "x", "²", "1.5"]
# factors of printed and unprinted forms, to be joined by "*" and signs
_FACTORS = [
    "2", "-3", "1/2", "-1/2", "0", "2^3", "0^0", "1/0", "(3/4)", "(-3)", "(2*)", "()",
    "(1+sqrt(2))", "(-1/2-3/4*sqrt(2))", "(2-sqrt(5))", "(1+0*sqrt(3))", "(1+0*sqrt(4))", "(1+sqrt(1))",
    "(0+sqrt(0))", "(1/0+sqrt(2))", "(1+sqrt(4))", "(+1-sqrt(2))", "(1+2sqrt(2))",
    "sqrt(2)", "sqrt(3)", "sqrt(5)", "sqrt(1)", "sqrt(0)", "sqrt(2)^2", "u1", "u2^2",
    "alpha^0", "a", "f12", "lam_b", "a.b", "x/y", "²", "2a", "u3", f"u1^{MAX_EXPONENT}", "3^2/4",
]


@st.composite
def _printed_polys(draw):
    """str() of a random polynomial over Q or Q(sqrt(d)): the ring and the text."""
    ring = draw(st.sampled_from(_PARSE_RINGS))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        e = tuple(draw(st.integers(0, 3)) for _ in ring.names)
        b = draw(_FRACS) if ring.d and draw(st.booleans()) else 0
        terms[e] = Scalar(draw(_FRACS), b, ring.d)
    return ring, str(Poly(ring, terms))


@st.composite
def _mutated_literals(draw):
    ring, text = draw(_printed_polys())
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(_MUTATIONS))
        action = draw(st.sampled_from(["insert", "delete", "replace"]))
        if action == "insert":
            text = text[:pos] + piece + text[pos:]
        elif action == "delete":
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + piece + text[pos + len(piece):]
    return ring, text


@st.composite
def _factor_literals(draw):
    ring = draw(st.sampled_from(_PARSE_RINGS))
    parts = []
    for _ in range(draw(st.integers(1, 7))):
        parts += [draw(st.sampled_from(["*", "*", "*", "+", "-", "", "*-", "+-"])),
                  draw(st.sampled_from(_FACTORS))]
    return ring, "".join(parts[draw(st.integers(0, 1)):])


def _outcome(reader, ring, text):
    try:
        return reader(ring, text).terms
    except DarbouxOpsError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(_printed_polys())
def test_parse_printed_polys_matches_reference(ring_text):
    ring, text = ring_text
    got = ring.parse(text)
    _assert_same_poly(got, ref_parse_poly(ring, text))
    assert str(got) == text


@settings(max_examples=600, deadline=None)
@given(st.one_of(_mutated_literals(), _factor_literals()))
def test_parse_matches_reference_on_mutated_literals(ring_text):
    """The same terms, or the same error type."""
    ring, text = ring_text
    assert _outcome(parse_poly, ring, text) == _outcome(ref_parse_poly, ring, text), text


@pytest.mark.parametrize("name", ["f(x)", "a/b/c", "/x", "x/", "a b", "x-y", "a+b", "a*b", "x^2",
                                  "2", "1/2", "-x", ""])
def test_ring_refuses_names_the_reader_cannot_read(name):
    with pytest.raises(ValueError, match="cannot be read"):
        PolyRing(["u1"], [name])


def test_odd_readable_names_parse_as_their_indeterminate():
    names = ["a.b", "x/y", "2/x", "x/2", "²", "2a", "lam_b", "sqrt"]
    ring = PolyRing(["u1"], names)
    for name in names:
        assert ring.parse(f"3*{name}^2*u1") == 3 * ring.var(name) ** 2 * ring.var("u1")


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
    assert p.coefficient_of_power("u1", 1) == ring.const(3)
    assert p.coefficient_of_power("u2", 1) == ring.var("alpha")


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


def test_power_squares_only_while_bits_remain(monkeypatch):
    """p**n takes one product per set bit and one squaring per bit below the
    top one: a squaring after the last bit, which the earlier loop made and
    discarded, is gone, so p**1 is the single product 1*p."""
    ring = PolyRing(["u1", "u2"], d=2)
    p = ring.parse("u1+sqrt(2)*u2+1")
    calls = []
    kernel = poly_module.dot
    monkeypatch.setattr(poly_module, "dot", lambda *a, **k: calls.append(1) or kernel(*a, **k))
    expected = ring.one
    for n in range(0, 12):
        calls.clear()
        got = p**n
        made = len(calls)
        earlier = n.bit_length() + bin(n).count("1")  # the loop that squared after the last bit
        assert made == (earlier - 1 if n else 0), n
        assert got == expected
        expected = expected * p
    calls.clear()
    p**1
    assert len(calls) == 1


def test_only_sums_of_products_cache_operand_forms():
    ring = PolyRing(["u1", "u2"], d=2)
    x, y = ring.parse("u1+sqrt(2)*u2"), ring.parse("u1-u2")
    prod = x * y
    assert x._ints is None and y._ints is None
    assert dot(ring, [(x, y)]) == prod
    assert x._ints is not None and y._ints is not None
    assert x * y == prod


def test_dot_cached_forms_from_equal_and_other_rings():
    """A form cached in an equal but distinct ring is accepted; one cached
    in another ring, or with another radical, is still refused."""
    ring, twin = PolyRing(["u1", "u2"], d=2), PolyRing(["u1", "u2"], d=2)
    x, y = twin.parse("u1+sqrt(2)*u2"), twin.parse("(1-sqrt(2))*u1-u2")
    want = dot(twin, [(x, y)])  # caches both forms in twin
    assert x._ints is not None and y._ints is not None
    got = dot(ring, [(x, y), (y, ring.one)])
    assert got.ring is ring
    assert got.terms == (want + y).terms
    other = PolyRing(["u1", "u2"], ["a"], d=2)
    z = other.parse("u1+a")
    dot(other, [(z, z)])
    with pytest.raises(ShapeMismatchError):
        dot(ring, [(ring.one, z)])
    with pytest.raises(ShapeMismatchError):
        dot(ring, [(x, y), (z, ring.one)])
    r2, r3 = ring.const(Scalar.sqrt(2)), ring.const(Scalar.sqrt(3))
    for pairs in ([(r2, r3)], [(r2, ring.one), (r3, ring.one)], [(x, y), (r3, ring.one)]):
        with pytest.raises(FieldMismatchError):
            dot(ring, pairs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dot_cancelling_sqrt_sums_give_zero(data):
    """Multi-pair Q(sqrt(d)) sums whose products cancel, in both parts or in
    the sqrt(d) part only, from cached and fresh forms alike."""
    ring = PolyRing(["u1", "u2"], ["a"], d=data.draw(st.sampled_from([2, 3, 5])))
    pairs = data.draw(st.lists(st.tuples(_sqrt_polys(ring), _sqrt_polys(ring)),
                               min_size=1, max_size=4))
    dot(ring, pairs[:1])
    negated = [(-x, y) if k % 2 else (x, -y) for k, (x, y) in enumerate(pairs)]
    assert dot(ring, pairs + negated).is_zero()
    r = ring.const(Scalar.sqrt(ring.d))
    conj = [(x * (1 + r), y) for x, y in pairs] + [(x * (r - 1), -y) for x, y in pairs]
    total = dot(ring, conj)
    assert total == dot(ring, [(2 * x, y) for x, y in pairs])


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


# -- printing ----------------------------------------------------------------
#
# The two printers as they were written before `Poly._render` merged them,
# kept as references.


def ref_poly_str(p):
    if not p.terms:
        return "0"
    pieces = []
    for e, c in p.sorted_terms():
        mono = "*".join(
            n if k == 1 else f"{n}^{k}"
            for n, k in zip(p.ring.names, e)
            if k
        )
        cs = str(c)
        negative = cs.startswith("-") and ("+" not in cs[1:] and "-" not in cs[1:])
        if mono:
            if c == ONE:
                body = mono
            elif c == Scalar(-1):
                body = f"-{mono}"
            elif negative or ("+" not in cs and "-" not in cs[1:]):
                body = f"{cs}*{mono}"
            else:
                body = f"({cs})*{mono}"
        else:
            body = cs if (negative or ("+" not in cs and "-" not in cs[1:])) else f"({cs})"
        if pieces and not body.startswith("-"):
            pieces.append("+" + body)
        else:
            pieces.append(body)
    return "".join(pieces)


def ref_poly_latex(p):
    if not p.terms:
        return "0"

    def mono_latex(e):
        parts = []
        for n, k in zip(p.ring.names, e):
            if not k:
                continue
            name = _latex_name(n)
            base = f"{{{name}}}" if "^" in name else name
            parts.append(name if k == 1 else f"{base}^{{{k}}}")
        return " ".join(parts)

    pieces = []
    for e, c in p.sorted_terms():
        mono = mono_latex(e)
        if not mono:
            body = c.latex()
        elif c == ONE:
            body = mono
        elif c == Scalar(-1):
            body = f"-{mono}"
        else:
            cl = c.latex()
            if "+" in cl[1:] or "-" in cl[1:]:
                cl = f"\\left({cl}\\right)"
            body = f"{cl} {mono}"
        if pieces and not body.startswith("-"):
            pieces.append("+" + body)
        else:
            pieces.append(body)
    return "".join(pieces)


# the names `_latex_name` maps (u12, f23, alpha, lambda) and some it keeps
_PRINT_FIELDS = ["u1", "u12"]
_PRINT_PARAMS = ["f23", "alpha", "lambda", "beta2", "x/y"]
_NONZERO_FRACS = _FRACS.filter(bool)


@st.composite
def _print_coefficients(draw, d):
    """+-1, a fraction, a pure radical b*sqrt(d) or a + b*sqrt(d) with a, b != 0."""
    kinds = ["unit", "fraction"] + (["radical", "mixed"] if d else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "unit":
        return Scalar(draw(st.sampled_from([1, -1])))
    if kind == "fraction":
        return Scalar(draw(_NONZERO_FRACS))
    a = 0 if kind == "radical" else draw(_NONZERO_FRACS)
    return Scalar(a, draw(_NONZERO_FRACS), d)


@st.composite
def _print_polys(draw):
    """A polynomial over Q or Q(sqrt(d)), often with a constant term, possibly zero."""
    d = draw(st.sampled_from([0, 2, 3, 5]))
    ring = PolyRing(_PRINT_FIELDS, _PRINT_PARAMS, d=d)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        e = tuple(draw(st.sampled_from([0, 0, 0, 1, 2, 3])) for _ in ring.names)
        terms[e] = draw(_print_coefficients(d))
    if draw(st.booleans()):
        terms[ring._zero_exp] = draw(_print_coefficients(d))
    return Poly(ring, terms)


@settings(max_examples=300, deadline=None)
@given(_print_polys())
def test_printers_match_reference(p):
    assert str(p) == ref_poly_str(p)
    assert p.latex() == ref_poly_latex(p)


def test_printers_pinned_examples():
    ring = PolyRing(_PRINT_FIELDS, _PRINT_PARAMS, d=2)
    p = ring.parse("-u12^2*alpha+(1-sqrt(2))*u1*f23+lambda-3/2*x/y^2+(-1+sqrt(2))")
    assert str(p) == "-u12^2*alpha+(1-sqrt(2))*u1*f23-3/2*x/y^2+lambda+(-1+sqrt(2))"
    assert p.latex() == ("-{u^{12}}^{2} \\alpha+\\left(1-\\sqrt{2}\\right) u^{1} f^{23}"
                         "-\\frac{3}{2} x/y^{2}+\\lambda-1+\\sqrt{2}")
    assert str(ring.zero) == ring.zero.latex() == "0"
    assert str(ring.parse("-sqrt(2)*u1")) == "-sqrt(2)*u1"
    assert ring.parse("-sqrt(2)*u1").latex() == "-\\sqrt{2} u^{1}"


_SQRT2_RING = PolyRing(["u1"], ["alpha"], d=2)


@settings(max_examples=200, deadline=None)
@given(a=_FRACS, b=st.one_of(st.just(Fraction(0)), _FRACS))
def test_equal_values_hash_equal(a, b):
    """A value of Q or Q(sqrt 2) as a Scalar, a constant Poly and, when
    rational, a Fraction and an int: all equal, all one hash, one set
    element and one dict key."""
    value = Scalar(a, b, 2)
    forms = [value, _SQRT2_RING.const(value)]
    if not b:
        forms.append(a)
        if a.denominator == 1:
            forms.append(int(a))
    assert all(x == y and hash(x) == hash(y) for x in forms for y in forms)
    assert len(set(forms)) == 1
    assert len({x: k for k, x in enumerate(forms)}) == 1


_ONE_VALUE_RINGS = [PolyRing(["u1"], [], d=2), PolyRing(["u1", "u2"], [], d=2), _SQRT2_RING]


@settings(max_examples=200, deadline=None)
@given(a=_FRACS, b=st.one_of(st.just(Fraction(0)), _FRACS), order=st.permutations(range(6)))
def test_constants_of_different_rings_compare_by_value(a, b, order):
    """A value of Q or Q(sqrt 2) as a Scalar and as a constant of several
    rings, and when rational also of a Q ring, as a Fraction and as an int:
    equality is transitive, so the forms make one set element in every
    insertion order.  A field variable stays unequal to the same name in
    another ring."""
    value = Scalar(a, b, 2)
    rings = _ONE_VALUE_RINGS + ([] if b else [PolyRing(["u1"], [])])
    forms = [value] + [ring.const(value) for ring in rings]
    if not b:
        forms += [a] + ([int(a)] if a.denominator == 1 else [])
    forms = [forms[k] for k in order if k < len(forms)]
    assert all(x == y for x in forms for y in forms)
    assert len(set(forms)) == 1
    assert len({x: k for k, x in enumerate(forms)}) == 1
    u1 = [ring.var("u1") for ring in rings]
    assert all((x == y) == (x.ring == y.ring) for x in u1 for y in u1)
    assert all(x != ring.const(value) for x in u1 for ring in rings)
