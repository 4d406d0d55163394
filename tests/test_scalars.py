import re
import sys
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darbouxops.errors import (
    FieldMismatchError,
    InvalidFieldError,
    ParseError,
    UnprintableValueError,
)
from darbouxops.scalars import (
    Scalar,
    _above_digit_limit,
    _printable,
    _unprintable,
    from_integers,
    join_field_tags,
    parse_scalar,
    to_integers,
    validate_field_tag,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)


def test_construction_normalizes():
    assert Scalar(Fraction(2, 4)) == Scalar(Fraction(1, 2))
    assert Scalar(1, 0, 5) == Scalar(1)
    assert Scalar(1, 0, 5).d == 0
    assert Scalar(2, 3, 1) == Scalar(5)  # sqrt(1) folds into the rational part


def test_square_free_rejected():
    with pytest.raises(InvalidFieldError):
        Scalar(0, 1, 8)
    with pytest.raises(InvalidFieldError):
        Scalar(0, 1, 12)
    Scalar(0, 1, 30)  # 2*3*5 is fine


def test_large_field_tags_rejected_without_factoring():
    assert validate_field_tag(999999999989) == 999999999989  # prime, below the bound
    for d in (10**12, 10**12 + 39, 1000000000000000000000000000007):
        with pytest.raises(InvalidFieldError):
            validate_field_tag(d)


def test_conjugate_product_is_norm():
    s = Scalar(2, 3, 5)
    t = Scalar(2, -3, 5)
    assert s * t == Scalar(4 - 5 * 9)
    assert (s * t).is_rational


def test_inverse_in_extension():
    s = Scalar(1, 1, 2)
    assert s * s.inverse() == Scalar(1)
    assert (s.inverse()).d == 2
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()


def test_power_squares_only_while_bits_remain(monkeypatch):
    """x**n takes one product per set bit and one squaring per bit below the
    top one, as `Poly.__pow__` does: x**1 is the single product 1*x and
    x**8 three squarings and one product."""
    x = Scalar(1, 1, 2)
    calls = []
    product = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda s, o: calls.append(1) or product(s, o))
    expected = Scalar(1)
    for n in range(0, 12):
        calls.clear()
        got = x**n
        assert len(calls) == (n.bit_length() + bin(n).count("1") - 1 if n else 0), n
        assert got == expected
        expected = product(expected, x)
    for n, made in ((1, 1), (8, 4)):
        calls.clear()
        x**n
        assert len(calls) == made, n


def test_field_mixing_rejected():
    with pytest.raises(FieldMismatchError):
        Scalar(0, 1, 2) + Scalar(0, 1, 3)
    with pytest.raises(FieldMismatchError):
        Scalar(0, 1, 2) * Scalar(0, 1, 3)
    with pytest.raises(FieldMismatchError):
        Scalar(0, 1, 2) - Scalar(1, 1, 3)
    with pytest.raises(FieldMismatchError):
        Scalar(1, 1, 2) / Scalar(0, 1, 3)
    # rationals embed into any extension
    assert Scalar(2) * Scalar(0, 1, 3) == Scalar(0, 2, 3)


@pytest.mark.parametrize(
    "text,value",
    [
        ("3", Scalar(3)),
        ("-5/7", Scalar(Fraction(-5, 7))),
        ("1/2+1/2*sqrt(2)", Scalar(Fraction(1, 2), Fraction(1, 2), 2)),
        ("-1/2*sqrt(3)", Scalar(0, Fraction(-1, 2), 3)),
        ("sqrt(2)", Scalar(0, 1, 2)),
        (" 1/2 - 3/4 * sqrt(5) ", Scalar(Fraction(1, 2), Fraction(-3, 4), 5)),
    ],
)
def test_parse(text, value):
    assert parse_scalar(text) == value


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_scalar("")
    with pytest.raises(ParseError):
        parse_scalar("two")


@given(rationals, rationals, rationals, rationals)
def test_extension_arithmetic_matches_componentwise(a1, b1, a2, b2):
    x = Scalar(a1, b1, 2)
    y = Scalar(a2, b2, 2)
    assert x + y == Scalar(a1 + a2, b1 + b2, 2)
    assert x * y == Scalar(a1 * a2 + 2 * b1 * b2, a1 * b2 + a2 * b1, 2)
    if x:
        assert x * x.inverse() == Scalar(1)


def test_parse_digit_limit_is_a_parse_error():
    """A literal above Python's int-string digit limit is a ParseError, not a ValueError."""
    digits = "9" * 5000
    for text in (digits, f"1/{digits}", f"sqrt({digits})", f"1+{digits}*sqrt(2)"):
        with pytest.raises(ParseError, match="too long"):
            parse_scalar(text)


def test_parse_value_above_digit_limit_is_a_parse_error():
    """Terms within the limit whose sum prints above it are refused, not left to str()."""
    text = "+".join(f"1/{10**2000 + k}" for k in (1, 3, 7))
    with pytest.raises(ParseError, match="more than 4300 digits"):
        parse_scalar(text)
    assert str(parse_scalar("+".join(f"1/{10**2000 + k}" for k in (1, 3))))


def test_printable_boundary_is_the_digit_limit():
    """Each of the four numbers of a value may have exactly `limit` digits, not one more."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no int-string digit limit set")
    top = 10**limit - 1
    for x, error in ((top, False), (top + 1, True)):
        for value in (Scalar(-x), Scalar(Fraction(1, x)), Scalar(1, x, 2),
                      Scalar(0, Fraction(-1, x), 3)):
            if error:
                with pytest.raises(ParseError) as exc:
                    _printable(value, "ctx")
                assert str(exc.value) == str(_unprintable("ctx", limit))
            else:
                assert _printable(value, "ctx") is value


@given(st.integers(min_value=0, max_value=10**60), st.integers(1, 60))
@example(10**20 - 1, 20)
@example(10**20, 20)
def test_digit_limit_test_is_exact(x, limit):
    assert _above_digit_limit(x, limit) == (len(str(x)) > limit)
    assert _above_digit_limit(-x, limit) == (len(str(x)) > limit)


@given(rationals, rationals)
def test_print_parse_roundtrip(a, b):
    for d in (0, 2, 3):
        s = Scalar(a, b, d)
        assert _parts(parse_scalar(str(s))) == _parts(s)


def _reference_parse_scalar(text):
    """One Scalar per signed chunk, summed: kept as the reference for parse_scalar."""
    term_re = re.compile(r"^(?:(?P<coef>-?\d+(?:/\d+)?)\*?)?(?:sqrt\((?P<d>\d+)\))?$")
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty scalar literal")
    chunks = []
    start = 0
    for i, ch in enumerate(s):
        if ch in "+-" and i > start and s[i - 1] not in "+-*/(":
            chunks.append(s[start:i])
            start = i
    chunks.append(s[start:])
    total = Scalar(0)
    for chunk in chunks:
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        m = term_re.match(chunk)
        if not m or (m.group("coef") is None and m.group("d") is None):
            raise ParseError(f"bad scalar term {chunk!r} in {text!r}")
        try:
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        except ZeroDivisionError:
            raise ParseError("zero denominator") from None
        coef *= sign
        if m.group("d") is not None:
            total = total + Scalar(0, coef, int(m.group("d")))
        else:
            total = total + Scalar(coef)
    return total


def _parse_outcome(parse, text):
    try:
        return _parts(parse(text))
    except (ParseError, FieldMismatchError, InvalidFieldError) as exc:
        return type(exc)


_LITERAL_PIECES = ["0", "1", "2", "3", "12", "/", "+", "-", "*", " ", "(", ")", "x", "s",
                   "sqrt(", "sqrt(0)", "sqrt(1)", "sqrt(2)", "sqrt(3)", "sqrt(4)", "1/0"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_LITERAL_PIECES), max_size=8).map("".join))
@example("3*")
@example("3sqrt(2)")
@example("3*+2")
@example("sqrt(2)-sqrt(2)+sqrt(3)")
@example("sqrt(2)+sqrt(3)x")
@example("0*sqrt(4)+1")
@example("1/0*sqrt(4)")
@example("--1+-+2/4")
def test_parse_matches_reference(text):
    """Same value (parts, types, hash, str) or the same error type as the reference."""
    assert _parse_outcome(parse_scalar, text) == _parse_outcome(_reference_parse_scalar, text)


def _parts(s):
    return (s.a, s.b, s.d, hash(s), str(s), type(s.a), type(s.b))


@given(rationals, rationals, rationals, rationals, st.sampled_from([0, 2, 3]), st.booleans())
def test_arithmetic_results_are_normalized(a1, b1, a2, b2, d, cancel):
    """Every result equals the normalizing constructor applied to its exact parts."""
    if cancel:
        b2 = -b1  # the radical parts of x + y cancel
    if not d:
        b1 = b2 = Fraction(0)
    x, y = Scalar(a1, b1, d), Scalar(a2, b2, d)

    def product(p, q):  # parts of (p0 + p1 sqrt(d)) (q0 + q1 sqrt(d))
        return p[0] * q[0] + d * p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    assert _parts(x + y) == _parts(Scalar(a1 + a2, b1 + b2, d))
    assert _parts(x - y) == _parts(Scalar(a1 - a2, b1 - b2, d))
    assert _parts(x * y) == _parts(Scalar(*product((a1, b1), (a2, b2)), d))
    assert _parts(-x) == _parts(Scalar(-a1, -b1, d))
    for k in (0, 1, -3):
        assert _parts(x * k) == _parts(x * Scalar(k)) == _parts(Scalar(a1 * k, b1 * k, d))
    if y:
        norm = a2 * a2 - d * b2 * b2
        inv = (a2 / norm, -b2 / norm)
        assert _parts(y.inverse()) == _parts(Scalar(*inv, d))
        assert _parts(x / y) == _parts(Scalar(*product((a1, b1), inv), d))


@pytest.mark.parametrize("value", [
    Scalar(10**5000),
    Scalar(Fraction(1, 10**5000)),
    Scalar(1, 10**5000, 2),
    Scalar(10**5000, 1, 3),
])
def test_unprintable_value_is_typed(value):
    """Arithmetic can pass the int-string digit limit that the parser enforces;
    plain and LaTeX printing both raise the typed error."""
    for show in (str, Scalar.latex):
        with pytest.raises(UnprintableValueError):
            show(value)


def _reference_str(s):
    """The text printer `_render` replaced, kept as its reference."""
    try:
        if not s.d:
            return str(s.a) if s.a else "0"
        rad = f"sqrt({s.d})" if abs(s.b) == 1 else f"{abs(s.b)}*sqrt({s.d})"
        rad = ("-" if s.b < 0 else "") + rad
        if s.a == 0:
            return rad
        if s.b < 0:
            return f"{s.a}{rad}"
        return f"{s.a}+{rad}"
    except ValueError:
        raise UnprintableValueError("digit limit") from None


def _reference_latex(s):
    """The LaTeX printer `_render` replaced, kept as its reference."""
    def frac(q, radical=""):
        sign = "-" if q < 0 else ""
        q = abs(q)
        if q.denominator == 1:
            body = "" if (q == 1 and radical) else str(q.numerator)
        else:
            num = "" if (q.numerator == 1 and radical) else str(q.numerator)
            return f"{sign}\\frac{{{num or 1}}}{{{q.denominator}}}{radical}"
        return f"{sign}{body}{radical}"

    try:
        if s.b == 0:
            return frac(s.a)
        rad = frac(s.b, f"\\sqrt{{{s.d}}}")
        if s.a == 0:
            return rad
        return frac(s.a) + ("+" if s.b > 0 else "") + rad
    except ValueError:
        raise UnprintableValueError("digit limit") from None


# parts of printed values: 0 and +-1 (a radical printed without its
# coefficient) as well as negative and fractional rationals
_PRINT_PARTS = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]), rationals)


@settings(max_examples=500, deadline=None)
@given(_PRINT_PARTS, _PRINT_PARTS, st.sampled_from([0, 2, 3]))
def test_printers_match_reference(a, b, d):
    s = Scalar(a, b, d)
    assert str(s) == _reference_str(s)
    assert s.latex() == _reference_latex(s)


def test_printers_at_the_digit_limit():
    """A part of exactly `limit` digits prints as the references print it; one
    digit more is an UnprintableValueError from both printers, in either part."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no int-string digit limit set")
    top = 10**limit - 1
    for x, error in ((top, False), (top + 1, True)):
        for value in (Scalar(-x), Scalar(Fraction(1, x)), Scalar(1, x, 2), Scalar(x, -1, 3),
                      Scalar(0, Fraction(-1, x), 3)):
            for show, reference in ((str, _reference_str), (Scalar.latex, _reference_latex)):
                if error:
                    with pytest.raises(UnprintableValueError):
                        show(value)
                else:
                    assert show(value) == reference(value)


def _reference_power(x, n):
    """The Scalar power loop `scalars._power` replaced, kept as its reference."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("scalar powers must be non-negative integers")
    out = Scalar(1)
    base = x
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


@settings(max_examples=200, deadline=None)
@given(_PRINT_PARTS, _PRINT_PARTS, st.sampled_from([0, 2, 3]),
       st.one_of(st.integers(-3, 40), st.just(1.0)))
def test_power_matches_reference(a, b, d, n):
    """The same power, or the same error, from the same number of products."""
    x = Scalar(a, b, d)
    outcomes = []
    product = Scalar.__mul__
    for power in (lambda: x**n, lambda: _reference_power(x, n)):
        calls = []
        with mock.patch.object(Scalar, "__mul__", lambda s, o: calls.append(1) or product(s, o)):
            try:
                outcomes.append((power(), len(calls)))
            except ValueError as exc:
                outcomes.append((str(exc), len(calls)))
    assert outcomes[0] == outcomes[1]


def test_join_field_tags():
    assert join_field_tags(0, 0) == 0
    assert join_field_tags(2, 0) == join_field_tags(0, 2) == join_field_tags(2, 2) == 2
    with pytest.raises(FieldMismatchError, match="cannot mix sqrt\\(2\\) and sqrt\\(3\\)"):
        join_field_tags(2, 3)
    with pytest.raises(FieldMismatchError, match="^A 2, B 3$"):
        join_field_tags(2, 3, "A {}, B {}")


@st.composite
def _field_values(draw, d):
    """Scalars of Q(sqrt(d)), zeros and rationals included."""
    parts = st.tuples(rationals, st.just(0) | rationals)
    return [Scalar(a, b, d) for a, b in draw(st.lists(parts, max_size=8))]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 2, 3, 5]).flatmap(_field_values))
def test_integer_form_round_trip(values):
    """Each value comes back exactly; den is the least common denominator
    and d the tag of the values."""
    d, den, ints = to_integers(values)
    assert d == max((x.d for x in values), default=0)
    assert den == lcm(*[q.denominator for x in values for q in (x.a, x.b)])
    assert len(ints) == len(values)
    assert [from_integers(a, b, den, d) for a, b in ints] == values
    assert all(type(a) is int and type(b) is int for a, b in ints)
    if not d:
        assert all(b == 0 for _, b in ints)


def test_integer_form_edges():
    assert to_integers([]) == (0, 1, [])
    assert to_integers([Scalar(0)]) == (0, 1, [(0, 0)])
    assert to_integers([Scalar(Fraction(1, 2)), Scalar(Fraction(-1, 3), Fraction(1, 4), 2)]) == (
        2, 12, [(6, 0), (-4, 3)])
    assert from_integers(6, -4, -12, 3) == Scalar(Fraction(-1, 2), Fraction(1, 3), 3)
    with pytest.raises(FieldMismatchError, match="cannot mix sqrt\\(2\\) and sqrt\\(3\\)"):
        to_integers([Scalar(1), Scalar(0, 1, 2), Scalar(5), Scalar(1, 1, 3)])
