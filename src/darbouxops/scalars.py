"""Exact scalars in a real quadratic extension Q(sqrt(d)).

A scalar is a + b*sqrt(d) with a, b rational and d a fixed square-free
non-negative integer (d = 0 means plain Q).  Values are immutable and
normalized on construction, so equality is structural.  Only one extension
may appear in a computation: combining sqrt(2)- and sqrt(3)-values raises
FieldMismatchError.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm

from .errors import FieldMismatchError, InvalidFieldError, ParseError, UnprintableValueError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


# `_is_square_free` trial-divides up to sqrt(d), about 5 * 10**5 steps just
# below this bound; larger tags would stall input parsing, so they are
# rejected instead of tested.
MAX_FIELD_TAG = 10**12


def _is_square_free(d: int) -> bool:
    if d < 0:
        return False
    for p in _SMALL_PRIMES:
        if p * p > d:
            break
        if d % (p * p) == 0:
            return False
    k = _SMALL_PRIMES[-1] + 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 2
    return True


def validate_field_tag(d: int) -> int:
    d = int(d)
    if d in (0, 1):
        return 0
    if d >= MAX_FIELD_TAG:
        raise InvalidFieldError(f"field tag {d} is too large (limit {MAX_FIELD_TAG})")
    if not _is_square_free(d):
        raise InvalidFieldError(f"field tag {d} is not square-free")
    return d


def join_field_tags(d1: int, d2: int, clash: str = "cannot mix sqrt({}) and sqrt({})") -> int:
    """The tag of a computation mixing sqrt(d1)- and sqrt(d2)-values: the
    nonzero one, or FieldMismatchError(clash.format(d1, d2)) when both are
    nonzero and differ."""
    if d1 and d2 and d1 != d2:
        raise FieldMismatchError(clash.format(d1, d2))
    return d1 or d2


def field_tag(values) -> int:
    """The sqrt(d) tag of the first value that carries one, else 0 (plain Q)."""
    return next((x.d for x in values if x.d), 0)


def _too_long_to_print() -> UnprintableValueError:
    """The error for a value past Python's limit on int-string digits."""
    return UnprintableValueError(
        f"a computed value has more than {sys.get_int_max_str_digits()} digits"
        " and cannot be printed"
    )


class Frozen:
    """Base of the immutable value types: setting an attribute raises
    AttributeError, and a copy or a pickle is rebuilt from the slots (`_thaw`)."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _thaw, (type(self), tuple(getattr(self, name) for name in self.__slots__))


def _thaw(cls, values):
    """The `cls` value whose slots hold `values`, in `cls.__slots__` order."""
    value = object.__new__(cls)
    for name, item in zip(cls.__slots__, values):
        object.__setattr__(value, name, item)
    return value


def _power(base, n, one, kind: str):
    """base**n from `one` by square and multiply, a product per set bit of n and a
    squaring per bit below the top one; ValueError naming `kind` unless n is an int >= 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"{kind} powers must be non-negative integers")
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class Scalar(Frozen):
    """Immutable element of Q(sqrt(d))."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d: int = 0):
        a = Fraction(a)
        b = Fraction(b)
        d = int(d)
        if d == 1:
            a, b, d = a + b, Fraction(0), 0
        if b == 0:
            d = 0
        elif d == 0:
            b = Fraction(0)
        else:
            d = validate_field_tag(d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    # -- helpers -------------------------------------------------------

    @staticmethod
    def of(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        if isinstance(value, str):
            return parse_scalar(value)
        raise TypeError(f"cannot coerce {value!r} to Scalar")

    @staticmethod
    def sqrt(d: int) -> "Scalar":
        d = int(d)
        if d in (0, 1):
            return _rational(Fraction(d))
        return _make(_FRACTION_ZERO, _FRACTION_ONE, validate_field_tag(d))

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    # -- arithmetic ----------------------------------------------------
    #
    # Results are built by `_make`/`_rational` from parts that are already
    # normalized, so the hot path never re-runs `__init__`.  With d == 0 on
    # both sides (every computation over Q) only the rational part is touched.

    @staticmethod
    def _coerce(other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(other)
        return None

    def __add__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is None:
                return NotImplemented
        if not (self.d or other.d):
            return _rational(self.a + other.a)
        return _make(self.a + other.a, self.b + other.b, join_field_tags(self.d, other.d))

    __radd__ = __add__

    def __neg__(self):
        if not self.d:
            return _rational(-self.a)
        return _make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is None:
                return NotImplemented
        if not (self.d or other.d):
            return _rational(self.a - other.a)
        return _make(self.a - other.a, self.b - other.b, join_field_tags(self.d, other.d))

    def __rsub__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            if type(other) is int:
                if not self.d:
                    return _rational(self.a * other)
                return _make(self.a * other, self.b * other, self.d)
            other = Scalar._coerce(other)
            if other is None:
                return NotImplemented
        if not (self.d or other.d):
            return _rational(self.a * other.a)
        d = join_field_tags(self.d, other.d)
        return _make(
            self.a * other.a + d * self.b * other.b,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("scalar inverse of zero")
        if not self.d:
            return _rational(1 / self.a)
        # (a + b sqrt(d))^-1 = (a - b sqrt(d)) / (a^2 - d b^2); the norm is
        # nonzero because sqrt(d) is irrational for square-free d > 1.
        norm = self.a * self.a - self.d * self.b * self.b
        return _make(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        return _power(self, n, ONE, "scalar")

    # -- comparisons ---------------------------------------------------

    def __bool__(self):
        # normalization keeps b != 0 exactly when d != 0
        return bool(self.d) or bool(self.a)

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is None:
                return NotImplemented
        return self.d == other.d and self.a == other.a and self.b == other.b

    def __hash__(self):
        # a rational value equals its Fraction (and an integral one its int)
        return hash((self.a, self.b, self.d)) if self.d else hash(self.a)

    # -- formatting ----------------------------------------------------

    def _render(self, style) -> str:
        """a + b*sqrt(d) printed by `style` (`_TEXT_NUMBER`, `_LATEX_NUMBER`): its
        number printer, then the product sign and radical format after a |b| != 1."""
        number, times, root = style
        try:
            a, b = self.a, self.b
            if not b:
                return number(a)
            rad = ("" if abs(b) == 1 else number(abs(b)) + times) + root.format(self.d)
            sign = "-" if b < 0 else ""
            return sign + rad if not a else number(a) + (sign or "+") + rad
        except ValueError:  # Python's limit on int-string digits; arithmetic can pass it
            raise _too_long_to_print() from None

    def __str__(self):
        if self.d:
            return self._render(_TEXT_NUMBER)
        try:
            # a shared literal: zeros are the bulk of printed output
            return str(self.a) if self.a else "0"
        except ValueError:  # the digit limit, as in `_render`
            raise _too_long_to_print() from None

    def __repr__(self):
        return f"Scalar({self})"

    def latex(self) -> str:
        return self._render(_LATEX_NUMBER)


def _latex_number(q: Fraction) -> str:
    """q in LaTeX: an integer in digits, a fraction as \\frac{|p|}{q} after its sign."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{'-' if q < 0 else ''}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


# `Scalar._render` styles: the number printer, the product sign and the radical.
_TEXT_NUMBER = (str, "*", "sqrt({})")
_LATEX_NUMBER = (_latex_number, "", "\\sqrt{{{}}}")


_new = object.__new__
_set_a = Scalar.a.__set__
_set_b = Scalar.b.__set__
_set_d = Scalar.d.__set__
_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)


def _rational(a: Fraction) -> Scalar:
    """Internal constructor for a + 0*sqrt(d); `a` must be a Fraction."""
    s = _new(Scalar)
    _set_a(s, a)
    _set_b(s, _FRACTION_ZERO)
    _set_d(s, 0)
    return s


def _make(a: Fraction, b: Fraction, d: int) -> Scalar:
    """Internal constructor from Fraction parts and an already validated tag.

    The only normalization left is the one arithmetic can undo: when b
    cancels to zero the value is rational and d drops to 0.
    """
    s = _new(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d if b else 0)
    return s


def to_integers(values) -> tuple:
    """(d, den, [(A, B), ...]): each of `values` as (A + B*sqrt(d))/den.

    The one Z[sqrt(d)] integer form of the package: d is the tag of all
    values joined (`join_field_tags`) and den the lcm of all their
    denominators.  `values` is a collection of Scalars, read twice.
    """
    d, den = 0, 1
    for x in values:
        if x.d:
            if x.d != d:
                d = join_field_tags(d, x.d)
            den = lcm(den, x.a.denominator, x.b.denominator)
        elif x.a.denominator != 1:
            den = lcm(den, x.a.denominator)
    return d, den, [(x.a.numerator * (den // x.a.denominator),
                     x.b.numerator * (den // x.b.denominator)) for x in values]


def from_integers(a: int, b: int, den: int, d: int) -> Scalar:
    """(a + b*sqrt(d)) / den, the inverse of `to_integers`; d must be a valid tag or 0."""
    if b:
        return _make(Fraction(a, den), Fraction(b, den), d)
    return _rational(Fraction(a, den))


ZERO = Scalar(0)
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)

# One signed term of a scalar literal: signs, an optional rational factor
# p or p/q, and an optional radical sqrt(r).  A "*" after the factor is
# accepted before the radical or at the end of the literal only.
_SCALAR_TERM_RE = re.compile(r"([+-]*)(?:(\d+)(?:/(\d+))?(?:\*(?=sqrt\(|$))?)?(?:sqrt\((\d+)\))?")
_SPACE_RE = re.compile(r"\s+")


def _too_long(literal: str) -> ParseError:
    """The error for a literal above Python's limit on int-string digits."""
    return ParseError(f"number literal of {len(literal)} characters is too long")


def _int(digits: str) -> int:
    """A decimal literal; one above Python's int-string digit limit is a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise _too_long(digits) from None


def _above_digit_limit(x: int, limit: int) -> bool:
    """Whether str(x) has more than `limit` digits, decided from the bit length."""
    bits = abs(x).bit_length()
    # 2**(3 * limit) < 10**limit < 2**(4 * limit): only lengths in between need the exact test
    return bits > 3 * limit and (bits > 4 * limit or abs(x) >= 10**limit)


def _unprintable(context: str, limit: int) -> ParseError:
    return ParseError(f"a number in a literal of {len(context)} characters has more than"
                      f" {limit} digits")


def _printable(value: Scalar, context: str) -> Scalar:
    """`value`, or a ParseError when a numerator or denominator of it has
    more digits than Python's int-string limit lets `str` print."""
    limit = sys.get_int_max_str_digits()
    a, b = value.a, value.b
    # the bit length of the OR is the largest of the four; only a number of
    # more than 3 * limit bits can pass the limit (`_above_digit_limit`)
    if limit and (abs(a.numerator) | a.denominator | abs(b.numerator)
                  | b.denominator).bit_length() > 3 * limit and any(
            _above_digit_limit(x, limit)
            for x in (a.numerator, a.denominator, b.numerator, b.denominator)):
        raise _unprintable(context, limit)
    return value


def _literal_power(literal: str, power: int, context: str) -> Scalar:
    """A "p" or "p/q" literal to a power, refused before the power is taken when it is too long."""
    base = _fraction(literal, context)
    limit = sys.get_int_max_str_digits()
    bits = max(abs(base.numerator).bit_length(), base.denominator.bit_length()) - 1
    if limit and bits * power > 4 * limit:  # the power is at least 2**(bits * power)
        raise _unprintable(context, limit)
    return _printable(_rational(base**power), context)


def _fraction(literal: str, context: str) -> Fraction:
    """A "p" or "p/q" literal; a zero denominator or too many digits is a ParseError."""
    try:
        return Fraction(literal)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {literal!r} ({context!r})") from None
    except ValueError:
        raise _too_long(literal) from None


def parse_scalar(text: str) -> Scalar:
    """Parse "p/q", "p/q+r/s*sqrt(d)" and friends (whitespace ignored).

    The terms are read left to right with integer numerators and
    denominators, as a sum of Scalars would combine them: a radical with a
    zero factor, sqrt(0) and sqrt(1) need no valid tag, and two radicals
    clash only while the sqrt part of the sum so far is nonzero.
    """
    s = _SPACE_RE.sub("", text)
    if not s:
        raise ParseError("empty scalar literal")
    an, ad = 0, 1  # rational part an/ad
    bn, bd = 0, 1  # sqrt(d) part bn/bd
    d = 0
    pos = 0
    match = _SCALAR_TERM_RE.match
    while pos < len(s):
        m = match(s, pos)
        signs, num, den, rad = m.groups()
        end = m.end()
        # a term ends at the end of the literal or where the next term's sign starts
        if (num is None and rad is None) or (end < len(s) and s[end] not in "+-"):
            raise ParseError(f"bad scalar term at {s[pos:]!r} in {text!r}")
        pos = end
        p = _int(num) if num is not None else 1
        q = _int(den) if den is not None else 1
        if not q:
            raise ParseError(f"zero denominator in {num + '/' + den!r} ({text!r})")
        if signs.count("-") % 2:
            p = -p
        r = 0 if rad is None else _int(rad)
        if rad is None or r == 1:
            an, ad = an * q + p * ad, ad * q
        elif r and p:
            r = validate_field_tag(r)
            if bn and r != d:
                raise FieldMismatchError(f"cannot mix sqrt({d}) and sqrt({r})")
            bn, bd = bn * q + p * bd, bd * q
            d = r if bn else 0
    a = Fraction(an, ad)
    return _printable(_make(a, Fraction(bn, bd), d) if bn else _rational(a), text)
