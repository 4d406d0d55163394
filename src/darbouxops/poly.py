"""Sparse multivariate polynomials with exact Q(sqrt(d)) coefficients.

Indeterminates are fixed per ring: the field variables u^i of the
operator first, then the formal parameters (such as alpha, f23 or a pencil
weight lambda), in declaration order; a ring stores the number of field
variables, `nfields`.  Monomials are exponent tuples; the canonical order
is graded lexicographic in that order.  Zero coefficients are never stored.

Products and sums of products go through one integer kernel, `dot`.  Each
operand is written once in the integer form of `scalars.to_integers`, one
pair (A, B) per term over a common denominator D, and each monomial is
packed into one int with a 16-bit field per indeterminate.  `dot` caches
this form on the polynomial, because the entries of a structure tensor or
an operator are multiplied many times; a single product `*` does not keep
it.  A sum of products then multiplies monomials by adding their packed
ints, accumulates integers keyed by the packed monomial, each product
scaled to the lcm L of the operand denominators -- over Q one int per
monomial, over Q(sqrt(d)) one two-slot [a, b] list updated in place --
and unpacks and builds one `Scalar` per nonzero output term
(`scalars.from_integers`).  The contract is the one of Scalar arithmetic
summed term by term: the same terms and no stored zeros, with
ShapeMismatchError for operands from different rings and
FieldMismatchError for sqrt(d) against sqrt(d') with d != d'.

Packed fields never carry into each other: an operand exponent is at most
MAX_EXPONENT = 2**15 - 1, so a product exponent stays below 2**16.  A
product operand with a larger exponent raises ExponentOverflowError, and
the parser rejects larger exponents with ParseError.

`parse_poly` reads a literal factor by factor with one compiled pattern
and builds one coefficient and one exponent tuple per term.  An unreadable
factor is delimited and reported as the factor a character-by-character
reading would see (`_factor_error`), so each bad literal keeps its error
type.  `str` and `latex` print through one loop, `Poly._render`; its two
styles, `_TEXT` and `_LATEX`, differ only in data.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import or_
from typing import Iterable, Mapping

from .errors import (
    ExponentOverflowError,
    ParseError,
    ShapeMismatchError,
    UnknownIndeterminateError,
)
from .scalars import (
    MINUS_ONE,
    ONE,
    ZERO,
    Frozen,
    Scalar,
    _int,
    _literal_power,
    _power,
    _printable,
    from_integers,
    join_field_tags,
    parse_scalar,
    to_integers,
    validate_field_tag,
)

# Largest exponent of a product operand; see the module docstring.
MAX_EXPONENT = 2**15 - 1


class PolyRing(Frozen):
    __slots__ = ("names", "nfields", "d", "_index", "_zero_exp", "_exp_struct", "_exp_high")

    def __init__(self, field_vars: Iterable[str], params: Iterable[str] = (), d: int = 0):
        field_vars, params = tuple(field_vars), tuple(params)
        names = field_vars + params
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate indeterminate names in {names}")
        for name in names:
            if not _readable_name(name):
                raise ValueError(f"indeterminate name {name!r} cannot be read in a polynomial")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "nfields", len(field_vars))
        object.__setattr__(self, "d", validate_field_tag(d))
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_zero_exp", (0,) * len(names))
        # packed monomials: one little-endian 16-bit field per indeterminate;
        # `_exp_high` has the top bit of every field set
        object.__setattr__(self, "_exp_struct", struct.Struct(f"<{len(names)}H"))
        object.__setattr__(self, "_exp_high", int.from_bytes(b"\x00\x80" * len(names), "little"))

    def __reduce__(self):
        # through the constructor: the packing `struct.Struct` cannot be pickled
        return PolyRing, (self.names[:self.nfields], self.names[self.nfields:], self.d)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.nfields == other.nfields
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.names, self.nfields, self.d))

    def __repr__(self):
        return f"PolyRing(names={self.names}, d={self.d})"

    @property
    def nvars(self) -> int:
        return len(self.names)

    def field_indices(self) -> tuple:
        return tuple(range(self.nfields))

    def param_indices(self) -> tuple:
        return tuple(range(self.nfields, len(self.names)))

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownIndeterminateError(f"{name!r} not in ring {self.names}")

    def var(self, name: str) -> "Poly":
        i = self.index(name)
        exp = list(self._zero_exp)
        exp[i] = 1
        return Poly(self, {tuple(exp): ONE})

    def const(self, value) -> "Poly":
        s = Scalar.of(value)
        if not s:
            return Poly(self, {})
        return Poly(self, {self._zero_exp: s})

    @property
    def zero(self) -> "Poly":
        return Poly(self, {})

    @property
    def one(self) -> "Poly":
        return self.const(1)

    def parse(self, text: str) -> "Poly":
        return parse_poly(self, text)

    def extend_params(self, extra: Iterable[str]) -> "PolyRing":
        return PolyRing(self.names[:self.nfields], self.names[self.nfields:] + tuple(extra),
                        d=self.d)


def _grlex_key(exp):
    return (sum(exp), exp)


class Poly(Frozen):
    # `_ints` caches the integer form used by `dot`; None until first needed.
    __slots__ = ("ring", "terms", "_ints")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple, Scalar]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})
        object.__setattr__(self, "_ints", None)

    # -- coercion ------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ShapeMismatchError("polynomials from different rings")
            return other
        return self.ring.const(other)

    # -- predicates ----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Scalar:
        value = self.terms.get(self.ring._zero_exp, ZERO)
        if len(self.terms) > bool(value):  # a term besides the constant one
            raise ShapeMismatchError(f"{self} is not constant")
        return value

    def degree_on(self, indices) -> int:
        if not self.terms:
            return 0
        return max(sum(e[i] for i in indices) for e in self.terms)

    def depends_on(self, index: int) -> bool:
        return any(e[index] for e in self.terms)

    def is_u_free(self) -> bool:
        fidx = self.ring.field_indices()
        return not any(e[i] for e in self.terms for i in fidx)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            c = c if s is None else s + c
            if c:
                terms[e] = c
            elif s is not None:
                del terms[e]
        return Poly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            s = Scalar.of(other)
            if not s:
                return self.ring.zero
            return Poly(self.ring, {e: c * s for e, c in self.terms.items()})
        return dot(self.ring, ((self, other),), keep=False)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, self.ring.one, "poly")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.ring != other.ring:
            # constants of two rings compare by value, as each does with a number
            return (self.is_constant() and other.is_constant()
                    and self.constant_value() == other.constant_value())
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its value (`__eq__`), so it hashes as that value
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus and substitution --------------------------------------

    def partial(self, var) -> "Poly":
        i = var if isinstance(var, int) else self.ring.index(var)
        # lowering e[i] by one is one-to-one on the terms with e[i] > 0, so
        # no two results meet and no coefficient cancels
        return _poly(self.ring, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in self.terms.items() if e[i]
        })

    def subs(self, mapping: Mapping) -> "Poly":
        """Substitute ring elements for indeterminates (same ring).

        Powers of constant values are multiplied into the coefficient as
        Scalars; powers of the other values are multiplied in as polynomials.
        """
        sub = {}
        for key, val in mapping.items():
            i = key if isinstance(key, int) else self.ring.index(key)
            val = self._coerce(val)
            sub[i] = val.constant_value() if val.is_constant() else val
        out = self.ring.zero
        pow_cache: dict = {}
        for e, c in self.terms.items():
            # indeterminates that are not substituted stay in the monomial
            kept = list(e)
            powers = []
            for i, value in sub.items():
                k = e[i]
                if k:
                    kept[i] = 0
                    key = (i, k)
                    power = pow_cache.get(key)
                    if power is None:
                        power = pow_cache[key] = value**k
                    if type(power) is Scalar:
                        c = c * power
                    else:
                        powers.append(power)
            if not c:
                continue
            term = _poly(self.ring, {tuple(kept): c})
            for power in powers:
                term = term * power
            out = out + term
        return out

    def coefficient_of_power(self, var, k: int) -> "Poly":
        i = var if isinstance(var, int) else self.ring.index(var)
        # e[i] == k is fixed, so setting it to 0 merges no two terms
        return _poly(self.ring, {e[:i] + (0,) + e[i + 1:]: c
                                 for e, c in self.terms.items() if e[i] == k})

    # -- formatting ----------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ec: _grlex_key(ec[0]), reverse=True)

    def _render(self, style) -> str:
        """The terms in decreasing grlex order, printed by `style` (`_TEXT`, `_LATEX`):
        a coefficient of +-1 left out before a monomial, a coefficient with
        an inner sign bracketed, "+" before every later term not starting with "-",
        and the power of a name that already carries a superscript braced."""
        if not self.terms:
            return "0"
        coef, name, power, superscripted_power, times, grouped, grouped_constant = style
        names = [name(n) for n in self.ring.names]
        powers = [superscripted_power if "^" in n else power for n in names]
        pieces = []
        for e, c in self.sorted_terms():
            mono = times.join(n if k == 1 else p.format(n, k)
                              for n, p, k in zip(names, powers, e) if k)
            if mono and c == ONE:
                body = mono
            elif mono and c == MINUS_ONE:
                body = "-" + mono
            else:
                body = coef(c)
                if "+" in body[1:] or "-" in body[1:]:
                    body = (grouped if mono else grouped_constant).format(body)
                if mono:
                    body += times + mono
            pieces.append("+" + body if pieces and body[0] != "-" else body)
        return "".join(pieces)

    def __str__(self):
        return self._render(_TEXT)

    def __repr__(self):
        return f"Poly({self})"

    def latex(self) -> str:
        return self._render(_LATEX)


_new = object.__new__
_set_ring = Poly.ring.__set__
_set_terms = Poly.terms.__set__
_set_ints = Poly._ints.__set__


def _poly(ring: PolyRing, terms: dict) -> Poly:
    """Internal constructor for a terms dict that holds no zero coefficient."""
    p = _new(Poly)
    _set_ring(p, ring)
    _set_terms(p, terms)
    _set_ints(p, None)
    return p


def ring_embedding(src: PolyRing, dst: PolyRing, renames=None):
    """Map polynomials of `src` into `dst`, matching indeterminates by name.

    `renames` maps a name of `src` to the name it takes in `dst`.
    """
    renames = renames or {}
    mapping = [dst.index(renames.get(name, name)) for name in src.names]
    zero = dst._zero_exp

    def embed(p: Poly) -> Poly:
        terms = {}
        for e, coeff in p.terms.items():
            exp = list(zero)
            for pos, k in enumerate(e):
                if k:
                    exp[mapping[pos]] = k
            terms[tuple(exp)] = coeff
        return _poly(dst, terms)

    return embed


def _int_form(p: Poly) -> tuple:
    """(d, D, ((key, A, B), ...)): the coefficients as `scalars.to_integers`
    writes them, each with its packed monomial `key`.

    An exponent outside 0..MAX_EXPONENT raises ExponentOverflowError.
    """
    d, den, ints = to_integers(p.terms.values())
    ring = p.ring
    pack = ring._exp_struct.pack
    from_bytes = int.from_bytes
    try:
        keys = [from_bytes(pack(*e), "little") for e in p.terms]
    except struct.error:
        keys = None
    if keys is None or reduce(or_, keys, 0) & ring._exp_high:
        raise ExponentOverflowError(
            f"a product operand has an exponent outside 0..MAX_EXPONENT = {MAX_EXPONENT}"
        )
    return d, den, tuple((key, a, b) for key, (a, b) in zip(keys, ints))


def _operand_form(ring: PolyRing, x, keep: bool) -> tuple:
    if type(x) is not Poly:
        x = ring.const(x)
    elif x.ring is not ring and x.ring != ring:
        raise ShapeMismatchError("polynomials from different rings")
    form = x._ints
    if form is None:
        form = _int_form(x)
        if keep:
            _set_ints(x, form)
    return form


def dot(ring: PolyRing, pairs, keep: bool = True) -> Poly:
    """The sum of x*y over the (x, y) pairs, all polynomials of `ring`.

    Operands that are not polynomials are taken as constants of `ring`.
    The integer form of each operand is cached on it unless `keep` is
    false, as for a single product (`Poly.__mul__`): its operands are often
    temporaries, such as substitution terms or the memoized minors of the
    witness search, where cached forms would only hold memory.
    """
    operands = []
    d = 0
    den = 1
    for x, y in pairs:
        dx, den_x, xs = _operand_form(ring, x, keep)
        dy, den_y, ys = _operand_form(ring, y, keep)
        if not (xs and ys):
            continue
        if (dx and dx != d) or (dy and dy != d):
            d = join_field_tags(join_field_tags(d, dx), dy)
        scale = den_x * den_y
        if den % scale:
            den = lcm(den, scale)
        operands.append((xs, ys, scale))
    acc: dict = {}
    terms = {}
    scalar = from_integers
    unpack = ring._exp_struct.unpack
    nbytes = ring._exp_struct.size
    if not d:
        for xs, ys, scale in operands:
            k = den // scale
            for e1, a1, _ in xs:
                ka1 = k * a1
                for e2, a2, _ in ys:
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + ka1 * a2
        for e, a in acc.items():
            if a:
                terms[unpack(e.to_bytes(nbytes, "little"))] = scalar(a, 0, den, 0)
        return _poly(ring, terms)
    # (a1 + b1 r)(a2 + b2 r) = a1 a2 + d b1 b2 + (a1 b2 + b1 a2) r, r = sqrt(d),
    # accumulated in one [a, b] slot per monomial
    get = acc.get
    for xs, ys, scale in operands:
        k = den // scale
        for e1, a1, b1 in xs:
            ka1, kb1 = k * a1, k * b1
            dkb1 = d * kb1
            for e2, a2, b2 in ys:
                e = e1 + e2
                slot = get(e)
                if slot is None:
                    acc[e] = [ka1 * a2 + dkb1 * b2, ka1 * b2 + kb1 * a2]
                else:
                    slot[0] += ka1 * a2 + dkb1 * b2
                    slot[1] += ka1 * b2 + kb1 * a2
    for e, (a, b) in acc.items():
        if a or b:
            terms[unpack(e.to_bytes(nbytes, "little"))] = scalar(a, b, den, d)
    return _poly(ring, terms)


def _latex_name(name: str) -> str:
    if name.startswith("u") and name[1:].isdigit():
        return f"u^{{{name[1:]}}}"
    if name.startswith("f") and name[1:].isdigit():
        return f"f^{{{name[1:]}}}"
    if name in ("alpha", "beta", "gamma", "delta", "lambda"):
        return "\\" + name
    return name


# `Poly._render` styles: how a coefficient, a name and a power k >= 2 print
# (of a printed name without and with a "^" of its own), the product sign,
# and the brackets around a coefficient with an inner sign before a
# monomial and as a constant term.  A text name never holds a "^".
_TEXT = (str, str, "{}^{}", "{}^{}", "*", "({})", "({})")
_LATEX = (Scalar.latex, _latex_name, "{}^{{{}}}", "{{{}}}^{{{}}}", " ", "\\left({}\\right)", "{}")


# -- parsing -------------------------------------------------------------

# A word: a run of characters other than +-*/^, parentheses and whitespace.
_WORD = r"[^-+*/^()\s]+"
# One factor of a term and the separator before it: "*" inside a term, or
# the sign run (empty for a first term without signs) that opens a term.
# The factor is a parenthesised scalar (for `parse_scalar`), sqrt(r), or a
# word that is a number p or p/q (negative right after "*") or an
# indeterminate, with an optional exponent.  The factor is optional, so the
# pattern always matches and an unreadable factor shows as an empty one.
# It is compiled on first use (`re` keeps it).
_FACTOR_PATTERN = (
    r"(\*|[+-]*)(?:"
    r"\(((?:[^()]|\([^()]*\))*)\)"
    r"|sqrt\((\d+)\)"
    rf"|(-?{_WORD})(?:/({_WORD}))?(?:\^({_WORD}))?"
    r")?"
)


def _readable_name(name: str) -> bool:
    """Whether `parse_poly` reads `name` as an indeterminate: one word, or
    two joined by "/", that is not a number."""
    m = re.fullmatch(rf"({_WORD})(?:/({_WORD}))?", name)
    return m is not None and not (m[1].isdecimal() and (m[2] is None or m[2].isdecimal()))


def parse_poly(ring: PolyRing, text: str) -> Poly:
    """Parse a signed sum of terms "coef*var1^e1*var2^e2".

    Bare variable names, parenthesised scalar coefficients and sqrt(d)
    factors are accepted; whitespace is ignored.  An indeterminate name is
    read as a run of characters other than +-*/^ and parentheses, or two
    such runs joined by "/" (`_readable_name`, checked when a ring is
    built).  Each term is read factor by factor with one compiled pattern
    (`_FACTOR_PATTERN`) into one coefficient and one exponent tuple; a
    factor must end at the end of the literal, at a "*" or at the sign of
    the next term.
    """
    s = "".join(text.split())
    if not s:
        raise ParseError("empty polynomial literal")
    index = ring._index
    match = re.compile(_FACTOR_PATTERN).match
    n = len(s)
    out: dict = {}
    pos = 0
    while pos < n:
        m = match(s, pos)
        signs = m.group(1)
        if signs == "*":  # a literal that starts with "*"
            raise _factor_error(ring, s, pos, text)
        coef = None
        exp = list(ring._zero_exp)
        while True:
            _, inner, rad, word, den, power = m.groups()
            start, pos = m.end(1), m.end()
            if pos == start or (pos < n and s[pos] not in "*+-"):
                raise _factor_error(ring, s, start, text)
            if inner is not None:
                value = parse_scalar(inner)
            elif rad is not None:
                value = Scalar.sqrt(_int(rad))
            else:
                if power is None:
                    k = 1
                else:
                    if not power.isdecimal():  # the pattern also admits "x" or "²" here
                        raise ParseError(f"bad exponent in {s[start:pos]!r} ({text!r})")
                    k = _int(power)
                    if k > MAX_EXPONENT:
                        raise ParseError(
                            f"exponent {power} above MAX_EXPONENT = {MAX_EXPONENT} ({text!r})")
                name = word if den is None else f"{word}/{den}"
                if word.lstrip("-").isdecimal() and (den is None or den.isdecimal()):
                    value = _literal_power(name, k, text)
                elif name in index:
                    i = index[name]
                    exp[i] += k
                    if exp[i] > MAX_EXPONENT:
                        raise ParseError(
                            f"exponent {exp[i]} of {ring.names[i]} above MAX_EXPONENT ="
                            f" {MAX_EXPONENT} ({text!r})"
                        )
                    value = None
                else:
                    raise UnknownIndeterminateError(
                        f"{name!r} not in ring {ring.names} ({text!r})")
            if value is not None:
                coef = value if coef is None else _printable(coef * value, text)
            if pos == n or s[pos] != "*":
                break
            m = match(s, pos)
        if coef is None:
            coef = ONE
        elif not coef:
            continue
        if signs.count("-") % 2:
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
    return _poly(ring, out)


def _factor_error(ring: PolyRing, s: str, start: int, context: str) -> Exception:
    """The error for the unreadable factor that starts at s[start].

    The factor runs to the first "*", or sign of a next term (one that does
    not follow "*", "/", "^", "(" or a sign), outside parentheses.  It is a
    ParseError when empty, the error of `parse_scalar` when it is
    parenthesised or a radical, a ParseError for a bad exponent, and an
    UnknownIndeterminateError otherwise.
    """
    depth = 0
    end = len(s)
    for i in range(start, len(s)):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and i > start and (ch == "*" or ch in "+-" and s[i - 1] not in "*/^(+-"):
            end = i
            break
    factor = s[start:end]
    if not factor:
        return ParseError(f"empty factor or dangling sign in {context!r}")
    if factor.startswith("(") and factor.endswith(")"):
        parse_scalar(factor[1:-1])
    elif factor.startswith("sqrt(") and factor.endswith(")"):
        parse_scalar(factor)
    name, caret, exp = factor.partition("^")
    if caret:
        if not exp.isdecimal():
            return ParseError(f"bad exponent in {factor!r} ({context!r})")
        if _int(exp) > MAX_EXPONENT:
            return ParseError(f"exponent {exp} above MAX_EXPONENT = {MAX_EXPONENT} ({context!r})")
    return UnknownIndeterminateError(f"{name!r} not in ring {ring.names} ({context!r})")
