"""Exact coefficient arithmetic in three rings: Q, Q[l], and Q(l).

Scalars are plain values of one of three types:

  * ``fractions.Fraction``   -- rationals (ring tag "Q"),
  * ``LPoly``                -- polynomials in the parameter l over Q ("QL"),
  * ``LRat``                 -- reduced rational functions in l ("QLrat").

All three are immutable, hashable, and interoperate through the usual
arithmetic operators with automatic upward promotion.  Canonical normal
forms make ``==`` an exact structural equality across types: an LPoly is
ints ``xs`` over one int ``den`` in lowest terms, the form the kernels
read, and an LRat is reduced, with a monic denominator.

Every ``LPoly``/``LRat`` operator (``+ - * / **`` and negation) runs on
those ints, packing nothing (products are schoolbook loops, and every LRat
is reduced by ``igcd`` and ``pdiv`` of ``_packed``), and returns its result
in its simplest type: a ``Fraction`` when it is constant, an ``LPoly`` when
its denominator is 1, a reduced ``LRat`` otherwise.  So arithmetic on
canonical scalars stays canonical, and :func:`simplify` is only needed for
values built outside that arithmetic (ints, or ``LPoly`` and ``LRat`` made
by their constructors).  All three types define ``__bool__``, so ``not c``
tests a scalar for zero.

The series kernels run on the integer views of ``_packed``, which states
their invariants; ``int_view`` makes one of scalars, and ``view_scalars``
the canonical scalars of one.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from ._packed import NO_P, cofactor, igcd, norm, pdiv, plcm, pmul, polys, ppow
from .errors import (
    BothZero,
    DivisionByZero,
    PoleAtValue,
    ScalarParseError,
    ScalarTooLarge,
    ZeroDenominator,
)

RING_Q = "Q"
RING_QL = "QL"
RING_QLRAT = "QLrat"
_RING_RANK = {RING_Q: 0, RING_QL: 1, RING_QLRAT: 2}

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_frac(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError("not a rational: %r" % (v,))


def _lpoly(xs, den):
    """The LPoly xs / den in normal form, for the ints xs (low first) and an
    int den != 0; xs itself is left as it is, as views share their lists."""
    k = len(xs)
    while k and not xs[k - 1]:
        k -= 1
    g = math.gcd(den, *xs[:k])
    if den < 0:
        g = -g
    p = object.__new__(LPoly)
    object.__setattr__(p, "xs", tuple(xs[:k]) if g == 1 else tuple([x // g for x in xs[:k]]))
    object.__setattr__(p, "den", den // g)
    return p


def _poly(xs, den):
    """The canonical scalar xs / den, for xs and den as in ``_lpoly``."""
    p = _lpoly(xs, den)
    return p if len(p.xs) > 1 else p.constant_value()


def _pair(v):
    """(xs, den) of an LPoly, an int or a Fraction; None for anything else."""
    if v.__class__ is LPoly:
        return v.xs, v.den
    if isinstance(v, (int, Fraction)):
        return (v.numerator,), v.denominator
    return None


class LPoly:
    """Polynomial in l over Q: the ints xs, low first and the last nonzero,
    over one int den > 0 with gcd(den, *xs) = 1.  ``coeffs``, the tuple of
    its Fraction coefficients, is made when it is read."""

    __slots__ = ("xs", "den")

    def __new__(cls, coeffs=()):
        cs = [_as_frac(c) for c in coeffs]
        d = math.lcm(*[c.denominator for c in cs])
        return _lpoly([c.numerator * (d // c.denominator) for c in cs], d)

    def __setattr__(self, name, value):
        raise AttributeError("LPoly is immutable")

    @property
    def coeffs(self):
        return tuple([Fraction(x, self.den) for x in self.xs])

    @property
    def degree(self):
        # degree of the zero polynomial reported as -1
        return len(self.xs) - 1

    def is_zero(self):
        return not self.xs

    def is_constant(self):
        return len(self.xs) <= 1

    def constant_value(self):
        return Fraction(self.xs[0], self.den) if self.xs else _ZERO

    def leading(self):
        if not self.xs:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return Fraction(self.xs[-1], self.den)

    def __bool__(self):
        return bool(self.xs)

    def __hash__(self):
        if len(self.xs) <= 1:
            return hash(self.constant_value())
        return hash((self.xs, self.den))

    def __eq__(self, other):
        if other.__class__ is LPoly:
            return self.xs == other.xs and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return len(self.xs) <= 1 and self.constant_value() == other
        return NotImplemented

    def _add(self, other, sign):
        o = _pair(other)
        if o is None:
            return NotImplemented
        (a, da), (b, db) = (self.xs, self.den), o
        den = math.lcm(da, db)
        ma, mb = den // da, sign * (den // db)
        out = [x * ma for x in a] + [0] * (len(b) - len(a))
        for i, y in enumerate(b):
            out[i] += y * mb
        return _poly(out, den)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _poly([-x for x in self.xs], self.den)

    def __mul__(self, other):
        o = _pair(other)
        if o is None:
            return NotImplemented
        (a, da), (b, db) = (self.xs, self.den), o
        lb = len(b)
        out = [0] * (len(a) + lb - 1)
        for i, x in enumerate(a):
            if x:
                out[i:i + lb] = [c + x * y for c, y in zip(out[i:i + lb], b)]
        return _poly(out, da * db)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by zero rational")
            return _poly([x * other.denominator for x in self.xs], self.den * other.numerator)
        if isinstance(other, LPoly):
            return lrat_reduce(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return lrat_reduce(other, self)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return scalar_inv(self) ** (-k) if not self.is_constant() else self.constant_value() ** k
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divmod(self, other):
        """Polynomial division over Q; returns (quotient, remainder)."""
        if not isinstance(other, LPoly) or other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        lb = other.leading()
        if len(rem) - 1 < db:
            return LPoly(), self
        quot = [Fraction(0)] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = c / lb
            quot[i - db] = q
            for j, cb in enumerate(other.coeffs):
                rem[i - db + j] -= q * cb
        return LPoly(quot), LPoly(rem)

    def monic(self):
        if self.is_zero():
            return self
        return _lpoly(self.xs, self.xs[-1])

    def eval(self, value):
        """Horner evaluation at a rational value."""
        value = _as_frac(value)
        p, q = value.numerator, value.denominator
        acc, qk = 0, 1
        for x in reversed(self.xs):  # the value so far is acc q / qk
            acc, qk = acc * p + x * qk, qk * q
        return Fraction(acc * q, self.den * qk)

    def derivative(self):
        return _lpoly([i * x for i, x in enumerate(self.xs)][1:], self.den)

    def __repr__(self):
        return "LPoly(%r)" % (list(self.coeffs),)

    def __str__(self):
        return format_scalar(self)


LAMBDA = LPoly((0, 1))


class LRat:
    """Reduced rational function num/den in l; den monic and coprime to num."""

    __slots__ = ("num", "den")

    def __init__(self, num, den, _reduced=False):
        num = as_lpoly(num)
        den = as_lpoly(den)
        if den.is_zero():
            raise ZeroDenominator("zero denominator in rational function")
        if not _reduced:
            if num.is_zero():
                num, den = LPoly(), LPoly((1,))
            else:
                # num / den == (N den.den / (num.den D[-1])) / (D / D[-1]) for the
                # cofactors N and D of G = gcd(num.xs, den.xs)
                G = igcd(num.xs, den.xs)
                N, D = pdiv(num.xs, G), pdiv(den.xs, G)
                num = _lpoly([x * den.den for x in N], num.den * D[-1])
                den = _lpoly(D, D[-1])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("LRat is immutable")

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den == 1

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        if self.is_polynomial():
            return hash(self.num)
        return hash((self.num, self.den))

    def __eq__(self, other):
        if isinstance(other, LRat):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, LPoly)):
            return self.is_polynomial() and self.num == other
        return NotImplemented

    def __add__(self, other):
        other = _as_lrat(other)
        if other is NotImplemented:
            return NotImplemented
        return lrat_reduce(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        if not self.den.degree:  # a reduced denominator is monic: this one is 1
            return -self.num
        return LRat(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        other = _as_lrat(other)
        if other is NotImplemented:
            return NotImplemented
        return lrat_reduce(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _as_lrat(other)
        if other is NotImplemented:
            return NotImplemented
        return lrat_reduce(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_lrat(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return lrat_reduce(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_lrat(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.is_zero():
                raise DivisionByZero("zero has no negative power")
            return LRat(self.den, self.num) ** (-k)
        if not k or not self.den.degree:  # 1, or an LRat over 1 made by its constructor
            return self.num ** k
        return LRat(self.num ** k, self.den ** k, _reduced=True)  # coprime, den monic

    def eval(self, value):
        value = _as_frac(value)
        d = self.den.eval(value)
        if d == 0:
            raise PoleAtValue("denominator vanishes at l=%s" % value)
        return self.num.eval(value) / d

    def __repr__(self):
        return "LRat(%r, %r)" % (list(self.num.coeffs), list(self.den.coeffs))

    def __str__(self):
        return format_scalar(self)


def _as_lrat(v):
    if isinstance(v, LRat):
        return v
    if isinstance(v, (int, Fraction, LPoly)):
        return LRat(v, 1, _reduced=True)
    return NotImplemented


def as_lpoly(v):
    if isinstance(v, LPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return LPoly((v,))
    raise TypeError("cannot view %r as a polynomial in l" % (v,))


# ---------------------------------------------------------------------------
# ring tags and promotion

def ring_of(s):
    if isinstance(s, (int, Fraction)):
        return RING_Q
    if isinstance(s, LPoly):
        return RING_QL
    if isinstance(s, LRat):
        return RING_QLRAT
    raise TypeError("not a scalar: %r" % (s,))


def join_ring(a, b):
    return a if _RING_RANK[a] >= _RING_RANK[b] else b


def ring_le(a, b):
    return _RING_RANK[a] <= _RING_RANK[b]


def simplify(s):
    """Demote a scalar from outside package arithmetic (an int, or an LPoly
    or LRat built by its constructor) to its simplest representative type."""
    if isinstance(s, LRat) and s.is_polynomial():
        s = s.num
    if isinstance(s, LPoly) and s.is_constant():
        return s.constant_value()
    return Fraction(s) if isinstance(s, int) else s


def lpoly_gcd(a, b):
    """Monic gcd over Q, by a primitive remainder sequence over the ints
    (``_packed.igcd``); the monic gcd is unique, so any route gives the same one."""
    a, b = as_lpoly(a), as_lpoly(b)
    if a.is_zero() and b.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    G = igcd(a.xs, b.xs)
    return _lpoly(G, G[-1])


def lrat_reduce(num, den):
    """Canonical num/den as the simplest scalar (LRat, LPoly, or Fraction)."""
    r = LRat(num, den)
    return r if r.den.degree else simplify(r.num)


def scalar_inv(s):
    if not s:
        raise DivisionByZero("inverse of zero")
    return _ONE / s


def scalar_pow(s, k):
    """Integer power of a scalar, negative exponents allowed."""
    if k < 0:
        s, k = scalar_inv(s), -k
    return _as_frac(s) ** k if isinstance(s, int) else s ** k


# Python's default limit on int-to-text conversion; on a Python before
# 3.10.7, which has no such limit, it still bounds powers
_DEFAULT_DIGITS = 4300


def digit_limit():
    """The most digits an output int can have in text,
    ``sys.get_int_max_str_digits()``, 0 for no limit."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else _DEFAULT_DIGITS


def print_cap(per=1):
    """The least b for which a number of at least 2^(b / per) certainly has
    more digits than ``digit_limit()``: 1000 b >= 3322 limit per, for
    3.322 > log2(10); None for no limit.  Every size guard reads it."""
    limit = digit_limit()
    return -(-3322 * limit * per // 1000) if limit else None


def _frac_bits(c):
    """log2 of the larger of |numerator| and denominator of the Fraction c,
    rounded down: a number of at least 2^bits is in its text."""
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length()) - 1


def check_power_size(c, e):
    """Refuse, with ScalarTooLarge, the scalar c to the rational power e when
    a number in it certainly has more digits than any output can print
    (``print_cap``).  This takes a few evaluations of c, where c^e itself
    takes time and memory that grow with |e|.  Its one caller is
    ``fps.power``, which checks the constant term of every power here."""
    cap = print_cap(e.denominator)
    if cap is None:
        return
    if isinstance(c, Fraction):
        # c^e's numerator and denominator have |e| times the digits of c's;
        # with p >= 2^(bits-1), one of them has e * bits bits or more
        big = abs(e.numerator) * _frac_bits(c) >= cap
    elif isinstance(c, (LPoly, LRat)) and e.denominator == 1:
        b, k = c, e.numerator
        if k < 0 and b.__class__ is LRat:
            b, k = scalar_inv(b), -k
        # b^k of an LRat is num^k / den^k, both in normal form
        parts = (b.num, b.den) if b.__class__ is LRat else (b,)
        big = max(_lpoly_power_bits(p, k) for p in parts) >= cap
    else:
        return
    if big:
        raise ScalarTooLarge("the constant term %s to that power has over %d digits"
                             % (format_scalar(c), digit_limit()))


def check_printable(x, e, dv, P, cap):
    """Refuse, with ScalarTooLarge, the scalar x / (dv P^e) of a view, x the
    ints of one polynomial, when a number in its text certainly has more
    digits than any output can print, cap = ``print_cap()`` bits or more.
    Its text holds each x[i] / dv in lowest terms, so only a long x or dv
    can make one: the scalar is made only then."""
    if max(max(map(abs, x), default=0), dv).bit_length() <= cap:
        return
    c = view_scalars(([x], dv, 1, P, [e] if len(P) > 1 else None))[0]
    if c.__class__ is Fraction:
        parts = (c,)
    else:
        parts = c.coeffs if c.__class__ is LPoly else c.num.coeffs + c.den.coeffs
    if max(map(_frac_bits, parts)) >= cap:
        raise ScalarTooLarge("a coefficient is too long to print: it has over %d digits" % digit_limit())


def _lpoly_power_bits(c, e):
    """A number of bits that some l-coefficient of c^e reaches, for e < 0 of
    its monic denominator (c / lead)^|e|: e log2|c(x)| - log2((de+1) M^(de))
    with M = max(1, |x|), for |c(x)| <= (de+1) M^(de) max|coeff|, taken at
    the x in +-1, +-2, +-1/2 that gives most."""
    if e < 0:
        c, e = c * scalar_inv(c.leading()), -e
    de = c.degree * e
    best = 0
    for x in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)):
        v = c.eval(x)
        if v:
            # log2|p/q| >= bits(p) - 1 - bits(q - 1); log2 M^(de) is de at |x| = 2
            low = abs(v.numerator).bit_length() - 1 - (v.denominator - 1).bit_length()
            best = max(best, e * (low - (c.degree if abs(x) == 2 else 0)) - (de + 1).bit_length())
    return best


def eval_lambda(s, value):
    """Exact substitution l = value; raises PoleAtValue at a pole."""
    value = _as_frac(value)
    if isinstance(s, (int, Fraction)):
        return _as_frac(s)
    return s.eval(value)


# ---------------------------------------------------------------------------
# the bridge between scalars and the integer views of ``_packed``

def int_part(c, P):
    """(N, d, k): the nonzero scalar c == N / (d P^k) for the int polynomial N,
    the int d and the least k, for P from int_base.  When k > 0, P does not
    divide N."""
    if c.__class__ is Fraction:
        return [c.numerator], c.denominator, 0
    if c.__class__ is LPoly:
        return c.xs, c.den, 0
    q, k = cofactor(c.den.xs, P)
    return pmul(c.num.xs, q), c.num.den, k


def int_base(scalars):
    """P for the scalars: the primitive squarefree int polynomial, with a
    positive leading coefficient, whose powers every l-denominator among
    them divides; NO_P when there is none."""
    P = NO_P
    # the lowest degrees first: most denominators are powers of the first one
    for D in sorted([c.den.xs for c in scalars if c.__class__ is LRat], key=len):
        if cofactor(D, P) is None:
            if len(D) > 2:  # its squarefree part
                D = pdiv(D, igcd(D, [i * x for i, x in enumerate(D)][1:]))
            P = tuple(D) if len(P) == 1 else plcm(P, D)
    return P


def int_view(coeffs, P):
    """The view (xs, den, deg, P, E) of the scalars coeffs over P from
    int_base, in normal form: E[i] is the least exponent of coeffs[i]
    (``int_part``) and 0 for a zero one."""
    parts = [int_part(c, P) if c else None for c in coeffs]
    den = math.lcm(*[p[1] for p in parts if p])
    xs = [[x * (den // p[1]) for x in p[0]] if p else [0] for p in parts]
    return norm(xs, den, 1) + (P, [p[2] if p else 0 for p in parts] if len(P) > 1 else None)


def view_scalars(v):
    """The canonical scalars of the view v, in or out of normal form: an
    LPoly keeps the view's ints (``_poly``), and an LRat takes a gcd only
    when P has degree 2 or more (``_rat``)."""
    xs, den, deg, P, E = v
    if E is None:
        return [_poly(x, den) for x in xs] if deg else [Fraction(x, den) for x in xs]
    return [_rat(x, den, P, e) if e else _poly(x, den) for x, e in zip(polys(xs, deg), E)]


def _rat(cs, den, P, e):
    """The canonical scalar cs / (den P^e), for (cs, e) from ``reduce``.

    When P has degree 2 or more, a proper factor of it may still divide cs:
    then each round strips G = gcd(cs, P), of degree below P's, from cs and
    from P^e."""
    D = ppow(P, e)
    for _ in range(e if len(P) > 2 else 0):
        G = igcd(list(P), cs)
        if len(G) == 1:
            break
        cs, D = pdiv(cs, G), pdiv(D, G)
    if len(D) == 1:
        return _poly(cs, den * D[-1])
    return LRat(_lpoly(cs, den * D[-1]), _lpoly(D, D[-1]), _reduced=True)


# ---------------------------------------------------------------------------
# exact roots of rationals

def iroot(x, n):
    """Floor of the integer n-th root of x >= 0."""
    if x < 0:
        raise ValueError("negative radicand")
    if x.bit_length() <= n:
        # x < 2**n, so the root is 0 or 1; the Newton start below would
        # build 2**(n-1), whose size grows with the root index
        return min(x, 1)
    g = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        # Newton step for r^n = x
        t = ((n - 1) * g + x // g ** (n - 1)) // n
        if t >= g:
            return g
        g = t


def rat_nth_root(q, n):
    """Exact rational n-th root of q, or None when no exact root exists."""
    q = _as_frac(q)
    if n <= 0:
        raise ValueError("root index must be positive")
    neg = q < 0
    if neg and n % 2 == 0:
        return None
    a, b = abs(q.numerator), q.denominator
    ra, rb = iroot(a, n), iroot(b, n)
    if ra ** n != a or rb ** n != b:
        return None
    r = Fraction(ra, rb)
    return -r if neg else r


# ---------------------------------------------------------------------------
# textual forms: Rat "p/q", LPoly "c0 + c1*l + ...", LRat "(num)/(den)"

def _fmt_lpoly(p):
    if p.is_zero():
        return "0"
    parts = []
    for i, x in enumerate(p.xs):
        if not x:
            continue
        c = Fraction(x, p.den)
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("%s*l" % c)
        else:
            parts.append("%s*l^%d" % (c, i))
    return " + ".join(parts).replace("+ -", "- ")


def format_scalar(s):
    s = simplify(s)
    try:
        if isinstance(s, Fraction):
            return str(s)
        if isinstance(s, LPoly):
            return _fmt_lpoly(s)
        if isinstance(s, LRat):
            return "(%s)/(%s)" % (_fmt_lpoly(s.num), _fmt_lpoly(s.den))
    except ValueError as exc:
        # an integer longer than sys.get_int_max_str_digits() has no text form
        raise ScalarTooLarge("a coefficient is too long to print: %s" % exc) from None
    raise TypeError("not a scalar: %r" % (s,))


def csv_cell(s):
    """format_scalar(s) as a CSV field, quoted when it holds '/' or ','."""
    text = format_scalar(s)
    return '"%s"' % text if "/" in text or "," in text else text


_TERM_RE = re.compile(
    r"^(?P<sign>[+-]?)(?:(?P<coef>\d+(?:/\d+)?)(?:\*(?P<var>l(?:\^(?P<pow>\d+))?))?|(?P<bare>l(?:\^(?P<bpow>\d+))?))$"
)


def _parse_lpoly(text):
    src = text.replace(" ", "")
    if not src:
        raise ScalarParseError("empty polynomial text")
    # split into signed terms; '-' only ever starts a term
    terms = re.findall(r"[+-]?[^+-]+", src)
    if "".join(terms) != src:
        raise ScalarParseError("malformed polynomial %r" % text)
    coeffs = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise ScalarParseError("malformed term %r in %r" % (term, text))
        sign = -1 if m.group("sign") == "-" else 1
        try:
            if m.group("bare"):
                coef = Fraction(1)
                power = int(m.group("bpow")) if m.group("bpow") else 1
            else:
                coef = Fraction(m.group("coef"))
                if m.group("var"):
                    power = int(m.group("pow")) if m.group("pow") else 1
                else:
                    power = 0
        except (ValueError, ZeroDivisionError) as exc:
            # a numeral past Python's int-to-text limit, or a zero denominator
            raise ScalarParseError("malformed term %r in %r" % (term, text)) from exc
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coef
    size = max(coeffs) + 1 if coeffs else 0
    out = [Fraction(0)] * size
    for p, c in coeffs.items():
        out[p] = c
    return LPoly(out)


def parse_scalar(text):
    """Parse the canonical textual scalar form back to a value (bit-exact)."""
    src = text.strip()
    if not src:
        raise ScalarParseError("empty scalar text")
    if src.startswith("(") and src.endswith(")") and ")/(" in src:
        num_txt, den_txt = src[1:-1].split(")/(", 1)
        return simplify(LRat(_parse_lpoly(num_txt), _parse_lpoly(den_txt)))
    if "l" in src:
        return simplify(_parse_lpoly(src))
    try:
        return Fraction(src)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarParseError("malformed rational %r" % text) from exc

LAMBDA_ABSENT = "absent"
LAMBDA_SYMBOLIC = "symbolic"


def resolve_lambda_mode(mode):
    """Map a lambda mode (absent / symbolic / rational) to the scalar it denotes."""
    if mode is None or mode == LAMBDA_ABSENT:
        return None
    if mode == LAMBDA_SYMBOLIC:
        return LAMBDA
    if isinstance(mode, (int, Fraction, str)):
        return Fraction(mode)
    if isinstance(mode, LPoly):
        return mode
    raise ValueError("bad lambda mode %r" % (mode,))
