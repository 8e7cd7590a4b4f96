"""The integer view that every series kernel runs on, and its algebra.

A view (xs, den, deg, P, E) holds the coefficients of one series:
coefficient i is xs[i] / (den P^E[i]), with

  * xs[i] an int at deg 0, otherwise a list of l-coefficients, low first,
    of degree at most deg (a zero polynomial may be [] or [0]);
  * den one positive int;
  * P a primitive squarefree int polynomial (a tuple) with a positive
    leading coefficient, whose powers every l-denominator divides
    (``scalar.int_base``): NO_P = (1,) over Q and Q[l], where E is None;
  * over Q(l), E[i] the least exponent: P does not divide xs[i] when
    E[i] > 0, and E[i] is 0 where xs[i] is 0.

In normal form (``norm``) deg is the largest degree, no list but a lone
[0] ends in a zero, and the content g = gcd(den, every numerator) is
divided out; as lcm(d / g_i) = d / gcd(g_i), den is then the lcm of the
scalars' denominators.  That is the view ``scalar.int_view`` makes of the
canonical scalars: every kernel leaves its result in it, and the next
kernel reads it as it is.

Operands over different P are re-expressed over their lcm (``join``,
``rebase``).  A kernel views coefficient i of each operand over
den P^(w i + s) (``at``), for a weight w shared by the operands and a
shift s of each, chosen together to carry the fewest surplus factors of P
(``frame``); sums take the larger exponent coefficientwise.  This is the
substitution t -> t / P^w, which commutes with products, exp, composition
and partial Bell polynomials (Comtet, *Advanced Combinatorics*, 1974, 3.3),
so every result keeps that shape.

The kernels pack each polynomial into one int by Kronecker substitution
l = 2^B (``pack``) at a width B that bounds every sum they form
(``width``), run their inner loops on those ints, and unpack once per
output coefficient (``unpack``).  A rational coefficient packs as its own
numerator, so Q runs the same loops at width 0.  Over Q(l) P is then
stripped from each output by trial division (``reduce``), not by a gcd,
which leaves its least exponent.  Nothing here knows the scalar types.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, chain

NO_P = (1,)  # P when no coefficient has a denominator in l


# ---------------------------------------------------------------------------
# int polynomials in l: lists of ints, low first

def pack(p, B):
    """The int polynomial p at l = 2^B: Kronecker substitution, halving long
    polynomials so the time is n log n in the degree."""
    if len(p) > 16:
        m = len(p) >> 1
        return pack(p[:m], B) + (pack(p[m:], B) << B * m)
    x = 0
    for c in reversed(p):
        x = (x << B) + c
    return x


def unpack(x, B):
    """The balanced base-2^B digits of x, low first, each in
    [-2^(B-1), 2^(B-1)), up to the last nonzero one; [x] at width 0.
    Long numbers split in halves, as in pack."""
    if not B:
        return [x]
    m = (x.bit_length() + 1) // B >> 1  # half the digits of a long x
    if m > 8:
        H = ((1 << B * m) - 1) // ((1 << B) - 1) << (B - 1)  # m digits 2^(B-1)
        lo = ((x + H) & ((1 << B * m) - 1)) - H  # the low m balanced digits
        hi = unpack((x - lo) >> B * m, B)
        lo = unpack(lo, B)
        return lo + [0] * (m - len(lo)) + hi if hi else lo
    mask, half = (1 << B) - 1, 1 << (B - 1)
    out = []
    while x:
        d = x & mask
        if d >= half:
            d -= mask + 1  # a negative digit borrows from the next one
        out.append(d)
        x = (x - d) >> B
    return out


def width(bits, terms):
    """Digit width B for a sum of `terms` products of l-coefficients whose
    bit lengths add up to at most bits: the sum lies in (-2^(B-1), 2^(B-1))."""
    return bits + terms.bit_length() + 1


def bits(xs, deg):
    """Bit length of the largest |l-coefficient| in the polynomials xs of a
    view; of one polynomial at deg 0."""
    if not deg:
        return max(map(abs, xs), default=0).bit_length()
    return max(map(abs, chain.from_iterable(xs)), default=0).bit_length()


def pmul(a, b):
    """The product of two int polynomials; the zero polynomial may come as [].
    By a monomial b = c l^m it is a shift and a scale, with no m zero digits
    packed; the product comes out as from unpack, up to its last nonzero
    coefficient, and [] when it is zero."""
    if len(b) == 1:
        a = [x * b[0] for x in a]
        while a and not a[-1]:
            a.pop()
        return a
    if b and not b[0] and not any(b[1:-1]):
        a = [x * b[-1] for x in a]
        while a and not a[-1]:
            a.pop()
        return [0] * (len(b) - 1) + a if a else []
    # a coefficient of the product is a sum of at most min(len) products
    B = width(bits(a, 0) + bits(b, 0), min(len(a), len(b)))
    return unpack(pack(a, B) * pack(b, B), B)


def ppow(P, e):
    """P^e for an int polynomial P and e >= 0; its coefficients lie below l1(P)^e."""
    B = width(e * sum(map(abs, P)).bit_length(), 1)
    return unpack(pack(P, B) ** e, B)


def pdiv(a, b):
    """a / b for int polynomials, b primitive; None unless b divides a.
    By Gauss's lemma the quotient of a primitive divisor has int coefficients."""
    a, db = list(a), len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c, r = divmod(a[i], b[-1])
        if r:
            return None
        if c:
            q[i - db] = c
            for j in range(db):
                a[i - db + j] -= c * b[j]
    return None if any(a[:db]) else q


def prem(a, b):
    """A remainder of the int polynomial a by b, with its content divided
    out: a mod b times a nonzero int, found on ints alone by eliminating
    the leading term of a with a multiple of b at each step."""
    a, db, lb = list(a), len(b) - 1, b[-1]
    while len(a) > db:
        c = a.pop()
        if c:
            g = math.gcd(lb, c)
            m, c, k = lb // g, c // g, len(a) - db
            a = [m * x for x in a[:k]] + [m * x - c * y for x, y in zip(a[k:], b)]
    while a and not a[-1]:
        a.pop()
    g = math.gcd(*a)
    return [x // g for x in a] if g > 1 else a


def igcd(a, b):
    """The gcd of the int polynomials a and b, not both zero, as a primitive
    polynomial with a positive leading coefficient: a primitive remainder
    sequence (Knuth, TAOCP vol. 2, 4.6.1), which keeps the remainders'
    coefficients small without any rational arithmetic."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, prem(a, b)
    g = math.gcd(*a)
    return [x // g for x in a] if a[-1] > 0 else [-x // g for x in a]


def plcm(P, Q):
    """The lcm of two primitive squarefree int polynomials with positive
    leading coefficients, as one of the same kind (a tuple)."""
    return tuple(pmul(list(P), pdiv(Q, igcd(list(P), list(Q)))))


def cofactor(D, P):
    """(q, k): 1/den == q / P^k for the monic denominator den = D / D[-1]
    of an LRat, whose ints D are primitive, the int polynomial q and the
    least k; None when den divides no power of P."""
    for k in range(-((1 - len(D)) // (len(P) - 1)) if len(P) > 1 else len(D), len(D)):
        q = pdiv(ppow(P, k), D)  # 1/D == q / P^k
        if q is not None:
            return [x * D[-1] for x in q], k
    return None


def reduce(cs, P, e):
    """(cs, e) for the int polynomial cs / P^e with every factor P that
    divides cs stripped, by exact trial division: e is then the least
    exponent, and P does not divide cs unless e is 0."""
    if not any(cs):
        return cs, 0
    while e > 0:
        q = pdiv(cs, P)
        if q is None:
            break
        cs, e = q, e - 1
    return cs, e


# ---------------------------------------------------------------------------
# views

def polys(xs, deg):
    """The polynomials of a view as lists."""
    return xs if deg else [[x] for x in xs]


def exps(v):
    """The exponents E of the view v, 0 for each polynomial over P = 1."""
    return v[4] or [0] * len(v[0])


def norms(xs, deg):
    """The l1 norm of each polynomial of a view."""
    return [sum(map(abs, p)) for p in xs] if deg else list(map(abs, xs))


def muls(xs, deg, ms):
    """The polynomials of a view, each times the int at its index in ms;
    as many as there are ms."""
    return [[m * c for c in p] for m, p in zip(ms, xs)] if deg else list(map(operator.mul, ms, xs))


def packs(xs, deg, B):
    """The polynomials of a view packed at width B; an int packs as itself."""
    return [pack(p, B) for p in xs] if deg else xs


def collapse(xs):
    """(xs, deg) for the polynomials xs, given as lists: deg their largest
    degree, and the xs ints when it is below 1."""
    deg = max(map(len, xs)) - 1
    return (xs, deg) if deg > 0 else ([p[0] if p else 0 for p in xs], 0)


def norm(xs, den, deg):
    """(xs, den, deg): the polynomials xs / den in normal form."""
    if deg:
        xs, deg = collapse(xs)
    g = math.gcd(den, *[c for p in xs for c in p]) if deg else math.gcd(den, *xs)
    if g > 1:
        xs, den = ([[c // g for c in p] for p in xs] if deg else [x // g for x in xs]), den // g
    return xs, den, deg


def join(*Ps):
    """The P of a kernel whose operands lie over the Ps: their lcm."""
    P = NO_P
    for Q in Ps:
        if len(Q) > 1 and Q != P:
            P = Q if len(P) == 1 else plcm(P, Q)
    return P


def rebase(v, P):
    """The view v over P, a multiple of its own P: each polynomial times
    (P / v's P)^E[i], which keeps E least, as the two are coprime."""
    xs, den, deg, Q, E = v
    if Q == P:
        return v
    if len(Q) == 1:
        return xs, den, deg, P, [0] * len(xs)
    R = pdiv(P, Q)
    xs = [pmul(x, ppow(R, e)) if e else x for x, e in zip(polys(xs, deg), E)]
    return norm(xs, den, 1) + (P, E)


def points(v):
    """(i, E[i]) for each nonzero polynomial i of the view v."""
    xs, _, deg, _, _ = v
    return [(i, e) for i, (x, e) in enumerate(zip(xs, exps(v))) if (any(x) if deg else x)]


def weight(pts, a=0):
    """The least w >= 0 with every point (i, e), i >= 1, at most w i - a."""
    return max([0] + [-((-e - a) // i) for i, e in pts if i])


def shift(pts, w):
    """The least s with every point (i, e) at most w i + s (0 when there is none)."""
    return max((e - w * i for i, e in pts), default=0)


def line(n, w, s):
    """The exponents w i + s of P for i = 0..n."""
    return [w * i + s for i in range(n + 1)]


def frame(*vs, w=0, fixed=0):
    """(w, shifts): a weight w, at least the one given, and for each view v
    in vs its least shift s at w, so that every nonzero polynomial i of v
    lies over P^(w i + s), with the least total excess: the sum of
    w i + s - E[i] over those polynomials, the factors of P a kernel
    carries through and ``reduce`` strips again.  `fixed` is the sum of
    the indices of the nonzero terms of an operand whose shift the kernel
    fixes, whose excess grows by that much with each unit of w.  The excess
    is convex in w, so the scan stops at its first minimum."""
    pts = [points(v) for v in vs]
    tot = fixed + sum(i for p in pts for i, _ in p)

    def excess(w):  # up to a constant
        ss = [shift(p, w) for p in pts]
        return w * tot + sum(map(operator.mul, map(len, pts), ss)), ss

    c, ss = excess(w)
    while True:
        c1, ss1 = excess(w + 1)
        if c1 >= c:
            return w, ss
        w, c, ss = w + 1, c1, ss1


def at(v, P, F):
    """(xs, den, deg): the polynomials of the view v over den P^F[i], P a
    multiple of v's own and F[i] at least E[i] wherever v is nonzero; the
    view itself over P = 1 (F None)."""
    if F is None:
        return v[:3]
    xs, den, deg, _, E = rebase(v, P)
    xs, deg = collapse([pmul(x, ppow(P, f - e)) if f > e and any(x) else x
                        for x, f, e in zip(polys(xs, deg), F, E)])
    return xs, den, deg


def lift(v, den, deg):
    """The polynomials of the view v over den, a multiple of its own; as
    lists when deg."""
    xs, d, dv = v
    return muls(polys(xs, dv) if deg else xs, deg, [den // d] * len(xs))


def reduced(xs, B, den, P=NO_P, F=None, ties=None):
    """The view (xs, den, deg, P, E) of the sums xs packed at width B over
    den P^F[i], each polynomial over Q(l) reduced to its least exponent
    (``reduce``), or only those at the indices in `ties` when given, F[i]
    being least at the others.  It is not in normal form: its content is
    not divided out, and its deg, B or 1, only says whether the
    polynomials are lists, so it bounds no degree until ``norm``."""
    xs = [unpack(x, B) for x in xs] if B else xs
    if len(P) == 1:
        return xs, den, B, P, None
    xs, E = zip(*[reduce(x, P, f) if ties is None or i in ties else (x, f)
                  for i, (x, f) in enumerate(zip(polys(xs, B), F))])
    return list(xs), den, 1, P, list(E)


def product(a, b, n, v=0):
    """(sums, B, den): the truncated Cauchy product of the int views
    a and b = (xs, den, deg), b of valuation at least v, packed at the
    width B its sums need, over den."""
    (xa, ad, da), (xb, bd, db) = a, b
    B = width(bits(xa, da) + bits(xb, db), (n + 1) * (min(da, db) + 1)) if da + db else 0
    return cauchy(packs(xa, da, B), packs(xb, db, B), n, v), B, ad * bd


def cauchy(an, bn, n, v=0):
    """The n + 1 truncated Cauchy sums of the packed polynomials an and bn,
    bn of valuation at least v."""
    rb = bn[::-1]
    return [sum(map(operator.mul, an[:m + 1 - v], rb[n - m:])) for m in range(n + 1)]


def dilate(v, N):
    """(w, G): for the view v of a delta series f over P, and
    1/f[1] == N / (d P^a) as N = (gam, d, a), the least w >= 0 for which
    G(t) = f(P^w t) / (P^w f[1]) has no l-denominator, and G's view
    (xs, den, deg) over P = 1, in normal form; G[1] is 1.  Coefficient i
    of G is f[i] P^(w (i-1)) / f[1]: each f[i]/f[1] is reduced once to its
    least exponent e_i, and w is the least with e_i <= w (i - 1)."""
    xs, den, deg, P, E = v
    (gam, d, a), n = N, len(xs) - 1
    ys, es = zip(*[reduce(pmul(x, gam), P, e + a) for x, e in zip(polys(xs, deg)[1:], E[1:])])
    w = weight(list(enumerate(es)))
    return w, norm(*at(([[]] + list(ys), den * d, 1, P, [0] + list(es)), P, line(n, w, -w)))


def undilate(v, N, w, P):
    """The view (xs, den, 1, P, E) of fbar, the inverse of f, from the view
    v of the inverse of G = dilate(f)[1] over P = 1: as f(P^w Gbar(t)) =
    P^w f[1] t, [t^m] fbar = Gbar[m] (1/f[1])^m / P^(w (m-1)), each over
    den d^n P^(w (m-1) + a m) and brought to its least exponent (``reduce``).
    It is not in normal form."""
    xs, den, deg = v
    (gam, d, a), n = N, len(xs) - 1
    out, g = [([0], 0)], [d ** n]
    for m, x in enumerate(polys(xs, deg)[1:], 1):
        g = [c // d for c in pmul(g, gam)]  # gam^m d^(n-m)
        out.append(reduce(pmul(x, g), P, w * (m - 1) + a * m))
    ys, E = zip(*out)
    return list(ys), den * d ** n, 1, P, list(E)


def egf_view(v, n):
    """The view of the EGF coefficients m! x_m, m <= n, of the view v.  It
    is not in normal form: its content is not divided out, which
    ``scalar.view_scalars`` does not need."""
    xs, den, deg, P, E = v
    fs = accumulate(range(1, n + 1), operator.mul, initial=1)
    return muls(xs, deg, fs), den, deg, P, E and E[:n + 1]
