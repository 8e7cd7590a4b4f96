"""Truncated formal power series over the exact scalar rings.

A Series is an immutable fixed-order value: coefficients ``coeffs[n]`` are
the ordinary coefficients of t^n.  All generating functions in this package
are stated with t^n/n! weights; :func:`egf_coeff` and :func:`from_egf` do
that conversion in exactly one place.

In all three rings the kernels run on Python ints, by one route: ``mul``,
composition (``_eval_at_powers``), ``compose_log1p``, ``div``,
``exp_series`` (and ``expm1``, e^f - 1, its view with the constant term
set to zero), ``power``, ``add`` and ``sub`` (``_sum``) read each
operand's integer view and leave one on their result, in normal form, for
the next kernel to read as it is; ``_packed`` states what a view holds and
keeps its algebra.  Over Q(l) the inverse fbar of f and e^fbar - 1 have
weight w = 2 and P the squarefree part of f1, as Lagrange inversion puts
[t^n] fbar over a divisor of f1^(2n-1).  ``Fraction``, ``LPoly`` and
``LRat`` values are made only where a value leaves the series layer: when
``coeffs`` or one coefficient is read (for output, equality and the hash),
for Triangle entries and Bernoulli values (``egf_coeff``, or
``_packed.egf_view`` for a whole prefix).

Composition g(f) runs by baby-step/giant-step (Paterson-Stockmeyer)
evaluation: about 2*sqrt(d) series products for an outer series g of
degree d, instead of one per coefficient, in one integer frame of g and f
(``_eval_at_powers``).  Composition with log(1+t), the associated
logarithm, is instead the Stirling transform of g's coefficients
(``compose_log1p``): one dot product a coefficient with int weights
k! s(n, k) from their row recurrence, O(n^2) products in all; ``compose``
is its check.  Compositional inversion runs by Newton iteration
(order doubling) over P = 1 only; each step evaluates f(g) once, and g'
stands in for 1/f'(g).  The iteration starts at the first rung of its
halving ladder at or below a top order, made by Lagrange inversion in
baby and giant steps (Johansson, arXiv:1108.4772, 2011): about 2 sqrt(m)
series products and one dot product a coefficient, on int views.  Over
Q(l) the substitution t -> P^w t moves the whole inversion to P = 1: the
dilated series G(t) = f(P^w t) / (P^w f1), w least, has no
l-denominator, and [t^n] fbar = Gbar[n] / (P^(w (n-1)) f1^n) is reduced
once, so no factor of P is stripped between steps.  The Lagrange
inversion formulas are provided as independent coefficient extractors so
the two routes can be checked against each other.

Every power f^alpha, alpha rational, is one kernel, ``power``: J.C.P.
Miller's recurrence, run like ``div`` and ``exp_series`` by ``_recurrence``,
whose cost does not grow with |alpha|.  It makes every refusal of a power
itself, whoever calls it: first a constant term whose power cannot be
printed, then a zero or rootless one, then an output that cannot be
printed.  The exp(alpha log f) route kept below it is no kernel of the
package, only the independent check of ``power``.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from itertools import zip_longest

from . import scalar as sc
from ._packed import (NO_P, at, bits, cauchy, dilate, exps, frame, join, lift, line, muls, norm, norms, pack, packs,
                      points, pmul, polys, ppow, product, rebase, reduce, reduced, shift, undilate, unpack, weight,
                      width)
from .scalar import check_printable, int_base, int_part, int_view, view_scalars
from .errors import (
    BadConstantTerm,
    IndexOutOfOrder,
    NoExactRoot,
    NonUnitConstantTerm,
    NotDelta,
    OrderMismatch,
    RingMismatch,
)

_ZERO = Fraction(0)


class Series:
    """Truncated power series of fixed order with exact coefficients.

    A Series made by a kernel, or by zero, one or t_series, holds only its
    int view (``view``, in the normal form of ``_packed``); ``coeffs``, the
    tuple of canonical scalars, is made from it the first time it is read,
    and ``s[n]`` makes just one.  A Series built from scalars keeps the view
    a kernel first reads of them.  Neither changes once made.  Equality and
    hashing read the scalars, so a lazy and an eager Series of one value
    are equal; the hash is kept once computed.
    """

    __slots__ = ("order", "_coeffs", "ring", "_view", "_hash")

    def __init__(self, order, coeffs, ring=None):
        # a Fraction is canonical; anything else may come from outside arithmetic.
        # tuple() of a list, not of a generator: that one is allocated at a guessed
        # size and resized, which moves it between the tuple free lists and grows them
        coeffs = tuple([c if c.__class__ is Fraction else sc.simplify(c) for c in coeffs])
        if len(coeffs) != order + 1:
            raise ValueError("need %d coefficients, got %d" % (order + 1, len(coeffs)))
        inferred = sc.RING_Q
        for c in coeffs:
            if c.__class__ is not Fraction:
                inferred = sc.join_ring(inferred, sc.ring_of(c))
        if ring is None:
            ring = inferred
        elif not sc.ring_le(inferred, ring):
            raise RingMismatch("coefficients lie in %s, declared ring %s" % (inferred, ring))
        _set(self, order, ring, coeffs, None)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def coeffs(self):
        cs = self._coeffs
        if cs is None:
            cs = tuple(view_scalars(self._view))
            object.__setattr__(self, "_coeffs", cs)
        return cs

    @property
    def view(self):
        """The int view (xs, den, deg, P, E) the kernels read; of a Series
        built from scalars, made (``scalar.int_view``) when first read."""
        v = self._view
        if v is None:
            cs = self._coeffs
            v = int_view(cs, int_base(cs) if self.ring == sc.RING_QLRAT else NO_P)
            object.__setattr__(self, "_view", v)
        return v

    def __getitem__(self, n):
        if self._coeffs is None and n.__class__ is int:
            xs, den, deg, P, E = self._view
            return view_scalars(([xs[n]], den, deg, P, E and [E[n]]))[0]
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.order, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return "Series(order=%d, ring=%s, coeffs=[%s])" % (
            self.order,
            self.ring,
            ", ".join(sc.format_scalar(c) for c in self.coeffs),
        )

    def truncate(self, order):
        if order > self.order:
            raise OrderMismatch("cannot truncate order %d to %d" % (self.order, order))
        return _window(self, 0, 0, order)

    def pad(self, order):
        """Zero-extend; the added coefficients are *not* claimed correct."""
        if 0 <= order < self.order:  # a negative order is _window's to refuse
            raise OrderMismatch("cannot pad order %d to %d" % (self.order, order))
        return _window(self, 0, 0, order)

    def valuation(self):
        for n, c in enumerate(_flags(self)):
            if c:
                return n
        return self.order + 1

    def is_zero(self):
        return not any(_flags(self))


def _set(s, order, ring, coeffs, view):
    """Fill the slots of s, which __setattr__ refuses."""
    object.__setattr__(s, "order", order)
    object.__setattr__(s, "ring", ring)
    object.__setattr__(s, "_coeffs", coeffs)
    object.__setattr__(s, "_view", view)
    object.__setattr__(s, "_hash", None)
    return s


def _lazy(order, xs, den, deg, ring, P=NO_P, E=None):
    """The Series of the view xs / (den P^E) (lists when deg): only its
    normal form is kept, and the scalars are made when read."""
    return _set(object.__new__(Series), order, ring, None, norm(xs, den, deg) + (P, E))


def _flags(s):
    """Truthy exactly at the nonzero coefficients of s, read from its view
    when its scalars are not made."""
    if s._coeffs is not None:
        return s._coeffs
    xs, _, deg, _, _ = s._view
    return list(map(any, xs)) if deg else xs


def _window(a, lo, z, order):
    """The Series of order `order` whose coefficients are z zeros and then
    a's from index lo on, cut or zero-padded to length order + 1; it keeps
    a's view, and a's scalars when a has them."""
    if order < 0:
        raise ValueError("need %d coefficients" % (order + 1))
    def cut(cs, zero):
        cs = ([zero] * z + list(cs[lo:]))[:order + 1]
        return cs + [zero] * (order + 1 - len(cs))
    coeffs = a._coeffs and tuple(cut(a._coeffs, _ZERO))
    xs, den, deg, P, E = a.view
    view = norm(cut(xs, [] if deg else 0), den, deg) + (P, E and cut(E, 0))
    return _set(object.__new__(Series), order, a.ring, coeffs, view)


def zero(order, ring=sc.RING_Q):
    return _lazy(order, [0] * (order + 1), 1, 0, ring)


def one(order, ring=sc.RING_Q):
    return _lazy(order, [1] + [0] * order, 1, 0, ring)


def constant(value, order):
    return Series(order, (value,) + (_ZERO,) * order)


def t_series(order):
    if order < 1:
        raise ValueError("order must be at least 1 for t")
    return _lazy(order, [0, 1] + [0] * (order - 1), 1, 0, sc.RING_Q)


def _check_orders(a, b):
    if a.order != b.order:
        raise OrderMismatch("orders differ: %d vs %d" % (a.order, b.order))


def add(a, b):
    return _sum(a, b, 1)


def sub(a, b):
    return _sum(a, b, -1)


def _sum(a, b, sign):
    """a + sign b in every ring: coefficient i of both viewed over one den
    P^F[i], F[i] the larger of their exponents, and summed packed.  As P
    divides no numerator over a positive power of it, it can divide a sum
    only where both terms lie over one such power: only those are reduced."""
    _check_orders(a, b)
    n, ring = a.order, sc.join_ring(a.ring, b.ring)
    va, vb = a.view, b.view
    P = join(va[3], vb[3])
    F = ties = None
    if len(P) > 1:
        ea, eb = exps(va), exps(vb)  # 0 at a zero polynomial
        F = list(map(max, ea, eb))
        ties = {i for i, (e, f) in enumerate(zip(ea, eb)) if e and e == f}
    xa, xb = at(va, P, F), at(vb, P, F)
    den, deg = math.lcm(xa[1], xb[1]), max(xa[2], xb[2])
    xa, xb = lift(xa, den, deg), lift(xb, den, deg)
    B = width(max(bits(xa, deg), bits(xb, deg)), 2) if deg else 0
    return _out(n, [x + sign * y for x, y in zip(packs(xa, deg, B), packs(xb, deg, B))], B, den, P, F, ring, ties)


def scale(a, v):
    """a times the scalar v: one product with each polynomial of a's view."""
    v = sc.simplify(v)
    ring = sc.join_ring(a.ring, sc.ring_of(v))
    if not v:
        return zero(a.order, ring)
    va = a.view
    P = join(va[3], int_base([v]))
    xs, den, deg, _, E = rebase(va, P)
    N, d, k = int_part(v, P)
    if len(N) == 1 and not k:  # a rational multiple: P neither appears nor goes
        return _lazy(a.order, muls(xs, deg, N * len(xs)), den * d, deg, ring, P, E)
    xs = [pmul(x, N) if any(x) else [] for x in polys(xs, deg)]
    if len(P) > 1:
        xs, E = map(list, zip(*[reduce(x, P, e + k) for x, e in zip(xs, E)]))
    return _lazy(a.order, xs, den * d, 1, ring, P, E)


def _out(n, xs, B, den, P, F, ring, ties=None):
    """The Series of order n of the sums xs packed at width B over
    den P^F[i]: only its view (``reduced``)."""
    xs, den, deg, P, E = reduced(xs, B, den, P, F, ties)
    return _lazy(n, xs, den, deg, ring, P, E)


def mul(a, b):
    """Truncated Cauchy product: both views in one frame (``frame``),
    multiplied packed (``product``), each sum i over den P^F[i] reduced
    once (``_out``)."""
    _check_orders(a, b)
    n, va, vb = a.order, a.view, b.view
    P = join(va[3], vb[3])
    ea = eb = eo = None  # exponents of P, none for P = 1
    if len(P) > 1:
        w, (sa, sb) = frame(va, vb)
        ea, eb, eo = line(n, w, sa), line(n, w, sb), line(n, w, sa + sb)
    return _out(n, *product(at(va, P, ea), at(vb, P, eb), n), P, eo, sc.join_ring(a.ring, b.ring))


def _recurrence(u, c, g, e, P, E, ring, tail=None):
    """The Series out[n] = (u[n] - sum_{k=1}^{n} (c[k] + m[n] d[k]) out[n-k]) cd g / e[n]
    for the int views u = (xs, ud, deg) over P^(E[n] - a) and
    c = (xs, cd, deg) over P^(w k - a), the factor g = (gam, gd, a) ==
    gam / (gd P^a) and the ints e[n]; out[n] lies over P^E[n],
    E[n] = w n + s.  The term of weight m[n] comes with tail = (xd, m), d
    the polynomials xd in c's frame; without it m is 0.

    The outputs so far are kept packed at one width B over their lcm den and
    P^E[n]: the terms of each sum then share the exponent of u[n].  Each
    step forms the packed sum, and the one of d beside it, unpacks it,
    multiplies by gam, reduces the new output once for the result's view and
    packs its numerator.  c[n] and d[n] are packed at step n, the first sum
    that reads them.  Before the next sum could overflow B, B grows, and the
    outputs and the c[k] and d[k], k <= n, are repacked.  After the last
    step no sum follows: B then only has to hold the outputs' own digits,
    and c and d are not repacked; over P != 1 the result is made from the
    reduced outputs, so the last one is neither packed nor widened for.  B is 0 (nothing packed) when u, c and
    gam are constants.  For P = 1 the packed outputs are the result's view.
    The tail's weights can make the outputs grow without bound (the power
    kernel's exponent), so with it each output is refused once certainly too
    long to print (``scalar.check_printable``).
    """
    (xu, ud, du), (xc, cd, dc), (gam, gd, _) = u, c, g
    xd, m = tail or ((), ())
    cap = m and sc.print_cap()  # the bits of an output that cannot be printed
    hc = bits(xc, dc)
    if m:  # |c[k] + m[n] d[k]| < 2^hc
        hc = max(hc, bits(xd, dc) + max(m).bit_length()) + 1
    B = width(hc, 1) if du + dc + len(gam) - 1 else 0
    ck, dk = ([0], [0]) if dc else (xc, xd)  # c[0] and d[0] are never read
    out, nums, den = [], [], 1
    dn, hn = 0, 0  # degree and height bits of nums
    last = len(xu) - 1
    for n, un in enumerate(xu):
        if dc and 0 < n < len(xc):  # c[n] and d[n], packed as the first sum reads them
            ck.append(pack(xc[n], B))
        if dc and 0 < n < len(xd):
            dk.append(pack(xd[n], B))
        s = sum(map(operator.mul, ck[1:n + 1], reversed(nums)))
        if m:
            s += m[n] * sum(map(operator.mul, dk[1:n + 1], reversed(nums)))
        cden, q = cd * den, ud * den * gd * e[n]
        if B or len(P) > 1:
            x = [cden * ui - ud * si for ui, si in zip_longest(un if du else (un,), unpack(s, B), fillvalue=0)]
            x = pmul(x, gam)
            h = math.gcd(q, *x)
            x, dv = [y // h for y in x], q // h  # the new output is x / (dv P^E[n])
            if len(P) > 1:
                out.append(reduce(x, P, E[n]) + (dv,))
            if cap:  # over Q(l) once P is stripped
                check_printable(*(out[-1] if len(P) > 1 else (x, 0, dv)), P, cap)
            r = dv // math.gcd(den, dv)
            if n == last and len(P) > 1:  # the result is out over den; nums are not read again
                den *= r
                break
            if B:
                # after this step nums lie below 2^hn, for |y r| < 2^hn 2^ceil(log2 r)
                hn = max(hn + (r - 1).bit_length(), (max(map(abs, x), default=0) * (den * r // dv)).bit_length())
                dn = max(dn, len(x) - 1)
                # the next sum must fit in B; after the last step only the outputs
                need = width(hc + hn, (n + 1) * (min(dc, dn) + 1)) if n < last else hn + 1
                if need > B:
                    W = need + (need >> 2) if n < last else need
                    nums = [pack(unpack(y, B), W) for y in nums]
                    if dc and n < last:  # c[k] and d[k] are packed for k <= n only
                        ck = [0] + [pack(p, W) for p in xc[1:len(ck)]]
                        dk = [0] + [pack(p, W) for p in xd[1:len(dk)]]
                    B = W
            x = pack(x, B)
        else:
            x = (cden * un - ud * s) * gam[0]
            h = math.gcd(q, x)
            x, dv = x // h, q // h
            if cap and max(abs(x), dv).bit_length() > cap:  # its first test, inline on this short path
                check_printable([x], 0, dv, NO_P, cap)
            r = dv // math.gcd(den, dv)
        if r > 1:
            nums = [y * r for y in nums]
            den *= r
        nums.append(x * (den // dv))
    if len(P) > 1:  # den is now the lcm of the outputs' dv
        return _lazy(len(out) - 1, [[y * (den // dv) for y in x] for x, _, dv in out], den, 1, ring,
                     P, [k for _, k, _ in out])
    return _lazy(len(nums) - 1, [unpack(y, B) for y in nums] if B else nums, den, B, ring)


def div(a, b):
    """Exact series division; requires an invertible constant term in b."""
    _check_orders(a, b)
    n, b0 = a.order, b[0]
    if not b0:
        raise NonUnitConstantTerm("division by a series with zero constant term")
    inv0 = sc.scalar_inv(b0)
    ring = sc.join_ring(sc.join_ring(a.ring, b.ring), sc.ring_of(inv0))
    # out[n] = (a[n] - sum_k b[k] out[n-k]) / b[0]; b[0]'s factors are in P,
    # so 1/b[0] is a polynomial over a power of P
    va, vb = a.view, b.view
    P = join(va[3], vb[3], int_base([inv0]))
    gam, gd, ag = int_part(inv0, P)
    E = None
    xb, bd, db, Pb, eb = vb
    cv = norm([[] if db else 0] + xb[1:], bd, db) + (Pb, eb and [0] + eb[1:])  # b's tail
    if len(P) > 1:
        # c[k] over P^(w k - ag), a over P^(w i + s): the recurrence fixes c's shift
        pc = points(cv)
        w, (s,) = frame(va, w=weight(pc, ag), fixed=sum(i for i, _ in pc))
        E = line(n, w, s + ag)
        av, cv = at(va, P, line(n, w, s)), at(cv, P, line(n, w, -ag))
    else:
        av, cv = va[:3], cv[:3]
    h = math.gcd(cv[1], *gam)  # the recurrence's factor is inv0 / cd
    g = [x // h for x in gam], gd * (cv[1] // h), ag
    return _recurrence(av, cv, g, [1] * (n + 1), P, E, ring)


def shift_down(a, k):
    """Divide by t^k; the dropped low-order coefficients must vanish."""
    if any(_flags(a)[:k]):
        raise NonUnitConstantTerm("cannot cancel t^%d: low-order terms nonzero" % k)
    return _window(a, k, 0, a.order - k)


def shift_up(a, k):
    """Multiply by t^k, keeping the order (top coefficients drop off)."""
    return _window(a, 0, k, a.order)


def derivative(a):
    """The derivative; its top coefficient is unknown and set to 0, so
    callers truncate as needed."""
    xs, den, deg, P, E = a.view
    out = muls(xs[1:], deg, range(1, a.order + 1))
    return _lazy(a.order, out + [[] if deg else 0], den, deg, a.ring, P, E and E[1:] + [0])


def integrate(a):
    """Antiderivative with zero constant term, same order (top coeff drops)."""
    xs, den, deg, P, E = a.view
    L = math.lcm(*range(1, a.order + 1))  # coefficient m is xs[m-1] (L/m) / (den L)
    out = muls(xs[:-1], deg, [L // m for m in range(1, a.order + 1)])
    return _lazy(a.order, [[] if deg else 0] + out, den * L, deg, a.ring, P, E and [0] + E[:-1])


def compose(g, f):
    """g(f(t)) by baby-step/giant-step evaluation; f must have zero constant term."""
    _check_orders(g, f)
    if f[0]:
        raise BadConstantTerm("inner series must have zero constant term")
    return _out(g.order, *_eval_at_powers(g.view, f.view), sc.join_ring(g.ring, f.ring))


def _eval_at_powers(vg, vf):
    """(sums, B, den, P, F): g(f) for the views vg and vf of one order n,
    by Paterson-Stockmeyer evaluation at the powers of f in one integer
    frame; sum i is packed at width B over den P^F[i].

    Each block of k = isqrt(deg g + 1) coefficients of g is a linear
    combination of the baby steps 1, f, ..., f^(k-1); from the top block
    down, the Horner step r f^k + block combines them in the giant step
    f^k.  With f[i] over P^(w i + sig), f^j[i] lies over P^(w i + j sig),
    so g[m] is viewed over P^(sg - sig m), and the block at start and r f^k
    both lie over P^(w i + sg - sig start): no factor of P is stripped
    between steps.  The powers of f and each step's r are int views
    (xs, den, deg) in that frame, each made by one truncated product and
    brought to the normal form of ``norm`` (one gcd), which keeps r's den
    from growing by den(f^k) at every step.  Only the caller unpacks and
    reduces the sums it reads.
    """
    n = len(vg[0]) - 1
    pg = points(vg)
    d = pg[-1][0] if pg else 0  # the degree of g
    k = math.isqrt(d + 1)
    P = join(vg[3], vf[3])  # the powers of f need nothing more
    eg = ef = eo = None
    if len(P) > 1:
        pf = points(vf)
        w = weight(pf)
        sig = shift(pf, w)
        sg = shift(pg, -sig)
        eg, ef, eo = line(n, -sig, sg), line(n, w, sig), line(n, w, sg)
    xg, gden, dg = at(vg, P, eg)
    steps = [([1] + [0] * n, 1, 0), at(vf, P, ef)]  # f^j over den P^(w i + j sig)
    while len(steps) <= k:
        steps.append(norm(*reduced(*product(steps[-1], steps[1], n, 1))[:3]))
    # g and the baby steps each over one denominator, packed at one width
    sden, ds = math.lcm(*[v[1] for v in steps[:k]]), max(v[2] for v in steps[:k])
    xs = [x for v in steps[:k] for x in lift(v, sden, ds)]
    B = width(bits(xg, dg) + bits(xs, ds), k * (min(dg, ds) + 1)) if dg + ds else 0
    sk = packs(xs, ds, B)
    gk, sk = packs(xg, dg, B), [sk[j * (n + 1):(j + 1) * (n + 1)] for j in range(k)]
    bden = gden * sden  # the blocks' den
    xk, kd, dk = steps[k]
    hk = bits(xk, dk)
    r = None
    for start in range(d - d % k, -1, -k):
        acc = [0] * (n + 1)
        for j in range(min(k, n + 1 - start)):
            if gk[start + j]:
                # f^j has valuation at least j
                acc[j:] = [x + gk[start + j] * y for x, y in zip(acc[j:], sk[j][j:])]
        W, den = B, bden
        if r is not None:  # r f^k + block over one den, at the width W that sum needs
            (xr, rd, dr), xb = r, ([unpack(x, B) for x in acc] if B else acc)
            den = math.lcm(rd * kd, bden)
            ma, mb = den // (rd * kd), den // bden
            W = 0
            if dr + dk + B:  # ma times each product of r and f^k, and one term mb block[i]
                top = max(bits(xr, dr) + hk + ma.bit_length(), bits(xb, B) + mb.bit_length())
                W = width(top, (n + 1) * (min(dr, dk) + 1) + 1)
            acc = [ma * s + mb * x for s, x in zip(cauchy(packs(xr, dr, W), packs(xk, dk, W), n, k),
                                                    packs(xb, B, W))]
        if not start:
            return acc, W, den, P, eo
        r = norm(*reduced(acc, W, den)[:3])


def compose_log1p(g):
    """g(log(1+t)) as the Stirling transform n! [t^n] = sum_k s(n, k) k! g[k]
    (Comtet, Advanced Combinatorics, 1974, 3.3 and 5.5): one dot product a
    coefficient with the int weights a(n, k) = k! s(n, k) of the row
    recurrence a(m+1, k) = k a(m, k-1) - m a(m, k).

    g[k] is viewed over den P^(w k + s) (``frame``) as X_k and packed once,
    so coefficient n is (N!/n!) sum_k a(n, k) X_k Q_(n-k) over
    den N! P^(w n + s), N the order and Q_j = P^(w j), which is 1 when
    P = 1 or w = 0.  The same sums over the l1 norms bound the width."""
    N, v = g.order, g.view
    P, w, F = v[3], 0, None
    if len(P) > 1:
        w, (s,) = frame(v)
        F = line(N, w, s)
    xs, den, deg = at(v, P, F)
    qs = [ppow(P, w * j) for j in range(N + 1)] if w else [[1]] * (N + 1)
    rows = [[1]]
    for m in range(N):
        r = rows[-1]
        rows.append([k * x - m * y for k, x, y in zip(range(m + 2), [0] + r, r + [0])])
    c = [math.perm(N, N - m) for m in range(N + 1)]  # N!/m!
    B = 0
    if deg or w:
        nx, nq = norms(xs, deg), norms(qs, 1)
        B = max(c[m] * sum(abs(a) * x * q for a, x, q in zip(r, nx, nq[m::-1]))
                for m, r in enumerate(rows)).bit_length() + 1
    xk, qk = packs(xs, deg, B), packs(qs, 1, B)
    sums = [c[m] * sum(map(operator.mul, r, map(operator.mul, xk, qk[m::-1]))) for m, r in enumerate(rows)]
    return _out(N, sums, B, den * math.factorial(N), P, F, g.ring)


class DeltaSeries:
    """A Series validated to have f(0)=0 and invertible f'(0)."""

    __slots__ = ("series", "_hash")

    def __init__(self, series):
        if series.order < 1:
            raise NotDelta("order must be at least 1")
        if series[0]:
            raise NotDelta("nonzero constant term")
        f1 = series[1]
        if not f1:
            raise NotDelta("zero linear term")
        # a nonconstant polynomial linear coefficient is only invertible in Q(l)
        if series.ring == sc.RING_QL and isinstance(f1, sc.LPoly):
            series = _set(object.__new__(Series), series.order, sc.RING_QLRAT, series._coeffs, series._view)
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("DeltaSeries is immutable")

    @property
    def order(self):
        return self.series.order

    @property
    def ring(self):
        return self.series.ring

    def __getitem__(self, n):
        return self.series[n]

    # the declared ring is part of the key: results built from f carry it
    def __eq__(self, other):
        if isinstance(other, DeltaSeries):
            return self.series == other.series and self.ring == other.ring
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.series, self.ring))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return "DeltaSeries(%r)" % (self.series,)

    def truncate(self, order):
        return DeltaSeries(self.series.truncate(order))


# The highest order _lagrange_base makes.  Over Q, Lagrange inversion alone to
# order n ties with climbing by Newton above 32 at n = 32-48 and is 18-54% slower
# at 64-128 (best of 5-50 runs a point, four presets).
_LAGRANGE_TOP = 32
# The same for the dilated series G of a Q(l) inversion, whose l-degree grows
# by w a coefficient.  A base to 8 beat Newton from t/f1 at every point of the
# Q(l) families of the tests at orders 6-40, while a base to 32 was up to 2x
# slower than one to 8 on a dense G at 24, and 5x slower than Newton from
# t/f1 on (l+2)(t + (1+l)^2 t^2 + (1+l) t^3), a sparse G, at 32.
_DILATED_TOP = 8


def _lagrange_base(xf, fd, df, inv1, m):
    """(xs, den, deg): the inverse to order m of f, viewed as (xf, fd, df)
    over P = 1, by Lagrange inversion [t^k] = [t^(k-1)] h^k / k, h = t/f,
    in baby and giant steps (Johansson, arXiv:1108.4772, 2011): h by one
    ``_recurrence`` on f's shifted view, the baby steps h, ..., h^s and the
    giant steps h^(s j), s = isqrt(m), each by one truncated product brought
    to ``norm``, all packed once at one width, and coefficient s j + i read
    as one dot product of h^i and h^(s j); a zero is [0], as in Newton."""
    a, q = inv1.numerator, math.gcd(fd, inv1.numerator)
    one = [1] + [0] * (m - 1), 1, 0
    h = _recurrence(one, ([[] if df else 0] + xf[2:m + 1], fd, df), ([a // q], inv1.denominator * (fd // q), 0),
                    [1] * m, NO_P, None, None).view[:3]
    s = math.isqrt(m)
    baby = [one, h]
    while len(baby) <= s:
        baby.append(norm(*reduced(*product(baby[-1], h, m - 1))[:3]))
    giant = [one, baby[s]]
    while s * len(giant) < m:
        giant.append(norm(*reduced(*product(giant[-1], baby[s], m - 1))[:3]))
    hb, hg = [max(bits(v[0], v[2]) for v in vs) for vs in (baby, giant)]
    db, dg = [max(v[2] for v in vs) for vs in (baby, giant)]
    B = width(hb + hg, m * (min(db, dg) + 1)) if db + dg else 0
    pb, pg = [packs(v[0], v[2], B) for v in baby], [packs(v[0], v[2], B) for v in giant]
    xs, dens = [], []
    for k in range(1, m + 1):
        j, i = divmod(k - 1, s)
        xs.append(sum(map(operator.mul, pb[i + 1][:k], pg[j][k - 1::-1])))
        dens.append(k * baby[i + 1][1] * giant[j][1])
    den = math.lcm(*dens)
    xs = muls([unpack(x, B) or [0] for x in xs] if B else xs, B, [den // d for d in dens])
    return norm([[0] if B else 0] + xs, den, B)


def invert_newton(f):
    """Compositional inverse of a delta series by order-doubling Newton steps.

    With g right through t^h and m <= 2h, f(g) - t is O(t^(h+1)) and
    1/f'(g) = g' + O(t^h), as f'(g) g' = (f(g))' (Brent and Kung, J. ACM
    25, 1978), so a step g - (f(g) - t) / f'(g) is g - t^(h+1) (f(g)[h+1..m] g'):
    one evaluation, one short product.  The precisions m climb ..., ceil(n/4),
    ceil(n/2), n (2, 3, 6, 12 for n = 12), never above the doubling 2, 4, 8, ...,
    from the first rung at or below a top order, made by Lagrange inversion
    (``_lagrange_base``).

    The inversion runs on int views over P = 1 only (``_invert``).  Over Q
    and Q[l], where neither f nor 1/f[1] has an l-denominator, it inverts f
    with the top 32.  Over Q(l), P the lcm of f's and that of 1/f[1], it
    inverts G(t) = f(P^w t) / (P^w f[1]) instead, which lies over P = 1
    (``_packed.dilate``), with the top ``_DILATED_TOP``, and reads
    [t^m] fbar = Gbar[m] / (P^(w (m-1)) f[1]^m) back over P, one ``reduce``
    a coefficient (``_packed.undilate``).  Only the inverse is made a
    Series, and in the base case h = t/f by its recurrence."""
    fs = f.series
    n, inv1 = fs.order, sc.scalar_inv(fs[1])
    vf = fs.view
    P = join(vf[3], int_base([inv1]))
    if len(P) == 1:
        return DeltaSeries(_lazy(n, *_invert(vf[:3], inv1, n, _LAGRANGE_TOP), fs.ring))
    N = int_part(inv1, P)
    w, G = dilate(rebase(vf, P), N)
    xs, den, deg, _, E = undilate(_invert(G, 1, n, _DILATED_TOP), N, w, P)
    return DeltaSeries(_lazy(n, xs, den, deg, fs.ring, P, E))


def _invert(vf, inv1, n, top):
    """(xs, den, deg): the inverse to order n of the delta series viewed as
    vf = (xs, den, deg) over P = 1, with 1/f[1] == inv1, by Newton steps
    from the first rung at or below `top` (``invert_newton``): g stays a
    view from step to step, and each step reads f's prefix, evaluates f at
    g padded with zeros (``_eval_at_powers``), reduces only the sums
    h+1..m of f(g), as the lower ones are t, and appends the correction,
    whose support is disjoint from g's, over one den."""
    xf, fd, df = vf
    K = (-(-n // top) - 1).bit_length()  # the steps: rungs above the base
    xs, den, deg = _lagrange_base(xf, fd, df, inv1, -(-n >> K))
    for k in range(K - 1, -1, -1):
        h, m = len(xs) - 1, -(-n >> k)  # m = ceil(n / 2^k)
        z = m - h
        sums, B, sd, _, _ = _eval_at_powers((xf[:m + 1], fd, df, NO_P, None),
                                            (xs + [[] if deg else 0] * z, den, deg, NO_P, None))
        err = norm(*reduced(sums[h + 1:], B, sd)[:3])  # (f(g) - t) / t^(h+1)
        # -g' up to t^(z-1), so the correction is err times it
        c = reduced(*product(err, (muls(xs[1:], deg, range(-1, -z - 1, -1)), den, deg), z - 1))
        L, D = math.lcm(den, c[1]), max(deg, c[2])
        xs, den, deg = norm(lift((xs, den, deg), L, D) + lift(c[:3], L, D), L, D)
    return xs, den, deg


def _inverse_power(f, order, n):
    """(f(t)/t)^(-n) to order, whose coefficients Lagrange inversion reads."""
    return power(_window(f.series, 1, 0, order), -n)


def lagrange_coeff_inverse(f, n):
    """[t^n] of the compositional inverse, by the single-coefficient formula."""
    if not 1 <= n <= f.order:
        raise IndexOutOfOrder("need 1 <= n <= %d, got %d" % (f.order, n))
    return _inverse_power(f, n - 1, n)[n - 1] * Fraction(1, n)


def lagrange_coeff_power(f, k, n):
    """[t^n] of the k-th power of the compositional inverse."""
    if not 1 <= k <= n <= f.order:
        raise IndexOutOfOrder("need 1 <= k <= n <= %d" % f.order)
    return _inverse_power(f, n - k, n)[n - k] * Fraction(k, n)


def lagrange_coeff_general(g, f, n):
    """[t^n] of g(fbar(t)) without computing the inverse."""
    if not 1 <= n <= f.order:
        raise IndexOutOfOrder("need 1 <= n <= %d, got %d" % (f.order, n))
    if g.order < n:
        raise IndexOutOfOrder("outer series order %d below n=%d" % (g.order, n))
    # [t^(n-1)] of g' (f/t)^(-n), one sum of scalar products
    gp, inv = derivative(g.truncate(n)).coeffs, _inverse_power(f, n - 1, n).coeffs
    return sc.simplify(sum(map(operator.mul, gp[:n], reversed(inv)), _ZERO)) * Fraction(1, n)


def exp_series(f):
    """exp of a series with zero constant term."""
    if f[0]:
        raise BadConstantTerm("exp needs a zero constant term, got %s" % sc.format_scalar(f[0]))
    # out[n] = sum_k k f[k] out[n-k] / n, f[k] over P^(w k): out[n] over P^(w n)
    n = f.order
    v = f.view
    P, E = v[3], None
    if len(P) > 1:
        E = line(n, weight(points(v)), 0)
    xs, fd, deg = at(v, P, E)
    kf = muls(xs, deg, range(0, -n - 1, -1))
    one = [1] + [0] * n, 1, 0
    e = [fd] + [fd * m for m in range(1, n + 1)]
    return _recurrence(one, (kf, fd, deg), ([1], 1, 0), e, P, E, f.ring)


def expm1(f):
    """e^f - 1 for a series with zero constant term: exp_series's view with
    its constant term 1 set to zero, nothing else read or packed."""
    e = exp_series(f)
    xs, den, deg, P, E = e.view
    return _lazy(e.order, [[] if deg else 0] + xs[1:], den, deg, e.ring, P, E and [0] + E[1:])


def log_series(g):
    """log of a series with constant term exactly 1, as the integral of g'/g:
    the unknown top coefficient of g' is never read, as the integral drops
    the top coefficient of the quotient."""
    if g[0] != 1:
        raise BadConstantTerm("log needs constant term 1, got %s" % sc.format_scalar(g[0]))
    return integrate(div(derivative(g), g))


def power(f, alpha):
    """f^alpha for a rational alpha = p/q, by J.C.P. Miller's recurrence
    (Knuth, TAOCP vol. 2, 4.7), the one power kernel.

    For u = f / f[0], whose constant term is 1, b = u^alpha has b[0] = 1 and
    q n b[n] = sum_{j=1}^{n} ((p + q) j - q n) u[j] b[n-j], as u b' = alpha u' b:
    one ``_recurrence``, in exp_series's frame, whose term of weight q n is
    the second sum.  Its time does not grow with |alpha|, and it refuses an
    output that is certainly too long to print.  Then f^alpha = f[0]^alpha b,
    which needs an exact root of a rational f[0] when q > 1.  A zero constant
    term takes an integer alpha >= 0: f = t^v u gives t^(v alpha) u^alpha.
    Before any of it, f[0]^alpha is refused when it cannot be printed
    (``scalar.check_power_size``), as its time and memory grow with |alpha|."""
    alpha = Fraction(alpha)
    n, a0 = f.order, f[0]
    sc.check_power_size(a0, alpha)
    if not alpha:
        return one(n, f.ring)
    if alpha == 1:
        return f
    p, q = alpha.numerator, alpha.denominator
    if not a0:
        if q > 1:
            raise BadConstantTerm("a rational power needs a nonzero constant term")
        if p < 0:
            raise NonUnitConstantTerm("division by a series with zero constant term")
        v = f.valuation()
        if v * p > n:
            return zero(n, f.ring)
        return _window(power(_window(f, v, 0, n - v * p), p), 0, v * p, n)
    root = a0 if q == 1 else sc.rat_nth_root(a0, q) if a0.__class__ is Fraction else None
    if root is None:
        raise NoExactRoot("the constant term %s has no exact %d-th root" % (sc.format_scalar(a0), q))
    lead = sc.scalar_pow(root, p)  # f[0]^alpha
    v = (f if a0 == 1 else scale(f, sc.scalar_inv(a0))).view
    P, E = v[3], None
    if len(P) > 1:
        E = line(n, weight(points(v)), 0)
    xs, ud, deg = at(v, P, E)
    m = [q * i for i in range(n + 1)]
    kx = muls(xs, deg, [-(p + q) * i for i in range(n + 1)]) if p + q else []  # no sum at alpha = -1
    b = _recurrence(([1] + [0] * n, 1, 0), (kx, ud, deg), ([1], 1, 0), [ud] + [ud * w for w in m[1:]], P, E,
                    sc.join_ring(f.ring, sc.ring_of(lead)), (xs, m))
    if lead == 1:
        return b
    b = scale(b, lead)
    if b.ring == sc.RING_QL and len(P) > 1:  # the P of 1/f[0] cancelled: over Q[l] it is 1
        b = _lazy(n, *b.view[:3], b.ring)
    return b


def pow_ratio(f, r):
    """Rational power exp(r*log f); constant term must be exactly 1.  Not a
    kernel of the package: it is the independent exp-log route that checks
    ``power`` (in the tests and the benchmark's Bernoulli check)."""
    r = Fraction(r)
    if f[0] != 1:
        raise NonUnitConstantTerm("rational power needs constant term 1")
    return exp_series(scale(log_series(f), r))


# ---------------------------------------------------------------------------
# EGF conversion

def egf_coeff(series, n):
    """n! times the ordinary coefficient of t^n, made from the view of the
    series as one scalar n! xs[n] / (den P^E[n])."""
    xs, den, deg, P, E = series.view
    return view_scalars((muls(xs[n:], deg, [math.factorial(n)]), den, deg, P, E and E[n:]))[0]


def from_egf(coeffs, ring=None):
    """Build a Series whose EGF coefficients are the given values."""
    vals = [c * Fraction(1, math.factorial(n)) for n, c in enumerate(coeffs)]
    return Series(len(vals) - 1, vals, ring)


# ---------------------------------------------------------------------------
# serialization

def series_to_json(series):
    coeffs = [sc.format_scalar(c) for c in series.coeffs]
    return {"order": series.order, "ring": series.ring, "coeffs": coeffs, "egf": False}


def series_to_json_str(series):
    return json.dumps(series_to_json(series))
