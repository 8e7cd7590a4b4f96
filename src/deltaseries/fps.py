"""Truncated formal power series over the exact scalar rings.

A Series is an immutable fixed-order value: coefficients ``coeffs[n]`` are
the ordinary coefficients of t^n.  All generating functions in this package
are stated with t^n/n! weights; :func:`egf_coeff` and :func:`from_egf` do
that conversion in exactly one place.

Over Q the kernels run fraction-free: ``mul``, the linear-combination
blocks of composition, ``div`` and ``exp_series`` turn their operands into
Python int numerators over one common denominator (``_int_view``), run
their inner loops on those ints, and reduce once per output coefficient
with ``Fraction(num, den)``; the two recurrences keep their outputs so far
over a running lcm denominator (``_push``).  When any coefficient lies in
Q[l] or Q(l), each kernel runs its plain loop on the scalars themselves.

Composition g(f) runs by baby-step/giant-step (Paterson-Stockmeyer)
evaluation: about 2*sqrt(d) series products for an outer series g of
degree d, instead of one per coefficient.  Compositional inversion runs
by Newton iteration (order doubling); each step evaluates f(g) and f'(g)
from one shared set of baby steps.  The Lagrange inversion formulas are
provided as independent coefficient extractors so the two routes can be
checked against each other.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction

from . import scalar as sc
from .errors import (
    BadConstantTerm,
    IndexOutOfOrder,
    NonUnitConstantTerm,
    NotDelta,
    OrderMismatch,
    RingMismatch,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Series:
    """Truncated power series of fixed order with exact coefficients."""

    __slots__ = ("order", "coeffs", "ring")

    def __init__(self, order, coeffs, ring=None):
        # a Fraction is canonical; anything else may come from outside arithmetic
        coeffs = tuple(c if c.__class__ is Fraction else sc.simplify(c) for c in coeffs)
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
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "ring", ring)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return "Series(order=%d, ring=%s, coeffs=[%s])" % (
            self.order,
            self.ring,
            ", ".join(sc.format_scalar(c) for c in self.coeffs),
        )

    def truncate(self, order):
        if order > self.order:
            raise OrderMismatch("cannot truncate order %d to %d" % (self.order, order))
        return Series(order, self.coeffs[: order + 1], self.ring)

    def pad(self, order):
        """Zero-extend; the added coefficients are *not* claimed correct."""
        if order < self.order:
            return self.truncate(order)
        return Series(order, self.coeffs + (_ZERO,) * (order - self.order), self.ring)

    def valuation(self):
        for n, c in enumerate(self.coeffs):
            if c:
                return n
        return self.order + 1

    def is_zero(self):
        return not any(self.coeffs)

    # operator sugar; the module-level functions are the primary API
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Series):
            return mul(self, other)
        return scale(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1)


def zero(order, ring=sc.RING_Q):
    return Series(order, (_ZERO,) * (order + 1), ring)


def one(order, ring=sc.RING_Q):
    return Series(order, (_ONE,) + (_ZERO,) * order, ring)


def constant(value, order):
    return Series(order, (value,) + (_ZERO,) * order)


def t_series(order):
    if order < 1:
        raise ValueError("order must be at least 1 for t")
    return Series(order, (_ZERO, _ONE) + (_ZERO,) * (order - 1))


def _check_orders(a, b):
    if a.order != b.order:
        raise OrderMismatch("orders differ: %d vs %d" % (a.order, b.order))


def add(a, b):
    _check_orders(a, b)
    return Series(
        a.order,
        tuple(x + y for x, y in zip(a.coeffs, b.coeffs)),
        sc.join_ring(a.ring, b.ring),
    )


def sub(a, b):
    _check_orders(a, b)
    return Series(
        a.order,
        tuple(x - y for x, y in zip(a.coeffs, b.coeffs)),
        sc.join_ring(a.ring, b.ring),
    )


def scale(a, v):
    v = sc.simplify(v)
    return Series(
        a.order,
        tuple(c * v for c in a.coeffs),
        sc.join_ring(a.ring, sc.ring_of(v)),
    )


def _int_view(coeffs):
    """(nums, den) with coeffs[i] == nums[i]/den over the lcm den of the
    denominators, or None unless every coefficient is a Fraction."""
    if any(c.__class__ is not Fraction for c in coeffs):
        return None
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _push(nums, den, v):
    """Append the Fraction v to nums, the numerators of the outputs so far
    over their lcm den; returns the new lcm."""
    d = v.denominator
    if den % d:
        m = d // math.gcd(den, d)
        nums[:] = [x * m for x in nums]
        den *= m
    nums.append(v.numerator * (den // d))
    return den


def mul(a, b):
    """Truncated Cauchy product."""
    _check_orders(a, b)
    n = a.order
    ring = sc.join_ring(a.ring, b.ring)
    ia, ib = _int_view(a.coeffs), _int_view(b.coeffs)
    if ia and ib:
        (an, ad), (bn, bd) = ia, ib
        den = ad * bd
        rb = bn[::-1]
        return Series(n, [Fraction(sum(map(operator.mul, an[:m + 1], rb[n - m:])), den)
                          for m in range(n + 1)], ring)
    av, bv = a.coeffs, b.coeffs
    out = []
    for m in range(n + 1):
        acc = _ZERO
        for i in range(m + 1):
            ai = av[i]
            bj = bv[m - i]
            if ai and bj:
                acc = acc + ai * bj
        out.append(acc)
    return Series(n, out, ring)


def div(a, b):
    """Exact series division; requires an invertible constant term in b."""
    _check_orders(a, b)
    b0 = b.coeffs[0]
    if not b0:
        raise NonUnitConstantTerm("division by a series with zero constant term")
    inv0 = sc.scalar_inv(b0)
    ring = sc.join_ring(sc.join_ring(a.ring, b.ring), sc.ring_of(inv0))
    ia, ib = _int_view(a.coeffs), _int_view(b.coeffs)
    if ia and ib:
        # out[n] = (a[n] - sum_k b[k] out[n-k]) / b[0], with a = an/ad,
        # b = bn/bd and the outputs so far nums/den
        (an, ad), (bn, bd) = ia, ib
        out, nums, den = [], [], 1
        for n in range(a.order + 1):
            acc = sum(map(operator.mul, bn[1:n + 1], reversed(nums)))
            out.append(Fraction(an[n] * bd * den - acc * ad, ad * den * bn[0]))
            den = _push(nums, den, out[-1])
        return Series(a.order, out, ring)
    out = []
    for n in range(a.order + 1):
        acc = a.coeffs[n]
        for k in range(1, n + 1):
            bk = b.coeffs[k]
            if bk:
                acc = acc - bk * out[n - k]
        out.append(acc * inv0)
    return Series(a.order, out, ring)


def shift_down(a, k):
    """Divide by t^k; the dropped low-order coefficients must vanish."""
    if any(a.coeffs[:k]):
        raise NonUnitConstantTerm("cannot cancel t^%d: low-order terms nonzero" % k)
    return Series(a.order - k, a.coeffs[k:], a.ring)


def shift_up(a, k):
    """Multiply by t^k, keeping the order (top coefficients drop off)."""
    return Series(a.order, ((_ZERO,) * k + a.coeffs)[: a.order + 1], a.ring)


def derivative(a):
    out = [(Fraction(n) * a.coeffs[n]) for n in range(1, a.order + 1)]
    out.append(_ZERO)  # unknown top coefficient; callers truncate as needed
    return Series(a.order, out, a.ring)


def integrate(a):
    """Antiderivative with zero constant term, same order (top coeff drops)."""
    out = [_ZERO]
    for n in range(a.order):
        out.append(a.coeffs[n] * Fraction(1, n + 1))
    return Series(a.order, out, a.ring)


def compose(g, f):
    """g(f(t)) by baby-step/giant-step evaluation; f must have zero constant term."""
    _check_orders(g, f)
    if f.coeffs[0]:
        raise BadConstantTerm("inner series must have zero constant term")
    return _eval_at_powers(g, _powers(f, math.isqrt(_degree(g) + 1)))


def _degree(s):
    """Index of the last nonzero coefficient; 0 for the zero series."""
    return max((i for i, c in enumerate(s.coeffs) if c), default=0)


def _powers(f, k):
    """[1, f, ..., f^k]: the baby steps of an evaluation at f and its giant step."""
    steps = [one(f.order, f.ring), f]
    while len(steps) <= k:
        steps.append(mul(steps[-1], f))
    return steps


def _eval_at_powers(g, steps):
    """g(f) from steps = _powers(f, k) (Paterson-Stockmeyer).

    Each block of k coefficients of g is a linear combination of the baby
    steps 1, f, ..., f^(k-1); the blocks are combined by Horner in f^k.
    """
    k = len(steps) - 1
    n, d = g.order, _degree(g)
    f = steps[1]
    views = [_int_view(s.coeffs) for s in steps[:k]]
    result = None
    for start in range(d - d % k, -1, -k):
        block = _block(g.coeffs[start:start + k], steps, views, n)
        if result is None:
            result = block
        else:
            result = mul(result, steps[k])
            if not block.is_zero():
                result = add(result, block)
    return Series(n, result.coeffs, sc.join_ring(g.ring, f.ring))


def _block(cs, steps, views, n):
    """sum_j cs[j] f^j as a Series over Q or the ring of its terms."""
    used = [j for j, c in enumerate(cs) if c]
    if all(cs[j].__class__ is Fraction and views[j] for j in used):
        # one integer combination over the lcm of the coefficients' and
        # the steps' denominators
        cden = math.lcm(*(cs[j].denominator for j in used))
        sden = math.lcm(*(views[j][1] for j in used))
        acc = [0] * (n + 1)
        for j in used:
            nums, den = views[j]
            w = cs[j].numerator * (cden // cs[j].denominator) * (sden // den)
            # f^j has valuation at least j
            acc[j:] = [x + w * y for x, y in zip(acc[j:], nums[j:])]
        return Series(n, [Fraction(x, cden * sden) for x in acc])
    acc = [_ZERO] * (n + 1)
    for j in used:
        c, pj = cs[j], steps[j].coeffs
        for i in range(j, n + 1):
            if pj[i]:
                acc[i] = acc[i] + c * pj[i]
    return Series(n, acc)


class DeltaSeries:
    """A Series validated to have f(0)=0 and invertible f'(0)."""

    __slots__ = ("series",)

    def __init__(self, series):
        if series.order < 1:
            raise NotDelta("order must be at least 1")
        if series.coeffs[0]:
            raise NotDelta("nonzero constant term")
        f1 = series.coeffs[1]
        if not f1:
            raise NotDelta("zero linear term")
        # a nonconstant polynomial linear coefficient is only invertible in Q(l)
        if series.ring == sc.RING_QL and isinstance(f1, sc.LPoly):
            series = Series(series.order, series.coeffs, sc.RING_QLRAT)
        object.__setattr__(self, "series", series)

    def __setattr__(self, name, value):
        raise AttributeError("DeltaSeries is immutable")

    @property
    def order(self):
        return self.series.order

    @property
    def ring(self):
        return self.series.ring

    def __getitem__(self, n):
        return self.series.coeffs[n]

    # the declared ring is part of the key: results built from f carry it
    def __eq__(self, other):
        if isinstance(other, DeltaSeries):
            return self.series == other.series and self.ring == other.ring
        return NotImplemented

    def __hash__(self):
        return hash((self.series, self.ring))

    def __repr__(self):
        return "DeltaSeries(%r)" % (self.series,)

    def truncate(self, order):
        return DeltaSeries(self.series.truncate(order))


def invert_newton(f):
    """Compositional inverse of a delta series by order-doubling Newton steps."""
    n = f.order
    fs = f.series
    inv1 = sc.scalar_inv(fs.coeffs[1])
    g = Series(1, (_ZERO, inv1), fs.ring)
    while g.order < n:
        m = min(2 * g.order, n)
        fm = fs.truncate(m)
        gm = g.pad(m)
        # f(g) and f'(g) share one set of baby steps, so k balances their
        # k - 1 products against the 2(d+1)/k giant-step products
        steps = _powers(gm, math.isqrt(2 * (_degree(fm) + 1)))
        err = sub(_eval_at_powers(fm, steps), t_series(m))
        fpg = _eval_at_powers(derivative(fm), steps)
        g = sub(gm, div(err, fpg))
    return DeltaSeries(g)


def _inverse_power_base(f, order):
    """(t/f(t))^{-1} material: returns w with f = t*w, truncated to order."""
    w = shift_down(f.series, 1)
    return w.truncate(order) if order <= w.order else w.pad(order)


def lagrange_coeff_inverse(f, n):
    """[t^n] of the compositional inverse, by the single-coefficient formula."""
    if not 1 <= n <= f.order:
        raise IndexOutOfOrder("need 1 <= n <= %d, got %d" % (f.order, n))
    w = _inverse_power_base(f, n - 1)
    wn = pow_int(w, -n)
    return wn.coeffs[n - 1] * Fraction(1, n)


def lagrange_coeff_power(f, k, n):
    """[t^n] of the k-th power of the compositional inverse."""
    if not 1 <= k <= n <= f.order:
        raise IndexOutOfOrder("need 1 <= k <= n <= %d" % f.order)
    w = _inverse_power_base(f, n - k)
    wn = pow_int(w, -n)
    return wn.coeffs[n - k] * Fraction(k, n)


def lagrange_coeff_general(g, f, n):
    """[t^n] of g(fbar(t)) without computing the inverse."""
    if not 1 <= n <= f.order:
        raise IndexOutOfOrder("need 1 <= n <= %d, got %d" % (f.order, n))
    if g.order < n:
        raise IndexOutOfOrder("outer series order %d below n=%d" % (g.order, n))
    w = _inverse_power_base(f, n - 1)
    wn = pow_int(w, -n)
    gp = derivative(g.truncate(n)).truncate(n - 1)
    prod = mul(gp, wn)
    return prod.coeffs[n - 1] * Fraction(1, n)


def exp_series(f):
    """exp of a series with zero constant term."""
    if f.coeffs[0]:
        raise BadConstantTerm("exp needs zero constant term")
    out = [_ONE]
    view = _int_view(f.coeffs)
    if view:
        # out[n] = sum_k k f[k] out[n-k] / n, with f = fn/fd and the
        # outputs so far nums/den
        fn, fd = view
        kf = [k * c for k, c in enumerate(fn)]
        nums, den = [1], 1
        for n in range(1, f.order + 1):
            out.append(Fraction(sum(map(operator.mul, kf[1:n + 1], reversed(nums))), fd * den * n))
            den = _push(nums, den, out[-1])
        return Series(f.order, out, f.ring)
    for n in range(1, f.order + 1):
        acc = _ZERO
        for k in range(1, n + 1):
            fk = f.coeffs[k]
            if fk:
                acc = acc + (Fraction(k) * fk) * out[n - k]
        out.append(acc * Fraction(1, n))
    return Series(f.order, out, f.ring)


def log_series(g):
    """log of a series with constant term exactly 1."""
    if g.coeffs[0] != 1:
        raise BadConstantTerm("log needs constant term 1")
    out = [_ZERO]
    for n in range(1, g.order + 1):
        acc = _ZERO
        for k in range(1, n):
            lk = out[k]
            gnk = g.coeffs[n - k]
            if lk and gnk:
                acc = acc + (Fraction(k) * lk) * gnk
        out.append(g.coeffs[n] - acc * Fraction(1, n))
    return Series(g.order, out, g.ring)


def pow_int(f, k):
    """Integer power; negative k requires an invertible constant term."""
    if k == 0:
        return one(f.order, f.ring)
    if k < 0:
        f = div(one(f.order, f.ring), f)
        k = -k
    result = None
    base = f
    while k:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def pow_ratio(f, r):
    """Rational power exp(r*log f); constant term must be exactly 1."""
    r = Fraction(r)
    if f.coeffs[0] != 1:
        raise NonUnitConstantTerm("rational power needs constant term 1")
    return exp_series(scale(log_series(f), r))


# ---------------------------------------------------------------------------
# EGF conversion

def egf_coeff(series, n):
    """n! times the ordinary coefficient of t^n."""
    return series.coeffs[n] * Fraction(math.factorial(n))


def from_egf(coeffs, ring=None):
    """Build a Series whose EGF coefficients are the given values."""
    vals = [c * Fraction(1, math.factorial(n)) for n, c in enumerate(coeffs)]
    return Series(len(vals) - 1, vals, ring)


# ---------------------------------------------------------------------------
# serialization

def series_to_json(series, egf=False):
    if egf:
        coeffs = [sc.format_scalar(egf_coeff(series, n)) for n in range(series.order + 1)]
    else:
        coeffs = [sc.format_scalar(c) for c in series.coeffs]
    return {"order": series.order, "ring": series.ring, "coeffs": coeffs, "egf": egf}


def series_from_json(obj):
    vals = [sc.parse_scalar(s) for s in obj["coeffs"]]
    if obj.get("egf"):
        vals = [v * Fraction(1, math.factorial(n)) for n, v in enumerate(vals)]
    return Series(obj["order"], vals, obj["ring"])


def series_to_json_str(series, egf=False):
    return json.dumps(series_to_json(series, egf=egf))
