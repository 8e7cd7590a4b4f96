"""Plain scalar loops: the reference routes for the fps and stirling kernels.

Each function here works coefficient by coefficient on the scalars
themselves (Fraction, LPoly, LRat), with no integer views and no
baby-step/giant-step evaluation, and calls none of the kernels it checks
(``lpoly_gcd`` is Euclid over Fractions, against the integer remainder
sequence of ``scalar.lpoly_gcd``):
not fps.mul, fps.div, fps.add, fps.exp_series, fps.log_series, fps.compose,
fps.invert_newton, fps.power or stirling._power_rows.  The two routes that
fps.power replaced, repeated squaring and exp(r log f), are kept here as
its oracles, and the power sum that presets.deg_log1p_of replaced as
that one's, and the per-cell formulas of the stirling theorem routes, one
sum a cell, as the oracles of their whole-table forms.  Only the Series
constructor, its coeffs, truncate and pad are shared; nothing here reads
the int view a Series may keep.
"""

import math
from fractions import Fraction

from deltaseries import classical as cl
from deltaseries import fps
from deltaseries import scalar as sc
from deltaseries.errors import NonRepresentablePower

_ZERO = Fraction(0)


def mul(a, b):
    """Truncated Cauchy product."""
    n = a.order
    out = []
    for m in range(n + 1):
        acc = _ZERO
        for i in range(m + 1):
            if a.coeffs[i] and b.coeffs[m - i]:
                acc = acc + a.coeffs[i] * b.coeffs[m - i]
        out.append(acc)
    return fps.Series(n, out, sc.join_ring(a.ring, b.ring))


def add(a, b):
    return fps.Series(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)], sc.join_ring(a.ring, b.ring))


def sub(a, b):
    return fps.Series(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)], sc.join_ring(a.ring, b.ring))


def div(a, b):
    """a/b by the division recurrence; b[0] must be invertible."""
    inv0 = sc.scalar_inv(b.coeffs[0])
    out = []
    for n in range(a.order + 1):
        acc = a.coeffs[n]
        for k in range(1, n + 1):
            if b.coeffs[k]:
                acc = acc - b.coeffs[k] * out[n - k]
        out.append(acc * inv0)
    ring = sc.join_ring(sc.join_ring(a.ring, b.ring), sc.ring_of(inv0))
    return fps.Series(a.order, out, ring)


def exp_series(f):
    """exp(f) by out[n] = sum_k k f[k] out[n-k] / n; f[0] must be zero."""
    out = [Fraction(1)]
    for n in range(1, f.order + 1):
        acc = _ZERO
        for k in range(1, n + 1):
            if f.coeffs[k]:
                acc = acc + (Fraction(k) * f.coeffs[k]) * out[n - k]
        out.append(acc * Fraction(1, n))
    return fps.Series(f.order, out, f.ring)


def log_series(g):
    """log(g) by out[n] = g[n] - sum_{k<n} k out[k] g[n-k] / n; g[0] must be 1."""
    out = [_ZERO]
    for n in range(1, g.order + 1):
        acc = _ZERO
        for k in range(1, n):
            if out[k] and g.coeffs[n - k]:
                acc = acc + (Fraction(k) * out[k]) * g.coeffs[n - k]
        out.append(g.coeffs[n] - acc * Fraction(1, n))
    return fps.Series(g.order, out, g.ring)


def derivative(a):
    out = [Fraction(n) * a.coeffs[n] for n in range(1, a.order + 1)]
    return fps.Series(a.order, out + [_ZERO], a.ring)


def constant(value, order):
    return fps.Series(order, [value] + [_ZERO] * order)


def horner_compose(g, f):
    """g(f): one series product per coefficient of g."""
    n = g.order
    result = constant(g.coeffs[n], n)
    for m in range(n - 1, -1, -1):
        result = add(mul(result, f), constant(g.coeffs[m], n))
    return fps.Series(n, result.coeffs, sc.join_ring(g.ring, f.ring))


def horner_invert(f):
    """Newton reversion of a DeltaSeries, both evaluations by horner_compose."""
    fs = f.series
    g = fps.Series(1, (0, sc.scalar_inv(fs.coeffs[1])), fs.ring)
    while g.order < f.order:
        m = min(2 * g.order, f.order)
        fm, gm = fs.truncate(m), g.pad(m)
        t = fps.Series(m, [0, 1] + [0] * (m - 1))
        err = sub(horner_compose(fm, gm), t)
        g = sub(gm, div(err, horner_compose(derivative(fm), gm)))
    return fps.DeltaSeries(g)


def power_rows(base, max_n):
    """EGF coefficients of base^k / k! by repeated series products, from 1."""
    cols = [fps.Series(max_n, [1] + [0] * max_n, base.ring)]
    for k in range(1, max_n + 1):
        p = mul(cols[-1], base)
        cols.append(fps.Series(max_n, [c * Fraction(1, k) for c in p.coeffs], p.ring))
    fact = [Fraction(math.factorial(n)) for n in range(max_n + 1)]
    return [[cols[k].coeffs[n] * fact[n] for k in range(n + 1)] for n in range(max_n + 1)]


def lpoly_gcd(a, b):
    """Monic gcd over Q by the Euclidean algorithm on Fraction coefficients."""
    a, b = sc.as_lpoly(a), sc.as_lpoly(b)
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


def pow_int(f, k):
    """f^k for an integer k by repeated squaring, after a division for k < 0."""
    one = fps.Series(f.order, [1] + [0] * f.order, f.ring)
    if k < 0:
        f, k = div(one, f), -k
    result = one
    while k:
        if k & 1:
            result = mul(result, f)
        k >>= 1
        if k:
            f = mul(f, f)
    return result


def deg_log1p_of(u, lam):
    """log_lam(1 + u) as sum_{k>=1} lam^(k-1) L^k / k!, L = log(1 + u),
    one product per term; its ring gains lam's from the t^2 term on."""
    n = u.order
    L = log_series(add(constant(Fraction(1), n), u))
    acc, p = L, L
    for k in range(2, n + 1):
        p = mul(p, L)
        w = lam ** (k - 1) * Fraction(1, math.factorial(k))
        acc = add(acc, fps.Series(n, [c * w for c in p.coeffs], sc.join_ring(p.ring, sc.ring_of(w))))
    return acc


def pow_ratio(f, r):
    """f^r = exp(r log f) for a rational r; f[0] must be 1."""
    lg = log_series(f)
    return exp_series(fps.Series(f.order, [c * r for c in lg.coeffs], lg.ring))


# ---------------------------------------------------------------------------
# the stirling theorem routes, one cell a call


def scalar_rat_pow(s, e):
    """s**e for rational e; only integer e or base 1 are representable."""
    e = Fraction(e)
    if e.denominator == 1:
        return sc.scalar_pow(s, int(e))
    if s == 1:
        return Fraction(1)
    raise NonRepresentablePower("cannot raise %s to power %s exactly" % (sc.format_scalar(s), e))


def lemma_bell_moments_sum(f, n, k, s2):
    """Right side of the Bell-moment lemma, from f's triangle s2 (rows to n + k)."""
    p1 = sc.scalar_inv(f[1])
    acc = Fraction(0)
    ratio = Fraction(math.factorial(n), math.factorial(n + k))
    for j in range(k + 1):
        c = cl.comb0(n + k, k - j)
        if c == 0:
            continue
        acc = acc + (c * ratio) * sc.scalar_pow(-p1, k - j) * s2.entry(n + j, j)
    return acc


def bernoulli_via_lemma24(ps, bell, alpha, n):
    """Order-alpha Bernoulli number from the Bell-moment expansion, from the
    moments ps of f and their rows bell = lemma_bell_moments(ps, m), m >= n."""
    p1 = ps[1]
    acc = Fraction(0)
    for k in range(n + 1):
        fk = cl.deg_falling_value(-alpha, k, 1)
        if fk == 0:
            continue
        acc = acc + fk * scalar_rat_pow(p1, -alpha - k) * bell[n][k]
    return acc


def bernoulli_via_s2(f, alpha, n, s2):
    """Order-alpha Bernoulli number from the double sum over s2 (rows to 2n)."""
    alpha = Fraction(alpha)
    p1 = sc.scalar_inv(f[1])
    pows = [scalar_rat_pow(p1, -alpha - j) for j in range(n + 1)]  # f1^(alpha + j), j alone
    acc = Fraction(0)
    for k in range(n + 1):
        bk = cl.deg_falling_value(alpha + k - 1, k, 1) * Fraction(1, math.factorial(k))
        if not bk:
            continue
        for j in range(k + 1):
            c = cl.comb0(k, j)
            if c == 0:
                continue
            coef = bk * Fraction(c * (-1) ** j, cl.comb0(n + j, j))
            acc = acc + coef * pows[j] * s2.entry(n + j, j)
    return acc


def bernoulli_via_s2_alpha1(f, n, s2):
    """Order-1 Bernoulli number from the single-sum corollary over s2 (rows to 2n)."""
    p1 = sc.scalar_inv(f[1])
    acc = Fraction(0)
    for j in range(n + 1):
        coef = Fraction(cl.comb0(n + 1, j + 1) * (-1) ** j, cl.comb0(n + j, j))
        acc = acc + coef * sc.scalar_pow(p1, -1 - j) * s2.entry(n + j, j)
    return acc


def schloemilch_s1(f, n, k, s2):
    """First-kind entry by the Schloemilch-type sum over s2 (rows to 2(n - k))."""
    if k < 0 or k > n:
        return Fraction(0)
    p1 = sc.scalar_inv(f[1])
    acc = Fraction(0)
    for j in range(n - k + 1):
        c = cl.comb0(n + j - 1, n + j - k) * cl.comb0(2 * n - k, n - k - j)
        if c == 0:
            continue
        acc = acc + Fraction(c * (-1) ** j) * sc.scalar_pow(p1, -(n + j)) * s2.entry(n - k + j, j)
    return acc


def assoc_log_expansion(f, max_n, s2):
    """The associated logarithm rebuilt from s2 alone (rows to 2 max_n - 2)."""
    p1 = sc.scalar_inv(f[1])
    egf = [Fraction(0)]
    for n in range(1, max_n + 1):
        acc = Fraction(0)
        for j in range(n):
            c = cl.comb0(2 * n - 1, n - 1 - j)
            if c == 0:
                continue
            acc = acc + Fraction(c * (-1) ** j) * sc.scalar_pow(p1, -(n + j)) * s2.entry(n - 1 + j, j)
        egf.append(acc)
    return fps.Series(max_n, [c * Fraction(1, math.factorial(n)) for n, c in enumerate(egf)])
