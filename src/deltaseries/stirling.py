"""Stirling numbers of both kinds associated with a delta series.

Triangles store EGF-normalized entries: entry (n, k) is n! times the
ordinary t^n coefficient of the k-th column generating function.  The
series layer stores ordinary coefficients; every conversion between the
two conventions goes through :func:`deltaseries.fps.egf_coeff`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
import random

from . import classical as cl
from . import fps
from . import scalar as sc
from .errors import (
    ArityTooSmall,
    InsufficientOrder,
    NonRepresentablePower,
    NonUnitBaseForRationalPower,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

# ---------------------------------------------------------------------------
# triangles


class Triangle:
    """Lower-triangular table of scalars indexed (n, k), 0 <= k <= n <= max_n."""

    __slots__ = ("kind", "max_n", "rows", "ring")

    def __init__(self, kind, max_n, rows, ring):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "max_n", max_n)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "ring", ring)

    def __setattr__(self, name, value):
        raise AttributeError("Triangle is immutable")

    def entry(self, n, k):
        if k < 0 or k > n or n > self.max_n:
            return Fraction(0)
        return self.rows[n][k]

    def with_entry(self, n, k, value):
        """Copy with one cell replaced (used for negative-control tests)."""
        rows = [list(r) for r in self.rows]
        rows[n][k] = value
        return Triangle(self.kind, self.max_n, rows, self.ring)

    def to_json(self, f_label):
        return {
            "kind": self.kind,
            "f": f_label,
            "ring": self.ring,
            "max_n": self.max_n,
            "rows": [[sc.format_scalar(c) for c in row] for row in self.rows],
        }

    def to_csv(self):
        lines = ["n,k,value"]
        for n in range(self.max_n + 1):
            for k in range(n + 1):
                lines.append("%d,%d,%s" % (n, k, sc.csv_cell(self.rows[n][k])))
        return "\n".join(lines) + "\n"


def _power_rows(start, base, max_n):
    """Rows of EGF coefficients of start * base^k / k!: rows[n][k] for k <= n <= max_n.

    base has zero constant term.  Column k of base^k / k! holds the partial
    Bell polynomials B_{n,k}(b_1, b_2, ...) of the EGF coefficients b_j of
    base, built with no division by Comtet's recurrence (Advanced
    Combinatorics, 1974, 3.3)

        B_{n,k} = sum_{j=1}^{n-k+1} C(n-1, j-1) b_j B_{n-j,k-1};

    a start other than 1 is one binomial convolution with its EGF
    coefficients s_m.  Over Q both run on the integer numerators of s and b
    over their common denominators e and d, and entry (n, k) is the integer
    result over e d^k; over Q[l] and Q(l) they run on the scalars themselves.
    """
    s = [fps.egf_coeff(start, n) for n in range(max_n + 1)]
    b = [fps.egf_coeff(base, n) for n in range(max_n + 1)]
    sv, bv = fps._int_view(s), fps._int_view(b)
    if sv and bv:
        (s, e), (b, d) = sv, bv
        zero, one, dens = 0, 1, [e * d**k for k in range(max_n + 1)]
    else:
        zero, one, dens = _ZERO, _ONE, None
    # w[n][j] = C(n-1, j-1) b_j, shared by every column of row n
    w = [[zero] + [math.comb(n - 1, j - 1) * b[j] for j in range(1, n + 1)] for n in range(max_n + 1)]
    cols = [[one] + [zero] * max_n]  # cols[k][n] = B_{n,k}
    for k in range(1, max_n + 1):
        prev = cols[-1]
        cols.append([zero] * k + [sum(map(operator.mul, w[n][1:n - k + 2], reversed(prev[k - 1:n])))
                                  for n in range(k, max_n + 1)])
    if s[0] != one or any(s[1:]):
        ms = [m for m in range(max_n + 1) if s[m]]
        cols = [[sum((math.comb(n, m) * s[m] * col[n - m] for m in ms if m <= n - k), zero)
                 for n in range(max_n + 1)] for k, col in enumerate(cols)]
    if dens is None:
        return [[cols[k][n] for k in range(n + 1)] for n in range(max_n + 1)]
    return [[Fraction(cols[k][n], dens[k]) for k in range(n + 1)] for n in range(max_n + 1)]


@lru_cache(maxsize=None)
def compositional_inverse(f):
    """Cached Newton inverse of a delta series."""
    return fps.invert_newton(f)


def _log1p(order):
    return fps.Series(order, [Fraction(0)] + [Fraction((-1) ** (n - 1), n) for n in range(1, order + 1)])


@lru_cache(maxsize=None)
def s2_assoc(f, max_n):
    """Triangle of S2(n, k; f): EGF coefficients of (e^{fbar} - 1)^k / k!.

    Reads a prefix of the one cached inverse of f at f's own order; for a
    few rows of a long series, truncate f first."""
    if f.order < max_n:
        raise InsufficientOrder("delta series order %d < max_n %d" % (f.order, max_n))
    fb = compositional_inverse(f).series.truncate(max_n)
    base = fps.sub(fps.exp_series(fb), fps.one(max_n, fb.ring))
    return Triangle("s2", max_n, _power_rows(fps.one(max_n, base.ring), base, max_n), base.ring)


@lru_cache(maxsize=None)
def s1_assoc(f, max_n):
    """Triangle of S1(n, k; f): EGF coefficients of the associated-log powers.

    Reads a prefix of the one cached logarithm of f at f's own order; for a
    few rows of a long series, truncate f first."""
    if f.order < max_n:
        raise InsufficientOrder("delta series order %d < max_n %d" % (f.order, max_n))
    base = assoc_log(f).truncate(max_n)
    return Triangle("s1", max_n, _power_rows(fps.one(max_n, base.ring), base, max_n), base.ring)


@lru_cache(maxsize=None)
def assoc_log(f):
    """The logarithm associated with f: f(log(1+t))."""
    return fps.compose(f.series, _log1p(f.order))


# ---------------------------------------------------------------------------
# Bernoulli families


class BernoulliFamily:
    """Order-alpha Bernoulli numbers (and optional x-polynomials) for a base."""

    __slots__ = ("base", "order_alpha", "values", "xpolys")

    def __init__(self, base, order_alpha, values, xpolys=None):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "order_alpha", order_alpha)
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "xpolys", tuple(xpolys) if xpolys is not None else None)

    def __setattr__(self, name, value):
        raise AttributeError("BernoulliFamily is immutable")


@lru_cache(maxsize=None)
def bernoulli_assoc(g, alpha, max_n, with_x=False):
    """Numbers n! [t^n] (t/(e^{g(t)}-1))^alpha, optionally with e^{x g(t)}."""
    alpha = Fraction(alpha)
    if g.order < max_n + 1:
        raise InsufficientOrder("base order %d < max_n+1 = %d" % (g.order, max_n + 1))
    gs = g.series.truncate(max_n + 1)
    w = fps.shift_down(fps.sub(fps.exp_series(gs), fps.one(max_n + 1, gs.ring)), 1)
    if alpha.denominator == 1:
        base = fps.pow_int(w, -int(alpha))
    else:
        if w.coeffs[0] != 1:
            raise NonUnitBaseForRationalPower(
                "rational order needs g'(0) = 1, got %s" % sc.format_scalar(w.coeffs[0])
            )
        base = fps.pow_ratio(w, -alpha)
    values = [fps.egf_coeff(base, n) for n in range(max_n + 1)]
    xpolys = None
    if with_x:
        xpolys = [XPoly(row, BASIS_MONOMIAL) for row in _power_rows(base.truncate(max_n), gs.truncate(max_n), max_n)]
    return BernoulliFamily(g, alpha, values, xpolys)


def scalar_rat_pow(s, e):
    """s**e for rational e; only integer e or base 1 are representable."""
    e = Fraction(e)
    if e.denominator == 1:
        return sc.scalar_pow(s, int(e))
    if s == 1:
        return Fraction(1)
    raise NonRepresentablePower("cannot raise %s to power %s exactly" % (sc.format_scalar(s), e))


# ---------------------------------------------------------------------------
# partial Bell polynomials


def partial_bell(n, k, xs):
    """B_{n,k}(x1, ..., x_{n-k+1}) via the truncated k-th power EGF."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k == 0:
        return Fraction(1) if n == 0 else Fraction(0)
    if len(xs) < n - k + 1:
        raise ArityTooSmall("need %d arguments, got %d" % (n - k + 1, len(xs)))
    coeffs = [Fraction(0)] * (n + 1)
    for m in range(1, min(n, n - k + 1) + 1):
        coeffs[m] = xs[m - 1] * Fraction(1, math.factorial(m))
    s = fps.Series(n, coeffs)
    p = fps.scale(fps.pow_int(s, k), Fraction(1, math.factorial(k)))
    return fps.egf_coeff(p, n)


# ---------------------------------------------------------------------------
# the theorems of the core section as executable formulas


def s1_via_bernoulli(f, n, k):
    """First-kind entry as C(n-1, k-1) times an order-n Bernoulli number."""
    c = cl.binom_shift(n, k)
    if c == 0:
        return Fraction(0)
    m = n - k
    fb = compositional_inverse(f)
    fam = bernoulli_assoc(fb, Fraction(n), m)
    return fam.values[m] * c


def moment_sequence(f, max_m):
    """EGF coefficients p_m of e^{fbar(t)} for m <= max_m."""
    if f.order < max_m:
        raise InsufficientOrder("order %d < %d" % (f.order, max_m))
    fb = compositional_inverse(f)
    e = fps.exp_series(fb.series.truncate(max_m))
    return [fps.egf_coeff(e, m) for m in range(max_m + 1)]


def lemma_bell_moments(f, n, k):
    """Left side of the Bell-moment lemma: B_{n,k}(p2/2, p3/3, ...)."""
    ps = moment_sequence(f, n - k + 2)
    xs = [ps[m] * Fraction(1, m) for m in range(2, n - k + 3)]
    return partial_bell(n, k, xs)


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


def bernoulli_via_lemma24(f, alpha, n):
    """Order-alpha Bernoulli number from the Bell-moment expansion."""
    ps = moment_sequence(f, n + 2)
    p1 = ps[1]
    xs = [ps[m] * Fraction(1, m) for m in range(2, n + 3)]
    acc = Fraction(0)
    for k in range(n + 1):
        fk = cl.falling_factorial(-alpha, k)
        if fk == 0:
            continue
        acc = acc + fk * scalar_rat_pow(p1, -alpha - k) * partial_bell(n, k, xs)
    return acc


def bernoulli_via_s2(f, alpha, n, s2):
    """Order-alpha Bernoulli number from the double sum over s2 (rows to 2n)."""
    alpha = Fraction(alpha)
    p1 = sc.scalar_inv(f[1])
    acc = Fraction(0)
    for k in range(n + 1):
        bk = cl.binom_general(alpha + k - 1, k)
        if not bk:
            continue
        for j in range(k + 1):
            c = cl.comb0(k, j)
            if c == 0:
                continue
            coef = bk * Fraction(c * (-1) ** j, cl.comb0(n + j, j))
            acc = acc + coef * scalar_rat_pow(p1, -alpha - j) * s2.entry(n + j, j)
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
    return fps.from_egf(egf)


# ---------------------------------------------------------------------------
# polynomials in x

BASIS_MONOMIAL = "monomial"
BASIS_FALLING = "falling"
BASIS_FALLING_LAMBDA = "falling_l"


class XPoly:
    """Polynomial in x with scalar coefficients, in a tagged basis.

    The falling_l basis always refers to the symbolic parameter l.
    """

    __slots__ = ("coeffs", "basis")

    def __init__(self, coeffs, basis=BASIS_MONOMIAL):
        cs = list(coeffs)
        while len(cs) > 1 and not cs[-1]:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("XPoly is immutable")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def to_monomial(self):
        if self.basis == BASIS_MONOMIAL:
            return self
        out = [Fraction(0)] * len(self.coeffs)
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if self.basis == BASIS_FALLING:
                base = [Fraction(cl.classical_s1(k, m)) for m in range(k + 1)]
            else:
                base = cl.deg_falling_coeffs(k, sc.LAMBDA)
            for m, b in enumerate(base):
                out[m] = out[m] + c * b
        return XPoly(out, BASIS_MONOMIAL)

    def convert(self, target):
        if target == self.basis:
            return self
        mono = self.to_monomial().coeffs
        if target == BASIS_MONOMIAL:
            return XPoly(mono, BASIS_MONOMIAL)
        if target == BASIS_FALLING:
            out = [Fraction(0)] * len(mono)
            for m, c in enumerate(mono):
                if not c:
                    continue
                for k in range(m + 1):
                    s = cl.classical_s2(m, k)
                    if s:
                        out[k] = out[k] + c * s
            return XPoly(out, BASIS_FALLING)
        if target == BASIS_FALLING_LAMBDA:
            return XPoly(cl.to_deg_falling_basis(list(mono), sc.LAMBDA), BASIS_FALLING_LAMBDA)
        raise ValueError("unknown basis %r" % (target,))

    def eval(self, x):
        mono = self.to_monomial().coeffs
        acc = Fraction(0)
        for c in reversed(mono):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        a, b = self.to_monomial().coeffs, other.to_monomial().coeffs
        if len(a) != len(b):
            return False
        return all(x == y for x, y in zip(a, b))

    def __hash__(self):
        return hash(self.to_monomial().coeffs)

    def __repr__(self):
        return "XPoly(%s, basis=%s)" % (
            [sc.format_scalar(c) for c in self.coeffs],
            self.basis,
        )


def basis_convert(p, target):
    """Exact change of basis for an XPoly; round trips are identities."""
    return p.convert(target)


def poly_seq(f, max_n):
    """The associated sequence p_n(x): EGF coefficients of e^{x fbar(t)}."""
    if f.order < max_n:
        raise InsufficientOrder("order %d < max_n %d" % (f.order, max_n))
    fb = compositional_inverse(f).series.truncate(max_n)
    return [XPoly(row, BASIS_MONOMIAL) for row in _power_rows(fps.one(max_n, fb.ring), fb, max_n)]


def bell_assoc(f, max_n):
    """Bell polynomials associated with f: rows of the second-kind triangle."""
    tri = s2_assoc(f, max_n)
    return [XPoly(tri.rows[n], BASIS_MONOMIAL) for n in range(max_n + 1)]


# ---------------------------------------------------------------------------
# orthogonality


class OrthogonalityReport:
    __slots__ = ("ok", "failures")

    def __init__(self, failures):
        object.__setattr__(self, "ok", not failures)
        object.__setattr__(self, "failures", tuple(failures))

    def __setattr__(self, name, value):
        raise AttributeError("OrthogonalityReport is immutable")

    def __repr__(self):
        if self.ok:
            return "OrthogonalityReport(ok)"
        return "OrthogonalityReport(%d failures, first=%r)" % (len(self.failures), self.failures[0])


def check_orthogonality_triangles(s2, s1):
    """Verify both delta sums and the randomized inverse-pair relations."""
    max_n = min(s2.max_n, s1.max_n)
    failures = []
    for n in range(max_n + 1):
        for l in range(n + 1):
            lhs = Fraction(0)
            rhs = Fraction(0)
            for k in range(l, n + 1):
                lhs = lhs + s2.entry(n, k) * s1.entry(k, l)
                rhs = rhs + s1.entry(n, k) * s2.entry(k, l)
            want = Fraction(1 if n == l else 0)
            if lhs != want:
                failures.append(("s2*s1", n, l, lhs, want))
            if rhs != want:
                failures.append(("s1*s2", n, l, rhs, want))
    rng = random.Random(0)
    a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(max_n + 1)]
    # relation (b): b from S1 then back through S2
    b = [sum((s1.entry(n, k) * a[k] for k in range(n + 1)), Fraction(0)) for n in range(max_n + 1)]
    back = [sum((s2.entry(n, k) * b[k] for k in range(n + 1)), Fraction(0)) for n in range(max_n + 1)]
    for n in range(max_n + 1):
        if back[n] != a[n]:
            failures.append(("inverse-pair-b", n, None, back[n], a[n]))
    # relation (c): transposed sums over k >= n
    m = max_n
    bc = [sum((s1.entry(k, n) * a[k] for k in range(n, m + 1)), Fraction(0)) for n in range(m + 1)]
    backc = [sum((s2.entry(k, n) * bc[k] for k in range(n, m + 1)), Fraction(0)) for n in range(m + 1)]
    for n in range(m + 1):
        if backc[n] != a[n]:
            failures.append(("inverse-pair-c", n, None, backc[n], a[n]))
    return OrthogonalityReport(failures)


def orthogonality_check(f, max_n):
    return check_orthogonality_triangles(s2_assoc(f, max_n), s1_assoc(f, max_n))
