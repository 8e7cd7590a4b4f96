"""Stirling numbers of both kinds associated with a delta series.

Triangles store EGF-normalized entries: entry (n, k) is n! times the
ordinary t^n coefficient of the k-th column generating function.  The
series layer stores ordinary coefficients; every conversion between the
two conventions goes through :func:`deltaseries.fps.egf_coeff`, or, for a
whole prefix at once, ``_packed.egf_view``.
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
from ._packed import at, egf_view, frame, line, norm, norms, packs, reduced
from .scalar import view_scalars
from .errors import (
    ArityTooSmall,
    InsufficientOrder,
    NonRepresentablePower,
    NonUnitBaseForRationalPower,
)

# ---------------------------------------------------------------------------
# triangles

_ZERO = Fraction(0)  # every entry off a triangle


class Triangle:
    """Lower-triangular table of scalars indexed (n, k), 0 <= k <= n <= max_n."""

    __slots__ = ("kind", "max_n", "rows", "ring")

    def __init__(self, kind, max_n, rows, ring):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "max_n", max_n)
        object.__setattr__(self, "rows", tuple([tuple(r) for r in rows]))
        object.__setattr__(self, "ring", ring)

    def __setattr__(self, name, value):
        raise AttributeError("Triangle is immutable")

    def entry(self, n, k):
        """Entry (n, k); 0 off the triangle, an error past its last row."""
        if n > self.max_n:
            raise InsufficientOrder("row %d of a %s triangle with max_n %d" % (n, self.kind, self.max_n))
        if k < 0 or k > n:
            return _ZERO
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


def _power_rows(base, max_n):
    """Rows of EGF coefficients of base^k / k!: rows[n][k] for k <= n <= max_n.

    base has zero constant term.  Column k holds the partial Bell
    polynomials B_{n,k}(b_1, b_2, ...) of the EGF coefficients b_j of base,
    built with no division by Comtet's recurrence (Advanced Combinatorics,
    1974, 3.3)

        B_{n,k} = sum_{j=1}^{n-k+1} C(n-1, j-1) b_j B_{n-j,k-1}.

    It runs on the integer views of ``_packed`` in every ring: b_j is
    j! x_j / den of the view base keeps (``egf_view``), viewed over
    d P^(w j + s) for the frame of least excess (``frame``), in normal
    form (``norm``), and packed.
    B_{n,k} is homogeneous, B_{n,k}(a x_1, a^2 x_2, ...) = a^n B_{n,k}(x)
    (Comtet, 3.3), so entry (n, k) is the unpacked sum over
    d^k P^(w n + k s).  The entries are the only scalars made here.  The
    width bounds every sum because B_{n,k} of the l1 norms of those
    polynomials bounds the l1 norm of entry (n, k) (the norm of a product
    is at most the product of the norms), and the complete Bell number
    Y_n = sum_k B_{n,k} of the norms bounds them all: an O(n^2) pass, at
    most log2(n + 1) bits wider than the largest B_{n,k}.  Over Q the
    norms are not needed: nothing is packed.
    """
    v = egf_view(base.view, max_n)
    P = v[3]
    F = None  # exponents of P, none for P = 1
    if len(P) > 1:
        w, (s,) = frame(v)
        F = line(max_n, w, s)
    xs, d, deg = norm(*at(v, P, F))
    B = max(_complete_bell(norms(xs, deg))).bit_length() + 1 if deg else 0
    cols = [view_scalars(reduced(col[k:], B, d**k, P, F and line(max_n - k, w, (w + s) * k)))
            for k, col in enumerate(_bell_columns(packs(xs, deg, B)))]
    return [[cols[k][n - k] for k in range(n + 1)] for n in range(max_n + 1)]


def _bell_columns(b):
    """cols[k][n] = B_{n,k}(b_1, b_2, ...) by Comtet's recurrence, on ints."""
    max_n = len(b) - 1
    # w[n][j] = C(n-1, j-1) b_j, shared by every column of row n
    w = [[0] + [math.comb(n - 1, j - 1) * b[j] for j in range(1, n + 1)] for n in range(max_n + 1)]
    cols = [[1] + [0] * max_n]
    for k in range(1, max_n + 1):
        prev = cols[-1]
        cols.append([0] * k + [sum(map(operator.mul, w[n][1:n - k + 2], reversed(prev[k - 1:n])))
                               for n in range(k, max_n + 1)])
    return cols


def _complete_bell(b):
    """Y[n] = sum_k B_{n,k}(b_1, b_2, ...), the complete Bell polynomials,
    by Y_n = sum_{j=1}^{n} C(n-1, j-1) b_j Y_{n-j}, on ints."""
    Y = [1]
    for n in range(1, len(b)):
        Y.append(sum(math.comb(n - 1, j - 1) * b[j] * Y[n - j] for j in range(1, n + 1)))
    return Y


@lru_cache(maxsize=None)
def compositional_inverse(f):
    """Cached Newton inverse of a delta series."""
    return fps.invert_newton(f)


@lru_cache(maxsize=None)
def s2_assoc(f, max_n):
    """Triangle of S2(n, k; f): EGF coefficients of (e^{fbar} - 1)^k / k!.

    Reads a prefix of the one cached inverse of f at f's own order; for a
    few rows of a long series, truncate f first."""
    if f.order < max_n:
        raise InsufficientOrder("delta series order %d < max_n %d" % (f.order, max_n))
    fb = compositional_inverse(f).series.truncate(max_n)
    base = fps.expm1(fb)
    return Triangle("s2", max_n, _power_rows(base, max_n), base.ring)


@lru_cache(maxsize=None)
def s1_assoc(f, max_n):
    """Triangle of S1(n, k; f): EGF coefficients of the associated-log powers.

    Reads a prefix of the one cached logarithm of f at f's own order; for a
    few rows of a long series, truncate f first."""
    if f.order < max_n:
        raise InsufficientOrder("delta series order %d < max_n %d" % (f.order, max_n))
    base = assoc_log(f).truncate(max_n)
    return Triangle("s1", max_n, _power_rows(base, max_n), base.ring)


@lru_cache(maxsize=None)
def assoc_log(f):
    """The logarithm associated with f: f(log(1+t)), by the Stirling
    transform of f's coefficients (``fps.compose_log1p``)."""
    return fps.compose_log1p(f.series)


# ---------------------------------------------------------------------------
# Bernoulli families


class BernoulliFamily:
    """Order-alpha Bernoulli numbers for a base."""

    __slots__ = ("base", "order_alpha", "values")

    def __init__(self, base, order_alpha, values):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "order_alpha", order_alpha)
        object.__setattr__(self, "values", tuple(values))

    def __setattr__(self, name, value):
        raise AttributeError("BernoulliFamily is immutable")


@lru_cache(maxsize=8)
def _bernoulli_base(g, max_n):
    """w = (e^{g(t)} - 1)/t to order max_n, the base every order alpha of
    bernoulli_assoc(g, alpha, max_n) raises to -alpha."""
    gs = g.series.truncate(max_n + 1)
    return fps.shift_down(fps.expm1(gs), 1)


@lru_cache(maxsize=None)
def bernoulli_assoc(g, alpha, max_n):
    """Numbers n! [t^n] (t/(e^{g(t)}-1))^alpha."""
    alpha = Fraction(alpha)
    if g.order < max_n + 1:
        raise InsufficientOrder("base order %d < max_n+1 = %d" % (g.order, max_n + 1))
    w = _bernoulli_base(g, max_n)
    if alpha.denominator > 1 and w[0] != 1:
        raise NonUnitBaseForRationalPower(
            "rational order needs g'(0) = 1, got %s" % sc.format_scalar(w[0])
        )
    base = fps.power(w, -alpha)
    return BernoulliFamily(g, alpha, view_scalars(egf_view(base.view, max_n)))


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


def bell_rows(base, max_n):
    """rows[n][k] = n! [t^n] base^k / k! = B_{n,k}(b_1, b_2, ...), b_j the EGF
    coefficients of base (zero constant term), by successive series products:
    the route apart from Comtet's kernel (_power_rows) that checks it.  The
    rows to m are a prefix of the rows to any larger max_n."""
    base = base.truncate(max_n)
    cols = [fps.one(max_n, base.ring)]
    for k in range(1, max_n + 1):
        cols.append(fps.scale(fps.mul(cols[-1], base), Fraction(1, k)))
    vals = []  # column k from row k on (base^k has valuation k), by one egf_view
    for k, c in enumerate(cols):
        xs, den, deg, P, E = egf_view(c.view, max_n)
        vals.append([None] * k + view_scalars((xs[k:], den, deg, P, E and E[k:])))
    return tuple(tuple(vals[k][n] for k in range(n + 1)) for n in range(max_n + 1))


def partial_bell(n, k, xs):
    """B_{n,k}(x1, ..., x_{n-k+1}): one entry of bell_rows."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k == 0:
        return Fraction(1) if n == 0 else Fraction(0)
    if len(xs) < n - k + 1:
        raise ArityTooSmall("need %d arguments, got %d" % (n - k + 1, len(xs)))
    return bell_rows(fps.from_egf([0] + list(xs[:n - k + 1]) + [0] * (k - 1)), n)[n][k]


# ---------------------------------------------------------------------------
# the theorems of the core section as executable formulas


def s1_via_bernoulli(f, n, k):
    """First-kind entry as C(n-1, k-1) times an order-n Bernoulli number."""
    c = cl.binom_shift(n, k)
    if c == 0:
        return Fraction(0)
    # one family per order n: its values are prefixes, so k only picks one
    fam = bernoulli_assoc(compositional_inverse(f), Fraction(n), max(n - 1, 0))
    return fam.values[n - k] * c


def moment_sequence(f, max_m):
    """EGF coefficients p_m of e^{fbar(t)} for m <= max_m."""
    if f.order < max_m:
        raise InsufficientOrder("order %d < %d" % (f.order, max_m))
    fb = compositional_inverse(f)
    e = fps.exp_series(fb.series.truncate(max_m))
    return view_scalars(egf_view(e.view, max_m))


def lemma_bell_moments(ps, max_n):
    """Left side of the Bell-moment lemma: the rows to max_n of
    B_{n,k}(p2/2, p3/3, ...), from the moments ps = moment_sequence(f, m)
    of f for some m >= max_n + 1."""
    return bell_rows(fps.from_egf([0] + [ps[m] * Fraction(1, m) for m in range(2, max_n + 2)]), max_n)


# Each formula route below makes its whole table in one call: it regroups
# its own sums and hoists its own products, but reads no kernel and no other
# route's table.  A short s2 raises InsufficientOrder from Triangle.entry.


def _powers(c, m):
    """[c^0, c^1, ..., c^m], one product each."""
    out = [Fraction(1)]
    for _ in range(m):
        out.append(out[-1] * c)
    return out


def _scaled_diagonals(s2, c, max_m, max_j):
    """rows[m][j] = c^j S2(m + j, j) for m <= max_m and j <= min(m, max_j)."""
    pw = _powers(c, min(max_m, max_j))
    return [[pw[j] * s2.entry(m + j, j) for j in range(min(m, max_j) + 1)] for m in range(max_m + 1)]


def lemma_bell_moments_sums(f, max_n, s2):
    """Right side of the Bell-moment lemma to max_n, rows[n][k] =
    n!/(n+k)! sum_{j<=k} C(n+k, k-j) (-p1)^(k-j) S2(n+j, j), p1 = 1/f1, from
    f's triangle s2 (rows to 2 max_n), with (-p1)^(k-j) = (-p1)^k (-f1)^j."""
    lead = _powers(-sc.scalar_inv(f[1]), max_n)
    g = _scaled_diagonals(s2, -f[1], max_n, max_n)
    rows = []
    for n in range(max_n + 1):
        row = []
        for k in range(n + 1):
            acc = sum((math.comb(n + k, k - j) * g[n][j] for j in range(k + 1)), Fraction(0))
            row.append(Fraction(math.factorial(n), math.factorial(n + k)) * lead[k] * acc)
        rows.append(row)
    return rows


def bernoulli_table_via_lemma24(ps, bell, alphas, max_n):
    """Order-alpha Bernoulli numbers to max_n, a list for each of alphas, by
    B_n = p1^(-alpha) sum_{k<=n} (-alpha)_k p1^(-k) bell[n][k] from the
    moments ps of f and bell = lemma_bell_moments(ps, m), m >= max_n; the
    alpha-free p1^(-k) bell[n][k] is taken once."""
    p1 = ps[1]
    alphas = [Fraction(a) for a in alphas]
    leads = [scalar_rat_pow(p1, -a) for a in alphas]
    inv = _powers(sc.scalar_inv(p1), max_n)
    terms = [[inv[k] * bell[n][k] for k in range(n + 1)] for n in range(max_n + 1)]
    out = []
    for a, lead in zip(alphas, leads):
        ff = [Fraction(1)]  # (-alpha)_k
        for k in range(max_n):
            ff.append(ff[-1] * (-a - k))
        out.append([lead * sum((ff[k] * t for k, t in enumerate(row) if ff[k]), Fraction(0)) for row in terms])
    return out


def bernoulli_table_via_s2(f, alphas, max_n, s2):
    """Order-alpha Bernoulli numbers to max_n, a list for each of alphas, by
    the double sum over f's triangle s2 (rows to 2 max_n)
    B_n = sum_{k<=n} C(alpha+k-1, k) sum_{j<=k} (-1)^j C(k, j) f1^(alpha+j) S2(n+j, j) / C(n+j, j),
    regrouped as f1^alpha sum_{j<=n} c(n, j) (-1)^j f1^j S2(n+j, j) / C(n+j, j)
    with the prefix sums c(n, j) = sum_{k=j}^{n} C(alpha+k-1, k) C(k, j) and
    the alpha-free products taken once.  At an integer alpha <= 0, c(n, j)
    vanishes for j > -alpha, and those entries of s2 are not read."""
    p1 = sc.scalar_inv(f[1])
    alphas = [Fraction(a) for a in alphas]
    leads = [scalar_rat_pow(p1, -a) for a in alphas]
    last_j = max((int(-a) if a.denominator == 1 and a <= 0 else max_n for a in alphas), default=0)
    g = [[Fraction((-1) ** j, math.comb(n + j, j)) * x for j, x in enumerate(row)]
         for n, row in enumerate(_scaled_diagonals(s2, f[1], max_n, last_j))]
    out = []
    for a, lead in zip(alphas, leads):
        b, c, vals = Fraction(1), [], []  # b = C(alpha+n-1, n), c[j] = c(n, j)
        for n in range(max_n + 1):
            if n:
                b = b * (a + n - 1) / n
            c.append(Fraction(0))
            if b:
                for j in range(n + 1):
                    c[j] += b * math.comb(n, j)
            vals.append(lead * sum((c[j] * x for j, x in enumerate(g[n]) if c[j]), Fraction(0)))
        out.append(vals)
    return out


def bernoulli_table_via_s2_alpha1(f, max_n, s2):
    """Order-1 Bernoulli numbers to max_n by the single-sum corollary over
    f's triangle s2 (rows to 2 max_n),
    B_n = f1 sum_{j<=n} (-1)^j C(n+1, j+1) / C(n+j, j) f1^j S2(n+j, j)."""
    f1 = f[1]
    g = _scaled_diagonals(s2, f1, max_n, max_n)
    return [f1 * sum((Fraction((-1) ** j * math.comb(n + 1, j + 1), math.comb(n + j, j)) * g[n][j]
                      for j in range(n + 1)), Fraction(0)) for n in range(max_n + 1)]


def schloemilch_table(f, max_n, s2):
    """The first-kind triangle to max_n, rows[n][k], by the Schloemilch-type
    sum over f's triangle s2 (rows to 2 max_n - 2), S1(n, k) =
    f1^n sum_{j<=n-k} (-1)^j C(n+j-1, n+j-k) C(2n-k, n-k-j) f1^j S2(n-k+j, j);
    column 0 is 0 below row 0, where C(n+j-1, n+j) vanishes."""
    f1 = f[1]
    lead = _powers(f1, max_n)
    g = _scaled_diagonals(s2, f1, max(max_n - 1, 0), max_n)
    rows = []
    for n in range(max_n + 1):
        row = [Fraction(0)] * (n + 1)
        for k in range(1 if n else 0, n + 1):
            m = n - k
            row[k] = lead[n] * sum(((-1) ** j * cl.comb0(n + j - 1, m + j) * math.comb(2 * n - k, m - j) * g[m][j]
                                    for j in range(m + 1)), Fraction(0))
        rows.append(row)
    return rows


def assoc_log_expansion(f, max_n, s2):
    """The associated logarithm rebuilt from s2 alone (rows to 2 max_n - 2),
    n! [t^n] = f1^n sum_{j<n} (-1)^j C(2n-1, n-1-j) f1^j S2(n-1+j, j)."""
    f1 = f[1]
    lead = _powers(f1, max_n)
    g = _scaled_diagonals(s2, f1, max_n - 1, max_n)
    return fps.from_egf([Fraction(0)] + [
        lead[n] * sum(((-1) ** j * math.comb(2 * n - 1, n - 1 - j) * g[n - 1][j] for j in range(n)), Fraction(0))
        for n in range(1, max_n + 1)])


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
