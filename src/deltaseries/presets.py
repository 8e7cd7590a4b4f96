"""The fifteen built-in delta series families and their closed-form oracles.

Each preset pairs a programmatic construction of its delta series f with
independent evaluators for the first/second-kind triangles and for the
associated logarithm, so the core machinery can be checked against stated
closed forms.  The registry states each preset's S2 once, as a product of
at most two tabled triangles (Stirling, Lah, degenerate Stirling, central
factorial, a diagonal, the probabilistic one of Adell and Lekuona); by
orthogonality S1 is the product of their inverses in reverse order, which
``TRIANGLES`` names, and the associated logarithm is the EGF of column 1
of S1.  The triangles come from classical recurrences and direct
products, the central factorial ones from their Bell tables by
stirling.bell_rows, the probabilistic ones from Irwin-Hall moments.  No
oracle reads the triangle builders, Comtet's kernel
(stirling._power_rows), composition, Newton inversion or moment_delta.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import classical as cl
from . import fps
from . import scalar as sc
from . import stirling as st
from .errors import LambdaModeRequired, UnknownPreset, ZeroFirstMoment

LAMBDA_ABSENT = sc.LAMBDA_ABSENT
LAMBDA_SYMBOLIC = sc.LAMBDA_SYMBOLIC
resolve_lambda_mode = sc.resolve_lambda_mode


# ---------------------------------------------------------------------------
# series construction helpers

def _series_from_coeff_fn(order, fn):
    return fps.Series(order, [fn(n) for n in range(order + 1)])


def deg_log1p_of(u, lam):
    """log_lam(1 + u(t)) for a series u with zero constant term."""
    return _deg_exp_m1(fps.log_series(fps.add(fps.one(u.order, u.ring), u)), lam)


def _deg_exp_m1(L, lam):
    """(e^{lam L} - 1)/lam for a series L with zero constant term, as the
    integral of L' e^{lam L}: no division by lam, so lam = 0 needs no case.
    Below t^2 it is L, in L's ring."""
    return L if L.order < 2 else fps.integrate(fps.mul(fps.derivative(L), fps.exp_series(fps.scale(L, lam))))


def _two_asinh_half(order):
    """2 asinh(t/2) = 2 log((t + sqrt(t^2 + 4))/2) as the integral of
    (1 + t^2/4)^(-1/2): no logarithm, no division."""
    t = fps.t_series(order)
    d = fps.power(fps.add(fps.one(order), fps.scale(fps.mul(t, t), Fraction(1, 4))), Fraction(-1, 2))
    return fps.integrate(d)


def _exp_am1(order, a):
    """e^{a t} - 1 as a series: coefficients a^n / n!."""
    return _series_from_coeff_fn(order, lambda n: Fraction(0) if n == 0 else (a ** n) * Fraction(1, math.factorial(n)))


# ---------------------------------------------------------------------------
# per-preset builders

def _build_identity(order, lam):
    return fps.t_series(order)


def _build_deg_falling(order, lam):
    return _series_from_coeff_fn(
        order, lambda n: Fraction(0) if n == 0 else (lam ** (n - 1)) * Fraction(1, math.factorial(n))
    )


def _build_rising(order, lam):
    return _series_from_coeff_fn(
        order, lambda n: Fraction(0) if n == 0 else Fraction(-((-1) ** n), math.factorial(n))
    )


def _build_deg_rising(order, lam):
    return _series_from_coeff_fn(
        order,
        lambda n: Fraction(0) if n == 0 else ((-1) ** (n + 1)) * (lam ** (n - 1)) * Fraction(1, math.factorial(n)),
    )


def _build_central(order, lam):
    half = Fraction(1, 2)
    return _series_from_coeff_fn(
        order, lambda n: (half ** n - (-half) ** n) * Fraction(1, math.factorial(n))
    )


def _build_central_bell(order, lam):
    return _two_asinh_half(order)


def _build_deg_central_bell(order, lam):
    return _deg_exp_m1(_two_asinh_half(order), lam)


def _build_lah_bell(order, lam):
    return _series_from_coeff_fn(order, lambda n: Fraction(0) if n == 0 else Fraction((-1) ** (n - 1)))


def _build_deg_lah_bell(order, lam):
    # (e^{lam t}-1)/(lam + e^{lam t}-1) with the shared factor lam cancelled
    num = _build_deg_falling(order, lam)
    den = fps.add(fps.one(order, num.ring), num)
    return fps.div(num, den)


def _build_bell(order, lam):
    one = fps.one(order)
    return fps.log_series(fps.add(one, fps.shift_up(one, 1)))


def _build_partial_deg_bell(order, lam):
    return deg_log1p_of(fps.t_series(order), lam)


def _build_full_deg_bell(order, lam):
    return deg_log1p_of(_build_deg_falling(order, lam), lam)


def _build_mittag_leffler(order, lam):
    e = _exp_am1(order, Fraction(1))
    return fps.div(e, fps.add(e, fps.scale(fps.one(order), 2)))


def _build_laguerre_m1(order, lam):
    return _series_from_coeff_fn(order, lambda n: Fraction(0) if n == 0 else Fraction(-1))


def _build_probabilistic(order, lam):
    return moment_delta(uniform_moments(lam), order).series


# ---------------------------------------------------------------------------
# registry

class Preset:
    """A ready-made delta series family with its closed-form oracles."""

    __slots__ = ("id", "letter", "lam", "f", "expr", "formula", "classical_partner")

    def __init__(self, pid, letter, lam, f, expr, formula, classical_partner):
        object.__setattr__(self, "id", pid)
        object.__setattr__(self, "letter", letter)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "classical_partner", classical_partner)

    def __setattr__(self, name, value):
        raise AttributeError("Preset is immutable")

    def oracle_s2(self, n, k):
        return oracle_s2(self.id, n, k, self.lam)

    def oracle_s1(self, n, k):
        return oracle_s1(self.id, n, k, self.lam)

    def oracle_log(self, order):
        return oracle_log(self.id, order, self.lam)


# id -> (letter, degenerate?, builder, grammar expr or None, display formula, classical partner,
#        S2 as a product of TRIANGLES, left to right)
_REGISTRY = {
    "identity": ("b", False, _build_identity, "t", "t", None, ("s2",)),
    "deg_falling": ("c", True, _build_deg_falling, "(exp(lambda*t)-1)/lambda", "(e^(lambda*t)-1)/lambda", "identity", ("deg_s2",)),
    "rising": ("d", False, _build_rising, "1-exp(-t)", "1-e^(-t)", None, ("lah",)),
    "deg_rising": ("e", True, _build_deg_rising, "(1-exp(-lambda*t))/lambda", "(1-e^(-lambda*t))/lambda", "identity", ("deg_lah",)),
    "central": ("f", False, _build_central, "exp(t/2)-exp(-t/2)", "e^(t/2)-e^(-t/2)", None, ("t1", "s2")),
    "central_bell": ("g", False, _build_central_bell, "2*log((t+sqrt(t^2+4))/2)", "2*log((t+sqrt(t^2+4))/2)", None, ("t2", "s2")),
    "deg_central_bell": ("h", True, _build_deg_central_bell, None, "log_lambda(((t+sqrt(t^2+4))/2)^2)", "central_bell", ("t2_deg", "s2")),
    "lah_bell": ("i", False, _build_lah_bell, "t/(1+t)", "t/(1+t)", None, ("lah", "s2")),
    "deg_lah_bell": ("j", True, _build_deg_lah_bell, "(exp(lambda*t)-1)/(lambda+exp(lambda*t)-1)", "(e^(lambda*t)-1)/(lambda+e^(lambda*t)-1)", "lah_bell", ("lah", "deg_s2")),
    "bell": ("k", False, _build_bell, "log(1+t)", "log(1+t)", None, ("s2", "s2")),
    "partial_deg_bell": ("l", True, _build_partial_deg_bell, None, "log_lambda(1+t)", "bell", ("deg_s2", "s2")),
    "full_deg_bell": ("m", True, _build_full_deg_bell, None, "log_lambda(1+(e^(lambda*t)-1)/lambda)", "bell", ("deg_s2", "deg_s2")),
    "mittag_leffler": ("n", False, _build_mittag_leffler, "(exp(t)-1)/(exp(t)+1)", "(e^t-1)/(e^t+1)", None, ("lah", "2^k")),
    "laguerre_m1": ("o", False, _build_laguerre_m1, "t/(t-1)", "t/(t-1)", None, ("(-1)^k lah", "s2")),
    "probabilistic": ("a", True, _build_probabilistic, None, "inverse of log E[e_lambda^Y(t)], Y ~ U[0,1]", None, ("prob_s2",)),
}

PRESET_IDS = tuple(_REGISTRY)


def is_degenerate(pid):
    if pid not in _REGISTRY:
        raise UnknownPreset(pid)
    return _REGISTRY[pid][1]


@lru_cache(maxsize=None)
def make_preset(pid, order, lambda_mode=LAMBDA_ABSENT):
    if pid not in _REGISTRY:
        raise UnknownPreset(pid)
    if order < 1:
        raise ValueError("order must be at least 1")
    letter, degenerate, builder, expr, formula, partner, _ = _REGISTRY[pid]
    lam = resolve_lambda_mode(lambda_mode)
    if degenerate and lam is None:
        raise LambdaModeRequired("preset %r needs a lambda mode" % pid)
    s = builder(order, lam)
    if degenerate and isinstance(lam, sc.LPoly):
        # over Q[l] at every order, also before a power of l shows up
        s = fps.Series(order, s.coeffs, sc.join_ring(s.ring, sc.RING_QL))
    return Preset(pid, letter, lam, fps.DeltaSeries(s), expr, formula, partner)


def registry_json():
    """Machine-readable registry: id -> example letter and formula."""
    return {
        pid: {"letter": letter, "formula": formula, "degenerate": degenerate, "expr": expr}
        for pid, (letter, degenerate, _b, expr, formula, _p, _f) in _REGISTRY.items()
    }


# ---------------------------------------------------------------------------
# closed-form oracles

def _uniform_s2_rows(max_n, lam):
    """S2 of the uniform preset (Adell and Lekuona): with S_j the sum of j
    iid U[0,1], S2(n, k) = (1/k!) sum_j (-1)^(k-j) C(k, j) E[(S_j)_{n,lam}],
    from the Irwin-Hall moments E[S_j^m] = m!/(m+j)! sum_i (-1)^i C(j, i) (j-i)^(m+j)."""
    moments = [[Fraction(math.factorial(m) * sum((-1) ** i * math.comb(j, i) * (j - i) ** (m + j)
                                                 for i in range(j + 1)), math.factorial(m + j))
                for m in range(max_n + 1)] for j in range(max_n + 1)]
    rows = []
    for n in range(max_n + 1):
        c = cl.deg_falling_coeffs(n, lam)
        e = [sum((cm * mj[m] for m, cm in enumerate(c)), Fraction(0)) for mj in moments[:n + 1]]
        rows.append([sum(((-1) ** (k - j) * math.comb(k, j) * e[j] for j in range(k + 1)), Fraction(0))
                     * Fraction(1, math.factorial(k)) for k in range(n + 1)])
    return rows


def _inverse_rows(rows):
    """The inverse of a lower triangle with a nonzero diagonal, by forward
    substitution."""
    inv = []
    for n, row in enumerate(rows):
        d = sc.scalar_inv(row[n])
        inv.append([(int(n == k) - sum((row[l] * inv[l][k] for l in range(k, n)), Fraction(0))) * d
                    for k in range(n + 1)])
    return inv


@lru_cache(maxsize=None)
def _table(name, max_n, lam=None):
    """Rows 0..max_n of a triangle made as a whole: the central factorial
    t1, t2, t1_deg and t2_deg as the Bell tables (base^k/k! as EGFs) of
    their generating functions, the probabilistic prob_s2 and its inverse
    prob_s1."""
    max_n = max(max_n, 1)
    if name == "prob_s2":
        return _uniform_s2_rows(max_n, lam)
    if name == "prob_s1":
        return _inverse_rows(_table("prob_s2", max_n, lam))
    if name == "t2":
        base = _build_central(max_n, None)
    elif name == "t1":
        base = _build_central_bell(max_n, None)
    elif name == "t2_deg":
        base = _series_from_coeff_fn(
            max_n,
            lambda n: (
                cl.deg_falling_value(Fraction(1, 2), n, lam)
                - cl.deg_falling_value(Fraction(-1, 2), n, lam)
            )
            * Fraction(1, math.factorial(n)),
        )
    else:
        base = _build_deg_central_bell(max_n, lam)
    return st.bell_rows(base, max_n)


def _table_size(n):
    """The least of 1, 2, ..., 8, 10, 12, 14, 16, 20, 24, ... (four steps a
    doubling) at or above n."""
    step = 1 << max((n - 1).bit_length() - 3, 0)
    return max(-(-n // step) * step, 1)


def _tabled(name, deg):
    # rows are prefixes, so a column of n rows reads O(log n) tables of at
    # most 5n/4 rows; a table costs more than the cube of its size, so the
    # next power of two could cost ten times the table to n
    return lambda n, k, lam: _table(name, _table_size(n), lam if deg else None)[n][k]


# name -> (entry(n, k, lam) for 0 <= k <= n, name of the inverse triangle)
TRIANGLES = {
    "s2": (lambda n, k, lam: Fraction(cl.classical_s2(n, k)), "s1"),
    "s1": (lambda n, k, lam: Fraction(cl.classical_s1(n, k)), "s2"),
    "lah": (lambda n, k, lam: Fraction(cl.lah(n, k)), "(-1)^(n-k) lah"),
    "(-1)^(n-k) lah": (lambda n, k, lam: Fraction((-1) ** (n - k) * cl.lah(n, k)), "lah"),
    "(-1)^k lah": (lambda n, k, lam: Fraction((-1) ** k * cl.lah(n, k)), "(-1)^k lah"),
    "deg_s2": (cl.deg_s2, "deg_s1"),
    "deg_s1": (cl.deg_s1, "deg_s2"),
    "deg_lah": (cl.deg_lah, "deg_s1(-l)"),
    "deg_s1(-l)": (lambda n, k, lam: cl.deg_s1(n, k, -lam), "deg_lah"),
    "t1": (_tabled("t1", False), "t2"),
    "t2": (_tabled("t2", False), "t1"),
    "t1_deg": (_tabled("t1_deg", True), "t2_deg"),
    "t2_deg": (_tabled("t2_deg", True), "t1_deg"),
    "2^k": (lambda n, k, lam: Fraction(2 ** k if n == k else 0), "2^-k"),
    "2^-k": (lambda n, k, lam: Fraction(1 if n == k else 0, 2 ** k), "2^k"),
    "prob_s2": (_tabled("prob_s2", True), "prob_s1"),
    "prob_s1": (_tabled("prob_s1", True), "prob_s2"),
}


def triangle(names, n, k, lam=None):
    """Entry (n, k) of the product of the named triangles, left to right;
    0 off the triangle."""
    if k < 0 or k > n:
        return Fraction(0)
    entry = TRIANGLES[names[0]][0]
    if len(names) == 1:
        return entry(n, k, lam)
    return sum((entry(n, l, lam) * triangle(names[1:], l, k, lam) for l in range(k, n + 1)), Fraction(0))


def _check_lambda(pid, lam):
    if lam is None and _REGISTRY[pid][1]:
        raise LambdaModeRequired("oracle for %r needs lambda" % pid)


def _oracle(pid, n, k, lam, first):
    if pid not in _REGISTRY:
        raise UnknownPreset(pid)
    if k < 0 or k > n:
        return Fraction(0)
    _check_lambda(pid, lam)
    names = _REGISTRY[pid][6]
    if first:  # S1 is the inverse of S2: the inverse factors, reversed
        names = [TRIANGLES[name][1] for name in reversed(names)]
    return triangle(names, n, k, lam)


def oracle_s2(pid, n, k, lam=None):
    """S2(n, k; f) of the preset: the product of its tabled triangles."""
    return _oracle(pid, n, k, lam, False)


def oracle_s1(pid, n, k, lam=None):
    """S1(n, k; f) of the preset: the product of the inverse triangles."""
    return _oracle(pid, n, k, lam, True)


def oracle_log(pid, order, lam=None):
    """The associated logarithm of the preset: the EGF of column 1 of its
    S1, S1(n, 1) for 1 <= n <= order; the zero series at order 0."""
    if pid not in _REGISTRY:
        raise UnknownPreset(pid)
    _check_lambda(pid, lam)
    if order < 0:
        raise ValueError("order must be at least 0")
    return fps.from_egf([Fraction(0)] + [oracle_s1(pid, n, 1, lam) for n in range(1, order + 1)])


# ---------------------------------------------------------------------------
# probabilistic presets: exact moment sequences

class MomentSeq:
    """Exact moments E[(Y)_{n,lam}] (or E[Y^n] when lam is absent)."""

    __slots__ = ("_fn", "label")

    def __init__(self, fn, label=""):
        if fn(0) != 1:
            raise ValueError("moments(0) must be 1")
        object.__setattr__(self, "_fn", fn)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("MomentSeq is immutable")

    def moments(self, n):
        return sc.simplify(self._fn(n))


def uniform_moments(lam=None):
    """Y ~ U[0,1]: termwise integration of the degenerate falling factorial."""

    def fn(n):
        if lam is None:
            return Fraction(1, n + 1)
        coeffs = cl.deg_falling_coeffs(n, lam)
        acc = Fraction(0)
        for m, c in enumerate(coeffs):
            acc = acc + c * Fraction(1, m + 1)
        return acc

    return MomentSeq(fn, "uniform")


def point_mass_moments(c, lam=None):
    """Deterministic Y = c."""
    c = Fraction(c)

    def fn(n):
        if lam is None:
            return c ** n
        return cl.deg_falling_value(c, n, lam)

    return MomentSeq(fn, "point_mass(%s)" % c)


def two_point_moments(a, pa, b, lam=None):
    """Y = a with probability pa, else b."""
    a, b, pa = Fraction(a), Fraction(b), Fraction(pa)

    def fn(n):
        if lam is None:
            return pa * a ** n + (1 - pa) * b ** n
        return pa * cl.deg_falling_value(a, n, lam) + (1 - pa) * cl.deg_falling_value(b, n, lam)

    return MomentSeq(fn, "two_point")


def moment_delta(m, order):
    """The delta series whose second-kind triangle gives the probabilistic
    Stirling numbers of the supplied moment sequence."""
    m1 = m.moments(1)
    if not m1:
        raise ZeroFirstMoment("first moment must be nonzero")
    g = fps.Series(
        order,
        [Fraction(0)] + [m.moments(n) * Fraction(1, math.factorial(n)) for n in range(1, order + 1)],
    )
    fbar = fps.log_series(fps.add(fps.one(order, g.ring), g))
    return fps.invert_newton(fps.DeltaSeries(fbar))


def a2_series(order):
    """EGF numbers generated by (t^2/2)/(e^t - 1 - t), as a Series."""
    h = _series_from_coeff_fn(order, lambda n: Fraction(1, math.factorial(n + 2)))
    return fps.div(fps.constant(Fraction(1, 2), order), h)


def uniform_s1_multinomial(n, lam):
    """S1(n, 1) for the uniform moment preset via the stated multinomial sum.

    The inner sum over compositions j_1+...+j_n = m of multinomial
    coefficients times products of A_2 numbers is the m-th EGF coefficient
    of the n-th power of the A_2 exponential generating function.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    a = a2_series(max(n - 1, 1))
    an = fps.power(a, n)
    acc = 0
    for m in range(n):
        acc = acc + math.comb(n - 1, m) * fps.egf_coeff(an, m) * lam ** (n - m - 1)
    return Fraction(2) ** n * acc


# ---------------------------------------------------------------------------
# the verification corpus

class CorpusEntry:
    __slots__ = ("label", "f")

    def __init__(self, label, f):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "f", f)

    def __setattr__(self, name, value):
        raise AttributeError("CorpusEntry is immutable")


@lru_cache(maxsize=None)
def corpus(order):
    """Every preset (b)-(o) (symbolic lambda for degenerate ones) plus the
    two probabilistic moment presets."""
    entries = []
    for pid in PRESET_IDS:
        if pid == "probabilistic":
            continue
        mode = LAMBDA_SYMBOLIC if is_degenerate(pid) else LAMBDA_ABSENT
        p = make_preset(pid, order, mode)
        entries.append(CorpusEntry(pid, p.f))
    entries.append(CorpusEntry("prob_uniform", moment_delta(uniform_moments(sc.LAMBDA), order)))
    entries.append(CorpusEntry("prob_one", moment_delta(point_mass_moments(1, sc.LAMBDA), order)))
    return tuple(entries)
