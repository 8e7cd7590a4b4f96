"""Classical combinatorial primitives used as independent oracles.

Everything here is computed from recurrences or closed products, never from
the series machinery in :mod:`deltaseries.fps`, so these values can serve
as cross-checks for the triangle constructions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def comb0(m, j):
    """Binomial with the zero convention outside 0 <= j <= m; C(m, 0) = 1 always."""
    if j == 0:
        return 1
    if j < 0 or j > m:
        return 0
    return math.comb(m, j)


def binom_shift(n, k):
    """C(n-1, k-1) with the (0,0) corner defined as 1."""
    if n == 0 and k == 0:
        return 1
    if k <= 0 or k > n:
        return 0
    return math.comb(n - 1, k - 1)


@lru_cache(maxsize=None)
def classical_s2(n, k):
    """Stirling numbers of the second kind by the standard recurrence
    S(m, j) = j S(m-1, j) + S(m-1, j-1), run over the rows m <= n and the
    columns j <= k (a loop, so any n works at any recursion limit)."""
    if k < 0 or k > n:
        return 0
    col = [1] + [0] * k  # row 0
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            col[j] = j * col[j] + col[j - 1]
        col[0] = 0
    return col[k]


@lru_cache(maxsize=None)
def classical_s1(n, k):
    """Signed Stirling numbers of the first kind by the standard recurrence
    s(m, j) = s(m-1, j-1) - (m-1) s(m-1, j), run like classical_s2."""
    if k < 0 or k > n:
        return 0
    col = [1] + [0] * k  # row 0
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            col[j] = col[j - 1] - (m - 1) * col[j]
        col[0] = 0
    return col[k]


def lah(n, k):
    """Unsigned Lah numbers n!/k! * C(n-1, k-1)."""
    if n == 0 and k == 0:
        return 1
    if k <= 0 or k > n:
        return 0
    return math.factorial(n) // math.factorial(k) * math.comb(n - 1, k - 1)


# ---------------------------------------------------------------------------
# degenerate falling factorials and the Stirling numbers they induce

@lru_cache(maxsize=None)
def deg_falling_coeffs(n, lam):
    """Monomial coefficients (in x) of (x)_{n,lam} = x(x-lam)...(x-(n-1)lam)."""
    coeffs = [Fraction(1)]
    for i in range(n):
        shift = i * lam
        nxt = [-(shift * c) for c in coeffs] + [Fraction(0)]
        for j, c in enumerate(coeffs):
            nxt[j + 1] = nxt[j + 1] + c
        coeffs = nxt
    return tuple(coeffs)


def deg_falling_value(x, n, lam):
    """(x)_{n,lam} evaluated at a scalar x."""
    acc = Fraction(1)
    for i in range(n):
        acc = acc * (x - i * lam)
    return acc


def to_deg_falling_basis(mono_coeffs, lam):
    """Rewrite a polynomial (monomial coeffs) in the (x)_{k,lam} basis."""
    work = list(mono_coeffs)
    out = [None] * len(work)
    for k in range(len(work) - 1, -1, -1):
        c = work[k]
        out[k] = c
        if c:
            base = deg_falling_coeffs(k, lam)
            for j, b in enumerate(base):
                work[j] = work[j] - c * b
    return out


@lru_cache(maxsize=None)
def deg_s2(n, k, lam):
    """Degenerate second-kind Stirling numbers from (x)_{n,lam} = sum S (x)_k."""
    if k < 0 or k > n:
        return Fraction(0)
    mono = deg_falling_coeffs(n, lam)
    acc = Fraction(0)
    for m in range(k, n + 1):
        s = classical_s2(m, k)
        if s:
            acc = acc + mono[m] * s
    return acc


@lru_cache(maxsize=None)
def _deg_s1_row(n, lam):
    return tuple(to_deg_falling_basis([Fraction(classical_s1(n, m)) for m in range(n + 1)], lam))


def deg_s1(n, k, lam):
    """Degenerate first-kind Stirling numbers from (x)_n = sum S (x)_{k,lam};
    row n is rewritten in that basis once."""
    if k < 0 or k > n:
        return Fraction(0)
    return _deg_s1_row(n, lam)[k]


def deg_lah(n, k, lam):
    """Degenerate Lah numbers; their EGF is that of the second kind at -lam."""
    return deg_s2(n, k, -lam)
