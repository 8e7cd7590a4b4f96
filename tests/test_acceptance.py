"""Acceptance gate: twelve exact desk-scale checks, one line of output each.

Every check is zero-tolerance equality; the two timed checks also assert
their wall-clock budget.
"""

import itertools
import math
import sys
import time
from fractions import Fraction

from deltaseries import classical as cl
from deltaseries import fps
from deltaseries import presets as pr
from deltaseries import scalar as sc
from deltaseries import stirling as st
from deltaseries import verify as vf

L = sc.LAMBDA


def _report(num, desc, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = " (%.1fs)" % elapsed if elapsed is not None else ""
    print("[criterion %02d] %s - %s%s" % (num, status, desc, timing), file=sys.__stdout__)
    assert ok, "criterion %d failed: %s" % (num, desc)


def test_criterion_01_first_kind_for_identity():
    t0 = time.perf_counter()
    f = fps.DeltaSeries(fps.t_series(14))
    s1 = st.s1_assoc(f, 12)
    ok = True
    for n in range(1, 13):
        ok = ok and s1.entry(n, 1) == (-1) ** (n - 1) * math.factorial(n - 1)
    for n in range(13):
        fam = st.bernoulli_assoc(f, Fraction(n), 12)
        for k in range(n + 1):
            ok = ok and s1.entry(n, k) == cl.binom_shift(n, k) * fam.values[n - k]
    elapsed = time.perf_counter() - t0
    _report(1, "first-kind closed forms for f=t, n <= 12", ok and elapsed < 1.0, elapsed)


def test_criterion_02_orthogonality_corpus(corpus_targets):
    t0 = time.perf_counter()
    ok = True
    for label, f in corpus_targets:
        rep = st.orthogonality_check(f, 10)
        ok = ok and rep.ok
    elapsed = time.perf_counter() - t0
    _report(2, "orthogonality both ways over the corpus, n <= 10", ok and elapsed < 30.0, elapsed)


def test_criterion_03_schloemilch_corpus(corpus_targets):
    ok = True
    for label, f in corpus_targets:
        rep = vf.suite_schloemilch(f, label, 10)
        ok = ok and rep.ok
    _report(3, "Schloemilch-type sum equals the first-kind triangle, n <= 10", ok)


def test_criterion_04_four_way_agreement(corpus_targets):
    ok = True
    for label, f in corpus_targets:
        rep = vf.suite_theorem22(f, label, 10)
        ok = ok and rep.ok
    _report(4, "four-way first-kind agreement, n <= 10", ok)


def test_criterion_05_logarithm_four_ways(corpus_targets):
    ok = True
    for label, f in corpus_targets:
        rep = vf.suite_logarithm(f, label, 12)
        ok = ok and rep.ok
    _report(5, "associated logarithm four ways to order 12", ok)


def test_criterion_06_bernoulli_lemmas(corpus_targets):
    ok = True
    for label, f in corpus_targets:
        rep = vf.suite_lemmas(f, label, 8)
        ok = ok and rep.ok
    _report(6, "Bell-moment lemma and Bernoulli expansions, alpha in {-2..3}, n <= 8", ok)


def test_criterion_07_preset_closed_forms():
    ok = True
    for pid in pr.PRESET_IDS:
        mode = pr.LAMBDA_SYMBOLIC if pr.is_degenerate(pid) else pr.LAMBDA_ABSENT
        p = pr.make_preset(pid, 16, mode)
        s2 = st.s2_assoc(p.f, 8)
        s1 = st.s1_assoc(p.f, 8)
        for n in range(9):
            for k in range(n + 1):
                ok = ok and s2.entry(n, k) == p.oracle_s2(n, k)
                ok = ok and s1.entry(n, k) == p.oracle_s1(n, k)
        ok = ok and st.assoc_log(p.f).truncate(8) == p.oracle_log(16).truncate(8)
    # central factorial triangles are mutually inverse
    for n in range(9):
        for l in range(n + 1):
            tot = pr.triangle(("t1", "t2"), n, l)
            ok = ok and tot == (1 if n == l else 0)
    # the Laguerre series is its own compositional inverse
    lag = pr.make_preset("laguerre_m1", 16, pr.LAMBDA_ABSENT)
    ok = ok and st.compositional_inverse(lag.f).series == lag.f.series
    _report(7, "every stated closed form and the example identities, n <= 8", ok)


def test_criterion_08_lambda_limits():
    ok = True
    for pid in pr.PRESET_IDS:
        if pid == "probabilistic" or not pr.is_degenerate(pid):
            continue
        rep = vf.suite_lambda_limit(pid, 8)
        ok = ok and rep.ok and not rep.skipped
    _report(8, "lambda -> 0 reduction to the classical partner, n <= 8", ok)


def test_criterion_09_uniform_multinomial():
    t0 = time.perf_counter()
    a2 = pr.a2_series(8)
    a_vals = [fps.egf_coeff(a2, j) for j in range(5)]
    f = pr.moment_delta(pr.uniform_moments(L), 12)
    s1 = st.s1_assoc(f, 5)
    ok = True
    for n in range(1, 6):
        total = 0
        for m in range(n):
            inner = Fraction(0)
            # brute-force enumeration of compositions j_1 + ... + j_n = m
            for js in itertools.product(range(m + 1), repeat=n):
                if sum(js) != m:
                    continue
                coef = Fraction(math.factorial(m))
                prod = Fraction(1)
                for j in js:
                    coef /= math.factorial(j)
                    prod *= a_vals[j]
                inner += coef * prod
            total = total + math.comb(n - 1, m) * inner * L ** (n - m - 1)
        value = sc.simplify(Fraction(2) ** n * total)
        ok = ok and s1.entry(n, 1) == value
    elapsed = time.perf_counter() - t0
    _report(9, "uniform-moment multinomial formula for column one, n <= 5", ok and elapsed < 60.0, elapsed)


def test_criterion_10_binomial_identities():
    ok = True
    c = cl.comb0
    for n in range(1, 13):
        for k in range(n + 1):
            for j in range(n - k + 1):
                lhs1 = sum(math.comb(n + i - 1, i) * math.comb(i, j) for i in range(j, n - k + 1))
                rhs1 = Fraction(n, n + j) * math.comb(2 * n - k, n) * math.comb(n - k, j)
                ok = ok and lhs1 == rhs1
                lhs2 = (
                    Fraction(c(n - 1, k - 1) * math.comb(2 * n - k, n) * n, n + j)
                    * math.comb(n - k, j)
                    / math.comb(n - k + j, j)
                )
                rhs2 = c(n + j - 1, n + j - k) * c(2 * n - k, n - k - j)
                ok = ok and lhs2 == rhs2
    _report(10, "both binomial summation identities, n <= 12", ok)


def test_criterion_11_lagrange_agreement(corpus_targets):
    ok = True
    outer = fps.Series(12, [Fraction(1, m + 1) for m in range(13)])
    for label, f in corpus_targets:
        g = st.compositional_inverse(f).series
        for n in range(1, 13):
            ok = ok and fps.lagrange_coeff_inverse(f, n) == g.coeffs[n]
        for k in (1, 2, 3, 7, 12):
            gk = fps.power(g.truncate(12), k)
            for n in range(k, 13):
                ok = ok and fps.lagrange_coeff_power(f, k, n) == gk.coeffs[n]
        comp = fps.compose(outer, g.truncate(12))
        for n in range(1, 13):
            ok = ok and fps.lagrange_coeff_general(outer, f, n) == comp.coeffs[n]
    _report(11, "Lagrange formulas (A), (B), (C) match Newton inversion, n <= 12", ok)


def test_criterion_12_performance():
    t0 = time.perf_counter()
    f = fps.DeltaSeries(fps.t_series(64))
    s2 = st.s2_assoc(f, 64)
    s1 = st.s1_assoc(f, 64)
    classical_elapsed = time.perf_counter() - t0
    ok = s2.entry(64, 1) == 1 and s1.entry(64, 64) == 1
    ok = ok and s2.entry(10, 5) == cl.classical_s2(10, 5)

    t1 = time.perf_counter()
    p = pr.make_preset("deg_falling", 24, pr.LAMBDA_SYMBOLIC)
    d2 = st.s2_assoc(p.f, 24)
    d1 = st.s1_assoc(p.f, 24)
    symbolic_elapsed = time.perf_counter() - t1
    ok = ok and d2.entry(24, 24) == 1 and d1.entry(5, 2) == cl.deg_s1(5, 2, L)
    ok = ok and classical_elapsed < 10.0 and symbolic_elapsed < 60.0
    _report(
        12,
        "triangles at n=64 over Q and n=24 symbolic within budget",
        ok,
        classical_elapsed + symbolic_elapsed,
    )
