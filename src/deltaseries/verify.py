"""Invariant suites over a delta series: each re-derives a family of
identities along two independent code paths and reports any cell that
differs.  Used by the command line `verify` subcommand and by the tests.
"""

from __future__ import annotations

from fractions import Fraction

from . import fps
from . import presets as pr
from . import scalar as sc
from . import stirling as st

SUITES = ("orthogonality", "schloemilch", "theorem22", "lemmas", "logarithm", "lambda-limit")

_LEMMA_ALPHAS = (-2, -1, 1, 2, 3)


class SuiteReport:
    """Outcome of one suite on one series; failures carry cell coordinates."""

    __slots__ = ("suite", "label", "ok", "failures", "skipped")

    def __init__(self, suite, label, ok, failures=(), skipped=False):
        self.suite = suite
        self.label = label
        self.ok = ok
        self.failures = list(failures)
        self.skipped = skipped

    def lines(self):
        status = "skip" if self.skipped else ("pass" if self.ok else "FAIL")
        out = ["%-13s %-18s %s" % (self.suite, self.label, status)]
        if self.failures:
            out.append("  first failure: %s" % self.failures[0])
        return out


def _fail(where, lhs, rhs):
    return "%s: %s != %s" % (where, sc.format_scalar(lhs), sc.format_scalar(rhs))


def suite_orthogonality(f, label, max_n):
    rep = st.orthogonality_check(f, max_n)
    failures = [_fail("%s (n=%d)" % (rel, n) if l is None else "%s (n=%d,l=%d)" % (rel, n, l), got, want)
                for rel, n, l, got, want in rep.failures]
    return SuiteReport("orthogonality", label, rep.ok, failures)


def suite_schloemilch(f, label, max_n):
    s2 = st.s2_assoc(f, 2 * max_n)
    s1 = st.s1_assoc(f, max_n)
    sch = st.schloemilch_table(f, max_n, s2)
    failures = []
    for n in range(max_n + 1):
        for k in range(n + 1):
            lhs = sch[n][k]
            rhs = s1.entry(n, k)
            if lhs != rhs:
                failures.append(_fail("(n=%d,k=%d)" % (n, k), lhs, rhs))
    return SuiteReport("schloemilch", label, not failures, failures)


def suite_theorem22(f, label, max_n):
    """Four ways at the first-kind entries: direct powers, the Bernoulli
    product, the partial Bell polynomial of column one, and the
    Schloemilch sum."""
    s1 = st.s1_assoc(f, max_n)
    s2 = st.s2_assoc(f, 2 * max_n)
    bell = st.bell_rows(fps.from_egf([0] + [s1.entry(m, 1) for m in range(1, max_n + 1)]), max_n)
    sch = st.schloemilch_table(f, max_n, s2)
    failures = []
    for n in range(max_n + 1):
        for k in range(n + 1):
            direct = s1.entry(n, k)
            via_b = st.s1_via_bernoulli(f, n, k)
            via_bell = bell[n][k]
            via_sch = sch[n][k]
            for name, other in (("bernoulli", via_b), ("bell", via_bell), ("schloemilch", via_sch)):
                if other != direct:
                    failures.append(_fail("(n=%d,k=%d) %s" % (n, k, name), other, direct))
    return SuiteReport("theorem22", label, not failures, failures)


def suite_lemmas(f, label, max_n):
    """The Bell-moment lemma, both Bernoulli expansions, and the order-1
    corollary, for a small range of orders alpha."""
    failures = []
    s2 = st.s2_assoc(f, 2 * max_n)
    ps = st.moment_sequence(f, max_n + 1)  # every moment both lemma routes read
    bell = st.lemma_bell_moments(ps, max_n)
    sums = st.lemma_bell_moments_sums(f, max_n, s2)
    for n in range(max_n + 1):
        for k in range(n + 1):
            if bell[n][k] != sums[n][k]:
                failures.append(_fail("bell-moments (n=%d,k=%d)" % (n, k), bell[n][k], sums[n][k]))
    fb = st.compositional_inverse(f)
    via24 = st.bernoulli_table_via_lemma24(ps, bell, _LEMMA_ALPHAS, max_n)
    via_s2 = st.bernoulli_table_via_s2(f, _LEMMA_ALPHAS, max_n, s2)
    via_c = st.bernoulli_table_via_s2_alpha1(f, max_n, s2)
    for i, alpha in enumerate(_LEMMA_ALPHAS):
        fam = st.bernoulli_assoc(fb, Fraction(alpha), max_n)
        for n in range(max_n + 1):
            direct = fam.values[n]
            for name, other in (("lemma", via24[i][n]), ("double-sum", via_s2[i][n])):
                if other != direct:
                    failures.append(_fail("alpha=%d n=%d %s" % (alpha, n, name), other, direct))
            if alpha == 1 and via_c[n] != direct:
                failures.append(_fail("alpha=1 n=%d corollary" % n, via_c[n], direct))
    return SuiteReport("lemmas", label, not failures, failures)


def suite_logarithm(f, label, max_n):
    """The associated logarithm five ways: the Stirling transform of f's
    coefficients (``assoc_log``), composition with log(1+t), inversion of
    e^{fbar}-1, the first column of the first-kind triangle, and the
    second-kind expansion."""
    direct = st.assoc_log(f).truncate(max_n)
    log1p = fps.Series(max_n, [Fraction(0)] + [Fraction((-1) ** (n - 1), n) for n in range(1, max_n + 1)])
    composed = fps.compose(f.series.truncate(max_n), log1p)
    # the inverse of e^{fbar}-1 to order m needs only its first m coefficients
    m = max(max_n, 1)
    fb = st.compositional_inverse(f).series.truncate(m)
    e = fps.expm1(fb)
    inv = fps.invert_newton(fps.DeltaSeries(e)).series.truncate(max_n)
    s1 = st.s1_assoc(f, max_n)
    col = fps.from_egf([s1.entry(n, 1) if n else Fraction(0) for n in range(max_n + 1)])
    s2 = st.s2_assoc(f, max(2 * max_n - 2, max_n))
    expanded = st.assoc_log_expansion(f, max_n, s2)
    failures = []
    for name, other in (("composition", composed), ("inverse", inv), ("column-1", col), ("expansion", expanded)):
        for n in range(max_n + 1):
            if other.coeffs[n] != direct.coeffs[n]:
                failures.append(_fail("%s [t^%d]" % (name, n), other.coeffs[n], direct.coeffs[n]))
                break
    return SuiteReport("logarithm", label, not failures, failures)


def suite_lambda_limit(pid, max_n):
    """Degenerate preset triangles specialized at lambda = 0 must equal the
    classical partner's triangles; any other label is skipped."""
    if pid not in pr.PRESET_IDS or not pr.is_degenerate(pid) or pid == "probabilistic":
        return SuiteReport("lambda-limit", pid, True, skipped=True)
    order = max(max_n, 1)
    p = pr.make_preset(pid, order, pr.LAMBDA_SYMBOLIC)
    partner = pr.make_preset(p.classical_partner, order)
    failures = []
    for kind, build in (("s2", st.s2_assoc), ("s1", st.s1_assoc)):
        deg = build(p.f, max_n)
        classic = build(partner.f, max_n)
        for n in range(max_n + 1):
            for k in range(n + 1):
                lhs = sc.eval_lambda(deg.entry(n, k), Fraction(0))
                rhs = classic.entry(n, k)
                if lhs != rhs:
                    failures.append(_fail("%s (n=%d,k=%d)" % (kind, n, k), lhs, rhs))
    return SuiteReport("lambda-limit", pid, not failures, failures)


def run_suite(suite, f, label, max_n):
    """Dispatch one named suite on one delta series."""
    if suite == "orthogonality":
        return suite_orthogonality(f, label, max_n)
    if suite == "schloemilch":
        return suite_schloemilch(f, label, max_n)
    if suite == "theorem22":
        return suite_theorem22(f, label, max_n)
    if suite == "lemmas":
        return suite_lemmas(f, label, max_n)
    if suite == "logarithm":
        return suite_logarithm(f, label, max_n)
    if suite == "lambda-limit":
        return suite_lambda_limit(label, max_n)
    raise ValueError("unknown suite %r" % suite)


def run_suites(suites, targets, max_n):
    """Run suites over (label, DeltaSeries) pairs one after another, in
    (target, suite) order: the suites are pure Python under the interpreter
    lock, where threads gain nothing."""
    if "all" in suites:
        suites = SUITES
    return [run_suite(suite, f, label, max_n) for label, f in targets for suite in suites]


def corpus_targets(order):
    return [(e.label, e.f) for e in pr.corpus(order)]
