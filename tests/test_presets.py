import math
from fractions import Fraction

import pytest

from deltaseries import classical as cl
from deltaseries import fps
from deltaseries import presets as pr
from deltaseries import scalar as sc
from deltaseries import stirling as st
from deltaseries.errors import LambdaModeRequired, UnknownPreset, ZeroFirstMoment
import reference as ref

L = sc.LAMBDA
ORACLE_N = 8
DEGENERATE = [p for p in pr.PRESET_IDS if pr.is_degenerate(p)]
RATIONAL_LAMBDAS = (Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-2))


def _preset(pid, order=18):
    mode = pr.LAMBDA_SYMBOLIC if pr.is_degenerate(pid) else pr.LAMBDA_ABSENT
    return pr.make_preset(pid, order, mode)


class TestRegistry:
    def test_all_ids_present(self):
        assert len(pr.PRESET_IDS) == 15
        reg = pr.registry_json()
        assert set(reg) == set(pr.PRESET_IDS)
        letters = {info["letter"] for info in reg.values()}
        assert letters == set("abcdefghijklmno")

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            pr.make_preset("nope", 8)
        with pytest.raises(UnknownPreset):
            pr.is_degenerate("nope")

    def test_degenerate_requires_lambda(self):
        with pytest.raises(LambdaModeRequired):
            pr.make_preset("deg_falling", 8)
        with pytest.raises(LambdaModeRequired):
            pr.oracle_s2("partial_deg_bell", 3, 1)

    def test_preset_is_immutable(self):
        p = _preset("identity")
        with pytest.raises(AttributeError):
            p.id = "other"


class TestOracleAgreement:
    @pytest.mark.parametrize("pid", pr.PRESET_IDS)
    def test_triangles_match_oracles(self, pid):
        p = _preset(pid)
        s2 = st.s2_assoc(p.f, ORACLE_N)
        s1 = st.s1_assoc(p.f, ORACLE_N)
        for n in range(ORACLE_N + 1):
            for k in range(n + 1):
                assert s2.entry(n, k) == p.oracle_s2(n, k), (pid, "s2", n, k)
                assert s1.entry(n, k) == p.oracle_s1(n, k), (pid, "s1", n, k)

    @pytest.mark.parametrize("pid", pr.PRESET_IDS)
    def test_log_matches_oracle(self, pid):
        p = _preset(pid)
        assert st.assoc_log(p.f).truncate(ORACLE_N) == p.oracle_log(p.f.order).truncate(ORACLE_N)

    @pytest.mark.parametrize("lam", RATIONAL_LAMBDAS, ids=str)
    @pytest.mark.parametrize("pid", DEGENERATE)
    def test_triangles_match_oracles_at_rational_lambda(self, pid, lam):
        p = pr.make_preset(pid, ORACLE_N, lam)
        s2 = st.s2_assoc(p.f, ORACLE_N)
        s1 = st.s1_assoc(p.f, ORACLE_N)
        for n in range(ORACLE_N + 1):
            for k in range(n + 1):
                assert s2.entry(n, k) == p.oracle_s2(n, k), (pid, "s2", n, k)
                assert s1.entry(n, k) == p.oracle_s1(n, k), (pid, "s1", n, k)
        assert st.assoc_log(p.f) == p.oracle_log(ORACLE_N)

    def test_probabilistic_log_is_the_multinomial_sum(self):
        # S1(n, 1) of the uniform preset by the paper's multinomial sum over A_2 numbers
        for n in range(1, 9):
            assert pr.oracle_s1("probabilistic", n, 1, L) == pr.uniform_s1_multinomial(n, L), n

    def test_refusal_order(self):
        # UnknownPreset, then 0 off the triangle, then LambdaModeRequired
        for oracle in (pr.oracle_s2, pr.oracle_s1):
            with pytest.raises(UnknownPreset):
                oracle("nope", 2, 5)
            assert oracle("probabilistic", 2, 5) == 0 and oracle("deg_falling", 2, -1) == 0
        with pytest.raises(UnknownPreset):
            pr.oracle_log("nope", -1)
        for pid in DEGENERATE:
            for call in (lambda: pr.oracle_s2(pid, 3, 2), lambda: pr.oracle_s1(pid, 3, 2),
                         lambda: pr.oracle_log(pid, 6), lambda: pr.oracle_log(pid, -1)):
                with pytest.raises(LambdaModeRequired, match=r"^oracle for '%s' needs lambda$" % pid):
                    call()

    @pytest.mark.parametrize("pid", pr.PRESET_IDS)
    def test_log_at_orders_below_one(self, pid):
        # one rule for every preset: the zero series at order 0, a ValueError below
        lam = L if pr.is_degenerate(pid) else None
        zero = pr.oracle_log(pid, 0, lam)
        assert zero == fps.Series(0, [0]) and zero.ring == sc.RING_Q
        with pytest.raises(ValueError, match=r"^order must be at least 0$"):
            pr.oracle_log(pid, -1, lam)

    def test_oracles_read_no_builder(self, monkeypatch):
        # the oracles check these kernels, so they may not run on them
        lams = (L, Fraction(-1, 2))

        def values():
            pr._table.cache_clear()
            out = []
            for pid in pr.PRESET_IDS:
                for lam in lams:
                    out.append(pr.oracle_log(pid, ORACLE_N, lam))
                    out += [oracle(pid, n, k, lam) for oracle in (pr.oracle_s2, pr.oracle_s1)
                            for n in range(ORACLE_N + 1) for k in range(n + 1)]
            return out

        want = values()

        def refuse(*args):
            raise AssertionError("an oracle read a kernel it checks")
        for mod, name in ((st, "s2_assoc"), (st, "s1_assoc"), (st, "compositional_inverse"), (st, "assoc_log"),
                          (st, "_power_rows"), (fps, "compose"), (fps, "compose_log1p"), (fps, "invert_newton"),
                          (pr, "moment_delta"), (fps, "pow_ratio"), (fps, "div")):
            monkeypatch.setattr(mod, name, refuse)
        assert values() == want

    def test_rational_lambda_specializes_symbolic(self):
        r = Fraction(2, 5)
        for pid in ("deg_falling", "deg_lah_bell", "full_deg_bell"):
            sym = _preset(pid, order=8).f.series
            num = pr.make_preset(pid, 8, r).f.series
            assert [sc.eval_lambda(c, r) for c in sym.coeffs] == list(num.coeffs)


class TestTriangles:
    """The classical triangles the oracles multiply, and their inverses."""

    def test_registry_names_only_tabled_triangles(self):
        names = {name for pid in pr.PRESET_IDS for name in pr._REGISTRY[pid][6]}
        assert names <= set(pr.TRIANGLES)
        assert all(pr._REGISTRY[pid][6] for pid in pr.PRESET_IDS)

    @pytest.mark.parametrize("name", list(pr.TRIANGLES))
    def test_each_times_its_inverse_is_the_identity(self, name):
        inverse = pr.TRIANGLES[name][1]
        assert pr.TRIANGLES[inverse][1] == name
        for lam in (L,) + RATIONAL_LAMBDAS:
            for n in range(11):
                for k in range(n + 1):
                    assert pr.triangle((name, inverse), n, k, lam) == (1 if n == k else 0), (lam, n, k)


class TestTabledRows:
    """A tabled triangle is read from tables to powers of two; their rows are
    the rows of the table built to that row alone."""

    @pytest.mark.parametrize("name,lams", [("t1", (None,)), ("t2", (None,))] + [
        (name, (L, Fraction(-1, 2))) for name in ("t1_deg", "t2_deg", "prob_s2", "prob_s1")])
    def test_rows_are_prefixes(self, name, lams):
        for lam in lams:
            big = pr._table(name, 16, lam)
            for n in range(1, 17):
                assert big[:n + 1] == pr._table(name, n, lam), (lam, n)

    def test_table_sizes(self):
        sizes = [pr._table_size(n) for n in range(41)]
        assert sorted(set(sizes)) == [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40]
        assert all(n <= size <= max(5 * n / 4, 1) for n, size in enumerate(sizes))

    def test_one_column_builds_few_tables(self):
        pr._table.cache_clear()
        log = pr.oracle_log("probabilistic", 20, L)
        # prob_s1 and the prob_s2 it inverts, each to 1, ..., 8, 10, 12, 14, 16 and 20
        assert pr._table.cache_info().currsize <= 26
        pr._table.cache_clear()
        assert log.truncate(12) == fps.from_egf([0] + [pr._table("prob_s1", n, L)[n][1] for n in range(1, 13)])


class TestDegLog1p:
    """deg_log1p_of, (e^{lam L} - 1)/lam as the integral of L' e^{lam L},
    against the power sum of tests/reference.py: the coefficients and the
    ring label at every order, for the inner series t and (e^{lam t} - 1)/lam
    the presets use and for w^2 - 1, whose logarithm 2 asinh(t/2) the
    deg_central_bell builder takes from its derivative instead."""

    @pytest.mark.parametrize("lam", [L, Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(2)], ids=str)
    @pytest.mark.parametrize("inner", ["t", "deg_falling", "w2m1"])
    def test_against_power_sum(self, inner, lam):
        for n in range(1, 21):
            if inner == "t":
                u = fps.t_series(n)
            elif inner == "deg_falling":  # (e^{lam t} - 1)/lam
                u = pr.make_preset("deg_falling", n, lam).f.series
            else:  # w^2 - 1 for w = (t + sqrt(t^2 + 4))/2
                t = fps.t_series(n)
                root = fps.power(fps.add(fps.one(n), fps.scale(fps.mul(t, t), Fraction(1, 4))), Fraction(1, 2))
                w = fps.add(fps.scale(t, Fraction(1, 2)), root)
                u = fps.sub(fps.mul(w, w), fps.one(n))
            got, want = pr.deg_log1p_of(u, lam), ref.deg_log1p_of(u, lam)
            assert got == want and got.ring == want.ring, (n, got.ring, want.ring)
            if inner == "w2m1":
                got = pr._build_deg_central_bell(n, lam)
                assert got == want and got.ring == want.ring, (n, got.ring, want.ring)

    def test_degenerate_oracles_read_no_compose(self, monkeypatch):
        # these logarithms check assoc_log, a Stirling transform
        # (compose_log1p), and verify checks it by composition with log(1+t)
        pids = ("deg_central_bell", "partial_deg_bell", "full_deg_bell")
        logs = [st.assoc_log(_preset(pid, 12).f) for pid in pids]

        def refused(*a):
            raise AssertionError("compose")
        monkeypatch.setattr(fps, "compose", refused)
        monkeypatch.setattr(fps, "compose_log1p", refused)
        for pid, lg in zip(pids, logs):
            assert pr.oracle_log(pid, 12, L) == lg, pid


class TestKnownCoefficients:
    def test_mittag_leffler_log(self):
        # t/(2+t): coefficients (-1)^{n-1}/2^n
        lg = pr.oracle_log("mittag_leffler", 6)
        assert [lg.coeffs[n] for n in range(1, 7)] == [
            Fraction((-1) ** (n - 1), 2**n) for n in range(1, 7)
        ]

    def test_rising_is_lah(self):
        p = _preset("rising")
        s2 = st.s2_assoc(p.f, 4)
        assert [s2.entry(4, k) for k in range(5)] == [0, 24, 36, 12, 1]

    def test_laguerre_self_inverse(self):
        p = _preset("laguerre_m1")
        assert st.compositional_inverse(p.f).series == p.f.series

    def test_deg_central_at_zero_lambda(self):
        for n in range(6):
            for k in range(n + 1):
                for name in ("t1", "t2"):
                    deg = pr.triangle((name + "_deg",), n, k, L)
                    assert sc.eval_lambda(deg, Fraction(0)) == pr.triangle((name,), n, k)

    def test_partial_deg_bell_closed_form(self):
        # log_l(1+t) has EGF (l-1)_{n-1}
        f = _preset("partial_deg_bell", order=8).f.series
        for n in range(1, 9):
            assert fps.egf_coeff(f, n) == sc.simplify(cl.deg_falling_value(L - 1, n - 1, 1))


class TestA2AndMoments:
    def test_a2_values(self):
        a = pr.a2_series(6)
        got = [fps.egf_coeff(a, n) for n in range(3)]
        assert got == [Fraction(1), Fraction(-1, 3), Fraction(1, 18)]
        # independent convolution oracle: (e^t - 1 - t) * A = t^2/2
        vals = [fps.egf_coeff(a, n) for n in range(7)]
        for n in range(5):
            acc = Fraction(0)
            for j in range(n + 1):
                acc += vals[j] / math.factorial(j) / math.factorial(n - j + 2)
            assert acc == (Fraction(1, 2) if n == 0 else 0)

    def test_uniform_moments(self):
        um = pr.uniform_moments(L)
        assert um.moments(0) == 1
        assert um.moments(1) == Fraction(1, 2)
        assert um.moments(2) == Fraction(1, 3) - L / 2
        plain = pr.uniform_moments()
        assert [plain.moments(n) for n in range(4)] == [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]

    def test_point_mass_one_equals_deg_falling(self):
        f = pr.moment_delta(pr.point_mass_moments(1, L), 10)
        assert f == _preset("deg_falling", order=10).f

    def test_zero_first_moment(self):
        with pytest.raises(ZeroFirstMoment):
            pr.moment_delta(pr.point_mass_moments(0), 6)

    def test_moment_seq_validates(self):
        with pytest.raises(ValueError):
            pr.MomentSeq(lambda n: Fraction(2))

    def test_uniform_multinomial_formula(self):
        f = pr.moment_delta(pr.uniform_moments(L), 12)
        s1 = st.s1_assoc(f, 6)
        for n in range(1, 7):
            assert s1.entry(n, 1) == pr.uniform_s1_multinomial(n, L)

    def test_probabilistic_preset_builds(self):
        p = pr.make_preset("probabilistic", 10, pr.LAMBDA_SYMBOLIC)
        assert p.f == pr.moment_delta(pr.uniform_moments(L), 10)
        rep = st.orthogonality_check(p.f, 6)
        assert rep.ok


class TestCorpus:
    def test_corpus_contents(self, corpus):
        labels = [e.label for e in corpus]
        assert "identity" in labels and "prob_uniform" in labels and "prob_one" in labels
        assert "probabilistic" not in labels
        assert len(labels) == 16

    def test_corpus_series_are_delta(self, corpus):
        for e in corpus:
            assert not e.f.series.coeffs[0]
            assert e.f.series.coeffs[1]
