import hashlib
from pathlib import Path

import pytest

from deltaseries import cli
from deltaseries import fps
from deltaseries import scalar as sc
from deltaseries import stirling as st
from deltaseries import verify as vf

DATA = Path(__file__).parent / "data"


def small_f():
    return fps.DeltaSeries(fps.Series(14, [0, 1, 1] + [0] * 12))


class TestSuites:
    def test_each_suite_passes_on_a_clean_series(self):
        f = small_f()
        for suite in ("orthogonality", "schloemilch", "theorem22", "lemmas", "logarithm"):
            rep = vf.run_suite(suite, f, "test", 5)
            assert rep.ok, (suite, rep.failures[:1])

    def test_lambda_limit_on_presets(self):
        rep = vf.suite_lambda_limit("deg_lah_bell", 5)
        assert rep.ok and not rep.skipped
        rep = vf.suite_lambda_limit("probabilistic", 5)
        assert rep.skipped

    def test_lambda_limit_skips_non_presets(self):
        rep = vf.run_suite("lambda-limit", small_f(), "t+t^2", 5)
        assert rep.skipped

    def test_run_suites_all_expands(self):
        reports = vf.run_suites(("all",), [("f", small_f())], 4)
        assert {r.suite for r in reports} == set(vf.SUITES)
        assert all(r.ok for r in reports)

    def test_report_lines(self):
        rep = vf.SuiteReport("demo", "label", False, ["(n=1,k=0): 1 != 0"])
        lines = rep.lines()
        assert "FAIL" in lines[0]
        assert "first failure" in lines[1]


class TestRationalFunctionSeries:
    """No corpus series lies over Q(l): these two reach a Q(l) inverse, the
    dilated route of fps.invert_newton, through every suite."""

    @pytest.mark.parametrize("f", ["(1+lambda)^2*t+t^2-lambda*t^3", "lambda*(lambda+1)*t+t^2/(2-lambda)"])
    def test_verify_all_passes(self, capsys, f):
        code = cli.main(["verify", "all", "--f", f, "--lambda", "symbolic", "--n", "5"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        # lambda-limit skips a series that is no preset
        assert [line.split()[-1] for line in out.splitlines()] == ["pass"] * 5 + ["skip"], out


class TestSharedTables:
    """Each suite builds one Bell table per series and one Bernoulli family
    per order, and reads entries out of them."""

    def test_theorem22_builds_one_family_per_order(self):
        st.bernoulli_assoc.cache_clear()
        assert vf.suite_theorem22(small_f(), "test", 6).ok
        assert st.bernoulli_assoc.cache_info().currsize <= 7

    def test_lemmas_read_their_bell_terms_from_one_table(self, monkeypatch):
        f = small_f()
        assert vf.suite_lemmas(f, "test", 5).ok  # fills the Bernoulli and triangle caches

        def refuse(*args):
            raise AssertionError("a Bell term built its own series power")

        monkeypatch.setattr(st, "partial_bell", refuse)
        monkeypatch.setattr(fps, "power", refuse)
        assert vf.suite_lemmas(f, "test", 5).ok


def corrupt_s2(monkeypatch, when=lambda f: True):
    """Every second-kind triangle of a series f with when(f), from row 3 on,
    gets S2(3, 1) + 1."""
    real = st.s2_assoc

    def corrupt(f, max_n):
        tri = real(f, max_n)
        if max_n < 3 or not when(f):
            return tri
        return tri.with_entry(3, 1, tri.entry(3, 1) + 1)

    monkeypatch.setattr(st, "s2_assoc", corrupt)


class TestCorruptedTriangle:
    """One wrong S2 entry: every suite reports it, and the whole-table
    routes fail at the cells where the per-cell routes failed."""

    @pytest.mark.parametrize("suite", vf.SUITES)
    def test_each_suite_reports_a_failure(self, monkeypatch, capsys, suite):
        # only the triangles over Q[l], so lambda-limit's classical partner stays right
        corrupt_s2(monkeypatch, lambda f: f.ring == sc.RING_QL)
        code = cli.main(["verify", suite, "--preset", "deg_falling", "--lambda", "symbolic", "--n", "3"])
        out, err = capsys.readouterr()
        assert code == 1 and "internal error" not in err
        status, first = out.splitlines()
        assert status.endswith(" FAIL") and first.startswith("  first failure: "), out

    def test_corpus_failures_are_pinned(self, monkeypatch, capsys):
        # recorded with the per-cell routes, before the whole-table ones
        corrupt_s2(monkeypatch)
        code = cli.main(["verify", "all", "--preset", "all", "--n", "3"])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        assert out == (DATA / "verify_all_n3_s2_3_1_plus_1.txt").read_text()
        reports = vf.run_suites(("all",), vf.corpus_targets(8), 3)
        every = "".join("%s %s %s\n" % (r.suite, r.label, x) for r in reports for x in r.failures)
        assert len(every.splitlines()) == 224
        assert hashlib.sha256(every.encode()).hexdigest() == (
            "ad74d66fbccaf771d5287b430e15493d3c3e7c60a277dbc0361e842c5aeac92a")

