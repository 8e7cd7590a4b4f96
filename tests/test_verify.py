from deltaseries import fps
from deltaseries import stirling as st
from deltaseries import verify as vf


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
