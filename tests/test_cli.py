import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from deltaseries import cli
from deltaseries import exprparse as ep
from deltaseries import presets as pr
from deltaseries import scalar as sc
from deltaseries import stirling as st
from deltaseries import verify as vf
from deltaseries.errors import DeltaSeriesError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_rising_row4(self, capsys):
        code, out, _ = run(capsys, "table", "--kind", "s2", "--preset", "rising", "--n", "4")
        assert code == 0
        assert out.splitlines()[4] == "4: 0  24  36  12  1"

    def test_identity_s1(self, capsys):
        code, out, _ = run(capsys, "table", "--kind", "s1", "--preset", "identity", "--n", "3")
        assert code == 0
        assert out.splitlines()[3] == "3: 0  2  -3  1"

    def test_not_delta_exits_2(self, capsys):
        code, _, err = run(capsys, "table", "--kind", "s2", "--f", "t^2", "--n", "4")
        assert code == 2
        assert "NotDelta" in err

    def test_csv_quotes_fractions(self, capsys):
        code, out, _ = run(
            capsys, "table", "--kind", "s1", "--preset", "mittag_leffler", "--n", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,value"
        assert '"' in [l for l in lines if l.startswith("2,1,")][0]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "table", "--kind", "s2", "--preset", "deg_falling",
            "--lambda", "symbolic", "--n", "4", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "s2" and obj["max_n"] == 4 and obj["ring"] == "QL"
        values = [[sc.parse_scalar(v) for v in row] for row in obj["rows"]]
        assert values[2][1] == 1 - sc.LAMBDA

    @pytest.mark.parametrize("source", [
        ("--preset", "mittag_leffler"),
        ("--preset", "deg_falling", "--lambda", "symbolic"),
        ("--f", "t/(1+lambda*t)+t^3", "--lambda", "1/3"),
    ], ids=["q", "symbolic", "expr"])
    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("kind", ["s1", "s2"])
    def test_longer_order_prints_the_same_rows(self, capsys, kind, fmt, source):
        n = 5
        outs = [run(capsys, "table", "--kind", kind, *source, "--n", str(n), "--order", str(order),
                    "--format", fmt) for order in (n, 2 * n)]
        assert outs[0][0] == 0 and outs[0] == outs[1]

    @pytest.mark.parametrize("source,ring", [
        (["--preset", "deg_falling", "--lambda", "symbolic"], "QL"),
        (["--f", "t+lambda*t^2", "--lambda", "symbolic"], "QL"),
        (["--f", "t+t^2", "--lambda", "symbolic"], "Q"),
    ], ids=["preset", "expr", "expr-without-lambda"])
    @pytest.mark.parametrize("kind", ["s1", "s2"])
    def test_ring_does_not_depend_on_the_order(self, capsys, kind, source, ring):
        # at order 1 no power of lambda is left, yet the series is over Q[l]
        for order in ("1", "2"):
            code, out, _ = run(capsys, "table", "--kind", kind, *source, "--n", "1", "--order", order,
                               "--format", "json")
            assert code == 0 and json.loads(out)["ring"] == ring

    def test_lambda_rational_specializes(self, capsys):
        _, sym, _ = run(
            capsys, "table", "--kind", "s2", "--preset", "deg_falling",
            "--lambda", "symbolic", "--n", "4", "--format", "json",
        )
        _, num, _ = run(
            capsys, "table", "--kind", "s2", "--preset", "deg_falling",
            "--lambda", "1/3", "--n", "4", "--format", "json",
        )
        sym_rows = json.loads(sym)["rows"]
        num_rows = json.loads(num)["rows"]
        r = Fraction(1, 3)
        for row_s, row_n in zip(sym_rows, num_rows):
            for a, b in zip(row_s, row_n):
                assert sc.eval_lambda(sc.parse_scalar(a), r) == sc.parse_scalar(b)


class TestSeriesCommands:
    def test_log_mittag_leffler(self, capsys):
        code, out, _ = run(capsys, "log", "--preset", "mittag_leffler", "--order", "6")
        assert code == 0
        assert out.splitlines()[1] == "[t^1] 1/2"
        assert out.splitlines()[2] == "[t^2] -1/4"

    def test_bernoulli_classical(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "--f", "t", "--alpha", "1", "--n", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "B_0 = 1"
        assert lines[2] == "B_2 = 1/6"
        assert lines[6] == "B_6 = 1/42"

    def test_invert_json(self, capsys):
        code, out, _ = run(capsys, "invert", "--f", "exp(t)-1", "--order", "6", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["coeffs"][:4] == ["0", "1", "-1/2", "1/3"]

    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "--f", "sqrt(t^2+4)", "--order", "4")
        assert code == 0
        assert out.splitlines()[0] == "[t^0] 2"

    def test_eval_syntax_error_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--f", "t/(", "--order", "4")
        assert code == 2
        assert "error" in err


MACHINE_OUTPUTS = [(command, fmt, lam) for command, fmt in [("log", "csv"), ("invert", "csv"), ("eval", "csv"),
                                                          ("bernoulli", "csv"), ("bernoulli", "json")]
                   for lam in (None, "symbolic")] + [("presets-list", "csv", None)]


@pytest.mark.parametrize("command,fmt,lam", MACHINE_OUTPUTS)
def test_machine_outputs_read_back(capsys, command, fmt, lam):
    """The csv and json outputs, read back with the csv module or json and
    scalar.parse_scalar, give the library's values."""
    if command == "presets-list":
        code, out, _ = run(capsys, command, "--format", fmt)
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [["id", "letter", "degenerate", "formula"]] + [
            [pid, info["letter"], str(info["degenerate"]), info["formula"]] for pid, info in pr.registry_json().items()]
        return
    expr, mode = ("(exp(lambda*t)-1)/lambda+t^2", pr.LAMBDA_SYMBOLIC) if lam else ("log(1+t)+t^3/2", pr.LAMBDA_ABSENT)
    order = 5
    argv = [command, "--f", expr, "--format", fmt] + (["--lambda", lam] if lam else [])
    argv += ["--alpha", "1/2", "--n", str(order)] if command == "bernoulli" else ["--order", str(order)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    f = ep.eval_expr(ep.parse(expr), order + (command == "bernoulli"), mode)
    if command == "eval":
        want = f.coeffs
    elif command == "log":
        want = st.assoc_log(ep.require_delta(f)).coeffs
    elif command == "invert":
        want = st.compositional_inverse(ep.require_delta(f)).series.coeffs
    else:
        want = st.bernoulli_assoc(ep.require_delta(f), Fraction(1, 2), order).values
    if fmt == "json":
        obj = json.loads(out)
        assert (obj["alpha"], obj["f"]) == ("1/2", expr)
        got = [sc.parse_scalar(v) for v in obj["values"]]
    else:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "value"] and [n for n, _ in rows[1:]] == [str(n) for n in range(order + 1)]
        got = [sc.parse_scalar(v) for _, v in rows[1:]]
    assert got == list(want)
    assert [type(v) for v in got] == [type(v) for v in want]


class TestVerify:
    def test_single_preset(self, capsys):
        code, out, _ = run(capsys, "verify", "schloemilch", "--f", "t/(1+t)", "--n", "6")
        assert code == 0
        assert "pass" in out

    def test_all_suites_small(self, capsys):
        code, out, _ = run(capsys, "verify", "orthogonality", "--preset", "identity", "--n", "6")
        assert code == 0
        assert "orthogonality" in out

    def test_no_format_flag(self, capsys):
        # verify prints plain text only, so it takes no --format
        code, out, err = run(capsys, "verify", "orthogonality", "--preset", "all", "--n", "1", "--format", "json")
        assert code == 2 and out == ""
        assert "--format" in err

    @pytest.mark.parametrize("lam", ["1/3", "symbolic"])
    def test_corpus_refuses_lambda(self, capsys, lam):
        # the corpus fixes lambda itself: symbolic for the degenerate presets
        code, out, err = run(capsys, "verify", "orthogonality", "--preset", "all", "--n", "1", "--lambda", lam)
        assert code == 2 and out == ""
        assert "--lambda" in err and "internal error" not in err


class TestUsage:
    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "table", "--kind", "s2", "--n", "4")
        assert code == 2
        assert "preset" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "log", "--preset", "nope", "--order", "4")
        assert code == 2

    def test_n_exceeds_order(self, capsys):
        code, _, err = run(capsys, "table", "--kind", "s2", "--preset", "identity", "--n", "6", "--order", "4")
        assert code == 2
        assert "--n" in err

    @pytest.mark.parametrize("argv", [
        ["table", "--kind", "s2"], ["bernoulli", "--alpha=1"], ["verify", "all"],
    ], ids=["table", "bernoulli", "verify"])
    @pytest.mark.parametrize("n", ["-1", "-2"])
    def test_negative_n_exits_2(self, capsys, argv, n):
        for order in (["--order", "3"], []):
            code, out, err = run(capsys, *argv, "--preset", "bell", "--n", n, *order)
            assert code == 2 and out == ""
            assert "--n must not be negative" in err and "internal error" not in err

    def test_n_zero_without_order_names_n(self, capsys):
        code, _, err = run(capsys, "table", "--kind", "s2", "--preset", "bell", "--n", "0")
        assert code == 2
        assert "--n (without --order) must be at least 1" in err
        code, out, _ = run(capsys, "table", "--kind", "s2", "--preset", "bell", "--n", "0", "--order", "3")
        assert code == 0 and out == "0: 1\n"
        code, _, err = run(capsys, "log", "--preset", "bell", "--order", "0")
        assert code == 2 and "--order must be at least 1" in err

    def test_order_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DELTASERIES_MAX_ORDER", "10")
        code, _, err = run(capsys, "log", "--preset", "identity", "--order", "11")
        assert code == 2
        assert "DELTASERIES_MAX_ORDER" in err
        monkeypatch.setenv("DELTASERIES_MAX_ORDER", "200")
        code, _, _ = run(capsys, "log", "--preset", "identity", "--order", "130")
        assert code == 0

    @pytest.mark.parametrize("raw", ["-5", "0", "ten", " "])
    def test_order_cap_env_must_be_positive(self, capsys, monkeypatch, raw):
        # a cap below 1 is refused as such, not reported as "--order 4 exceeds the cap -5"
        monkeypatch.setenv("DELTASERIES_MAX_ORDER", raw)
        code, out, err = run(capsys, "log", "--preset", "identity", "--order", "4")
        assert code == 2 and not out
        assert "DELTASERIES_MAX_ORDER must be a positive integer, got %r" % raw in err
        assert "exceeds" not in err and "internal error" not in err

    def test_order_cap_env_may_be_padded(self, capsys, monkeypatch):
        monkeypatch.setenv("DELTASERIES_MAX_ORDER", " 12 ")
        code, _, _ = run(capsys, "log", "--preset", "identity", "--order", "12")
        assert code == 0
        code, _, err = run(capsys, "log", "--preset", "identity", "--order", "13")
        assert code == 2 and "--order 13 exceeds the cap 12" in err

    def test_verify_build_order_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("DELTASERIES_MAX_ORDER", "8")
        code, _, err = run(capsys, "verify", "logarithm", "--preset", "bell", "--n", "8")
        assert code == 2
        assert "2n+2 = 18" in err and "DELTASERIES_MAX_ORDER" in err
        code, _, _ = run(capsys, "verify", "logarithm", "--preset", "bell", "--n", "3")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--f", "(" * 400 + "t" + ")" * 400, "--order", "4"],
            ["eval", "--f=" + "-" * 2000 + "t", "--order", "4"],
            ["table", "--kind", "s2", "--f", "exp(" * 300 + "t" + ")" * 300, "--n", "4"],
            ["eval", "--f", "+".join(["t"] * 1500), "--order", "4"],
            ["eval", "--f", "t" + "*1" * 1499, "--order", "4"],
        ],
        ids=["parens", "unary_minus", "exp_calls", "flat_sum", "flat_product"],
    )
    def test_deep_expression_exits_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "ExprSyntaxError" in err and "internal error" not in err

    def test_degenerate_without_lambda(self, capsys):
        code, _, err = run(capsys, "table", "--kind", "s2", "--preset", "deg_falling", "--n", "4")
        assert code == 2
        assert "Lambda" in err or "lambda" in err

    def test_bad_alpha(self, capsys):
        code, _, err = run(capsys, "bernoulli", "--f", "t", "--alpha", "x", "--n", "4")
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "tri.csv"
        code, out, _ = run(
            capsys, "table", "--kind", "s2", "--preset", "identity", "--n", "3",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[0] == "n,k,value"

    @pytest.mark.parametrize("where", ["missing/x.txt", "."])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where):
        # a missing directory, or a directory in place of the file
        code, out, err = run(
            capsys, "log", "--preset", "identity", "--order", "3", "--out", str(tmp_path / where),
        )
        assert code == 2 and out == ""
        assert "--out" in err and "internal error" not in err


class TestHostileInput:
    def test_long_literal_is_a_syntax_error(self, capsys, int_digit_limit):
        code, _, err = run(capsys, "eval", "--f", "t*" + "1" * 5000, "--order", "3")
        assert code == 2
        assert "ExprSyntaxError" in err and "at offset 2" in err

    @pytest.mark.parametrize("expr", ["t*(3+t)^10000", "(2*(3+t)^10000)^(1/2)"], ids=["output", "message"])
    def test_unprintable_coefficient_is_typed(self, capsys, int_digit_limit, expr):
        code, _, err = run(capsys, "eval", "--f", expr, "--order", "3")
        assert code == 2
        assert "ScalarTooLarge" in err and "internal error" not in err

    @pytest.mark.parametrize("expr", ["(2+t)^(1000000000)", "(1/2+t)^(-1000000000)", "(4+t)^(1000000001/2)"])
    def test_huge_power_fails_at_once(self, capsys, int_digit_limit, expr):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--f", expr, "--order", "4")
        assert code == 2 and out == ""
        assert "ScalarTooLarge" in err and "internal error" not in err
        assert time.perf_counter() - start < 0.25

    def test_large_power_below_the_limit_is_exact(self, capsys, int_digit_limit):
        code, out, _ = run(capsys, "eval", "--f", "(2+t)^1000", "--order", "2")
        assert code == 0
        assert out.splitlines() == ["[t^0] %d" % 2 ** 1000, "[t^1] %d" % (1000 * 2 ** 999),
                                    "[t^2] %d" % (499500 * 2 ** 998)]

    @pytest.mark.parametrize("expr", ["(1+lambda+t)^(100000)", "(1-lambda+t)^(-100000)", "(2*lambda+t)^(100000)",
                                      "(1/(1+lambda)+t)^(100000)", "((2+lambda)/(1+lambda)+t)^(-100000)"])
    def test_huge_lambda_power_fails_at_once(self, capsys, int_digit_limit, expr):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--f", expr, "--lambda", "symbolic", "--order", "4")
        assert code == 2 and out == ""
        assert "ScalarTooLarge" in err and "internal error" not in err
        assert time.perf_counter() - start < 0.25

    @pytest.mark.parametrize("expr, code", [("(2*lambda+t)^(10000)", 0), ("(3*lambda^2+lambda*t)^(10000)", 2)])
    def test_power_of_a_monomial_constant_is_fast(self, capsys, int_digit_limit, expr, code):
        # the constant term's power is a monomial in lambda, which multiplies with no zero digits
        start = time.perf_counter()
        got, out, err = run(capsys, "eval", "--f", expr, "--lambda", "symbolic", "--order", "4")
        assert time.perf_counter() - start < 1
        assert got == code and "internal error" not in err
        if code:
            assert out == "" and "ScalarTooLarge" in err
        else:
            assert out.startswith("[t^0] %d*l^10000\n" % 2 ** 10000)

    @pytest.mark.parametrize("expr, order, want", [
        ("t/lambda^8000", 2, ["[t^0] 0", "[t^1] (1)/(1*l^8000)", "[t^2] 0"]),
        ("(" * 13 + "lambda" + ")^2" * 13, 1, ["[t^0] 1*l^8192", "[t^1] 0"]),
        ("(" * 13 + "lambda" + ")^2" * 13 + "*t", 1, ["[t^0] 0", "[t^1] 1*l^8192"])])
    def test_high_powers_of_lambda_are_fast(self, capsys, expr, order, want):
        # a power of the monomial P = l is a shift, and P is stripped by
        # counting zero coefficients, not one trial division a factor
        start = time.perf_counter()
        code, out, _ = run(capsys, "eval", "--f", expr, "--lambda", "symbolic", "--order", str(order))
        assert time.perf_counter() - start < 0.25
        assert code == 0 and out.splitlines() == want

    @pytest.mark.parametrize("expr, label, const", [
        ("(1/(1+lambda)+t)^(100000)", "(1/(1+lambda)+t)^(100000)", "(1)/(1 + 1*l)"),
        ("(2+t)^(-1000000000)", "(2+t)^(-1000000000)", "2"),
        ("t+(2*lambda)^100000", "(2*lambda)^(100000)", "2*l")])
    def test_refused_power_names_its_base(self, capsys, int_digit_limit, expr, label, const):
        code, out, err = run(capsys, "eval", "--f", expr, "--lambda", "symbolic", "--order", "4")
        assert code == 2 and out == ""
        assert "%s: the constant term %s to that power has over 4300 digits" % (label, const) in err

    @pytest.mark.parametrize("expr, lam, want", [
        ("sqrt(2+t)", [], "NoExactRoot: sqrt: the constant term 2 has no exact 2-th root"),
        ("(1+lambda+t)^(1/2)", ["--lambda", "symbolic"],
         "NoExactRoot: (1+lambda+t)^(1/2): the constant term 1 + 1*l has no exact 2-th root"),
        ("t^(1/2)", [], "BadConstantTerm: t^(1/2): a rational power needs a nonzero constant term"),
        ("t^(-1)", [], "NonUnitConstantTerm: t^(-1): division by a series with zero constant term")])
    def test_power_kernel_refusal_names_the_power(self, capsys, expr, lam, want):
        code, out, err = run(capsys, "eval", "--f", expr, *lam, "--order", "4")
        assert code == 2 and out == ""
        assert err == "error: %s\n" % want

    def test_rational_alpha_needs_a_unit_base(self, capsys):
        code, out, err = run(capsys, "bernoulli", "--alpha", "1/2", "--f", "2*t", "--n", "3")
        assert code == 2 and out == ""
        assert "NonUnitBaseForRationalPower: rational order needs g'(0) = 1, got 2" in err

    @pytest.mark.parametrize("expr, want", [
        ("lambda*t", "LambdaModeRequired"),
        # the tree is evaluated in order: log's refusal comes before the lambda node
        ("log(2+t)+lambda*t", "BadConstantTerm"), ("lambda*t+log(2+t)", "LambdaModeRequired")])
    def test_lambda_without_a_mode(self, capsys, expr, want):
        code, out, err = run(capsys, "eval", "--f", expr, "--order", "4")
        assert code == 2 and out == "" and want in err

    def test_lambda_power_below_the_limit_is_exact(self, capsys, int_digit_limit):
        code, out, _ = run(capsys, "eval", "--f", "(1+lambda+t)^(20)", "--lambda", "symbolic", "--order", "2")
        assert code == 0
        # [t^m] (c + t)^20 = C(20, m) c^(20-m) for c = 1 + lambda
        c = 1 + sc.LAMBDA
        assert out.splitlines() == ["[t^%d] %s" % (m, sc.format_scalar(math.comb(20, m) * c ** (20 - m)))
                                    for m in range(3)]

    @pytest.mark.parametrize("f", ["2*t", "(1+lambda)*t", "t/(1+lambda)"])
    @pytest.mark.parametrize("alpha", ["1000000000000", "-1000000000000"])
    def test_huge_alpha_fails_at_once(self, capsys, int_digit_limit, f, alpha):
        # B_0 = f1^(-alpha) is itself an output
        start = time.perf_counter()
        code, out, err = run(capsys, "bernoulli", "--alpha", alpha, "--f", f, "--lambda", "symbolic", "--n", "2")
        assert code == 2 and out == ""
        assert "ScalarTooLarge" in err and "internal error" not in err
        assert time.perf_counter() - start < 1

    def test_small_alpha_is_exact(self, capsys, int_digit_limit):
        # n! [t^n] (t / (e^(2t) - 1))^alpha: 2^(n-1) B_n at alpha = 1, 2^(n+1) / (n+1) at -1,
        # and 2^14000 and 14000 2^14000, of at most 4220 digits, at -14000
        for alpha, want in (("1", ["1/2", "-1/2", "1/3", "0", "-4/15"]), ("-1", ["2", "2", "8/3", "4", "32/5"])):
            code, out, _ = run(capsys, "bernoulli", "--alpha", alpha, "--f", "2*t", "--n", "4")
            assert code == 0 and out.splitlines() == ["B_%d = %s" % nv for nv in enumerate(want)]
        code, out, _ = run(capsys, "bernoulli", "--alpha", "-14000", "--f", "2*t", "--n", "1")
        assert code == 0 and out.splitlines() == ["B_0 = %d" % 2 ** 14000, "B_1 = %d" % (14000 * 2 ** 14000)]
        c = 1 + sc.LAMBDA
        code, out, _ = run(capsys, "bernoulli", "--alpha", "-1", "--f", "(1+lambda)*t", "--lambda", "symbolic", "--n", "2")
        assert code == 0 and out.splitlines() == ["B_%d = %s" % (n, sc.format_scalar(c ** (n + 1) / (n + 1)))
                                                  for n in range(3)]

    def test_long_lambda_power_is_fast(self, capsys):
        # l-degree 20000 with small coefficients: packing is n log n in the degree
        start = time.perf_counter()
        code, out, _ = run(capsys, "eval", "--f", "(lambda+t)^(20000)", "--lambda", "symbolic", "--order", "2")
        assert code == 0
        assert out.splitlines() == ["[t^0] 1*l^20000", "[t^1] 20000*l^19999",
                                    "[t^2] %d*l^19998" % math.comb(20000, 2)]
        assert time.perf_counter() - start < 4

    HUGE = "1" + "0" * 3000

    @pytest.mark.parametrize("order", ["8", "128"])
    @pytest.mark.parametrize("expr, lam", [("(1+t)^" + HUGE, []), ("(1+t)^(-" + HUGE + ")", []),
                                           ("(1+lambda*t)^" + HUGE, ["--lambda", "symbolic"])],
                             ids=["positive", "negative", "lambda"])
    def test_huge_power_of_a_unit_fails_at_once(self, capsys, int_digit_limit, expr, lam, order):
        # a constant term of 1 passes the constant-term guard: the power
        # kernel refuses its first output that is too long to print
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--f", expr, *lam, "--order", order)
        assert code == 2 and out == ""
        assert "ScalarTooLarge" in err and "internal error" not in err
        assert time.perf_counter() - start < 1

    def test_huge_power_with_printable_coefficients_is_exact(self, capsys, int_digit_limit):
        # (1 + t^5)^(10^3000) to order 8 is 1 + 10^3000 t^5: every output prints
        code, out, _ = run(capsys, "eval", "--f", "(1+t^5)^" + self.HUGE, "--order", "8")
        assert code == 0
        assert out.splitlines() == ["[t^%d] %s" % (m, {0: "1", 5: self.HUGE}.get(m, "0")) for m in range(9)]

    @pytest.mark.parametrize("expr, want", [
        ("log(2+t)/(0*t)", "BadConstantTerm: log needs constant term 1, got 2"),
        ("log(2+t)/log(3+t)", "BadConstantTerm: log needs constant term 1, got 2"),
        ("(0*t)/log(3+t)", "BadConstantTerm: log needs constant term 1, got 3"),
        ("t/(0*t)", "DivisionByZero: division by the zero series")])
    def test_division_reports_the_dividend_error_first(self, capsys, expr, want):
        # the divisor is evaluated first, but its error, or the zero
        # divisor, is reported only once the dividend has evaluated
        code, out, err = run(capsys, "eval", "--f", expr, "--order", "4")
        assert code == 2 and out == "" and want in err

    def test_huge_root_index_fails_at_once(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "eval", "--f", "(4+t)^(1/100000000)", "--order", "3")
        assert code == 2 and "NoExactRoot" in err
        assert time.perf_counter() - start < 0.25

    def test_bernoulli_build_order_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("DELTASERIES_MAX_ORDER", "4")
        code, _, err = run(capsys, "bernoulli", "--f", "t", "--alpha", "1", "--n", "4")
        assert code == 2
        assert "(order+1) = 5" in err and "DELTASERIES_MAX_ORDER" in err
        code, _, _ = run(capsys, "bernoulli", "--f", "t", "--alpha", "1", "--n", "3")
        assert code == 0


# expressions over Q(l): lambda in numerators and denominators, poles in t
FUZZ_ATOMS = ["t", "lambda", "2", "1/3", "(lambda+1)", "(lambda^2-lambda)", "(1-t)", "exp(t)", "log(1+t)"]
fuzz_expr = hst.recursive(
    hst.sampled_from(FUZZ_ATOMS),
    lambda inner: hst.one_of(hst.tuples(inner, hst.sampled_from("+-*/"), inner).map("(%s%s%s)".__mod__),
                             hst.tuples(inner, hst.sampled_from(["2", "3", "(-1)"])).map("(%s)^%s".__mod__)),
    max_leaves=6)
FUZZ_COMMANDS = [["eval", "--order", "4"], ["invert", "--order", "5"], ["log", "--order", "4"],
                 ["table", "--kind", "s2", "--n", "4"], ["table", "--kind", "s1", "--n", "4"],
                 ["bernoulli", "--alpha", "2", "--n", "3"]]


class TestFuzzSymbolicLambda:
    @given(fuzz_expr, hst.sampled_from(FUZZ_COMMANDS), hst.booleans())
    @settings(max_examples=60, deadline=None)
    def test_exit_code_and_time(self, expr, command, times_t):
        # t*(...) gives most expressions the zero constant term of a delta series
        argv = command[:1] + ["--f", "t*" + expr if times_t else expr, "--lambda", "symbolic"] + command[1:]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2), (argv, err.getvalue())
        assert "internal error" not in err.getvalue()
        assert time.perf_counter() - start < 5, argv


VERIFY_SOURCES = [["--preset", p] for p in pr.PRESET_IDS + ("all",)] + [
    ["--f", e] for e in ("t/(1+t)", "exp(t)-1", "t+lambda*t^2", "(1+lambda)*t+t^2", "t^2", "1+t", "t/(")]


def has_fail_line(out):
    return any(line.split()[-1:] == ["FAIL"] for line in out.splitlines())


class TestFuzzVerify:
    @given(hst.sampled_from(vf.SUITES + ("all",)), hst.sampled_from(VERIFY_SOURCES),
           hst.sampled_from([None, "symbolic", "1/3", "0"]), hst.integers(min_value=-2, max_value=4),
           hst.one_of(hst.none(), hst.integers(min_value=-1, max_value=6)))
    @example("all", ["--preset", "bell"], None, -1, 3)
    @settings(max_examples=100, deadline=None)
    def test_exit_code_and_time(self, suite, source, lam, n, order):
        argv = ["verify", suite, *source, "--n", str(n)]
        argv += ["--lambda", lam] if lam else []
        argv += ["--order", str(order)] if order is not None else []
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2) or (code == 1 and has_fail_line(out.getvalue())), (argv, err.getvalue())
        assert "internal error" not in err.getvalue(), argv
        assert time.perf_counter() - start < 5, argv


class TestFuzzRoundTrip:
    """pretty(parse(pretty(e))) == pretty(e), and both trees evaluate alike."""

    @given(fuzz_expr)
    @settings(max_examples=60, deadline=None)
    def test_pretty_parse_eval(self, expr):
        tree = ep.parse(expr)
        text = ep.pretty(tree)
        again = ep.parse(text)
        assert ep.pretty(again) == text
        results = []
        for e in (tree, again):
            try:
                results.append(ep.eval_expr(e, 3, sc.LAMBDA_SYMBOLIC))
            except DeltaSeriesError as exc:
                results.append(type(exc))
        first, second = results
        if isinstance(first, type):
            assert first is second, (expr, text)
        else:
            assert not isinstance(second, type), (expr, text)
            assert first.coeffs == second.coeffs and first.ring == second.ring
            assert [type(c) for c in first.coeffs] == [type(c) for c in second.coeffs]


class TestPresetsList:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "presets-list")
        assert code == 0
        assert "mittag_leffler" in out and "deg_falling" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "presets-list", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert len(obj) == 15
        assert obj["laguerre_m1"]["letter"] == "o"


class TestRunAsModule:
    """`python -m deltaseries` runs cli.main in a fresh interpreter and
    exits with its code."""

    @staticmethod
    def run_module(*argv):
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "deltaseries", *argv], capture_output=True, text=True,
                              env=env, timeout=60)

    def test_presets_list(self, capsys):
        done = self.run_module("presets-list")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == run(capsys, "presets-list")[1]

    def test_exit_code_of_a_usage_error(self):
        done = self.run_module("table", "--kind", "s2", "--preset", "nosuch", "--n", "3")
        assert done.returncode == 2 and "nosuch" in done.stderr
