import json
import time
from fractions import Fraction

import pytest

from deltaseries import cli
from deltaseries import scalar as sc


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


class TestVerify:
    def test_single_preset(self, capsys):
        code, out, _ = run(capsys, "verify", "schloemilch", "--f", "t/(1+t)", "--n", "6")
        assert code == 0
        assert "pass" in out

    def test_all_suites_small(self, capsys):
        code, out, _ = run(capsys, "verify", "orthogonality", "--preset", "identity", "--n", "6")
        assert code == 0
        assert "orthogonality" in out


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

    def test_order_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DELTASERIES_MAX_ORDER", "10")
        code, _, err = run(capsys, "log", "--preset", "identity", "--order", "11")
        assert code == 2
        assert "DELTASERIES_MAX_ORDER" in err
        monkeypatch.setenv("DELTASERIES_MAX_ORDER", "200")
        code, _, _ = run(capsys, "log", "--preset", "identity", "--order", "130")
        assert code == 0

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
