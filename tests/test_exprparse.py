import time
from fractions import Fraction

import pytest

from deltaseries import exprparse as ep
from deltaseries import fps
from deltaseries import presets as pr
from deltaseries import scalar as sc
from deltaseries.errors import (
    BadConstantTerm,
    DivisionByZero,
    ExprSyntaxError,
    LambdaModeRequired,
    NoExactRoot,
    NonUnitConstantTerm,
    NotDelta,
    UnknownFunction,
)

L = sc.LAMBDA


class TestParsing:
    def test_tree_shapes(self):
        e = ep.parse("t + 2*t - 3")
        assert isinstance(e, ep.Sub)
        assert isinstance(e.left, ep.Add)
        assert ep.parse("-t^2") == ep.Neg(ep.Pow(ep.Var("t"), 2))
        assert ep.parse("(t+1)^2") == ep.Pow(ep.Add(ep.Var("t"), ep.Number(1)), 2)
        assert ep.parse("t^(1/2)") == ep.Pow(ep.Var("t"), Fraction(1, 2))
        assert ep.parse("t^-2") == ep.Pow(ep.Var("t"), -2)

    def test_left_associativity(self):
        assert ep.parse("1-2-3") == ep.Sub(ep.Sub(ep.Number(1), ep.Number(2)), ep.Number(3))
        assert ep.parse("8/4/2") == ep.Div(ep.Div(ep.Number(8), ep.Number(4)), ep.Number(2))

    def test_whitespace_insensitive(self):
        assert ep.parse(" t / ( 1 + t ) ") == ep.parse("t/(1+t)")

    def test_unary_rhs(self):
        assert ep.parse("2*-t") == ep.Mul(ep.Number(2), ep.Neg(ep.Var("t")))
        assert ep.parse("t- -t") == ep.Sub(ep.Var("t"), ep.Neg(ep.Var("t")))

    def test_binary_nodes_compare_their_operands(self):
        assert ep.parse("t+1") != ep.parse("2+3")
        assert ep.parse("t*2") != ep.parse("t*3")
        assert ep.parse("t/(1+t)") != ep.parse("t/(1-t)")
        assert ep.parse("t - 1") == ep.parse("t-1")

    def test_hash_agrees_with_equality(self):
        assert hash(ep.parse("t / (1 + t)")) == hash(ep.parse("t/(1+t)"))
        assert len({ep.parse("t+1"), ep.parse("2+3"), ep.parse("t + 1")}) == 2

    @pytest.mark.parametrize(
        "src,offset",
        [
            ("t/(", 3),
            ("2t", 1),
            ("", 0),
            ("t^^2", 2),
            ("t+", 2),
            ("(t", 2),
            ("t)", 1),
            ("t$u", 1),
        ],
    )
    def test_syntax_errors_carry_offsets(self, src, offset):
        with pytest.raises(ExprSyntaxError) as err:
            ep.parse(src)
        assert err.value.offset == offset
        assert err.value.expected

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            ep.parse("foo(t)")
        with pytest.raises(ExprSyntaxError):
            ep.parse("x")  # bare unknown name

    def test_nesting_up_to_the_limit_parses(self):
        flat = ep.parse("+".join(["t"] * 128))
        assert ep.eval_expr(flat, 3).coeffs[1] == 128
        deep = "(" * (ep.MAX_DEPTH - 1) + "t" + ")" * (ep.MAX_DEPTH - 1)
        assert ep.parse(deep) == ep.Var("t")
        with pytest.raises(ExprSyntaxError):
            ep.parse("(" + deep + ")")
        neg = ep.parse("-" * (ep.MAX_DEPTH - 1) + "t")
        assert ep.parse(ep.pretty(neg)) == neg
        with pytest.raises(ExprSyntaxError):
            ep.parse("-" + ep.pretty(neg))

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            ep.parse("2t")
        with pytest.raises(ExprSyntaxError):
            ep.parse("2 t")


class TestPretty:
    @pytest.mark.parametrize(
        "src",
        [
            "t",
            "-t^2",
            "t/(1+t)",
            "(exp(t)-1)/(exp(t)+1)",
            "2*log((t+sqrt(t^2+4))/2)",
            "-(t+1)*3",
            "t^(-2)",
            "t^(1/2)",
            "1/2*t",
            "t- -t",
            "(exp(lambda*t)-1)/lambda",
            "t-(1-t)",
            "t/(2*t+1)/(1+t)",
        ],
    )
    def test_fixed_point(self, src):
        e = ep.parse(src)
        text = ep.pretty(e)
        assert ep.parse(text) == e
        assert ep.pretty(ep.parse(text)) == text


class TestEval:
    def test_basic_values(self):
        assert ep.eval_expr(ep.parse("t"), 4) == fps.t_series(4)
        s = ep.eval_expr(ep.parse("sqrt(t^2+4)"), 4)
        assert s.coeffs == (Fraction(2), Fraction(0), Fraction(1, 4), Fraction(0), Fraction(-1, 64))

    def test_formulas_match_presets(self):
        for pid, info in pr.registry_json().items():
            if info["expr"] is None:
                continue
            mode = pr.LAMBDA_SYMBOLIC if info["degenerate"] else pr.LAMBDA_ABSENT
            p = pr.make_preset(pid, 10, mode)
            assert ep.eval_expr(ep.parse(info["expr"]), 10, mode) == p.f.series, pid

    def test_shift_cancellation(self):
        b = ep.eval_expr(ep.parse("t/(exp(t)-1)"), 6)
        assert fps.egf_coeff(b, 2) == Fraction(1, 6)
        assert fps.egf_coeff(b, 6) == Fraction(1, 42)
        # t^2 / t^2 = 1
        assert ep.eval_expr(ep.parse("t^2/t^2"), 3) == fps.one(3)

    def test_nested_cancellation_in_bounded_time(self):
        # every level cancels t, so each subtree is needed one order higher;
        # the t-free form cancels nothing and is evaluated once per level
        cancelling, plain = "t", "t"
        for i in range(30):
            c, d = i % 3 + 1, i % 4 + 1
            cancelling = "(t*(%d+%s))/(t*(1+%d*t))" % (c, cancelling, d)
            plain = "(%d+%s)/(1+%d*t)" % (c, plain, d)
        t0 = time.perf_counter()
        got = ep.eval_expr(ep.parse(cancelling), 6)
        elapsed = time.perf_counter() - t0
        assert got == ep.eval_expr(ep.parse(plain), 6)
        assert elapsed < 30.0

    def test_division_errors(self):
        with pytest.raises(NonUnitConstantTerm):
            ep.eval_expr(ep.parse("1/t"), 4)
        with pytest.raises(DivisionByZero):
            ep.eval_expr(ep.parse("t/(t-t)"), 4)

    def test_sqrt_requires_perfect_square(self):
        with pytest.raises(NoExactRoot):
            ep.eval_expr(ep.parse("sqrt(2+t)"), 4)
        with pytest.raises(BadConstantTerm):
            ep.eval_expr(ep.parse("sqrt(t)"), 4)
        with pytest.raises(NoExactRoot):
            ep.eval_expr(ep.parse("(2+t)^(1/2)"), 4)

    def test_rational_power_with_scaling(self):
        # (4+t)^(1/2) = 2*sqrt(1+t/4)
        s = ep.eval_expr(ep.parse("(4+t)^(1/2)"), 3)
        ref = fps.scale(
            fps.pow_ratio(fps.add(fps.one(3), fps.scale(fps.t_series(3), Fraction(1, 4))), Fraction(1, 2)),
            2,
        )
        assert s == ref

    def test_log_exp_domains(self):
        with pytest.raises(BadConstantTerm):
            ep.eval_expr(ep.parse("log(t)"), 4)
        with pytest.raises(BadConstantTerm):
            ep.eval_expr(ep.parse("exp(1+t)"), 4)

    def test_lambda_modes(self):
        e = ep.parse("(exp(lambda*t)-1)/lambda")
        with pytest.raises(LambdaModeRequired):
            ep.eval_expr(e, 6)
        sym = ep.eval_expr(e, 6, pr.LAMBDA_SYMBOLIC)
        r = Fraction(3, 7)
        direct = ep.eval_expr(e, 6, r)
        assert [sc.eval_lambda(c, r) for c in sym.coeffs] == list(direct.coeffs)

    def test_negative_power(self):
        s = ep.eval_expr(ep.parse("(1+t)^-1"), 4)
        assert s.coeffs == (Fraction(1), Fraction(-1), Fraction(1), Fraction(-1), Fraction(1))


class TestRequireDelta:
    def test_examples(self):
        with pytest.raises(NotDelta):
            ep.require_delta(ep.eval_expr(ep.parse("t^2"), 4))
        with pytest.raises(NotDelta):
            ep.require_delta(ep.eval_expr(ep.parse("1+t"), 4))
        d = ep.require_delta(ep.eval_expr(ep.parse("t/(t-1)"), 5))
        assert d.series.coeffs[1] == -1
        assert list(d.series.coeffs[1:]) == [Fraction(-1)] * 5
