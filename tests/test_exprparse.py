import random
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
        assert ep.parse("t + 2*t - 3") == ("-", ("+", "t", ("*", 2, "t")), 3)
        assert ep.parse("-t^2") == ("neg", ("^", "t", 2))
        assert ep.parse("(t+1)^2") == ("^", ("+", "t", 1), 2)
        assert ep.parse("t^(1/2)") == ("^", "t", Fraction(1, 2))
        assert ep.parse("t^-2") == ("^", "t", -2)
        assert ep.parse("sqrt(lambda)") == ("sqrt", "lambda")
        _, two, (_, _, three) = ep.parse("2*t^3")
        assert type(two) is Fraction and type(three) is Fraction

    def test_left_associativity(self):
        assert ep.parse("1-2-3") == ("-", ("-", 1, 2), 3)
        assert ep.parse("8/4/2") == ("/", ("/", 8, 4), 2)

    def test_whitespace_insensitive(self):
        assert ep.parse(" t / ( 1 + t ) ") == ep.parse("t/(1+t)")

    def test_unary_rhs(self):
        assert ep.parse("2*-t") == ("*", 2, ("neg", "t"))
        assert ep.parse("t- -t") == ("-", "t", ("neg", "t"))

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
        assert ep.parse(deep) == "t"
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

    @staticmethod
    def random_tree(rng, depth):
        """A tree of height at most depth + 1 with integer leaves >= 0."""
        if depth == 0 or rng.random() < 0.2:
            return rng.choice([Fraction(rng.randint(0, 12)), "t", "lambda"])
        tag = rng.choice(("neg", "+", "-", "*", "/", "^") + ep.FUNCTIONS)
        if tag == "^":
            return (tag, TestPretty.random_tree(rng, depth - 1), Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        return (tag,) + tuple(TestPretty.random_tree(rng, depth - 1) for _ in range(1 + (tag in "+-*/")))

    @staticmethod
    def kinds(e):
        """The node kinds in e; nested unary minus and negative and rational
        exponents count as kinds of their own."""
        if not isinstance(e, tuple):
            return set()
        tag, a = e[0], e[1]
        found = {tag} | TestPretty.kinds(a)
        if tag == "neg" and isinstance(a, tuple) and a[0] == "neg":
            found.add("neg neg")
        if tag == "^":
            found |= {"^ negative"} if e[2] < 0 else set()
            found |= {"^ rational"} if e[2].denominator > 1 else set()
        elif tag in "+-*/":
            found |= TestPretty.kinds(e[2])
        return found

    def test_random_trees_round_trip(self):
        rng = random.Random(25)
        seen = set()
        for _ in range(1000):
            e = self.random_tree(rng, 7)
            text = ep.pretty(e)
            assert ep.parse(text) == e, text
            assert ep.pretty(ep.parse(text)) == text
            seen |= self.kinds(e)
        assert seen == {"neg", "neg neg", "+", "-", "*", "/", "^", "^ negative", "^ rational"} | set(ep.FUNCTIONS)


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


class TestDivision:
    """Each division evaluates its divisor at the order asked (at doubling
    orders while it reads as zero), its dividend once at that order plus the
    divisor's valuation, and its divisor again only where a power of t
    cancels."""

    @staticmethod
    def chains(depth, k, symbolic):
        """Nested divisions that cancel t^k at every level, and the same
        expression with the t^k cancelled by hand."""
        cancelling = plain = "t"
        for i in range(depth):
            a = "(lambda+%d)" % (i % 3 + 1) if symbolic else str(i % 3 + 1)
            b = "%s%d*t" % ("lambda*" if symbolic and i % 2 else "", i % 4 + 1)
            cancelling = "(t^%d*(%s+%s))/(t^%d*(1+%s))" % (k, a, cancelling, k, b)
            plain = "(%s+%s)/(1+%s)" % (a, plain, b)
        return cancelling, plain

    @pytest.mark.parametrize("symbolic", [False, True], ids=["q", "lambda"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nested_chains_equal_their_cancelled_form(self, k, symbolic):
        mode = pr.LAMBDA_SYMBOLIC if symbolic else pr.LAMBDA_ABSENT
        for depth in range(1, 13):
            cancelling, plain = self.chains(depth, k, symbolic)
            e, want = ep.parse(cancelling), ep.eval_expr(ep.parse(plain), 10, mode)
            # below order k the truncated divisor t^k (1 + ...) reads as zero
            # and is evaluated again at twice the order
            for order in range(1, 11):
                assert ep.eval_expr(e, order, mode) == want.truncate(order), (depth, order)

    @pytest.mark.parametrize("text", ["t/t^2", "(t^2*(1+t))/(t^3*(1+t))", "((t*(1+t))/(t*(2+t)))/t",
                                      "(t*(1+t))/(t^2*(2+t)/(1+t))", "(1+t)/t^2", "(t^6/t^5)/t^2"])
    def test_dividend_of_lower_valuation(self, text):
        # at every order: below the divisor's valuation it reads as zero and is evaluated again
        for order in range(1, 7):
            with pytest.raises(NonUnitConstantTerm):
                ep.eval_expr(ep.parse(text), order)

    def test_divisor_that_vanishes_at_the_order_asked(self):
        # t^5 reads as zero below order 5: it is evaluated again at 2, 4, 8
        t = fps.t_series(6)
        for order in range(1, 7):
            assert ep.eval_expr(ep.parse("t^6/t^5"), order) == t.truncate(order), order
            assert ep.eval_expr(ep.parse("(t^3+t^4)/(t^2*(t-t^2))"), order) == \
                fps.div(fps.add(fps.one(6), t), fps.sub(fps.one(6), t)).truncate(order)

    def test_zero_divisor_in_bounded_time(self, monkeypatch):
        orders = []
        real = ep._eval_node
        monkeypatch.setattr(ep, "_eval_node", lambda e, order, *a: orders.append(order) or real(e, order, *a))
        for order in (1, 3, 5, 64, 100):
            orders.clear()
            start = time.perf_counter()
            with pytest.raises(DivisionByZero):
                ep.eval_expr(ep.parse("t/(0*t)"), order)
            assert time.perf_counter() - start < 1
            assert max(orders) == max(order, 64), order

    def test_dividend_error_comes_first(self):
        for divisor in ("t^5", "(0*t)", "log(3+t)"):
            with pytest.raises(BadConstantTerm, match="got 2$"):
                ep.eval_expr(ep.parse("log(2+t)/" + divisor), 3)

    def test_nodes_evaluated_grow_linearly_in_depth(self, monkeypatch):
        calls = []
        real = ep._eval_node
        monkeypatch.setattr(ep, "_eval_node", lambda *a: calls.append(1) or real(*a))
        counts = []
        for depth in range(1, 13):
            calls.clear()
            ep.eval_expr(ep.parse(self.chains(depth, 2, False)[0]), 6)
            counts.append(len(calls))
        # the same number of evaluations for every level added
        assert len({b - a for a, b in zip(counts, counts[1:])}) == 1, counts


class TestRequireDelta:
    def test_examples(self):
        with pytest.raises(NotDelta):
            ep.require_delta(ep.eval_expr(ep.parse("t^2"), 4))
        with pytest.raises(NotDelta):
            ep.require_delta(ep.eval_expr(ep.parse("1+t"), 4))
        d = ep.require_delta(ep.eval_expr(ep.parse("t/(t-1)"), 5))
        assert d.series.coeffs[1] == -1
        assert list(d.series.coeffs[1:]) == [Fraction(-1)] * 5
