import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from deltaseries import fps
from deltaseries import presets as pr
from deltaseries import scalar as sc
from deltaseries.errors import (
    BadConstantTerm,
    IndexOutOfOrder,
    NonUnitConstantTerm,
    NotDelta,
    OrderMismatch,
)

L = sc.LAMBDA


def ser(*coeffs):
    return fps.Series(len(coeffs) - 1, coeffs)


def exp_minus_one(order, a=Fraction(1)):
    return fps.Series(
        order,
        [Fraction(0)] + [a**n / math.factorial(n) for n in range(1, order + 1)],
    )


def log1p(order):
    return fps.Series(
        order, [Fraction(0)] + [Fraction((-1) ** (n - 1), n) for n in range(1, order + 1)]
    )


small_series = hst.lists(
    hst.fractions(min_value=-50, max_value=50, max_denominator=100), min_size=1, max_size=6
).map(lambda cs: fps.Series(len(cs) - 1, cs))


class TestSeriesBasics:
    def test_construction_and_truncate(self):
        s = ser(1, 2, 3)
        assert s.order == 2
        assert s.truncate(1).coeffs == (Fraction(1), Fraction(2))
        assert s.pad(4).coeffs == (Fraction(1), Fraction(2), Fraction(3), Fraction(0), Fraction(0))

    def test_ring_inference(self):
        assert ser(1, 2).ring == sc.RING_Q
        assert ser(1, L).ring == sc.RING_QL
        assert ser(1, sc.LRat(sc.LPoly((1,)), L)).ring == sc.RING_QLRAT

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            fps.add(ser(1, 2), ser(1, 2, 3))

    def test_valuation(self):
        assert ser(0, 0, 5).valuation() == 2
        assert ser(0, 0, 0).valuation() == 3  # order + 1 for the zero series

    def test_mul_cauchy(self):
        a = ser(1, 1, 0, 0)
        assert fps.mul(a, a).coeffs == (Fraction(1), Fraction(2), Fraction(1), Fraction(0))

    def test_div_bernoulli_oracle(self):
        # t/(e^t - 1) carries the Bernoulli numbers as EGF coefficients
        e = fps.shift_down(exp_minus_one(7), 1)
        b = fps.div(fps.one(6), e)
        values = [fps.egf_coeff(b, n) for n in range(7)]
        assert values == [
            Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
            Fraction(-1, 30), Fraction(0), Fraction(1, 42),
        ]

    def test_div_requires_unit(self):
        with pytest.raises(NonUnitConstantTerm):
            fps.div(ser(1, 0), ser(0, 1))

    def test_div_promotes_to_qlrat(self):
        q = fps.div(fps.one(2), fps.Series(2, [L, Fraction(1), Fraction(0)]))
        assert q.ring == sc.RING_QLRAT
        assert q.coeffs[0] * L == 1

    def test_shift_rules(self):
        s = ser(0, 0, 3, 4)
        assert fps.shift_down(s, 2).coeffs == (Fraction(3), Fraction(4))
        assert fps.shift_up(ser(1, 2), 1).coeffs == (Fraction(0), Fraction(1))
        with pytest.raises(NonUnitConstantTerm):
            fps.shift_down(ser(1, 2), 1)

    def test_derivative_integrate(self):
        s = ser(5, 1, 3)
        assert fps.integrate(fps.derivative(s)).coeffs[1:] == s.coeffs[1:]

    def test_compose(self):
        f = exp_minus_one(8)
        g = log1p(8)
        assert fps.compose(f, g) == fps.t_series(8)
        with pytest.raises(BadConstantTerm):
            fps.compose(f, ser(1, 1, 0, 0, 0, 0, 0, 0, 0))

    @given(small_series, small_series)
    @settings(max_examples=40, deadline=None)
    def test_mul_div_round_trip(self, a, b):
        n = max(a.order, b.order)
        a, b = a.pad(n), b.pad(n)
        if sc.is_zero_scalar(b.coeffs[0]):
            return
        assert fps.mul(fps.div(a, b), b) == a


class TestDeltaAndInversion:
    def test_delta_validation(self):
        with pytest.raises(NotDelta):
            fps.DeltaSeries(ser(1, 1))
        with pytest.raises(NotDelta):
            fps.DeltaSeries(ser(0, 0, 1))
        f = fps.DeltaSeries(ser(0, 2, 1))
        assert f.order == 2

    def test_newton_inverse_exp(self):
        f = fps.DeltaSeries(exp_minus_one(10))
        assert fps.invert_newton(f).series == log1p(10)

    def test_newton_inverse_round_trip(self):
        f = fps.DeltaSeries(ser(0, 1, -1, 3, 5, -2, 0, 1))
        g = fps.invert_newton(f)
        assert fps.compose(f.series, g.series) == fps.t_series(7)
        assert fps.compose(g.series, f.series) == fps.t_series(7)

    def test_newton_inverse_symbolic(self):
        # (e^{l t} - 1)/l inverts to log(1 + l t)/l: EGF (n-1)! (-l)^{n-1}
        order = 6
        f = fps.DeltaSeries(
            fps.Series(
                order,
                [Fraction(0)] + [L ** (n - 1) / Fraction(math.factorial(n)) for n in range(1, order + 1)],
            )
        )
        g = fps.invert_newton(f)
        for n in range(1, order + 1):
            value = fps.egf_coeff(g.series, n)
            assert value == sc.simplify(math.factorial(n - 1) * (-L) ** (n - 1))
        assert fps.compose(f.series, g.series) == fps.t_series(order)

    def test_lagrange_matches_newton(self):
        f = fps.DeltaSeries(ser(0, 1, 4, -2, 1, 0, 3, -1, 2, 0, 0, 1, 5))
        g = fps.invert_newton(f).series
        for n in range(1, 13):
            assert fps.lagrange_coeff_inverse(f, n) == g.coeffs[n]
        for k in range(1, 7):
            gk = fps.pow_int(g, k)
            for n in range(k, 13):
                assert fps.lagrange_coeff_power(f, k, n) == gk.coeffs[n]
        outer = ser(2, 1, -1, 3, 0, 1, 1, 0, 2, 1, 0, 1, 4)
        comp = fps.compose(outer, g)
        for n in range(1, 13):
            assert fps.lagrange_coeff_general(outer, f, n) == comp.coeffs[n]

    def test_lagrange_bounds(self):
        f = fps.DeltaSeries(ser(0, 1, 1))
        with pytest.raises(IndexOutOfOrder):
            fps.lagrange_coeff_inverse(f, 3)
        with pytest.raises(IndexOutOfOrder):
            fps.lagrange_coeff_power(f, 3, 2)


def horner_compose(g, f):
    """Reference g(f): one series product per coefficient of g."""
    n = g.order
    result = fps.constant(g.coeffs[n], n)
    for m in range(n - 1, -1, -1):
        result = fps.add(fps.mul(result, f), fps.constant(g.coeffs[m], n))
    return fps.Series(n, result.coeffs, sc.join_ring(g.ring, f.ring))


def horner_invert(f):
    """Reference Newton reversion, with both evaluations by horner_compose."""
    fs = f.series
    g = fps.Series(1, (0, sc.scalar_inv(fs.coeffs[1])))
    while g.order < f.order:
        m = min(2 * g.order, f.order)
        fm, gm = fs.truncate(m), g.pad(m)
        err = fps.sub(horner_compose(fm, gm), fps.t_series(m))
        g = fps.sub(gm, fps.div(err, horner_compose(fps.derivative(fm), gm)))
    return fps.DeltaSeries(g)


def assert_same(got, want):
    # Series.__eq__ ignores the ring, so compare it on its own
    assert got.coeffs == want.coeffs
    assert got.ring == want.ring


rationals = hst.fractions(min_value=-20, max_value=20, max_denominator=12)


@hst.composite
def compose_pair(draw):
    n = draw(hst.integers(min_value=0, max_value=20))
    g = draw(hst.lists(hst.one_of(hst.just(Fraction(0)), rationals), min_size=n + 1, max_size=n + 1))
    f = draw(hst.lists(rationals, min_size=n, max_size=n))
    return fps.Series(n, g), fps.Series(n, [Fraction(0)] + f)


def outer_shapes(n):
    """Dense, every other block of isqrt(n+1) coefficients zero, a lone top
    term, a zero top coefficient (as in a derivative) and the zero series."""
    k = math.isqrt(n + 1)
    dense = [Fraction((-1) ** i * (i + 2), i + 1) for i in range(n + 1)]
    yield dense
    yield [c if (i // k) % 2 == 0 else 0 for i, c in enumerate(dense)]
    yield [0] * n + [Fraction(3)]
    yield dense[:n] + [0]
    yield [0] * (n + 1)


def symbolic_inner(name, order):
    if name == "deg_falling":  # over Q[l]
        return pr.make_preset("deg_falling", order, pr.LAMBDA_SYMBOLIC).f
    # (l+1)t + 2t^2: a non-constant linear term puts it over Q(l)
    return fps.DeltaSeries(fps.Series(order, [0, L + 1, 2] + [0] * (order - 2)))


class TestComposeAgainstHorner:
    """The baby-step/giant-step kernel against plain Horner evaluation."""

    @given(compose_pair())
    @settings(max_examples=60, deadline=None)
    def test_compose_q(self, pair):
        g, f = pair
        assert_same(fps.compose(g, f), horner_compose(g, f))

    @pytest.mark.parametrize("n", range(21))
    def test_compose_block_shapes(self, n):
        f = fps.Series(n, [0] + [Fraction(1, i) - 1 for i in range(1, n + 1)])
        for g in outer_shapes(n):
            g = fps.Series(n, g)
            assert_same(fps.compose(g, f), horner_compose(g, f))

    @given(compose_pair())
    @settings(max_examples=30, deadline=None)
    def test_invert_q(self, pair):
        _, f = pair
        if f.order < 1 or f.coeffs[1] == 0:
            return
        f = fps.DeltaSeries(f)
        assert_same(fps.invert_newton(f).series, horner_invert(f).series)

    @pytest.mark.parametrize(
        "name,n", [("deg_falling", 3), ("deg_falling", 8), ("deg_falling", 15), ("qlrat", 3), ("qlrat", 8)]
    )
    def test_symbolic(self, name, n):
        f = symbolic_inner(name, n)
        fbar = fps.invert_newton(f).series
        assert_same(fbar, horner_invert(f).series)
        inners = [f.series, fbar, fps.Series(n, [0, 1, L, 1 - L] + [0] * (n - 3))]
        for g in [fps.Series(n, g) for g in outer_shapes(n)] + [f.series]:
            for h in inners:
                assert_same(fps.compose(g, h), horner_compose(g, h))


class TestTranscendental:
    def test_exp_log_inverse(self):
        f = ser(0, 1, 2, -1, 5, 0, 3)
        assert fps.log_series(fps.exp_series(f)) == f
        g = ser(1, 3, -2, 1, 1, 0, -4)
        assert fps.exp_series(fps.log_series(g)) == g

    def test_exp_needs_zero_constant(self):
        with pytest.raises(BadConstantTerm):
            fps.exp_series(ser(1, 1))
        with pytest.raises(BadConstantTerm):
            fps.log_series(ser(2, 1))

    def test_pow_int(self):
        s = ser(1, 1, 0, 0, 0)
        assert fps.pow_int(s, 4).coeffs == (Fraction(1), Fraction(4), Fraction(6), Fraction(4), Fraction(1))
        assert fps.pow_int(s, 0) == fps.one(4)
        inv = fps.pow_int(s, -1)
        assert fps.mul(inv, s) == fps.one(4)

    def test_pow_ratio_sqrt(self):
        s = fps.add(fps.one(4), fps.scale(fps.mul(fps.t_series(4), fps.t_series(4)), Fraction(1, 4)))
        r = fps.pow_ratio(s, Fraction(1, 2))
        assert fps.mul(r, r) == s
        assert r.coeffs == (Fraction(1), Fraction(0), Fraction(1, 8), Fraction(0), Fraction(-1, 128))

    def test_pow_ratio_needs_unit(self):
        with pytest.raises(NonUnitConstantTerm):
            fps.pow_ratio(ser(2, 1), Fraction(1, 2))


class TestEgfAndJson:
    def test_egf_coeff(self):
        e = fps.exp_series(fps.t_series(8))
        assert all(fps.egf_coeff(e, n) == 1 for n in range(9))
        assert fps.from_egf([Fraction(1)] * 9) == e

    def test_json_round_trip_q(self):
        s = ser(0, 1, Fraction(-1, 2), Fraction(1, 3))
        obj = fps.series_to_json(s)
        assert obj["ring"] == "Q" and obj["order"] == 3 and obj["egf"] is False
        assert fps.series_from_json(json.loads(json.dumps(obj))) == s

    def test_json_round_trip_symbolic(self):
        s = fps.Series(2, [Fraction(0), Fraction(1), 1 - L])
        obj = fps.series_to_json(s)
        back = fps.series_from_json(json.loads(json.dumps(obj)))
        assert back == s and back.ring == sc.RING_QL

    def test_json_egf_flag(self):
        s = ser(1, 1, Fraction(1, 2), Fraction(1, 6))
        obj = fps.series_to_json(s, egf=True)
        assert obj["coeffs"] == ["1", "1", "1", "1"]
        assert fps.series_from_json(obj) == s
