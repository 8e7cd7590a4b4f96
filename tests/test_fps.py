import ast
import json
import math
import pathlib
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, seed, settings
from hypothesis import strategies as hst

from deltaseries import _packed as pk
from deltaseries import classical as cl
from deltaseries import exprparse as ep
from deltaseries import fps
from deltaseries import presets as pr
from deltaseries import scalar as sc
from deltaseries import stirling as st
from deltaseries.errors import (
    BadConstantTerm,
    IndexOutOfOrder,
    NoExactRoot,
    NonUnitConstantTerm,
    NotDelta,
    OrderMismatch,
    ScalarTooLarge,
)
import reference as ref

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

    def test_pad_refuses_a_lower_order(self):
        # truncate refuses to raise the order, pad to lower it; both keep
        # the order they are given when it is the series' own
        for s in (pr.make_preset("bell", 6).f.series, ser(1, 2, 3, 4, 5, 6, 7)):
            with pytest.raises(OrderMismatch, match="cannot pad order 6 to 3"):
                s.pad(3)
            with pytest.raises(OrderMismatch, match="cannot truncate order 6 to 7"):
                s.truncate(7)
            assert s.pad(6) == s == s.truncate(6)

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
        # past the order, on scalars and on a view alike
        for t in (ser(0, 0, 0), fps.zero(2, sc.RING_QL)):
            with pytest.raises(ValueError):
                fps.shift_down(t, 5)
            with pytest.raises(ValueError):
                t.pad(-2)

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
        if not b.coeffs[0]:
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
            gk = fps.power(g, k)
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


def assert_same(got, want):
    # Series.__eq__ ignores the ring and the scalar types, so compare them on their own
    assert got.coeffs == want.coeffs
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
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
    if name == "qlrat_den":  # t/(1+l) + 2t^2 + l t^3/(1+l)^2: l-denominators, P = 1+l
        return fps.DeltaSeries(fps.Series(order, ([0, 1 / (1 + L), 2, L / (1 + L) ** 2] + [0] * order)[:order + 1]))
    # (l+1)t + 2t^2: a non-constant linear term puts it over Q(l)
    return fps.DeltaSeries(fps.Series(order, ([0, L + 1, 2] + [0] * order)[:order + 1]))


def inner_series(name, order):
    """symbolic_inner at any order from 0, as a Series of its ring."""
    return symbolic_inner(name, max(order, 2)).series.truncate(order)


class TestComposeAgainstHorner:
    """The baby-step/giant-step kernel against plain Horner evaluation."""

    @given(compose_pair())
    @settings(max_examples=60, deadline=None)
    def test_compose_q(self, pair):
        g, f = pair
        assert_same(fps.compose(g, f), ref.horner_compose(g, f))

    @pytest.mark.parametrize("n", range(21))
    def test_compose_block_shapes(self, n):
        f = fps.Series(n, [0] + [Fraction(1, i) - 1 for i in range(1, n + 1)])
        for g in outer_shapes(n):
            g = fps.Series(n, g)
            assert_same(fps.compose(g, f), ref.horner_compose(g, f))

    @given(compose_pair())
    @settings(max_examples=30, deadline=None)
    def test_invert_q(self, pair):
        _, f = pair
        if f.order < 1 or f.coeffs[1] == 0:
            return
        f = fps.DeltaSeries(f)
        assert_same(fps.invert_newton(f).series, ref.horner_invert(f).series)

    @pytest.mark.parametrize(
        "name,n", [("deg_falling", 3), ("deg_falling", 8), ("deg_falling", 15), ("qlrat", 3), ("qlrat", 8)]
    )
    def test_symbolic(self, name, n):
        f = symbolic_inner(name, n)
        fbar = fps.invert_newton(f).series
        assert_same(fbar, ref.horner_invert(f).series)
        inners = [f.series, fbar, fps.Series(n, [0, 1, L, 1 - L] + [0] * (n - 3))]
        for g in [fps.Series(n, g) for g in outer_shapes(n)] + [f.series]:
            for h in inners:
                assert_same(fps.compose(g, h), ref.horner_compose(g, h))

    @pytest.mark.parametrize("name,top", [("deg_falling", 20), ("qlrat", 20), ("qlrat_den", 12)])
    def test_symbolic_block_shapes(self, name, top):
        # every block shape at every order from 0, over Q[l] and Q(l)
        for n in range(top + 1):
            f = inner_series(name, n)
            for g in outer_shapes(n):
                g = fps.Series(n, g)
                got = fps.compose(g, f)
                assert_same(got, ref.horner_compose(g, f))
                assert_view(got)

    def test_edge_cases(self):
        Lr = 1 / (1 + L)  # over Q(l), P = 1 + l
        cases = [
            # order 0, in each ring
            (fps.Series(0, [Fraction(2, 3)]), fps.zero(0)),
            (fps.Series(0, [L + 1]), fps.zero(0, sc.RING_QL)),
            (fps.Series(0, [Lr]), fps.zero(0, sc.RING_QLRAT)),
            # a zero outer series
            (fps.zero(9), inner_series("qlrat_den", 9)),
            (fps.zero(9, sc.RING_QLRAT), inner_series("deg_falling", 9)),
            # a zero inner series: g(0) = g[0]
            (fps.Series(7, [L * Lr, 1, Lr, 2, 0, L, 3, 1]), fps.zero(7, sc.RING_QLRAT)),
            (fps.Series(7, [0, 1, Lr, 2, 0, L, 3, 1]), fps.zero(7)),
            # an inner series of valuation 2 over a l-denominator: a negative shift
            (fps.Series(10, [0] * 5 + [1] + [0] * 5), fps.Series(10, [0, 0, Lr] + [0] * 8)),
            (fps.Series(12, [0] * 5 + [1] + [0] * 7), fps.Series(12, [0, 0, Lr, 0, L] + [0] * 8)),
            # an outer series with a l-dependent constant term
            (fps.Series(9, [L / (1 + L) ** 2, 1, L, 0, Lr, 0, 0, 2, 0, 1]), inner_series("qlrat_den", 9)),
            (fps.Series(9, [L ** 2 - 1] + [Fraction(1, i) for i in range(1, 10)]), inner_series("deg_falling", 9)),
        ]
        for g, f in cases:
            got = fps.compose(g, f)
            assert_same(got, ref.horner_compose(g, f))
            assert_view(got)
        # t^5 o t^2/(1+l) is t^10/(1+l)^5, its l-denominator kept least
        got = fps.compose(*cases[7])
        assert got.coeffs == (0,) * 10 + (Lr ** 5,) and got._view[4][10] == 5


def patch_everywhere(monkeypatch, name, wrap):
    """Replace the function `name` by wrap(it) in every package module that
    binds it, as each module looks it up in its own globals."""
    mods = [m for m in (pk, sc, fps, st) if hasattr(m, name)]
    assert mods, name
    real = getattr(mods[0], name)
    for m in mods:
        assert getattr(m, name) is real, (m.__name__, name)
        monkeypatch.setattr(m, name, wrap(real))


def count_calls(monkeypatch, names):
    """A dict of the calls to each of the functions `names`, wherever looked up."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrap(real, name=name):
            def counted(*a, **k):
                calls[name] += 1
                return real(*a, **k)
            return counted
        patch_everywhere(monkeypatch, name, wrap)
    return calls


class TestComposeInOneFrame:
    """A composition runs in one integer frame: the powers of f and the
    Horner chain are int views, not Series, and the chain is brought to
    normal form after every step, which keeps its denominator from
    growing by den(f^k) a step at large orders."""

    @staticmethod
    def pairs(n):
        """(g, f) dense over Q, Q[l] and Q(l) at order n, views already read."""
        dense = [Fraction((-1) ** i * (i + 2), i + 1) for i in range(n + 1)]
        for g, f in ((dense, fps.Series(n, [0] + [Fraction(1, i) - 1 for i in range(1, n + 1)])),
                     ([c * (1 + L * i) for i, c in enumerate(dense)], inner_series("deg_falling", n)),
                     ([c / (1 + L) ** (i % 3) for i, c in enumerate(dense)], inner_series("qlrat_den", n))):
            g = fps.Series(n, g)
            g.view, f.view
            yield g, f

    def test_no_series_between_steps(self, monkeypatch):
        pairs = list(self.pairs(20))
        assert [f.ring for _, f in pairs] == [sc.RING_Q, sc.RING_QL, sc.RING_QLRAT]
        calls = count_calls(monkeypatch, ["mul", "frame", "_out", "_lazy"])
        for g, f in pairs:
            for c in calls:
                calls[c] = 0
            got = fps.compose(g, f)
            # no series product, no frame scan, one Series made, for the result
            assert calls == {"mul": 0, "frame": 0, "_out": 1, "_lazy": 1}, f.ring
            assert_same(got, ref.horner_compose(g, f))

    def test_the_chain_is_normalised_every_step(self, monkeypatch):
        # k = isqrt(d + 1) is 4 for d = 15 and d = 23: the same powers of f,
        # and 15 // 4 = 3 against 23 // 4 = 5 Horner steps
        calls = count_calls(monkeypatch, ["norm"])
        for g23, f in self.pairs(23):
            g15 = fps.Series(23, g23.coeffs[:16] + (0,) * 8, g23.ring)
            g15.view
            norms = []
            for g in (g15, g23):
                calls["norm"] = 0
                fps.compose(g, f)
                norms.append(calls["norm"])
            assert norms[1] - norms[0] >= 2 and norms[1] >= 5, (f.ring, norms)


def log1p_outer(ring, w, n):
    """c t + t^2 (w = 0), t/(1 - c t) (w = 1) and the inverse of t/c + 2 t^2
    (w = 2) to order n, for c = 1/2 over Q, 1 + l over Q[l] and 1/(1 + l)
    over Q(l), where w is the weight of P = 1 + l in the series' frame."""
    c = {"q": Fraction(1, 2), "ql": 1 + L, "qlrat": 1 / (1 + L)}[ring]
    if w == 0:
        cs = [0, c, 1]
    elif w == 1:
        cs = [0] + [c ** (k - 1) for k in range(1, n + 1)]
    else:
        cs = fps.invert_newton(fps.DeltaSeries(fps.Series(n, ([0, 1 / c, 2] + [0] * n)[:n + 1]))).series.coeffs
    return fps.Series(n, (list(cs) + [0] * n)[:n + 1])


class TestComposeLog1p:
    """g(log(1+t)) by the Stirling transform, against composition with
    log(1+t) by the package's kernel and by plain Horner evaluation."""

    RINGS = {"q": sc.RING_Q, "ql": sc.RING_QL, "qlrat": sc.RING_QLRAT}

    @pytest.mark.parametrize("w", [0, 1, 2])
    @pytest.mark.parametrize("ring", ["q", "ql", "qlrat"])
    def test_against_composition(self, ring, w):
        g = log1p_outer(ring, w, 8)
        assert g.ring == self.RINGS[ring]
        if ring == "qlrat":
            assert pk.frame(g.view)[0] == w
        # Horner over a l-denominator takes seconds a case from order 13 on
        top = 12 if ring == "qlrat" else 20
        for n in range(1, 21):
            g = log1p_outer(ring, w, n)
            got = fps.compose_log1p(g)
            assert got.ring == g.ring
            assert_same(got, fps.compose(g, log1p(n)))
            if n <= top:
                assert_same(got, ref.horner_compose(g, log1p(n)))
            assert_view(got)

    def test_edge_cases(self):
        Lr = 1 / (1 + L)
        for g in (fps.Series(0, [Fraction(2, 3)]), fps.Series(0, [Lr]), fps.zero(6), fps.zero(6, sc.RING_QLRAT),
                  # a nonzero constant term, and a lone top term over a l-denominator
                  fps.Series(7, [L * Lr, 1, Lr, 2, 0, L, 3, 1]), fps.Series(9, [0] * 9 + [Lr ** 3]),
                  # every term of coefficient n has the sign (-1)^n: its l-digit meets the width bound
                  fps.Series(16, [0] + [(-1) ** k * L for k in range(1, 17)])):
            got = fps.compose_log1p(g)
            assert_same(got, ref.horner_compose(g, log1p(g.order)))
            assert_view(got)

    def test_weights_are_stirling_numbers(self):
        # n! [t^n] log(1+t)^k = k! s(n, k), the weight of g[k] in coefficient n
        N = 20
        for k in range(N + 1):
            got = fps.compose_log1p(fps.Series(N, [0] * k + [1] + [0] * (N - k)))
            assert [fps.egf_coeff(got, n) for n in range(N + 1)] == \
                [cl.classical_s1(n, k) * math.factorial(k) for n in range(N + 1)], k


PRIMES =[p for p in range(2, 500) if all(p % q for q in range(2, p))]

# zero, small rationals and 1/p-type values whose denominators share no factor
q_coeff = hst.one_of(
    hst.just(Fraction(0)),
    rationals,
    hst.builds(Fraction, hst.integers(-10**12, 10**12), hst.sampled_from(PRIMES[:30])),
    hst.builds(lambda a, b: Fraction(a, b), hst.integers(-99, 99), hst.integers(10**15, 10**15 + 10**6)),
)


@hst.composite
def q_series(draw, order=None, constant=None):
    n = draw(hst.integers(min_value=0, max_value=16)) if order is None else order
    cs = draw(hst.lists(q_coeff, min_size=n + 1, max_size=n + 1))
    zeros = draw(hst.integers(min_value=0, max_value=n + 1))  # leading zero coefficients
    cs = [Fraction(0)] * zeros + cs[zeros:]
    if constant is not None:
        cs[0] = constant
    return fps.Series(n, cs, draw(hst.sampled_from([None, sc.RING_QL])))


@hst.composite
def q_pair(draw):
    a = draw(q_series())
    return a, draw(q_series(order=a.order))


def coprime_series(order, shift, constant=None):
    """[1/p_shift, 1/p_(shift+1), ...]: every coefficient over a new prime."""
    cs = [Fraction((-1) ** i, PRIMES[shift + i]) for i in range(order + 1)]
    if constant is not None:
        cs[0] = constant
    return fps.Series(order, cs)


class TestIntegerKernels:
    """The integer-numerator kernels over Q against the plain Fraction loops.

    Series declared over Q[l] with rational coefficients take the integer
    route too, and must keep their declared ring.
    """

    @given(q_pair())
    @settings(max_examples=80, deadline=None)
    def test_mul(self, pair):
        a, b = pair
        assert_same(fps.mul(a, b), ref.mul(a, b))

    @given(q_pair())
    @settings(max_examples=80, deadline=None)
    def test_div(self, pair):
        a, b = pair
        if not b.coeffs[0]:
            return
        assert_same(fps.div(a, b), ref.div(a, b))

    @given(q_series(constant=Fraction(0)))
    @settings(max_examples=80, deadline=None)
    def test_exp(self, f):
        assert_same(fps.exp_series(f), ref.exp_series(f))

    @given(q_pair())
    @settings(max_examples=60, deadline=None)
    def test_compose(self, pair):
        g, f = pair
        f = fps.Series(f.order, (0,) + f.coeffs[1:], f.ring)
        assert_same(fps.compose(g, f), ref.horner_compose(g, f))

    @given(q_series())
    @settings(max_examples=40, deadline=None)
    def test_invert(self, f):
        if f.order < 1 or not f.coeffs[1]:
            return
        f = fps.DeltaSeries(fps.Series(f.order, (0,) + f.coeffs[1:], f.ring))
        assert_same(fps.invert_newton(f).series, ref.horner_invert(f).series)

    def test_order_zero_and_zero_series(self):
        for n in (0, 5):
            z = fps.zero(n)
            c = fps.constant(Fraction(-3, 7), n)
            assert_same(fps.mul(z, c), ref.mul(z, c))
            assert_same(fps.mul(c, c), ref.mul(c, c))
            assert_same(fps.div(z, c), ref.div(z, c))
            assert_same(fps.div(c, c), ref.div(c, c))
            assert_same(fps.exp_series(z), ref.exp_series(z))
            assert_same(fps.compose(z, z), ref.horner_compose(z, z))
            assert_same(fps.compose(c, z), ref.horner_compose(c, z))

    def test_coprime_denominators_order_40(self):
        a, b = coprime_series(40, 0), coprime_series(40, 41)
        f, g = coprime_series(40, 0, constant=0), coprime_series(40, 41, constant=0)
        assert_same(fps.mul(a, b), ref.mul(a, b))
        assert_same(fps.div(a, b), ref.div(a, b))
        assert_same(fps.exp_series(f), ref.exp_series(f))
        assert_same(fps.compose(a, g), ref.horner_compose(a, g))
        delta = fps.DeltaSeries(f)
        assert_same(fps.invert_newton(delta).series, ref.horner_invert(delta).series)

    def test_mixed_rings_take_the_scalar_route(self):
        a = coprime_series(6, 3)
        b = fps.Series(6, [1, L, 0, Fraction(1, 3) - L, 0, 0, 2])
        assert_same(fps.mul(a, b), ref.mul(a, b))
        assert_same(fps.div(a, b), ref.div(a, b))
        assert_same(fps.div(b, a), ref.div(b, a))
        fa, fb = fps.Series(6, (0,) + a.coeffs[1:]), fps.Series(6, (0,) + b.coeffs[1:])
        assert_same(fps.compose(a, fb), ref.horner_compose(a, fb))
        assert_same(fps.compose(b, fa), ref.horner_compose(b, fa))


# l-coefficients: zero, small rationals, 1/p-type values and heights
# +-(2^k - 1), whose packed sums carry long runs of balanced-digit borrows
HEIGHTS = [2**k - 1 for k in (1, 2, 3, 7, 8, 15, 16, 31, 32, 63, 64, 65)]
l_coeff = hst.one_of(
    hst.just(Fraction(0)),
    rationals,
    hst.builds(Fraction, hst.integers(-10**6, 10**6), hst.sampled_from(PRIMES[:30])),
    hst.builds(lambda h, s: Fraction(s * h), hst.sampled_from(HEIGHTS), hst.sampled_from([1, -1])),
)


@hst.composite
def l_poly(draw, max_deg=6):
    """A canonical scalar of Q[l] of degree <= max_deg (a Fraction when constant)."""
    deg = draw(hst.integers(min_value=0, max_value=max_deg))
    return sc.simplify(sc.LPoly(draw(hst.lists(l_coeff, min_size=deg + 1, max_size=deg + 1))))


def l_rat(max_deg):
    # a Q(l) value with a non-constant denominator
    return hst.builds(lambda p, q: p / (1 + q * L), l_poly(max_deg), l_poly(1))


@hst.composite
def l_series(draw, order=None, max_deg=6, constant=None, qlrat=False, max_order=8):
    """Series over Q[l] (some Q-declared rational, some Q[l]-declared
    rational) with zero coefficients; with qlrat, now and then a Q(l) one."""
    n = draw(hst.integers(min_value=0, max_value=max_order)) if order is None else order
    scalar = l_poly(max_deg)
    if qlrat:
        scalar = hst.one_of(scalar, scalar, l_rat(1))
    cs = draw(hst.lists(hst.one_of(hst.just(Fraction(0)), scalar), min_size=n + 1, max_size=n + 1))
    if constant is not None:
        cs[0] = draw(constant)
    ring = draw(hst.sampled_from([None, sc.RING_QL]))
    s = fps.Series(n, cs)
    return fps.Series(n, cs, ring) if sc.ring_le(s.ring, ring or s.ring) else s


@hst.composite
def operands(draw, count, constant=None, max_deg=6, max_order=8):
    """count series of one order: over Q and Q[l], or (mixed, smaller, as
    the Q(l) loops are slow) with some Q(l) coefficients."""
    mixed = draw(hst.booleans())
    if mixed:
        max_deg, max_order = min(max_deg, 2), min(max_order, 4)
    first = draw(l_series(max_deg=max_deg, max_order=max_order, qlrat=mixed))
    rest = [draw(l_series(order=first.order, max_deg=max_deg, qlrat=mixed,
                          constant=constant(mixed) if constant else None)) for _ in range(count - 1)]
    return [first] + rest


nonzero_rational = hst.one_of(rationals, hst.sampled_from(HEIGHTS)).filter(bool).map(Fraction)


def tight_series(n, deg, h, sign):
    """Every coefficient h(1 + s l + l^2 + s l^3 ...): the packed sums reach
    within a bit of the width the kernels give them."""
    p = sc.LPoly([h * sign ** i for i in range(deg + 1)])
    return fps.Series(n, [p] * (n + 1))


class TestPackedKernels:
    """The packed-integer route over Q and Q[l] against the plain scalar
    loops: coefficients, scalar types and declared rings."""

    @given(operands(2))
    @settings(max_examples=60, deadline=None)
    def test_mul(self, pair):
        a, b = pair
        assert_same(fps.mul(a, b), ref.mul(a, b))

    @given(operands(2, constant=lambda mixed: hst.one_of(
        # a rational constant term keeps Q[l]; an l-polynomial one goes to Q(l)
        nonzero_rational, l_poly(1).filter(bool) if mixed else nonzero_rational)))
    @settings(max_examples=60, deadline=None)
    def test_div(self, pair):
        a, b = pair
        assert_same(fps.div(a, b), ref.div(a, b))

    @given(operands(1))
    @settings(max_examples=60, deadline=None)
    def test_exp(self, one):
        f = fps.Series(one[0].order, (0,) + one[0].coeffs[1:], one[0].ring)
        assert_same(fps.exp_series(f), ref.exp_series(f))

    @given(operands(2, max_deg=3, max_order=6))
    @settings(max_examples=30, deadline=None)
    def test_compose(self, pair):
        g, f = pair
        f = fps.Series(f.order, (0,) + f.coeffs[1:], f.ring)
        assert_same(fps.compose(g, f), ref.horner_compose(g, f))

    @given(operands(1, max_deg=2, max_order=6), hst.one_of(nonzero_rational, nonzero_rational, l_poly(1).filter(bool)))
    @settings(max_examples=25, deadline=None)
    def test_invert(self, one, f1):
        s = one[0]
        if s.order < 1:
            return
        f = fps.DeltaSeries(fps.Series(s.order, (0, f1) + s.coeffs[2:], sc.join_ring(s.ring, sc.ring_of(f1))))
        assert_same(fps.invert_newton(f).series, ref.horner_invert(f).series)

    @given(operands(1, max_deg=3))
    @settings(max_examples=40, deadline=None)
    def test_power_rows(self, one):
        base = fps.Series(one[0].order, (0,) + one[0].coeffs[1:], one[0].ring)
        got = st._power_rows(base, base.order)
        want = ref.power_rows(base, base.order)
        assert got == want
        assert [[type(c) for c in r] for r in got] == [[type(c) for c in r] for r in want]

    @pytest.mark.parametrize("h", [2**3 - 1, 2**31 - 1, 2**64 - 1])
    def test_sums_at_the_edge_of_the_width(self, h):
        for n in (0, 1, 2, 3, 6):
            for deg in (1, 2, 3, 6):
                for sign in (1, -1):
                    a = tight_series(n, deg, h, sign)
                    b = tight_series(n, deg, -h, sign)
                    assert_same(fps.mul(a, b), ref.mul(a, b))
                    assert_same(fps.mul(b, b), ref.mul(b, b))
                    g = fps.Series(n, a.coeffs, sc.RING_QL)
                    f = fps.Series(n, (0,) + b.coeffs[1:])
                    assert_same(fps.compose(g, f), ref.horner_compose(g, f))

    @pytest.mark.parametrize("h", [1, 2**7 - 1, 2**40 - 1])
    def test_comtet_at_the_edge_of_the_width(self, h):
        # monomial l-coefficients leave no cancellation: the top entry of
        # every sum equals its l1 norm
        for n in (1, 4, 9):
            for base in (fps.Series(n, [0] + [h * L] * n), fps.Series(n, [0] + [-h * L**2] * n)):
                assert st._power_rows(base, n) == ref.power_rows(base, n)

    def test_recurrence_sums_at_the_edge_of_the_width(self):
        # a / b = x for b = 1 + h t + h t^2 + ... and a[n] = x (1 + h n): the
        # step-n sum is h n x, n equal terms over a constant c = b
        n = 31
        for h in (1, 2**16 - 1):
            for x in (1 + L, 2**31 - 1 - (2**31 - 1) * L**2):
                a = fps.Series(n, [x * (1 + h * m) for m in range(n + 1)])
                b = fps.Series(n, [1] + [h] * n)
                assert_same(fps.div(a, b), ref.div(a, b))

    def test_block_sums_at_the_edge_of_the_width(self):
        # f^j[i] = C(i-1, j-1) for f = t + t^2 + ...: the k baby steps add up
        # at one index to more than the largest of them; the lone l-term
        # makes the steps polynomials in l
        n, h = 25, 2**40 - 1
        g = fps.Series(n, [h] * (n + 1))
        f = fps.Series(n, [0] + [1] * (n - 1) + [1 + L])
        assert_same(fps.compose(g, f), ref.horner_compose(g, f))

    def test_recurrences_widen_as_outputs_grow(self):
        # the outputs outgrow the first width many times over
        n = 24
        h = 2**20 - 1
        a = fps.Series(n, [1 + h * L + L**2] + [h * L**3 - L] * n)
        b = fps.Series(n, [Fraction(1, 3)] + [Fraction(h, 7) * L - h] * n)
        assert_same(fps.div(a, b), ref.div(a, b))
        f = fps.Series(n, [0] + [h * L**2 - Fraction(1, 5)] * n)
        assert_same(fps.exp_series(f), ref.exp_series(f))


# Denominator families for Q(l): a linear P, an irreducible quadratic, a
# reducible squarefree P = l^2 - l (trial division by P leaves a factor of
# it, so the gcd fallback runs), and coprime factors mixed.
DEN_FAMILIES = {
    "linear": [1 + 2 * L],
    "irreducible": [L**2 + 1],
    "reducible": [L, L - 1],
    "mixed": [L + 1, L - 2, L**2 + 1],
}


# Every shrink step of a failing Q(l) example reruns the reference scalar
# loops on LRats, which kept a failure unreported for many minutes: the
# tests that check against them report the first failing example unshrunk.
NO_SHRINK = [p for p in Phase if p is not Phase.shrink]


@hst.composite
def qlrat_scalar(draw, factors):
    """p / prod q^e over the given factors q, e in 0..2: often in Q(l)."""
    den = Fraction(1)
    for q in factors:
        den = den * q ** draw(hst.integers(min_value=0, max_value=2))
    return draw(l_poly(2)) / den


@hst.composite
def qlrat_series(draw, factors, order, constant=None):
    cs = draw(hst.lists(hst.one_of(hst.just(Fraction(0)), qlrat_scalar(factors)), min_size=order + 1,
                        max_size=order + 1))
    if constant is not None:
        cs[0] = draw(constant)
    return fps.Series(order, cs)


@hst.composite
def qlrat_operands(draw, count, max_order=5, constant=None):
    """count series of one order whose l-denominators come from one family."""
    factors = DEN_FAMILIES[draw(hst.sampled_from(sorted(DEN_FAMILIES)))]
    n = draw(hst.integers(min_value=0, max_value=max_order))
    return [draw(qlrat_series(factors, n, constant(factors) if constant and i else None)) for i in range(count)]


def nonzero_constant(factors):
    """A divisor's constant term: rational, a non-constant polynomial (its
    factors join P), a Q(l) value, or the square (1 + l)^2."""
    return hst.one_of(nonzero_rational, l_poly(2).filter(lambda p: p.__class__ is sc.LPoly),
                      qlrat_scalar(factors).filter(bool), hst.just((1 + L) ** 2))


class TestRationalFunctionKernels:
    """The packed route over Q(l), where every coefficient lies over
    den P^(w i + s), against the plain scalar loops: coefficients, scalar
    types and declared rings."""

    @given(qlrat_operands(2))
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    def test_mul_add_sub(self, pair):
        a, b = pair
        assert_same(fps.mul(a, b), ref.mul(a, b))
        assert_same(fps.add(a, b), ref.add(a, b))
        assert_same(fps.sub(a, b), ref.sub(a, b))

    # the operands whose reference quotient took seconds in LRat gcds
    # while lpoly_gcd ran Euclid over Fractions
    @example([fps.Series(4, [(4 * L - 4294967295) / (L**4 - 4 * L**3 + 5 * L**2 - 4 * L + 4), 0, 0,
                             (L**2 + 4294967295) / (L**6 - 2 * L**5 - 2 * L**4 + 2 * L**3 + L**2 + 4 * L + 4),
                             (127 - 4294967295 * L) / (L**2 - L - 2)]),
              fps.Series(4, [1, (Fraction(2509, 37) + Fraction(205493, 101) * L**2)
                             / (L**8 - 2 * L**7 - L**6 - L**4 + 6 * L**3 + 5 * L**2 + 4 * L + 4), 0, 0, 0])])
    @given(qlrat_operands(2, max_order=4, constant=nonzero_constant))
    @settings(max_examples=25, deadline=None, phases=NO_SHRINK)
    def test_div(self, pair):
        a, b = pair
        assert_same(fps.div(a, b), ref.div(a, b))

    def test_div_zero_terms_by_lambda_constant(self):
        # a sum's zero terms are empty polynomials in its view, and
        # 1/b[0] = l/2 is not constant, so the recurrence multiplies []
        a = fps.add(fps.Series(3, [L, 0, 0, 0]), fps.one(3))
        assert a.view[0][1:] == [[], [], []]
        b = fps.Series(3, [sc.LRat(sc.LPoly((2,)), L), 0, 0, 0])
        q = fps.div(a, b)
        assert_same(q, ref.div(a, b))
        assert q.coeffs[0] == (L + 1) * L / 2 and not any(q.coeffs[1:])

    @given(qlrat_operands(1))
    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    def test_exp(self, one):
        f = fps.Series(one[0].order, (0,) + one[0].coeffs[1:])
        assert_same(fps.exp_series(f), ref.exp_series(f))

    @given(qlrat_operands(2, max_order=4))
    @settings(max_examples=25, deadline=None, phases=NO_SHRINK)
    def test_compose(self, pair):
        g, f = pair
        f = fps.Series(f.order, (0,) + f.coeffs[1:])
        assert_same(fps.compose(g, f), ref.horner_compose(g, f))

    @given(qlrat_operands(1, max_order=4), hst.sampled_from([1 + 2 * L, (1 + L) ** 2, L**2 + 1, L**2 - L,
                                                             (L + 1) / (L - 2), Fraction(-3, 2)]))
    @settings(max_examples=20, deadline=None, phases=NO_SHRINK)
    def test_invert(self, one, f1):
        s = one[0]
        if s.order < 1:
            return
        f = fps.DeltaSeries(fps.Series(s.order, (0, f1) + s.coeffs[2:]))
        assert_same(fps.invert_newton(f).series, ref.horner_invert(f).series)

    @given(qlrat_operands(1, max_order=5))
    @settings(max_examples=25, deadline=None, phases=NO_SHRINK)
    def test_power_rows(self, one):
        base = fps.Series(one[0].order, (0,) + one[0].coeffs[1:], one[0].ring)
        got = st._power_rows(base, base.order)
        want = ref.power_rows(base, base.order)
        assert got == want
        assert [[type(c) for c in r] for r in got] == [[type(c) for c in r] for r in want]

    def test_reducible_base_takes_the_gcd(self):
        # P = l^2 - l: after P is stripped from (l - 1)^2 / P^2 a factor of P is left
        a = fps.Series(2, [1 / L**2, 1 / (L - 1), L / (L**2 - L) ** 3])
        b = fps.Series(2, [1, L, 1 / L])
        assert_same(fps.mul(a, b), ref.mul(a, b))
        assert_same(fps.div(a, b), ref.div(a, b))

    def test_sum_reduces_only_ties(self, monkeypatch):
        # P = 1 + l divides a sum only where both terms lie over one positive
        # power of it: with disjoint supports no sum is trial-divided
        P = 1 + L
        a = fps.Series(4, [1 / P, 0, (2 - L) / P**3, 0, L / P**2])
        b = fps.Series(4, [0, (3 + L) / P**2, 0, 1 / P, 0])
        c = fps.Series(4, [L / P, 0, (1 - L) / P**2, 0, 2 / P**2])
        for s in (a, b, c):
            s.view
        calls = []
        patch_everywhere(monkeypatch, "pdiv", lambda pdiv: lambda *args: calls.append(args) or pdiv(*args))
        got = [fps.add(a, b), fps.sub(b, a)]
        assert not calls
        # the tie at index 0 cancels P, the one at index 4 does not, and
        # index 2 is no tie: one trial division each at 0 and 4
        got.append(fps.add(a, c))
        assert len(calls) == 2
        monkeypatch.undo()
        for s, want in zip(got, [ref.add(a, b), ref.sub(b, a), ref.add(a, c)]):
            assert_same(s, want)
            assert_view(s)


class TestLambdaDenominators:
    """The structure the Q(l) route relies on: Lagrange inversion puts the
    n-th coefficient of fbar over a divisor of f1^(2n-1), and so e^fbar - 1."""

    # the shapes of the benchmark's Q(l) expressions, and (1+l)t + t^2/(1-t)
    EXPRS = ["(lambda+1)*t+2*t^2", "(lambda-1)*t-2*t^2", "lambda*t-t^2", "lambda*t+t^2",
             "(lambda+2)*t/(1-t)", "(lambda-2)*t/(1+t)", "(lambda+1)*t+2*t^3", "(lambda-1)*t-2*t^3",
             "(1+lambda)*t + t^2/(1-t)"]

    @pytest.mark.parametrize("text", EXPRS)
    def test_denominators_divide_powers_of_f1(self, text):
        n = 10
        f = ep.require_delta(ep.eval_expr(ep.parse(text), n, "symbolic"))
        f1 = f[1]
        fbar = fps.invert_newton(f).series
        base = fps.sub(fps.exp_series(fbar), fps.one(n, fbar.ring))
        for s in (fbar, base):
            for m in range(1, n + 1):
                c = s[m]
                if c.__class__ is sc.LRat:
                    assert not (f1 ** (2 * m - 1)).divmod(c.den)[1], (text, m)

    def test_reference_inverse_matches_lagrange(self):
        f = ep.require_delta(ep.eval_expr(ep.parse("(1+lambda)*t + t^2/(1-t)"), 10, "symbolic"))
        fbar = fps.invert_newton(f).series
        assert [fps.lagrange_coeff_inverse(f, m) for m in range(1, 11)] == list(fbar.coeffs[1:])


class TestTightFrames:
    """frame chooses the weight w and the shifts together, so a series
    whose constant term carries powers of P is not viewed over a frame
    much steeper than its exponents."""

    def test_frame_fits_weight_and_shift_together(self):
        n = 6
        x = fps.power(fps.div(fps.one(n), fps.Series(n, [(1 + L) ** 2, 1] + [0] * (n - 1))), 8)
        v = x.view
        assert v[3] == (1, 1) and v[4] == [2 * i + 16 for i in range(n + 1)]
        assert pk.frame(v) == (2, [16])

    def test_lagrange_coefficient_with_a_square_linear_term(self):
        import time
        n = 20
        f = fps.DeltaSeries(fps.Series(n, [0, (1 + L) ** 2, 1] + [0] * (n - 2)))
        t0 = time.perf_counter()
        c = fps.lagrange_coeff_inverse(f, n)
        assert time.perf_counter() - t0 < 0.5
        assert c == fps.invert_newton(f).series[n]


# name: (declared ring, coefficients from t^0 on, top order, highest order
# also checked against horner_invert, whose scalar loops slow down over Q(l));
# each top lies above the Lagrange base case, at 32 over Q and Q[l] and at
# fps._DILATED_TOP over Q(l), so that the orders past it take Newton steps
NEWTON_CASES = {
    "q-linear": (None, [0, Fraction(-3, 2)], 40, 20),
    "q-f2-zero": (None, [0, 2, 0] + [Fraction((-1) ** i, i) for i in range(3, 41)], 40, 20),
    "q-dense": (None, [0, Fraction(3, 2)] + [Fraction((-1) ** i * (i + 2), i + 1) for i in range(2, 41)], 40, 20),
    "ql-linear": (sc.RING_QL, [0, 3], 40, 20),
    "ql-f2-zero": (None, [0, 1, 0] + [L ** (i % 3) - i for i in range(3, 41)], 40, 12),
    "ql-dense": (None, [0, -2] + [(1 - L) ** (i % 2) * Fraction(1, i) for i in range(2, 41)], 40, 12),
    "qlrat-linear": (None, [0, (1 + L) ** 2], 20, 20),
    "qlrat-f2-zero": (None, [0, (1 + L) ** 2, 0, 0, 1], 20, 20),
    "qlrat-dense": (None, [0, (1 + L) ** 2, 1, 1, Fraction(-1, 2), L], 20, 10),
    # f1 = 1 + l with l-denominators coprime to it: the joint P is their product
    "qlrat-coprime": (None, [0, 1 + L, 0, 1 / (2 - L), 0, 1 / (1 + L * L)], 20, 6),
    "qlrat-f1-lambda": (None, [0, L, 1, Fraction(-1, 2), 1 - L], 20, 8),
    # 1/f1 rational, so P comes from the later terms alone
    "qlrat-f1-rational": (None, [0, Fraction(2, 3), 0, 1 / (1 + L), L, Fraction(1, 3) / (1 - L) ** 2], 20, 8),
    # f1 = l (l + 1), two distinct factors, and a later l-denominator coprime to it
    "qlrat-two-factors": (None, [0, L * (L + 1), 1, 0, 1 / (2 - L), L], 20, 8),
    # (l + 2) t / (1 - t): f1 divides every coefficient, so the dilation has w = 0
    "qlrat-w0": (None, [0] + [L + 2] * 20, 20, 12),
}


def newton_case(name, n):
    ring, cs, _, _ = NEWTON_CASES[name]
    cs = (cs + [0] * n)[:n + 1]
    return fps.DeltaSeries(fps.Series(n, cs, ring))


def over_p1(f):
    """Whether neither f nor 1/f[1] has an l-denominator (P = 1)."""
    return f[1].__class__ is Fraction and not any(c.__class__ is sc.LRat for c in f.series.coeffs)


def rungs(n, top):
    """The precisions that climb to n by halving, ceil(m/2) below each m,
    down to but not including the first one at or below top."""
    ms = []
    while n > top:
        ms.append(n)
        n = -(-n // 2)
    return ms[::-1]


def base_top(f):
    """The highest order of the base case of invert_newton on f: 32 over
    P = 1, and over Q(l) that of the dilated series it inverts."""
    return fps._LAGRANGE_TOP if over_p1(f) else fps._DILATED_TOP


@hst.composite
def small_poly(draw, max_deg):
    """A canonical scalar of Q[l] of degree <= max_deg with small coefficients."""
    cs = draw(hst.lists(hst.builds(Fraction, hst.integers(-4, 4), hst.integers(1, 3)), min_size=1,
                        max_size=max_deg + 1))
    return sc.simplify(sc.LPoly(cs))


@hst.composite
def qlrat_delta(draw):
    """A delta series over Q(l) whose f1 is a nonconstant l-polynomial,
    now and then with a squared factor; its later coefficients are zero,
    l-polynomials, multiples of f1 or, in half the draws, values over the
    factors of one denominator family.  Of order 1..10, or 1..8 with
    l-denominators, where the reference's gcds slow down; small
    coefficients keep them fast."""
    q = draw(small_poly(2).filter(lambda p: p.__class__ is sc.LPoly))
    f1 = q * draw(hst.sampled_from([1, 1, q, 1 + L]))
    scalar = hst.one_of(small_poly(2), small_poly(1).map(lambda p: p * f1))
    dens = draw(hst.booleans())
    if dens:
        factors = DEN_FAMILIES[draw(hst.sampled_from(sorted(DEN_FAMILIES)))]
        scalar = hst.one_of(scalar, hst.builds(lambda p, q, e: p / q ** e, small_poly(1), hst.sampled_from(factors),
                                               hst.integers(1, 2)))
    n = draw(hst.integers(min_value=1, max_value=8 if dens else 10))
    cs = draw(hst.lists(hst.one_of(hst.just(Fraction(0)), scalar), min_size=n - 1, max_size=n - 1))
    return fps.DeltaSeries(fps.Series(n, [0, f1] + cs))


class TestNewtonStep:
    """The step g - t^(h+1) (f(g)[h+1..m] g') of invert_newton at every
    order, so that the last step often has m < 2h, against the
    f'(g)-and-division step of tests/reference.py and Lagrange inversion.
    The steps run over P = 1 only, from the first rung at or below the
    base case's top order, made by Lagrange inversion: 32 over Q and Q[l];
    over Q(l) they invert the dilated series G(t) = f(P^w t) / (P^w f1)
    from the top fps._DILATED_TOP."""

    @pytest.mark.parametrize("name", sorted(NEWTON_CASES))
    def test_every_order(self, name):
        _, _, top, horner = NEWTON_CASES[name]
        f_top = newton_case(name, top)
        # the inverse at order n is that at the top order, truncated
        lag = [fps.lagrange_coeff_inverse(f_top, m) for m in range(1, top + 1)]
        for n in range(1, top + 1):
            f = newton_case(name, n)
            got = fps.invert_newton(f).series
            assert_same(got, fps.Series(n, [0] + lag[:n], f.ring))
            if n <= horner:
                assert_same(got, ref.horner_invert(f).series)

    @given(qlrat_delta())
    @seed(29)
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    def test_dilated_inverse_against_horner(self, f):
        # the Q(l) route, the inverse of the dilated series read back over
        # P, against the reference's scalar steps, which share no kernel
        assert_same(fps.invert_newton(f).series, ref.horner_invert(f).series)

    def test_one_evaluation_and_no_division_a_step(self, monkeypatch):
        calls = []
        for kernel in ("_eval_at_powers", "div", "mul", "_window", "_recurrence"):
            real = getattr(fps, kernel)
            monkeypatch.setattr(fps, kernel, lambda *a, real=real, kernel=kernel: calls.append(kernel) or real(*a))
        for name, (_, _, top, _) in NEWTON_CASES.items():
            f = newton_case(name, top)
            # two steps above the base case at 65 over P = 1, at 33 over Q(l)
            for n in (1, 2, 3, 5, 8, 9, top, 33) + ((65,) if over_p1(f) else ()):
                f = newton_case(name, n)
                calls.clear()
                fps.invert_newton(f)
                # one recurrence (h = t/f) for the base case, then one
                # evaluation for each rung above it
                assert calls == ["_recurrence"] + ["_eval_at_powers"] * len(rungs(n, base_top(f))), (name, n)

    @staticmethod
    def precisions(monkeypatch, f):
        """The order m0 of the base case and the precision m of each step,
        read from the length of h = t/f and from the prefix of f each step
        evaluates."""
        m0, ms = [], []
        real, rec = fps._eval_at_powers, fps._recurrence
        monkeypatch.setattr(fps, "_eval_at_powers", lambda vg, vf: ms.append(len(vg[0]) - 1) or real(vg, vf))
        monkeypatch.setattr(fps, "_recurrence", lambda u, *a: m0.append(len(u[0])) or rec(u, *a))
        fps.invert_newton(f)
        assert len(m0) == 1
        return m0[0], ms

    @pytest.mark.parametrize("n, ladder", [(12, [2, 3, 6, 12]), (17, [2, 3, 5, 9, 17]), (2, [2]), (1, [])]
                             + [(2 ** j, [2 ** i for i in range(1, j + 1)]) for j in range(2, 7)])
    def test_halving_ladder(self, monkeypatch, n, ladder):
        # from a base case at order 1, t/f1, the steps climb ..., ceil(n/4),
        # ceil(n/2), n; at a power of two that is the doubling schedule 2, 4, 8, ...
        monkeypatch.setattr(fps, "_LAGRANGE_TOP", 1)
        assert self.precisions(monkeypatch, newton_case("q-linear", n)) == (1, ladder)

    @pytest.mark.parametrize("n, m0, ladder", [(1, 1, []), (12, 12, []), (32, 32, []), (33, 17, [33]),
                                               (64, 32, [64]), (65, 17, [33, 65]), (100, 25, [50, 100]),
                                               (128, 32, [64, 128]), (129, 17, [33, 65, 129])])
    def test_halving_ladder_above_the_base_case(self, monkeypatch, n, m0, ladder):
        # over Q and Q[l] Lagrange inversion makes the first rung at or
        # below 32, and the steps climb the rungs above it
        for name in ("q-dense",) + (("ql-dense",) if n <= 65 else ()):
            assert self.precisions(monkeypatch, newton_case(name, n)) == (m0, ladder), name

    def test_no_step_above_the_doubling_schedule(self, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(fps, "_LAGRANGE_TOP", 1)
            for n in range(1, 80):
                m0, ms = self.precisions(mp, newton_case("q-linear", n))
                assert m0 == 1 and len(ms) == (n - 1).bit_length() and (n == 1 or ms[-1] == n), n
                # each step at most doubles, and none is above min(2^(i+1), n)
                assert all(m <= 2 * h for h, m in zip([1] + ms, ms)), (n, ms)
                assert all(m <= min(2 ** (i + 1), n) for i, m in enumerate(ms)), (n, ms)
        for name, top in (("q-linear", 140), ("qlrat-linear", 80)):
            for n in range(1, top):
                f = newton_case(name, n)
                m0, ms = self.precisions(monkeypatch, f)
                # exactly the rungs above the base case, and each step at most doubles
                assert ms == rungs(n, base_top(f)) and m0 == (-(-ms[0] // 2) if ms else n) <= base_top(f), \
                    (name, n, m0, ms)
                assert all(m <= 2 * h for h, m in zip([m0] + ms, ms)), (name, n, m0, ms)

    @pytest.mark.parametrize("pid, n", [("deg_falling", 17), ("deg_falling", 33), ("bell", 65)])
    def test_ladder_against_lagrange(self, pid, n):
        # orders just above a power of two, where the ladder and the doubling
        # schedule part most
        f = pr.make_preset(pid, n, pr.LAMBDA_SYMBOLIC if pr.is_degenerate(pid) else pr.LAMBDA_ABSENT).f
        got = fps.invert_newton(f).series
        assert list(got.coeffs) == [0] + [fps.lagrange_coeff_inverse(f, m) for m in range(1, n + 1)]
        assert got.ring == f.ring

    @pytest.mark.parametrize("name", ["q-dense", "ql-dense", "qlrat-dense"])
    def test_one_frame_and_one_series_an_inverse(self, monkeypatch, name):
        # the iterate, f(g) and the correction stay int views, as do f's
        # dilation and its inverse over Q(l): no Series kernel runs, and the
        # inverse is the only Series made (every Series passes through
        # _set), but for h = t/f, which the base case makes by one
        # _recurrence; its powers are views too; at order 40 one step climbs
        # above 32, and over Q(l) two or three steps climb above 8
        names = ["compose", "mul", "sub", "_window", "derivative", "div", "_recurrence", "_eval_at_powers", "_set"]
        calls = dict.fromkeys(names, 0)
        for kernel in names:
            real = getattr(fps, kernel)

            def counted(*a, real=real, kernel=kernel):
                calls[kernel] += 1
                return real(*a)
            monkeypatch.setattr(fps, kernel, counted)
        for n in (20, 40):
            f = newton_case(name, n)
            for c in calls:
                calls[c] = 0
            got = fps.invert_newton(f).series
            assert calls["_set"] <= 2 and not any(calls[c] for c in names[:6]), calls
            assert (calls["_recurrence"], calls["_eval_at_powers"]) == (1, len(rungs(n, base_top(f)))), calls
            assert got.ring == f.ring and got.order == n


# P = 1 families for the Lagrange base case: coefficient i >= 1 of f
BASE_CASES = {
    "q-f1-one": lambda i: Fraction((-1) ** (i - 1), i),  # log(1 + t)
    "q-f1-rational": lambda i: Fraction(-5, 3) if i == 1 else Fraction(i % 5 - 2, i + 1),
    "ql-f1-one": lambda i: L ** (i - 1) * Fraction(1, math.factorial(i)),  # (e^(l t) - 1) / l
    "ql-f1-rational": lambda i: Fraction(2, 3) if i == 1 else (1 - i * L) * Fraction(1, i),
}


def base_case(name, n):
    return fps.DeltaSeries(fps.Series(n, [0] + [BASE_CASES[name](i) for i in range(1, n + 1)]))


@hst.composite
def p1_delta(draw):
    """A delta series over Q or Q[l] with a rational f1 (so P = 1), of order 1..34."""
    n = draw(hst.integers(min_value=1, max_value=34))
    s = draw(l_series(order=n, max_deg=draw(hst.sampled_from([0, 1])), constant=hst.just(Fraction(0))))
    cs = list(s.coeffs)
    cs[1] = draw(nonzero_rational)
    return fps.DeltaSeries(fps.Series(n, cs, s.ring))


class TestLagrangeBase:
    """The base case of invert_newton over Q and Q[l], Lagrange inversion in
    baby and giant steps up to order 32, against routes that share no part
    of it: the reference's scalar Newton step, which keeps f'(g) and the
    division, and the single-coefficient formula, which reads Miller's power."""

    @pytest.mark.parametrize("name", sorted(BASE_CASES))
    def test_against_horner(self, name):
        for n in range(1, 21):
            f = base_case(name, n)
            assert_same(fps.invert_newton(f).series, ref.horner_invert(f).series)

    @pytest.mark.parametrize("name", sorted(BASE_CASES))
    def test_against_miller(self, name):
        # through the cutoff 32 and the rungs 33 and 65 just above it; the
        # dense Q[l] family's Newton steps at 64 and 65 take seconds, so it
        # stops at 40
        orders = list(range(1, 41)) + ([] if name == "ql-f1-rational" else [64, 65])
        top = orders[-1]
        lag = [fps.lagrange_coeff_inverse(base_case(name, top), m) for m in range(1, top + 1)]
        for n in orders:
            f = base_case(name, n)
            got = fps.invert_newton(f).series
            assert list(got.coeffs) == [0] + lag[:n] and got.ring == f.ring, (name, n)

    def test_the_view_newton_leaves(self, monkeypatch):
        # the base case leaves the very view that Newton's steps from t/f1
        # leave, a zero as [0] included, so every later kernel reads the
        # same ints
        for name in [m for m in NEWTON_CASES if not m.startswith("qlrat")]:
            for n in range(1, 21):
                f = newton_case(name, n)
                monkeypatch.setattr(fps, "_LAGRANGE_TOP", 1)
                want = fps.invert_newton(f).series.view
                monkeypatch.setattr(fps, "_LAGRANGE_TOP", 32)
                assert fps.invert_newton(f).series.view == want, (name, n)

    @given(p1_delta())
    @seed(24)
    @settings(max_examples=30, deadline=None)
    def test_inverse_composes_to_t(self, f):
        g = fps.invert_newton(f).series
        assert fps.compose(f.series, g) == fps.t_series(f.order)


@hst.composite
def balanced_digits(draw):
    """(p, B): up to 80 digits in [-2^(B-1), 2^(B-1)), the extremes often."""
    B = draw(hst.integers(min_value=2, max_value=70))
    h = 1 << (B - 1)
    digit = hst.one_of(hst.integers(-h, h - 1), hst.sampled_from([-h, 1 - h, 0, h - 2, h - 1]))
    n = draw(hst.integers(min_value=0, max_value=80))
    p = draw(hst.lists(digit, min_size=n, max_size=n))
    while p and not p[-1]:
        p.pop()
    return p, B


@given(balanced_digits())
@settings(max_examples=100, deadline=None)
def test_pack_round_trip(pB):
    # long polynomials take the halving path of pack and unpack
    p, B = pB
    assert pk.pack(p, B) == sum(c << B * i for i, c in enumerate(p))
    assert pk.unpack(pk.pack(p, B), B) == p


def test_reference_shares_no_kernel():
    """tests/reference.py reads nothing of fps or stirling but the Series
    and DeltaSeries types, nothing of _packed, and neither the int view a
    Series keeps nor scalar's bridge to views, so no kernel can become part
    of its own oracle."""
    kinds = {"Series", "DeltaSeries"}
    allowed = {"deltaseries.fps": kinds, "deltaseries.stirling": kinds, "deltaseries._packed": set()}
    tree = ast.parse(pathlib.Path(ref.__file__).read_text())
    names = {}  # local names bound to a guarded module, and the module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import deltaseries...` would reach every module by attribute
            assert not any(a.name.split(".")[0] == "deltaseries" for a in node.names), ast.unparse(node)
        elif isinstance(node, ast.ImportFrom):
            if node.module in allowed:
                assert all(a.name in allowed[node.module] for a in node.names), ast.unparse(node)
            elif node.module == "deltaseries":
                names.update({a.asname or a.name: "deltaseries." + a.name for a in node.names
                              if "deltaseries." + a.name in allowed})
    assert "deltaseries.fps" in names.values()  # the check below sees the module
    used = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id in names]
    wrong = sorted({n.attr for n in used if n.attr not in allowed[names[n.value.id]]})
    assert not wrong, wrong
    # every other use of the module name (getattr(fps, ...), an alias) is refused
    bare = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in names]
    assert len(bare) == len(used)
    # nor does it read the int view a Series keeps, the ints of an LPoly or
    # scalar's bridge between scalars and views, by attribute or by name
    private = {"_view", "view", "_coeffs", "xs", "int_view", "int_part", "int_base", "view_scalars"}
    assert not [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr in private]
    assert not [n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in private]
    assert not [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value in private]


def test_modules_read_no_private_names_of_each_other():
    """No module of the package imports an underscore name of another, or
    reads one as an attribute (or by getattr) of a module it imported; the
    packed-integer layer lives behind the public names of ``_packed``.  The
    imports between the modules go one way, and ``_packed`` imports only
    the standard library."""
    pkg = pathlib.Path(fps.__file__).parent
    deps, wrong = {}, []
    for path in sorted(pkg.glob("*.py")):
        tree, name = ast.parse(path.read_text()), path.stem
        mods = {}  # local names bound to a package module
        deps[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                wrong += [(name, a.name) for a in node.names if a.name.split(".")[0] == "deltaseries"]
            elif isinstance(node, ast.ImportFrom) and node.level:
                assert node.level == 1, ast.unparse(node)
                if node.module is None:  # from . import fps
                    mods.update({a.asname or a.name: a.name for a in node.names})
                    deps[name] |= {a.name for a in node.names}
                else:
                    deps[name].add(node.module)
                    wrong += [(name, node.module + "." + a.name) for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "deltaseries":
                wrong.append((name, node.module))  # the package by its absolute name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in mods and node.attr.startswith("_"):
                wrong.append((name, mods[node.value.id] + "." + node.attr))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("getattr", "hasattr") \
                    and getattr(node.args[0], "id", None) in mods:
                wrong.append((name, ast.unparse(node)))
    assert not wrong, wrong
    assert deps["_packed"] == set()
    stdlib = set(sys.stdlib_module_names) | {"__future__"}
    packed = ast.parse((pkg / "_packed.py").read_text())
    for node in ast.walk(packed):
        if isinstance(node, ast.Import):
            assert {a.name.split(".")[0] for a in node.names} <= stdlib, ast.unparse(node)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in stdlib, ast.unparse(node)
    # no cycle: every module can be put after all it imports
    del deps["__init__"]
    done = set()
    while deps:
        ready = [m for m, d in deps.items() if d <= done]
        assert ready, deps
        done |= set(ready)
        for m in ready:
            del deps[m]


def test_one_module_checks_a_power():
    """fps.power owns every refusal of a power: no other module of the
    package reads scalar.check_power_size or scalar.rat_nth_root, by
    attribute, name or import, and the parser imports none of the errors
    of a power's constant term."""
    pkg = pathlib.Path(fps.__file__).parent
    owned = {"check_power_size", "rat_nth_root"}
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        read |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        if path.stem == "fps":
            assert read >= owned  # the check below sees how fps reads them
        else:
            assert not read & owned, (path.stem, read & owned)
    tree = ast.parse((pkg / "exprparse.py").read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not imported & {"BadConstantTerm", "NoExactRoot"}


def test_modules_import_nothing_unused():
    """Every name a module of the package imports is read in it, or, in
    ``__init__``, exported through ``__all__``."""
    pkg = pathlib.Path(fps.__file__).parent
    unused = []
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = [a.asname or a.name.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                 for a in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
                used |= set(ast.literal_eval(node.value))
        unused += [(path.stem, name) for name in bound if name not in used]
    assert not unused, unused


# Read by no module of the package: the oracles the tests check the kernels
# against, pow_ratio (read by the benchmark's checks) and the README API.
UNREAD_KEPT = {("fps", "lagrange_coeff_general"), ("fps", "lagrange_coeff_inverse"),
               ("fps", "lagrange_coeff_power"), ("fps", "pow_ratio"),
               ("presets", "uniform_s1_multinomial"), ("scalar", "lpoly_gcd")}


def test_modules_define_nothing_unread():
    """Every top-level function or class of the package is read by some
    module of it, as a name, an attribute, an imported name or a string,
    or is one of UNREAD_KEPT, each of which no module reads."""
    pkg = pathlib.Path(fps.__file__).parent
    defined, read = set(), set()
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert {(m, name) for m, name in defined if name not in read} == UNREAD_KEPT


def assert_view(s):
    """A view kept on s is the one int_view makes of its scalars at the
    view's P, and the one plain arithmetic gives: over P = 1 lcm arithmetic
    on the scalars, over Q(l) scalar arithmetic with the exponents least
    (no factor of P in a numerator whose exponent is positive, 0 for a zero
    coefficient).  A zero polynomial may be [] or [0]."""
    if s._view is None:
        return
    def zeros_as_0(v):
        return ([p or [0] for p in v[0]] if v[2] else v[0],) + v[1:]
    xs, den, deg, P, E = s._view
    assert zeros_as_0(s._view) == zeros_as_0(sc.int_view(s.coeffs, P))
    if len(P) > 1:
        Q = sc.LPoly(P)
        assert math.gcd(den, *[c for x in (xs if deg else [[x] for x in xs]) for c in x]) == 1
        for x, e, c in zip(xs if deg else [[x] for x in xs], E, s.coeffs):
            x = sc.LPoly(x)
            assert x / (den * Q**e) == c
            assert (not e or x.divmod(Q)[1]) and (c or not e)
        return
    assert E is None and len(xs) == s.order + 1
    polys = [(c,) if c.__class__ is Fraction else c.coeffs for c in s.coeffs]
    lcm = math.lcm(*[x.denominator for p in polys for x in p])
    assert (den, deg) == (lcm, max(map(len, polys)) - 1)
    assert ([p or [0] for p in xs] if deg else [[x] for x in xs]) == \
        [[x.numerator * (lcm // x.denominator) for x in p] for p in polys]


@hst.composite
def view_pair(draw):
    """Two series of one order over Q or Q[l], the second with a nonzero
    rational constant term."""
    a = draw(hst.one_of(q_series(), l_series(max_deg=3)))
    b = draw(hst.one_of(q_series(order=a.order), l_series(order=a.order, max_deg=3)))
    c = draw(nonzero_rational)
    return a, fps.Series(b.order, (c,) + b.coeffs[1:], b.ring)


def lazy(s):
    """A Series equal to s that holds only its view, as kernels make them."""
    out = fps.mul(s, fps.one(s.order, s.ring))
    assert out._coeffs is None
    return out


class TestViews:
    """Series kept as int views between kernels in all three rings: every
    view is in the normal form of int_view, over Q(l) with the least
    exponents of P, lazy and eager operands give the same results, and the
    scalars are made only when read."""

    @given(view_pair())
    @settings(max_examples=60, deadline=None)
    def test_kernels_keep_normal_views(self, pair):
        a, b = pair
        n = a.order
        f = fps.Series(n, (0,) + b.coeffs[1:], b.ring)
        for x, y, g in ((a, b, f), (lazy(a), lazy(b), lazy(f))):
            got = [fps.mul(x, y), fps.div(x, y), fps.exp_series(g), fps.compose(x, g),
                   fps.add(x, y), fps.sub(x, y), x.truncate(n // 2), x.pad(n + 3), fps.derivative(x),
                   fps.integrate(x), fps.scale(x, Fraction(-3, 7)), fps.shift_up(x, 2)]
            want = [ref.mul(a, b), ref.div(a, b), ref.exp_series(f), ref.horner_compose(a, f),
                    ref.add(a, b), ref.sub(a, b), a.truncate(n // 2), a.pad(n + 3), ref.derivative(a),
                    fps.Series(n, [0] + [c * Fraction(1, i) for i, c in enumerate(a.coeffs[:-1], 1)], a.ring),
                    fps.Series(n, [c * Fraction(-3, 7) for c in a.coeffs], a.ring),
                    fps.shift_up(a, 2)]
            if n and f[1] and f[1].__class__ is Fraction:  # an l in f1 takes it to Q(l)
                got.append(fps.invert_newton(fps.DeltaSeries(g)).series)
                want.append(ref.horner_invert(fps.DeltaSeries(f)).series)
            for s in got:
                assert_view(s)
            for s, w in zip(got, want):
                assert_same(s, w)
                assert_view(s)
            assert st._power_rows(g, n) == ref.power_rows(f, n)
            assert_view(g)

    def test_quotient_that_cancels_to_constants_keeps_an_int_view(self):
        # a / a over Q(l): every recurrence output cancels to a constant, so the
        # zero polynomials are trimmed and the view is one of ints
        q = L * L + L + Fraction(1, 4)
        a = fps.Series(4, [Fraction(1, 2), 0, 0, Fraction(70, 73) / q, 4 / q])
        quotient = fps.div(a, a)
        assert quotient._view[2] == 0
        assert_view(quotient)
        assert quotient == fps.one(4)

    @given(qlrat_operands(2, max_order=4, constant=nonzero_constant), hst.sampled_from([1 + 2 * L, L**2 - L]))
    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    def test_qlrat_kernels_keep_reduced_views(self, pair, f1):
        # every result over Q(l), and the operands a kernel read, keep their
        # least exponents of P, also where the operands' P differ
        a, b = pair
        n = a.order
        f = fps.Series(n, (0,) + b.coeffs[1:], b.ring)
        v = (L + 1) / (L - 2)
        got = [fps.mul(a, b), fps.div(a, b), fps.exp_series(f), fps.compose(a, f), fps.add(a, b),
               fps.sub(a, b), fps.mul(a, f).truncate(n // 2), fps.mul(a, b).pad(n + 2), fps.derivative(a),
               fps.integrate(a), fps.scale(a, Fraction(-3, 7)), fps.scale(a, 1 - L), fps.scale(a, v),
               fps.shift_up(fps.add(a, b), 1)]
        want = [ref.mul(a, b), ref.div(a, b), ref.exp_series(f), ref.horner_compose(a, f), ref.add(a, b),
                ref.sub(a, b), ref.mul(a, f).truncate(n // 2), ref.mul(a, b).pad(n + 2), ref.derivative(a),
                fps.Series(n, [0] + [c * Fraction(1, i) for i, c in enumerate(a.coeffs[:-1], 1)], a.ring),
                fps.Series(n, [c * Fraction(-3, 7) for c in a.coeffs], a.ring),
                fps.Series(n, [c * (1 - L) for c in a.coeffs], sc.join_ring(a.ring, sc.RING_QL)),
                fps.Series(n, [c * v for c in a.coeffs], sc.RING_QLRAT),
                fps.shift_up(ref.add(a, b), 1)]
        if n:
            g = fps.DeltaSeries(fps.Series(n, (0, f1) + b.coeffs[2:]))
            got.append(fps.invert_newton(g).series)
            want.append(ref.horner_invert(g).series)
        for s, w in zip(got, want):
            # made lazy and read only below; at order 1 the inverse is built from scalars
            assert s._coeffs is None or (s is got[-1] and n == 1)
            assert_view(s)
            assert_same(s, w)
        for s in (a, b, f):
            assert_view(s)
        assert st._power_rows(f, n) == ref.power_rows(f, n)

    @given(view_pair())
    @settings(max_examples=40, deadline=None)
    def test_lazy_and_eager_series_are_one_value(self, pair):
        for s in pair:
            la = lazy(s)
            assert la.order == s.order and la.ring == s.ring
            assert [la[i] for i in range(s.order + 1)] == list(s.coeffs)
            assert la._coeffs is None  # reading one coefficient makes no tuple
            assert la == s and s == la and hash(la) == hash(s)
            assert_same(la, s)
            assert la.valuation() == s.valuation() and la.is_zero() == s.is_zero()

    def test_compose_leaves_a_normal_view_in_every_ring(self):
        # the one Series a composition makes holds only its view, in normal
        # form; over Q(l) also for an inner series at weight 2, an inverse
        fbar = fps.invert_newton(symbolic_inner("qlrat", 6)).series
        g = fps.Series(6, [Fraction(1, 3), L / (1 + L), 2, 0, 1 - L, 0, 1])
        pairs = list(TestComposeInOneFrame.pairs(9)) + [(g, fbar)]
        assert [sc.join_ring(g.ring, f.ring) for g, f in pairs] == [sc.RING_Q, sc.RING_QL] + [sc.RING_QLRAT] * 2
        for g, f in pairs:
            s = fps.compose(g, f)
            assert s._coeffs is None
            assert_view(s)
            assert_same(s, ref.horner_compose(g, f))

    def test_a_polynomial_keeps_its_factors_of_p(self):
        # coefficient 0 of the product is (1+l)^2 / (1+l) = 1+l: exponent 0,
        # where P still divides the numerator and nothing more is stripped
        a = fps.Series(2, [1 / (1 + L), L, 1])
        b = fps.Series(2, [(1 + L) ** 2, 0, 1 / (1 + L)])
        for got, want in ((fps.mul(a, b), ref.mul(a, b)),
                          (fps.scale(a, (1 + L) ** 2), fps.Series(2, [c * (1 + L) ** 2 for c in a.coeffs], a.ring))):
            assert got._view[4][0] == 0
            assert_view(got)
            assert_same(got, want)

    def test_hash_is_computed_once(self, monkeypatch):
        s = fps.Series(3, [1, L, 1 / (1 + L), Fraction(1, 2)])
        la = lazy(s)
        f = fps.DeltaSeries(fps.Series(3, [0, 1 + L, 1 / (2 + L), 0]))
        assert hash(la) == hash(s) and la._coeffs is not None
        first = st.compositional_inverse(f)
        calls = []
        for cls in (sc.LPoly, sc.LRat, Fraction):
            real = cls.__hash__
            monkeypatch.setattr(cls, "__hash__", lambda c, real=real: calls.append(c) or real(c))
        assert st.compositional_inverse(f) is first
        assert {la: 1}[s] == 1 and hash(f) == hash(f)
        assert not calls

    def test_series_stays_immutable(self):
        s = lazy(fps.Series(2, [1, L, Fraction(1, 2)]))
        for name in ("order", "ring", "coeffs", "_coeffs", "_view"):
            with pytest.raises(AttributeError):
                setattr(s, name, None)
        assert s.coeffs == (1, L, Fraction(1, 2))
        with pytest.raises(AttributeError):
            object.__setattr__(s, "coeffs", ())

    def test_a_q_product_makes_no_fraction(self):
        a = fps.Series(6, [Fraction(1, p) for p in PRIMES[:7]])
        p = fps.mul(a, a)
        assert p._coeffs is None and p._view is not None
        assert_same(p, ref.mul(a, a))

    def test_a_view_loses_a_vanished_l(self):
        # the l-terms cancel: the sum and the truncation are over Q again
        a = fps.Series(3, [1 + L, Fraction(1, 3), 0, L])
        b = fps.Series(3, [-L, 0, Fraction(1, 6), -L], sc.RING_QL)
        c = fps.Series(3, [1, Fraction(1, 3), 0, L])
        for s, want in ((fps.add(lazy(a), lazy(b)), ref.add(a, b)), (lazy(c).truncate(2), c.truncate(2))):
            assert s._view[2] == 0 and s.ring == sc.RING_QL
            assert_view(s)
            assert_same(s, want)


class TestLogSeries:
    """log g = integral of g'/g against the plain scalar loop in all three rings."""

    @given(q_series(constant=Fraction(1)))
    @settings(max_examples=40, deadline=None)
    def test_q(self, g):
        assert_same(fps.log_series(g), ref.log_series(g))

    @given(l_series(constant=hst.just(Fraction(1)), max_deg=3))
    @settings(max_examples=40, deadline=None)
    def test_ql(self, g):
        assert_same(fps.log_series(g), ref.log_series(g))

    @given(qlrat_operands(1, max_order=4))
    @settings(max_examples=20, deadline=None)
    def test_qlrat(self, one):
        g = fps.Series(one[0].order, (1,) + one[0].coeffs[1:])
        assert_same(fps.log_series(g), ref.log_series(g))
        r = Fraction(-1, 2)
        assert_same(fps.pow_ratio(g, r), ref.exp_series(fps.Series(g.order, [c * r for c in ref.log_series(g).coeffs])))

    def test_inverse_of_exp_over_q_lambda(self):
        n = 8
        f = ep.require_delta(ep.eval_expr(ep.parse("(1+lambda)*t + t^2/(1-t)"), n, "symbolic"))
        fbar = fps.invert_newton(f).series
        assert_same(fps.log_series(fps.exp_series(fbar)), fbar)


class TestTranscendental:
    def test_exp_log_inverse(self):
        f = ser(0, 1, 2, -1, 5, 0, 3)
        assert fps.log_series(fps.exp_series(f)) == f
        g = ser(1, 3, -2, 1, 1, 0, -4)
        assert fps.exp_series(fps.log_series(g)) == g

    def test_exp_needs_zero_constant(self):
        with pytest.raises(BadConstantTerm, match="^exp needs a zero constant term, got 1$"):
            fps.exp_series(ser(1, 1))
        with pytest.raises(BadConstantTerm, match="^log needs constant term 1, got 2$"):
            fps.log_series(ser(2, 1))

    def test_power(self):
        s = ser(1, 1, 0, 0, 0)
        assert fps.power(s, 4).coeffs == (Fraction(1), Fraction(4), Fraction(6), Fraction(4), Fraction(1))
        assert fps.power(s, 0) == fps.one(4)
        inv = fps.power(s, -1)
        assert fps.mul(inv, s) == fps.one(4)

    def test_pow_ratio_sqrt(self):
        s = fps.add(fps.one(4), fps.scale(fps.mul(fps.t_series(4), fps.t_series(4)), Fraction(1, 4)))
        r = fps.pow_ratio(s, Fraction(1, 2))
        assert fps.mul(r, r) == s
        assert r.coeffs == (Fraction(1), Fraction(0), Fraction(1, 8), Fraction(0), Fraction(-1, 128))

    def test_pow_ratio_needs_unit(self):
        with pytest.raises(NonUnitConstantTerm):
            fps.pow_ratio(ser(2, 1), Fraction(1, 2))


POWER_EXPONENTS = [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2), Fraction(5, 3), Fraction(-7, 4)]
# over Q and Q[l] to order 20; over Q(l), one base a denominator family, to
# order 8, as the reference loops on LRats are slow; and a constant term in l
POWER_BASES = ["q", "ql"] + ["qlrat-" + name for name in sorted(DEN_FAMILIES)] + ["ql-lead"]


def power_base(name):
    """(u, b): a base of the power kernel whose constant term is b^12, so
    that it has the root each of POWER_EXPONENTS needs (b is None for a
    constant term in l, which has none)."""
    if name == "q":
        b, cs = Fraction(2, 3), [Fraction((-1) ** i * (i + 2), i + 1) if i % 4 else 0 for i in range(1, 21)]
    elif name == "ql":
        b, cs = Fraction(2), [L ** (i % 3) - Fraction(i, 3) if i % 5 else 0 for i in range(1, 21)]
    elif name == "ql-lead":
        return fps.Series(6, [1 + L, 1, L, 0, 2 - L, 0, Fraction(1, 2)]), None
    else:
        fs = DEN_FAMILIES[name[len("qlrat-"):]]
        b, cs = Fraction(1), [1 / fs[0], 0, L / fs[-1], 0, (2 - L) / fs[0] ** 2, 0, 0, 1 + L]
    return fps.Series(len(cs), [b ** 12] + cs), b


class TestPower:
    """fps.power, Miller's recurrence, against the two routes it replaced,
    kept in tests/reference.py: repeated squaring for every integer k in
    -20..20 and exp(alpha log f) for rational alpha, at every order up to
    the base's, in all three rings."""

    @pytest.mark.parametrize("name", POWER_BASES)
    def test_integer_powers(self, name):
        u, _ = power_base(name)
        for k in range(-20, 21):
            want = ref.pow_int(u, k)
            for n in range(u.order + 1):
                got = fps.power(u.truncate(n), k)
                assert_same(got, want.truncate(n))
                assert got.ring == sc.RING_QLRAT or got.view[3] == (1,)  # over Q[l] P is 1
            assert_view(got)

    @pytest.mark.parametrize("name", POWER_BASES[:-1])
    def test_rational_powers(self, name):
        u, b = power_base(name)
        unit = fps.Series(u.order, [c / b ** 12 for c in u.coeffs], u.ring)
        for alpha in POWER_EXPONENTS:
            lead = b ** int(12 * alpha)
            want = ref.pow_ratio(unit, alpha)
            want = fps.Series(u.order, [c * lead for c in want.coeffs], want.ring)
            for n in range(u.order + 1):
                assert_same(fps.power(u.truncate(n), alpha), want.truncate(n))

    def test_rational_power_needs_a_rational_root(self):
        u, _ = power_base("ql-lead")
        with pytest.raises(NoExactRoot):
            fps.power(u, Fraction(1, 2))
        with pytest.raises(NoExactRoot):
            fps.power(ser(2, 1), Fraction(1, 2))

    @pytest.mark.parametrize("name", POWER_BASES)
    def test_zero_constant_term(self, name):
        # t^v u: a non-negative integer power shifts u^k up by v k, any other is refused
        u, _ = power_base(name)
        for v in (1, 3):
            f = fps.Series(u.order, ([0] * v + list(u.coeffs))[:u.order + 1], u.ring)
            for k in range(21):
                want = ref.pow_int(f, k)
                for n in range(f.order + 1):
                    assert_same(fps.power(f.truncate(n), k), want.truncate(n))
            for k in (-1, -20):
                with pytest.raises(NonUnitConstantTerm):
                    fps.power(f, k)
            with pytest.raises(BadConstantTerm):
                fps.power(f, Fraction(1, 2))
        assert_same(fps.power(fps.zero(4, u.ring), 3), fps.zero(4, u.ring))

    @pytest.mark.parametrize("digits, f, alpha, const", [
        (4300, ser(2, 1), 10**5, "2"),
        # (2 l)^2200 = 2^2200 l^2200, of 663 digits: past a limit of 640
        (640, fps.Series(2, [2 * L, 1, 0]), 2200, "2*l")], ids=["rational", "lambda"])
    def test_unprintable_constant_term_is_refused_at_once(self, monkeypatch, digits, f, alpha, const):
        # the kernel checks f[0]^alpha itself, whoever calls it
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: digits, raising=False)
        start = time.perf_counter()
        with pytest.raises(ScalarTooLarge, match="^the constant term %s to that power has over %d digits$"
                           % (const.replace("*", "\\*"), digits)):
            fps.power(f, alpha)
        assert time.perf_counter() - start < 0.25

    def test_size_guard_reads_outputs_after_p_is_stripped(self, monkeypatch):
        # u = 1 + t^2/(1+l) has weight 1, so b[2j] = C(alpha, j)/(1+l)^j lies
        # over (1+l)^(2j) until reduced: at j = 64 its numerator C(alpha, 64)
        # (1+l)^64 reaches 2132 bits, past the 2127 of 640 digits, and the
        # reduced C(alpha, 64), of 2073 bits, is printable
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no limit on int-to-text conversion")
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640)
        alpha = 2**37
        u = fps.Series(128, [1, 0, 1 / (1 + L)] + [0] * 126)
        assert fps.power(u, alpha)[128] == math.comb(alpha, 64) / (1 + L) ** 64
        with pytest.raises(ScalarTooLarge):
            fps.power(u, 2 * alpha)


def test_every_power_takes_the_one_kernel(monkeypatch):
    """With the exp-log route (pow_ratio, log_series) and the series product
    refused, Bernoulli families, the parser's powers and the three Lagrange
    extractors still give the reference values: each power they take runs
    through fps.power alone."""
    n = 8
    g = fps.Series(n + 1, [0, 1, Fraction(1, 2), -1, 0, Fraction(1, 3)] + [0] * (n - 4))
    w = fps.Series(n, ref.exp_series(g).coeffs[1:])  # (e^g - 1)/t
    bern = {}
    for alpha in (Fraction(-3), Fraction(2), Fraction(1, 2), Fraction(-3, 2)):
        p = ref.pow_int(w, int(-alpha)) if alpha.denominator == 1 else ref.pow_ratio(w, -alpha)
        bern[alpha] = [math.factorial(m) * c for m, c in enumerate(p.coeffs)]
    t = [0, 1] + [0] * (n - 1)
    exprs = {"(1+2*t)^3": ref.pow_int(fps.Series(n, [1, 2] + [0] * (n - 1)), 3),
             "sqrt(1+t)": ref.pow_ratio(fps.Series(n, [1, 1] + [0] * (n - 1)), Fraction(1, 2)),
             "(4+t)^(-3/2)": fps.Series(n, [c / 8 for c in ref.pow_ratio(
                 fps.Series(n, [1, Fraction(1, 4)] + [0] * (n - 1)), Fraction(-3, 2)).coeffs]),
             "t^3": ref.pow_int(fps.Series(n, t), 3),
             "(t+t^2)^2": ref.pow_int(fps.Series(n, [0, 1, 1] + [0] * (n - 2)), 2)}
    f = fps.DeltaSeries(fps.Series(n, [0, 1 + L, 2, 0, L, Fraction(-1, 2), 0, 0, 1]))
    inv = ref.horner_invert(f).series
    outer = fps.Series(n, [Fraction(1, m + 1) for m in range(n + 1)])
    comp = ref.horner_compose(outer, inv)
    powers = {k: ref.pow_int(inv, k) for k in (1, 2, 5)}
    # the parser's bases are made before the product is refused: 2*t is one
    trees, memo = {}, {}
    for text in exprs:
        trees[text] = e = ep.parse(text)
        ep._eval(e[1], n, None, memo)

    def refuse(real):
        def refused(*args):
            raise AssertionError("%s runs outside the power kernel" % real.__name__)
        return refused
    for name in ("pow_ratio", "log_series", "mul"):
        patch_everywhere(monkeypatch, name, refuse)
    st.bernoulli_assoc.cache_clear()
    for alpha, want in bern.items():
        assert list(st.bernoulli_assoc(fps.DeltaSeries(g), alpha, n).values) == want, alpha
    for text, want in exprs.items():
        assert_same(ep._eval(trees[text], n, None, memo), want)
    for m in range(1, n + 1):
        assert fps.lagrange_coeff_inverse(f, m) == inv[m]
        assert fps.lagrange_coeff_general(outer, f, m) == comp[m]
        for k, pk_ in powers.items():
            if k <= m:
                assert fps.lagrange_coeff_power(f, k, m) == pk_[m]
    st.bernoulli_assoc.cache_clear()


class TestEgfAndJson:
    def test_egf_coeff(self):
        e = fps.exp_series(fps.t_series(8))
        assert all(fps.egf_coeff(e, n) == 1 for n in range(9))
        assert fps.from_egf([Fraction(1)] * 9) == e

    @pytest.mark.parametrize("kind", ["eager", "lazy"])
    def test_egf_coeff_from_the_view(self, kind):
        # n! [t^n] as one scalar from the view: the value and the type of
        # s[n] n!, over Q, Q[l] and Q(l), with coefficients over P and P^3
        n = 6
        for cs in ([0, Fraction(3, 2), Fraction(-5, 7), 0, Fraction(1, 9), 2, Fraction(-1, 11)],
                   [1, L / 3, 0, L * L - Fraction(1, 2), Fraction(2, 3), 1 - L, L],
                   [Fraction(1, 4), 1 / (1 + L), (L + 2) / (1 + L) ** 3, 0, L, Fraction(1, 5), (1 - L) / (1 + L) ** 2]):
            s = fps.Series(n, cs)
            if kind == "lazy":
                s = lazy(s)
            for m in range(n + 1):
                got, want = fps.egf_coeff(s, m), s[m] * Fraction(math.factorial(m))
                assert got == want and type(got) is type(want), (cs, m)

    def test_json_round_trip_q(self):
        s = ser(0, 1, Fraction(-1, 2), Fraction(1, 3))
        obj = fps.series_to_json(s)
        assert obj["ring"] == "Q" and obj["order"] == 3 and obj["egf"] is False
        obj = json.loads(json.dumps(obj))
        assert fps.Series(obj["order"], [sc.parse_scalar(c) for c in obj["coeffs"]], obj["ring"]) == s

    def test_json_round_trip_symbolic(self):
        s = fps.Series(2, [Fraction(0), Fraction(1), 1 - L])
        obj = json.loads(json.dumps(fps.series_to_json(s)))
        back = fps.Series(obj["order"], [sc.parse_scalar(c) for c in obj["coeffs"]], obj["ring"])
        assert back == s and back.ring == sc.RING_QL
