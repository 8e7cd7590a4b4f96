import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from deltaseries import _packed as pk
from deltaseries import presets as pr
from deltaseries import scalar as sc
from deltaseries import stirling as st
from deltaseries.errors import (
    BothZero,
    DivisionByZero,
    PoleAtValue,
    ScalarParseError,
    ScalarTooLarge,
    ZeroDenominator,
)
import reference as ref

L = sc.LAMBDA


def lp(*coeffs):
    return sc.LPoly(coeffs)


fracs = hst.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
small_polys = hst.lists(fracs, min_size=0, max_size=4).map(sc.LPoly)


class TestLPoly:
    def test_normal_form_drops_trailing_zeros(self):
        assert lp(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
        assert lp().is_zero()
        assert lp(0, 0).is_zero()

    def test_basic_arithmetic(self):
        p = 1 + 2 * L
        q = 3 - L
        assert p + q == lp(4, 1)
        assert p - q == lp(-2, 3)
        assert p * q == lp(3, 5, -2)
        assert -p == lp(-1, -2)
        assert p * 0 == lp()

    def test_cross_type_equality_and_hash(self):
        assert lp(Fraction(3, 2)) == Fraction(3, 2)
        assert hash(lp(Fraction(3, 2))) == hash(Fraction(3, 2))
        assert lp(0, 1) != Fraction(1)

    def test_pow(self):
        assert (1 + L) ** 3 == lp(1, 3, 3, 1)
        assert L**0 == 1
        assert lp(2) ** -2 == Fraction(1, 4)

    def test_divmod(self):
        q, r = (L**2 - 1).divmod(L - 1)
        assert q == L + 1 and r.is_zero()
        q, r = (L**2 + 1).divmod(L)
        assert q == L and r == 1
        with pytest.raises(DivisionByZero):
            L.divmod(lp())

    def test_eval_and_derivative(self):
        p = 1 + 2 * L + 3 * L**2
        assert p.eval(Fraction(1, 2)) == Fraction(11, 4)
        assert p.derivative() == lp(2, 6)

    def test_monic(self):
        assert (2 * L + 4).monic() == L + 2


class TestLRat:
    def test_reduction_is_canonical(self):
        # gcd l+1 cancels and the monic-denominator convention leaves (l-1)/2
        r = sc.LRat(L**2 - 1, 2 * L + 2)
        assert r.is_polynomial()
        assert sc.simplify(r) == lp(Fraction(-1, 2), Fraction(1, 2))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            sc.LRat(L, lp())

    def test_arithmetic_closes(self):
        a = sc.LRat(lp(1), L)  # 1/l
        assert a + a == sc.LRat(lp(2), L)
        assert a * L == 1
        assert 1 / a == L
        assert a**-1 == L

    def test_pole(self):
        a = sc.LRat(lp(1), L - 1)
        assert a.eval(2) == 1
        with pytest.raises(PoleAtValue):
            a.eval(1)


class TestOps:
    def test_lpoly_gcd(self):
        assert sc.lpoly_gcd(2 * L + 2, 3 * L + 3) == L + 1
        assert sc.lpoly_gcd(L**2 - 1, L**2 - 2 * L + 1) == L - 1
        assert sc.lpoly_gcd(lp(), L) == L
        with pytest.raises(BothZero):
            sc.lpoly_gcd(lp(), lp())

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=80, deadline=None)
    def test_lpoly_gcd_matches_euclid(self, a, b, c):
        a, b = sc.as_lpoly(a * c), sc.as_lpoly(b * c)
        assume(a or b)
        g = sc.lpoly_gcd(a, b)
        assert g == ref.lpoly_gcd(a, b) and g.__class__ is sc.LPoly

    def test_lpoly_gcd_packs_nothing(self, monkeypatch):
        # the reference loops run on LPoly and LRat arithmetic, so neither it
        # nor the gcd that reduces an LRat may share the packing it checks
        def refuse(*args):
            raise AssertionError("scalar arithmetic packed")
        for name in ("pack", "unpack", "pmul"):
            # wherever the name is looked up: _packed, and scalar's bridge
            bound = [m for m in (pk, sc) if hasattr(m, name)]
            assert pk in bound
            for m in bound:
                monkeypatch.setattr(m, name, refuse)
        assert sc.lpoly_gcd((L**2 - 1) * (3 * L + 2) ** 3, (L + 1) * (3 * L + 2) ** 2 * (L**2 + 7)) \
            == (L + 1) * (L + Fraction(2, 3)) ** 2
        p, q = (3 * L + 2) ** 3 / 7 - L, (L**2 - 1) * (3 * L + 2) / 5
        r, s = sc.LRat(p, q), sc.LRat(q + 1, (L + 1) ** 2 * p)
        for a, b in ((p, q), (r, s), (p, r), (s, Fraction(-2, 3)), (Fraction(5, 4), r)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                assert sc.eval_lambda(op(a, b), 2) == op(sc.eval_lambda(a, 2), sc.eval_lambda(b, 2))
            for k in (-2, 3):
                assert sc.eval_lambda(a**k, 2) == sc.eval_lambda(a, 2) ** k

    def test_pmul_of_zero(self):
        # the zero polynomial comes as [] from an unpacked 0
        assert pk.pmul([], [0, 1]) == [] and pk.pmul([0, 1], []) == []
        assert not any(pk.pmul([0, 0], [3, 1]))

    @given(hst.lists(hst.integers(-99, 99), max_size=5), hst.integers(-99, 99), hst.integers(0, 40))
    def test_pmul_by_a_monomial_is_the_packed_product(self, a, c, m):
        # b = c l^m, a constant at m = 0, is a shift and a scale, read off as
        # unpack reads the packed product: trailing zeros of a are trimmed
        b = [0] * m + [c]
        B = pk.width(pk.bits(a, 0) + pk.bits(b, 0), len(b))
        assert pk.pmul(a, b) == pk.unpack(pk.pack(a, B) * pk.pack(b, B), B)

    def test_lrat_reduce_demotes(self):
        assert sc.lrat_reduce(L**2 - 1, L - 1) == L + 1
        assert isinstance(sc.lrat_reduce(L**2 - 1, L - 1), sc.LPoly)
        assert sc.lrat_reduce(lp(6), lp(4)) == Fraction(3, 2)
        assert isinstance(sc.lrat_reduce(lp(6), lp(4)), Fraction)
        assert isinstance(sc.lrat_reduce(lp(1), L), sc.LRat)

    def test_scalar_inv_promotes(self):
        assert sc.scalar_inv(Fraction(3, 4)) == Fraction(4, 3)
        inv = sc.scalar_inv(L)
        assert isinstance(inv, sc.LRat)
        assert inv * L == 1
        with pytest.raises(DivisionByZero):
            sc.scalar_inv(Fraction(0))

    def test_scalar_pow_negative(self):
        assert sc.scalar_pow(Fraction(2), -3) == Fraction(1, 8)
        assert sc.scalar_pow(L + 1, 2) == lp(1, 2, 1)
        assert sc.scalar_pow(L, -1) * L == 1

    def test_eval_lambda(self):
        assert sc.eval_lambda(1 - 3 * L + 2 * L**2, Fraction(0)) == 1
        assert sc.eval_lambda(Fraction(5), Fraction(7)) == 5

    def test_ring_tags(self):
        assert sc.ring_of(Fraction(1)) == sc.RING_Q
        assert sc.ring_of(L) == sc.RING_QL
        assert sc.ring_of(sc.LRat(lp(1), L)) == sc.RING_QLRAT
        assert sc.join_ring(sc.RING_Q, sc.RING_QLRAT) == sc.RING_QLRAT
        assert sc.ring_le(sc.RING_Q, sc.RING_QL)
        assert not sc.ring_le(sc.RING_QLRAT, sc.RING_QL)

    def test_simplify_chain(self):
        assert sc.simplify(sc.LRat(L, lp(1))) == L
        assert sc.simplify(lp(Fraction(2, 3))) == Fraction(2, 3)
        assert sc.simplify(5) == Fraction(5)

    def test_rat_nth_root(self):
        assert sc.rat_nth_root(Fraction(4), 2) == 2
        assert sc.rat_nth_root(Fraction(27, 8), 3) == Fraction(3, 2)
        assert sc.rat_nth_root(Fraction(-8), 3) == -2
        assert sc.rat_nth_root(Fraction(-4), 2) is None
        assert sc.rat_nth_root(Fraction(2), 2) is None
        # operands below 2**n: answered without building 2**(n-1)
        assert sc.rat_nth_root(Fraction(4), 10**9) is None
        assert sc.rat_nth_root(Fraction(-1, 3), 10**9 + 1) is None
        assert sc.rat_nth_root(Fraction(-1), 10**9 + 1) == -1
        assert sc.iroot(2**64 - 1, 64) == 1 and sc.iroot(2**64, 64) == 2


class TestText:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(-3, 7), "-3/7"),
            (lp(1, -1), "1 - 1*l"),
            (lp(0, 0, Fraction(5, 2)), "5/2*l^2"),
            (lp(1, -3, 2), "1 - 3*l + 2*l^2"),
            (lp(Fraction(-1, 6), 0, 0, Fraction(3, 4), 0, -2), "-1/6 + 3/4*l^3 - 2*l^5"),
            (lp(0, Fraction(-1, 2), 0, 0, Fraction(1, 3)), "-1/2*l + 1/3*l^4"),
            (sc.LRat(lp(0, -1, 0, 2), lp(3, 0, 0, -1)), "(1*l - 2*l^3)/(-3 + 1*l^3)"),
        ],
    )
    def test_format_examples(self, value, text):
        assert sc.format_scalar(value) == text

    @given(hst.lists(hst.sampled_from([Fraction(0), Fraction(0), Fraction(-7, 3), Fraction(5, 4), Fraction(-1)]),
                     min_size=2, max_size=7).map(sc.LPoly))
    @settings(max_examples=60, deadline=None)
    def test_format_from_ints_matches_the_coefficients(self, p):
        # the text read from the Fraction coefficients, zeros skipped
        terms = [str(c) if i == 0 else "%s*l" % c if i == 1 else "%s*l^%d" % (c, i)
                 for i, c in enumerate(p.coeffs) if c]
        want = " + ".join(terms).replace("+ -", "- ") or "0"
        assert sc.format_scalar(p) == want

    def test_lrat_format(self):
        r = sc.LRat(lp(1), L)
        assert sc.format_scalar(r) == "(1)/(1*l)"
        assert sc.parse_scalar(sc.format_scalar(r)) == r

    def test_unprintable_coefficient(self, int_digit_limit):
        for value in (Fraction(3) ** 10000, 1 + 3**10000 * L):
            with pytest.raises(ScalarTooLarge):
                sc.format_scalar(value)

    def test_check_printable_at_the_limit(self, int_digit_limit):
        # 2^14284 has 4300 digits and 2^14285 has 4301.  The text of the
        # view's scalar x / (dv P^e) holds each x[i] / dv in lowest terms:
        # 1/2^8000 + l/3^4000 prints, though dv has 14341 bits
        for big, refused in ((2**14284, False), (2**14285, True)):
            for x, e, dv, P in (([big], 0, 1, (1,)), ([1], 0, big, (1,)), ([3, big], 0, 3, (1,)),
                                ([big, 1], 2, 1, (1, 1))):
                scalar = sc.view_scalars(([x], dv, 1, P, [e] if len(P) > 1 else None))[0]
                if refused:
                    with pytest.raises(ScalarTooLarge):
                        sc.check_printable(x, e, dv, P, sc.print_cap())
                    with pytest.raises(ScalarTooLarge):
                        sc.format_scalar(scalar)
                else:
                    sc.check_printable(x, e, dv, P, sc.print_cap())
                    sc.format_scalar(scalar)
        sc.check_printable([3**4000, 2**8000], 0, 2**8000 * 3**4000, (1,), sc.print_cap())

    def test_power_size_without_a_digit_limit(self, monkeypatch):
        # Pythons before 3.10.7 have no int-to-text limit: its default bounds powers there
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        for c, e in ((Fraction(2), Fraction(10**12)), (1 + L, Fraction(-10**12)), (sc.LRat(lp(1), 1 + L), Fraction(10**6))):
            with pytest.raises(ScalarTooLarge):
                sc.check_power_size(c, e)
        sc.check_power_size(Fraction(2), Fraction(14000))

    def test_csv_cell_quotes(self):
        assert sc.csv_cell(Fraction(3)) == "3"
        assert sc.csv_cell(Fraction(-1, 2)) == '"-1/2"'
        assert sc.csv_cell(1 - L) == "1 - 1*l"
        assert sc.csv_cell(sc.LRat(lp(1), L)) == '"(1)/(1*l)"'

    def test_parse_errors(self):
        for bad in ["", "l^", "1//2", "x+1"]:
            with pytest.raises(ScalarParseError):
                sc.parse_scalar(bad)

    def test_oversized_and_zero_denominator_numerals(self, int_digit_limit):
        # a numeral past the int-to-text limit is a parse error with or without l
        big = "1" * 5000
        for bad in [big, big + "*l", "1 + " + big + "*l^2", "l^" + big, "(1)/(" + big + "*l)", "1/0*l"]:
            with pytest.raises(ScalarParseError):
                sc.parse_scalar(bad)

    @given(small_polys)
    @settings(max_examples=60, deadline=None)
    def test_lpoly_text_round_trip(self, p):
        assert sc.parse_scalar(sc.format_scalar(p)) == sc.simplify(p)

    @given(fracs)
    @settings(max_examples=60, deadline=None)
    def test_fraction_text_round_trip(self, q):
        assert sc.parse_scalar(sc.format_scalar(q)) == q


class TestAlgebraProperties:
    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(small_polys, small_polys)
    @settings(max_examples=40, deadline=None)
    def test_divmod_identity(self, a, b):
        if b.is_zero():
            return
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    @given(small_polys, small_polys)
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides(self, a, b):
        if a.is_zero() and b.is_zero():
            return
        g = sc.lpoly_gcd(a, b)
        if not a.is_zero():
            assert a.divmod(g)[1].is_zero()
        if not b.is_zero():
            assert b.divmod(g)[1].is_zero()

    def test_resolve_lambda_mode(self):
        assert sc.resolve_lambda_mode("absent") is None
        assert sc.resolve_lambda_mode(None) is None
        assert sc.resolve_lambda_mode("symbolic") == L
        assert sc.resolve_lambda_mode("2/3") == Fraction(2, 3)
        assert sc.resolve_lambda_mode(Fraction(1, 2)) == Fraction(1, 2)
        with pytest.raises(ValueError):
            sc.resolve_lambda_mode(object())


# ---------------------------------------------------------------------------
# canonical form by construction: every operator result is in its simplest
# type, checked against evaluation at a rational l (the independent route)

def assert_canonical(r):
    assert sc.simplify(r) is r, r
    if isinstance(r, sc.LPoly):
        assert r.degree >= 1 and r.coeffs[-1] != 0
        assert all(type(c) is Fraction for c in r.coeffs)
    elif isinstance(r, sc.LRat):
        assert r.num and r.den.degree >= 1 and r.den.leading() == 1
        assert sc.lpoly_gcd(r.num, r.den) == 1
        assert r.den.xs[-1] == r.den.den
    else:
        assert type(r) is Fraction
    # the int normal form of every LPoly: xs / den, den > 0, gcd 1, no trailing zero
    polys = (r.num, r.den) if isinstance(r, sc.LRat) else (r,) if isinstance(r, sc.LPoly) else ()
    for p in polys:
        assert p.den > 0 and math.gcd(p.den, *p.xs) == 1 and p.xs[-1] != 0
        assert type(p.xs) is tuple and all(type(x) is int for x in p.xs)


small_fracs = hst.fractions(min_value=-20, max_value=20, max_denominator=12)
canon_polys = hst.lists(small_fracs, max_size=4).map(lambda cs: sc.simplify(sc.LPoly(cs)))
canon_rats = hst.tuples(canon_polys, canon_polys.filter(bool)).map(
    lambda nd: sc.simplify(sc.LRat(nd[0], nd[1]))
)
scalars = hst.one_of(small_fracs, canon_polys, canon_rats)


def _values_at(x, *scalars_):
    """Each scalar evaluated at l = x; rejects the draw at a pole."""
    try:
        return [sc.eval_lambda(s, x) for s in scalars_]
    except PoleAtValue:
        assume(False)


class TestCanonical:
    @given(scalars, scalars, hst.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]),
           small_fracs)
    @settings(max_examples=300, deadline=None)
    def test_binary_ops(self, a, b, op, x):
        if op is operator.truediv:
            assume(b)
        r = op(a, b)
        assert_canonical(r)
        ax, bx = _values_at(x, a, b)
        if op is operator.truediv:
            assume(bx)
        assert sc.eval_lambda(r, x) == op(ax, bx)

    @given(scalars, hst.integers(-3, 4), small_fracs)
    @settings(max_examples=200, deadline=None)
    def test_unary_ops(self, a, k, x):
        assume(a or k >= 0)
        (ax,) = _values_at(x, a)
        assume(ax or not a)  # a root of a at x is a pole of 1/a
        pairs = [(-a, -ax), (a ** k, ax ** k), (sc.scalar_pow(a, k), ax ** k)]
        if a:
            pairs.append((sc.scalar_inv(a), 1 / ax))
        for r, want in pairs:
            assert_canonical(r)
            assert sc.eval_lambda(r, x) == want

    def test_constructed_values_are_demoted(self):
        assert_canonical(-sc.LRat(L, lp(1)))
        assert_canonical(lp(2) * L - 2 * L)
        assert_canonical(lp(3) ** 2)
        assert_canonical(sc.LRat(L, L + 1) * (L + 1))

    def test_builders_return_canonical_coefficients(self):
        for e in pr.corpus(8):
            cells = [c for kind in (st.s2_assoc, st.s1_assoc) for row in kind(e.f, 8).rows for c in row]
            cells += st.assoc_log(e.f).coeffs + st.compositional_inverse(e.f).series.coeffs
            for alpha in (Fraction(1), Fraction(-2)):
                cells += st.bernoulli_assoc(e.f, alpha, 7).values
            for c in cells:
                assert_canonical(c)
