import json
import math
from fractions import Fraction

import pytest

from deltaseries import classical as cl
from deltaseries import exprparse as ep
from deltaseries import fps
from deltaseries import presets as pr
from deltaseries import scalar as sc
from deltaseries import stirling as st
from deltaseries.errors import ArityTooSmall, InsufficientOrder, NonRepresentablePower
import reference as ref

L = sc.LAMBDA


def delta(*coeffs):
    return fps.DeltaSeries(fps.Series(len(coeffs) - 1, coeffs))


def f_identity(order=20):
    return fps.DeltaSeries(fps.t_series(order))


def f_deg(order=16):
    return fps.DeltaSeries(
        fps.Series(
            order,
            [Fraction(0)] + [L ** (n - 1) / Fraction(math.factorial(n)) for n in range(1, order + 1)],
        )
    )


# --- independent oracle: partial Bell by integer-partition enumeration -----

def _partitions_into(n, k, largest=None):
    """Multisets of k positive parts summing to n, as sorted tuples."""
    if largest is None:
        largest = n
    if k == 0:
        return [()] if n == 0 else []
    out = []
    for part in range(min(n - k + 1, largest), 0, -1):
        for rest in _partitions_into(n - part, k - 1, part):
            out.append((part,) + rest)
    return out


def brute_partial_bell(n, k, xs):
    total = Fraction(0)
    for parts in _partitions_into(n, k):
        mult = {}
        for p in parts:
            mult[p] = mult.get(p, 0) + 1
        ways = Fraction(math.factorial(n))
        prod = Fraction(1)
        for size, count in mult.items():
            ways /= Fraction(math.factorial(size)) ** count * math.factorial(count)
            prod = prod * xs[size - 1] ** count
        total = total + ways * prod
    return sc.simplify(total)


class TestTriangles:
    def test_identity_matches_classical(self):
        f = f_identity()
        s2 = st.s2_assoc(f, 8)
        s1 = st.s1_assoc(f, 8)
        for n in range(9):
            for k in range(n + 1):
                assert s2.entry(n, k) == cl.classical_s2(n, k)
                assert s1.entry(n, k) == cl.classical_s1(n, k)

    def test_entry_outside_is_zero(self):
        tri = st.s2_assoc(f_identity(), 5)
        assert tri.entry(3, 5) == 0
        assert tri.entry(2, -1) == 0

    def test_degenerate_matches_basis_oracle(self):
        f = f_deg()
        s2 = st.s2_assoc(f, 6)
        s1 = st.s1_assoc(f, 6)
        for n in range(7):
            for k in range(n + 1):
                assert s2.entry(n, k) == cl.deg_s2(n, k, L)
                assert s1.entry(n, k) == cl.deg_s1(n, k, L)

    def test_assoc_log_is_composition(self):
        f = delta(0, 1, -1, 2, 0, 1, 3, -2, 1)
        lg = st.assoc_log(f)
        u = fps.Series(
            f.order,
            [Fraction(0)] + [Fraction((-1) ** (n - 1), n) for n in range(1, f.order + 1)],
        )
        assert lg == fps.compose(f.series, u)

    def test_json_and_csv(self):
        tri = st.s2_assoc(f_identity(), 3)
        obj = tri.to_json("t")
        assert obj["kind"] == "s2" and obj["max_n"] == 3 and obj["f"] == "t"
        back = [[sc.parse_scalar(v) for v in row] for row in json.loads(json.dumps(obj))["rows"]]
        assert back[3] == [Fraction(0), Fraction(1), Fraction(3), Fraction(1)]
        csv = tri.to_csv()
        assert csv.splitlines()[0] == "n,k,value"
        assert "3,2,3" in csv.splitlines()


class TestOrthogonality:
    def test_clean_triangles_pass(self):
        rep = st.orthogonality_check(f_identity(), 8)
        assert rep.ok and not rep.failures

    def test_corrupted_triangle_fails_with_coordinates(self):
        f = f_identity()
        s2 = st.s2_assoc(f, 6)
        s1 = st.s1_assoc(f, 6)
        bad = s2.with_entry(4, 2, s2.entry(4, 2) + 1)
        rep = st.check_orthogonality_triangles(bad, s1)
        assert not rep.ok
        cells = {(kind, n, l) for kind, n, l, _got, _want in rep.failures}
        assert any(n == 4 for _kind, n, _l in cells)

    def test_symbolic_orthogonality(self):
        rep = st.orthogonality_check(f_deg(), 6)
        assert rep.ok


class TestPartialBell:
    def test_known_row(self):
        # B_{4,2}(x1, x2, x3) = 3 x2^2 + 4 x1 x3, checked at generic points
        xs = [Fraction(5), Fraction(7), Fraction(11)]
        assert st.partial_bell(4, 2, xs) == 3 * 7**2 + 4 * 5 * 11
        assert st.partial_bell(4, 2, [1, 1, 1]) == 7

    def test_edge_cases(self):
        assert st.partial_bell(0, 0, []) == 1
        assert st.partial_bell(3, 0, []) == 0
        with pytest.raises(ArityTooSmall):
            st.partial_bell(5, 2, [1, 2])

    def test_against_partition_enumeration(self):
        xs = [Fraction(2), Fraction(-3), Fraction(5), Fraction(1, 2), Fraction(7), Fraction(-1)]
        for n in range(7):
            for k in range(n + 1):
                assert st.partial_bell(n, k, xs) == brute_partial_bell(n, k, xs)

    def test_symbolic_arguments(self):
        xs = [1 + L, 2 * L, Fraction(1)]
        assert st.partial_bell(4, 2, xs) == sc.simplify(3 * (2 * L) ** 2 + 4 * (1 + L) * 1)


class TestBernoulli:
    def test_alpha_zero_is_trivial(self):
        fam = st.bernoulli_assoc(f_identity(), Fraction(0), 5)
        assert fam.values == (Fraction(1),) + (Fraction(0),) * 5

    def test_classical_alpha_one(self):
        fam = st.bernoulli_assoc(f_identity(), Fraction(1), 6)
        assert list(fam.values) == [
            Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
            Fraction(-1, 30), Fraction(0), Fraction(1, 42),
        ]

    def test_x_polynomials(self):
        fam = st.bernoulli_assoc(f_identity(), Fraction(1), 4, with_x=True)
        b1 = fam.xpolys[1]
        assert b1.coeffs == (Fraction(-1, 2), Fraction(1))  # B_1(x) = x - 1/2
        # B_n(1) - B_n(0) vanishes for n >= 2
        for n in range(2, 5):
            p = fam.xpolys[n]
            assert p.eval(Fraction(1)) - p.eval(Fraction(0)) == 0

    def test_rational_alpha(self):
        fam = st.bernoulli_assoc(f_identity(), Fraction(1, 2), 4)
        sq = st.bernoulli_assoc(f_identity(), Fraction(1), 4)
        # (t/(e^t-1))^{1/2} squared gives back alpha = 1
        base = fps.from_egf(list(fam.values))
        assert [fps.egf_coeff(fps.mul(base, base), n) for n in range(5)] == list(sq.values)

    def test_needs_order_headroom(self):
        with pytest.raises(InsufficientOrder):
            st.bernoulli_assoc(f_identity(4), Fraction(1), 4)

    def test_scalar_rat_pow(self):
        assert st.scalar_rat_pow(Fraction(2), Fraction(3)) == 8
        assert st.scalar_rat_pow(Fraction(1), Fraction(1, 2)) == 1
        with pytest.raises(NonRepresentablePower):
            st.scalar_rat_pow(Fraction(2), Fraction(1, 2))


# poly_seq and the Bernoulli x-polynomials share the column-powers kernel;
# partial_bell takes its own route (pow_int), so it checks both.
KERNEL_PRESETS = [("mittag_leffler", pr.LAMBDA_ABSENT), ("deg_falling", pr.LAMBDA_SYMBOLIC)]


class TestPowerKernel:
    @pytest.mark.parametrize("pid,mode", KERNEL_PRESETS)
    def test_poly_seq_is_partial_bell_of_inverse(self, pid, mode):
        n = 6
        f = pr.make_preset(pid, n, mode).f
        fb = st.compositional_inverse(f).series
        xs = [fps.egf_coeff(fb, j) for j in range(1, n + 1)]
        seq = st.poly_seq(f, n)
        for m in range(n + 1):
            assert seq[m] == st.XPoly([st.partial_bell(m, k, xs) for k in range(m + 1)])

    @pytest.mark.parametrize("pid,mode", KERNEL_PRESETS)
    def test_bernoulli_xpolys_are_bell_convolutions(self, pid, mode):
        n = 6
        g = pr.make_preset(pid, n + 1, mode).f
        xs = [fps.egf_coeff(g.series, j) for j in range(1, n + 1)]
        fam = st.bernoulli_assoc(g, Fraction(2), n, with_x=True)
        for m in range(n + 1):
            want = [
                sum((math.comb(m, j) * fam.values[m - j] * st.partial_bell(j, k, xs) for j in range(k, m + 1)),
                    Fraction(0))
                for k in range(m + 1)
            ]
            assert fam.xpolys[m] == st.XPoly(want)


def comtet_case(name, n):
    if name == "qlrat":  # (l+1)t + 2t^2: a non-constant linear term puts it over Q(l)
        return fps.DeltaSeries(fps.Series(n, [0, L + 1, 2] + [0] * (n - 2)))
    pid, mode = name.split("@") if "@" in name else (name, pr.LAMBDA_ABSENT)
    if mode == "1/3":
        mode = Fraction(1, 3)
    return pr.make_preset(pid, n, mode).f


def assert_rows(got, want):
    assert [list(r) for r in got] == [list(r) for r in want]
    assert [[type(c) for c in r] for r in got] == [[type(c) for c in r] for r in want]


COMTET_CASES = [("identity", 8), ("mittag_leffler", 8), ("bell", 8), ("laguerre_m1", 8),
                ("deg_falling@1/3", 8), ("deg_falling@symbolic", 8), ("qlrat", 5)]


class TestComtetKernel:
    """_power_rows (Comtet's recurrence) through its four callers, against
    repeated series products in the reference module and against
    partial_bell; every base is built by the reference loops too."""

    @pytest.mark.parametrize("name,n", COMTET_CASES)
    def test_s2_and_s1(self, name, n):
        f = comtet_case(name, n)
        fb = ref.horner_invert(f).series
        base2 = ref.sub(ref.exp_series(fb), fps.one(n, fb.ring))
        log1p = fps.Series(n, [0] + [Fraction((-1) ** (j - 1), j) for j in range(1, n + 1)])
        base1 = ref.horner_compose(f.series, log1p)
        for tri, base in ((st.s2_assoc(f, n), base2), (st.s1_assoc(f, n), base1)):
            assert_rows(tri.rows, ref.power_rows(fps.one(n, base.ring), base, n))
            assert tri.ring == base.ring
            xs = [fps.egf_coeff(base, j) for j in range(1, n + 1)]
            for m in range(n + 1):
                assert list(tri.rows[m]) == [st.partial_bell(m, k, xs) for k in range(m + 1)]

    @pytest.mark.parametrize("name,n", COMTET_CASES)
    def test_poly_seq(self, name, n):
        f = comtet_case(name, n)
        fb = ref.horner_invert(f).series
        want = ref.power_rows(fps.one(n, fb.ring), fb, n)
        assert_rows([p.coeffs for p in st.poly_seq(f, n)], [st.XPoly(r).coeffs for r in want])

    @pytest.mark.parametrize("name,n", COMTET_CASES)
    @pytest.mark.parametrize("alpha", [Fraction(2), Fraction(-1)])
    def test_bernoulli_xpolys(self, name, n, alpha):
        g = comtet_case(name, n + 1)
        fam = st.bernoulli_assoc(g, alpha, n, with_x=True)
        gs = g.series.truncate(n)
        w = fps.shift_down(ref.sub(ref.exp_series(g.series), fps.one(n + 1, gs.ring)), 1)
        start = fps.one(n, w.ring)
        power = w if alpha < 0 else ref.div(fps.one(n, w.ring), w)
        for _ in range(abs(int(alpha))):
            start = ref.mul(start, power)
        assert list(fam.values) == [fps.egf_coeff(start, m) for m in range(n + 1)]
        want = ref.power_rows(start, gs, n)
        assert_rows([p.coeffs for p in fam.xpolys], [st.XPoly(r).coeffs for r in want])

    def test_s2_identity_n64(self):
        # the fraction-free route at the size of the benchmark's largest build
        n = 64
        tri = st.s2_assoc(fps.DeltaSeries(fps.t_series(n)), n)
        assert all(tri.rows[m][k] == cl.classical_s2(m, k) for m in range(n + 1) for k in range(m + 1))


PREFIX_ORDER = 12
PREFIX_CORPUS = pr.corpus(PREFIX_ORDER)


def _series_types(s):
    return [type(c) for c in s.coeffs]


class TestPrefixRule:
    """A triangle or inverse built at a series' own order and cut to m
    equals the one built directly from the series cut to m."""

    @pytest.mark.parametrize("entry", PREFIX_CORPUS, ids=[e.label for e in PREFIX_CORPUS])
    def test_truncated_long_build_is_the_short_build(self, entry):
        f = entry.f
        symbolic = f.ring != sc.RING_Q
        orders = (1, 2, 5, 8, 11) if symbolic else range(1, PREFIX_ORDER + 1)
        for m in orders:
            short = f.truncate(m)
            long_inv = st.compositional_inverse(f).series.truncate(m)
            short_inv = fps.invert_newton(short).series
            assert long_inv == short_inv and _series_types(long_inv) == _series_types(short_inv)
            assert long_inv.ring == short_inv.ring == f.ring
            got, want = st.s2_assoc(f, m), st.s2_assoc(short, m)
            assert_rows(got.rows, want.rows)
            assert got.ring == want.ring == f.ring


class TestRingKeys:
    """A series declared over Q[l] with rational coefficients must not share
    cache entries with the equal series over Q: every result carries the
    ring of its own series.  The Q series is built first, so a key of the
    coefficients alone would hand its result to the Q[l] one."""

    @pytest.mark.parametrize("build", [
        lambda f: st.s2_assoc(f, 4),
        lambda f: st.s1_assoc(f, 4),
        st.assoc_log,
        st.compositional_inverse,
        lambda f: st.bernoulli_assoc(f, Fraction(2), 4).base,
    ], ids=["s2_assoc", "s1_assoc", "assoc_log", "compositional_inverse", "bernoulli_assoc"])
    def test_result_ring_follows_the_declared_ring(self, build):
        text = "t/(1+t)+t^5/7"
        f_q = ep.require_delta(ep.eval_expr(ep.parse(text), 6))
        f_ql = ep.require_delta(ep.eval_expr(ep.parse(text + "+lambda*t^2-lambda*t^2"), 6, sc.LAMBDA_SYMBOLIC))
        assert f_q.series == f_ql.series and (f_q.ring, f_ql.ring) == (sc.RING_Q, sc.RING_QL)
        assert f_q != f_ql
        assert build(f_q).ring == sc.RING_Q
        assert build(f_ql).ring == sc.RING_QL


class TestTheoremPaths:
    def test_s1_via_bernoulli(self):
        f = f_identity()
        s1 = st.s1_assoc(f, 8)
        for n in range(9):
            for k in range(n + 1):
                assert st.s1_via_bernoulli(f, n, k) == s1.entry(n, k)

    def test_schloemilch(self):
        f = delta(*([0, 1, 1] + [0] * 14))
        s1 = st.s1_assoc(f, 7)
        s2 = st.s2_assoc(f, 14)
        for n in range(8):
            for k in range(n + 1):
                assert st.schloemilch_s1(f, n, k, s2) == s1.entry(n, k)

    def test_moment_sequence_identity(self):
        assert st.moment_sequence(f_identity(), 5) == [Fraction(1)] * 6

    def test_bell_moment_lemma(self):
        f = f_deg()
        s2 = st.s2_assoc(f, 12)
        for n in range(7):
            for k in range(n + 1):
                assert st.lemma_bell_moments(f, n, k) == st.lemma_bell_moments_sum(f, n, k, s2)

    def test_bernoulli_three_ways(self):
        f = delta(*([0, 2, 1, -1] + [0] * 13))
        fb = st.compositional_inverse(f)
        s2 = st.s2_assoc(f, 12)
        for alpha in (-2, -1, 1, 2, 3):
            fam = st.bernoulli_assoc(fb, Fraction(alpha), 6)
            for n in range(7):
                assert st.bernoulli_via_lemma24(f, Fraction(alpha), n) == fam.values[n]
                assert st.bernoulli_via_s2(f, Fraction(alpha), n, s2) == fam.values[n]
        fam1 = st.bernoulli_assoc(fb, Fraction(1), 6)
        for n in range(7):
            assert st.bernoulli_via_s2_alpha1(f, n, s2) == fam1.values[n]

    def test_log_expansion(self):
        f = f_deg()
        got = st.assoc_log_expansion(f, 8, st.s2_assoc(f, 14))
        assert got == st.assoc_log(f).truncate(8)


class TestXPoly:
    def test_basis_round_trips(self):
        p = st.XPoly([Fraction(1), Fraction(-2), Fraction(0), Fraction(3)])
        for basis in (st.BASIS_FALLING, st.BASIS_FALLING_LAMBDA):
            q = st.basis_convert(p, basis)
            assert st.basis_convert(q, st.BASIS_MONOMIAL) == p

    def test_falling_basis_is_stirling(self):
        # x^3 = sum_k S2(3,k) (x)_k
        p = st.XPoly([0, 0, 0, 1])
        q = p.convert(st.BASIS_FALLING)
        assert list(q.coeffs) == [Fraction(cl.classical_s2(3, k)) for k in range(4)]

    def test_eval(self):
        p = st.XPoly([Fraction(1), Fraction(0), Fraction(2)])
        assert p.eval(Fraction(3)) == 19

    def test_poly_seq_identity(self):
        polys = st.poly_seq(f_identity(6), 4)
        for n, p in enumerate(polys):
            assert p.coeffs == tuple([Fraction(0)] * n + [Fraction(1)])

    def test_bell_assoc_bell_polynomials(self):
        # f = t gives the classical Bell polynomials (second-kind rows)
        rows = st.bell_assoc(f_identity(8), 4)
        assert list(rows[3].coeffs) == [Fraction(cl.classical_s2(3, k)) for k in range(4)]
        assert rows[4].eval(Fraction(1)) == 15  # Bell number B_4

    def test_poly_seq_bell(self):
        # f = log(1+t): the associated sequence is the Bell polynomials
        order = 8
        f = fps.DeltaSeries(
            fps.Series(order, [Fraction(0)] + [Fraction((-1) ** (n - 1), n) for n in range(1, order + 1)])
        )
        polys = st.poly_seq(f, 4)
        assert list(polys[3].coeffs) == [Fraction(cl.classical_s2(3, k)) for k in range(4)]
        assert polys[4].eval(Fraction(1)) == 15
