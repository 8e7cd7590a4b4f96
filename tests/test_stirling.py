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

    def test_assoc_log_reads_no_classical_number(self, monkeypatch):
        # its weights k! s(n, k) come from its own recurrence: the oracles of
        # presets read classical.classical_s1, so the logarithm may not
        fs = [pr.make_preset(pid, 16).f for pid in ("bell", "central_bell", "mittag_leffler")]
        fs += [pr.make_preset(pid, 12, pr.LAMBDA_SYMBOLIC).f for pid in ("deg_falling", "full_deg_bell")]
        fs.append(fps.DeltaSeries(fps.Series(12, [0, 1 + sc.LAMBDA, 2] + [0] * 10)))  # over Q(l)
        want = [fps.compose(f.series, fps.Series(f.order, [0] + [Fraction((-1) ** (n - 1), n)
                                                                 for n in range(1, f.order + 1)])) for f in fs]

        def refused(*a):
            raise AssertionError("assoc_log read classical")
        for name in dir(cl):
            if callable(getattr(cl, name)) and getattr(getattr(cl, name), "__module__", None) == cl.__name__:
                monkeypatch.setattr(cl, name, refused)
        st.assoc_log.cache_clear()
        for f, lg in zip(fs, want):
            assert st.assoc_log(f) == lg

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


def bell_base(ring, n):
    """A base with zero constant term over Q, Q[l] or Q(l)."""
    if ring == sc.RING_Q:
        return fps.Series(n, [0, 2, Fraction(-3, 2), 5, Fraction(1, 7)] + [1] * (n - 4))
    if ring == sc.RING_QL:
        return fps.Series(n, [0, L + 1, 2, L * L - 3] + [Fraction(1, 2)] * (n - 3))
    # the inverse of (l+1)t + 2t^2 has coefficients in 1/(l+1)
    return fps.invert_newton(fps.DeltaSeries(fps.Series(n, [0, L + 1, 2] + [0] * (n - 2)))).series


BELL_RINGS = [sc.RING_Q, sc.RING_QL, sc.RING_QLRAT]


class TestBellRows:
    """stirling.bell_rows, the series-power route to B_{n,k}, against
    partition enumeration in every ring."""

    @pytest.mark.parametrize("ring", BELL_RINGS)
    def test_against_partition_enumeration(self, ring):
        n = 6
        base = bell_base(ring, n)
        assert base.ring == ring
        xs = [fps.egf_coeff(base, j) for j in range(1, n + 1)]
        rows = st.bell_rows(base, n)
        assert [len(r) for r in rows] == list(range(1, n + 2))
        for m in range(n + 1):
            assert list(rows[m]) == [brute_partial_bell(m, k, xs) for k in range(m + 1)]

    @pytest.mark.parametrize("ring", BELL_RINGS)
    def test_rows_are_prefixes(self, ring):
        big = 7
        base = bell_base(ring, big)
        long = st.bell_rows(base, big)
        for m in range(big + 1):
            assert_rows(st.bell_rows(base, m), long[:m + 1])

    def test_oracles_never_read_comtet(self, monkeypatch):
        """The series-power route and the central factorial oracles stay
        independent of Comtet's kernel, which they check."""
        def calls():
            rows = [st.bell_rows(bell_base(ring, 5), 5) for ring in BELL_RINGS]
            bells = [st.partial_bell(5, k, [1 + L, 2, L, Fraction(1, 3), 7]) for k in range(6)]
            central = [(pr.triangle(("t1",), n, k), pr.triangle(("t2",), n, k), pr.triangle(("t1_deg",), n, k, L),
                        pr.triangle(("t2_deg",), n, k, Fraction(1, 3))) for n in range(7) for k in range(n + 1)]
            return rows, bells, central

        pr._table.cache_clear()
        want = calls()

        def refuse(*args):
            raise AssertionError("an oracle read Comtet's kernel")

        for name in ("_power_rows", "_bell_columns"):
            monkeypatch.setattr(st, name, refuse)
        pr._table.cache_clear()
        assert calls() == want


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
                ("deg_falling@1/3", 8), ("deg_falling@symbolic", 8), ("qlrat", 5),
                # EGF coefficients over distinct denominators d_j
                ("probabilistic@symbolic", 16), ("deg_central_bell@symbolic", 16)]


class TestComtetKernel:
    """_power_rows (Comtet's recurrence) through s2_assoc and s1_assoc and on
    the bare inverse, and the Bernoulli numbers, against repeated series products in the
    reference module and against partial_bell; every base is built by the
    reference loops too."""

    @pytest.mark.parametrize("name,n", COMTET_CASES)
    def test_s2_and_s1(self, name, n):
        f = comtet_case(name, n)
        fb = ref.horner_invert(f).series
        base2 = ref.sub(ref.exp_series(fb), fps.one(n, fb.ring))
        log1p = fps.Series(n, [0] + [Fraction((-1) ** (j - 1), j) for j in range(1, n + 1)])
        base1 = ref.horner_compose(f.series, log1p)
        for tri, base in ((st.s2_assoc(f, n), base2), (st.s1_assoc(f, n), base1)):
            assert_rows(tri.rows, ref.power_rows(base, n))
            assert tri.ring == base.ring
            xs = [fps.egf_coeff(base, j) for j in range(1, n + 1)]
            for m in range(n + 1):
                assert list(tri.rows[m]) == [st.partial_bell(m, k, xs) for k in range(m + 1)]

    @pytest.mark.parametrize("name,n", COMTET_CASES)
    def test_rows_of_the_inverse(self, name, n):
        # base = fbar itself, whose rows are the coefficients of the
        # sequence associated with f (Roman, The Umbral Calculus, 3.1)
        fb = ref.horner_invert(comtet_case(name, n)).series
        assert_rows(st._power_rows(fb, n), ref.power_rows(fb, n))

    @pytest.mark.parametrize("name,n", COMTET_CASES)
    @pytest.mark.parametrize("alpha", [Fraction(2), Fraction(1), Fraction(-1)])
    def test_bernoulli_values(self, name, n, alpha):
        g = comtet_case(name, n + 1)
        fam = st.bernoulli_assoc(g, alpha, n)
        w = fps.shift_down(ref.sub(ref.exp_series(g.series), fps.one(n + 1, g.series.ring)), 1)
        want = fps.one(n, w.ring)
        power = w if alpha < 0 else ref.div(fps.one(n, w.ring), w)
        for _ in range(abs(int(alpha))):
            want = ref.mul(want, power)
        assert list(fam.values) == [fps.egf_coeff(want, m) for m in range(n + 1)]

    @pytest.mark.parametrize("c", [2**31 - 1, -(2**31 - 1), 2**64 + 1])
    def test_width_at_its_bound(self, c):
        # base c l t: entry (n, n) is c^n l^n, the only one of row n, so its
        # digit equals the complete Bell number of the norms, and the width
        # holds it with one bit to spare
        for n in (1, 2, 5, 9):
            base = fps.Series(n, [0, c * L] + [0] * (n - 1))
            assert_rows(st._power_rows(base, n), ref.power_rows(base, n))

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


ALPHAS = (-2, -1, 1, 2, 3)


class TestTheoremPaths:
    def test_short_triangle_is_an_error(self):
        # t + t^2: each S2 formula reads rows past max_n = 4 of this triangle
        f = delta(0, 1, 1, 0, 0, 0, 0, 0, 0)
        short = st.s2_assoc(f, 4)
        calls = [
            lambda s2: st.schloemilch_table(f, 4, s2),
            lambda s2: st.bernoulli_table_via_s2(f, [2], 4, s2),
            lambda s2: st.bernoulli_table_via_s2_alpha1(f, 4, s2),
            lambda s2: st.lemma_bell_moments_sums(f, 4, s2),
            lambda s2: st.assoc_log_expansion(f, 4, s2),
        ]
        for call in calls:
            with pytest.raises(InsufficientOrder):
                call(short)
            call(st.s2_assoc(f, 8))
        assert st.schloemilch_table(f, 4, st.s2_assoc(f, 8))[4][1] == st.s1_assoc(f, 4).entry(4, 1) == 16

    def test_s1_via_bernoulli(self):
        f = f_identity()
        s1 = st.s1_assoc(f, 8)
        for n in range(9):
            for k in range(n + 1):
                assert st.s1_via_bernoulli(f, n, k) == s1.entry(n, k)

    def test_schloemilch(self):
        f = delta(*([0, 1, 1] + [0] * 14))
        s1 = st.s1_assoc(f, 7)
        table = st.schloemilch_table(f, 7, st.s2_assoc(f, 14))
        for n in range(8):
            for k in range(n + 1):
                assert table[n][k] == s1.entry(n, k)

    def test_moment_sequence_identity(self):
        assert st.moment_sequence(f_identity(), 5) == [Fraction(1)] * 6

    def test_bell_moment_lemma(self):
        f = f_deg()
        ps = st.moment_sequence(f, 8)
        bell = st.lemma_bell_moments(ps, 6)
        sums = st.lemma_bell_moments_sums(f, 6, st.s2_assoc(f, 12))
        for n in range(7):
            for k in range(n + 1):
                assert bell[n][k] == sums[n][k]

    def test_bernoulli_three_ways(self):
        f = delta(*([0, 2, 1, -1] + [0] * 13))
        fb = st.compositional_inverse(f)
        s2 = st.s2_assoc(f, 12)
        ps = st.moment_sequence(f, 8)
        bell = st.lemma_bell_moments(ps, 6)
        via24 = st.bernoulli_table_via_lemma24(ps, bell, ALPHAS, 6)
        via_s2 = st.bernoulli_table_via_s2(f, ALPHAS, 6, s2)
        for i, alpha in enumerate(ALPHAS):
            fam = st.bernoulli_assoc(fb, Fraction(alpha), 6)
            for n in range(7):
                assert via24[i][n] == fam.values[n]
                assert via_s2[i][n] == fam.values[n]
        fam1 = st.bernoulli_assoc(fb, Fraction(1), 6)
        assert st.bernoulli_table_via_s2_alpha1(f, 6, s2) == list(fam1.values)

    def test_bernoulli_via_s2_takes_each_power_once(self, monkeypatch):
        # f1^(alpha + j) = f1^alpha f1^j: one rational power an alpha a table,
        # the powers f1^j by products
        calls = []
        real = st.scalar_rat_pow
        monkeypatch.setattr(st, "scalar_rat_pow", lambda s, e: calls.append(e) or real(s, e))
        for f in (delta(*([0, 2, 1, -1] + [0] * 9)), f_deg(12), delta(*([0, 1 + L, 2, L] + [0] * 9))):
            s2 = st.s2_assoc(f, 10)
            fb = st.compositional_inverse(f)
            for alphas in ((-1,), (2, 3), (-1, 2, 3)):
                for max_n in range(6):
                    calls.clear()
                    table = st.bernoulli_table_via_s2(f, alphas, max_n, s2)
                    assert len(calls) == len(alphas), (f.ring, alphas, max_n)
                    for alpha, values in zip(alphas, table):
                        assert values == list(st.bernoulli_assoc(fb, Fraction(alpha), max_n).values)
        assert {f.ring for f in (f_deg(12), delta(0, 1 + L))} == {sc.RING_QL, sc.RING_QLRAT}

    def test_log_expansion(self):
        f = f_deg()
        got = st.assoc_log_expansion(f, 8, st.s2_assoc(f, 14))
        assert got == st.assoc_log(f).truncate(8)


# one series a ring: f1 = 2 over Q, f1 = 1 over Q[l], f1 = 1 + l over Q(l),
# and f1 = 1 over Q for a rational alpha
TABLE_SERIES = {
    "Q": lambda: delta(*([0, 2, 1, -1] + [0] * 13)),
    "Q[l]": lambda: f_deg(16),
    "Q(l)": lambda: delta(*([0, 1 + L, 2, L] + [0] * 13)),
    "Q-unit": lambda: delta(*([0, 1, 1] + [0] * 14)),
}


def _cells(route, f, max_n, s2, alphas=ALPHAS, bell=None, ps=None):
    """A whole table, cell by cell through the per-cell formula of reference."""
    if route == "schloemilch":
        return [[ref.schloemilch_s1(f, n, k, s2) for k in range(n + 1)] for n in range(max_n + 1)]
    if route == "bell-moments":
        return [[ref.lemma_bell_moments_sum(f, n, k, s2) for k in range(n + 1)] for n in range(max_n + 1)]
    if route == "double-sum":
        return [[ref.bernoulli_via_s2(f, Fraction(a), n, s2) for n in range(max_n + 1)] for a in alphas]
    if route == "corollary":
        return [ref.bernoulli_via_s2_alpha1(f, n, s2) for n in range(max_n + 1)]
    if route == "lemma":
        return [[ref.bernoulli_via_lemma24(ps, bell, Fraction(a), n) for n in range(max_n + 1)] for a in alphas]
    return ref.assoc_log_expansion(f, max_n, s2)


def _table(route, f, max_n, s2, alphas=ALPHAS, bell=None, ps=None):
    if route == "schloemilch":
        return st.schloemilch_table(f, max_n, s2)
    if route == "bell-moments":
        return st.lemma_bell_moments_sums(f, max_n, s2)
    if route == "double-sum":
        return st.bernoulli_table_via_s2(f, alphas, max_n, s2)
    if route == "corollary":
        return st.bernoulli_table_via_s2_alpha1(f, max_n, s2)
    if route == "lemma":
        return st.bernoulli_table_via_lemma24(ps, bell, alphas, max_n)
    return st.assoc_log_expansion(f, max_n, s2)


ROUTES = ("schloemilch", "bell-moments", "double-sum", "corollary", "lemma", "expansion")


class TestTableRoutes:
    """Each whole-table route equals its per-cell formula, cell for cell,
    also on a corrupted triangle, and fails where the cells fail."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("ring", sorted(TABLE_SERIES))
    def test_equals_the_cells(self, route, ring):
        f = TABLE_SERIES[ring]()
        s2 = st.s2_assoc(f, 12)
        ps = st.moment_sequence(f, 7)
        bell = st.lemma_bell_moments(ps, 6)
        alphas = ALPHAS + ((Fraction(1, 2), Fraction(-5, 3)) if f[1] == 1 else ())
        for max_n in range(7):
            args = (route, f, max_n, s2, alphas, bell, ps)
            assert _table(*args) == _cells(*args), (max_n, alphas)
        bad = s2.with_entry(3, 1, s2.entry(3, 1) + L)
        assert _table(route, f, 6, bad, alphas, bell, ps) == _cells(route, f, 6, bad, alphas, bell, ps)

    @pytest.mark.parametrize("route", ("lemma", "double-sum"))
    def test_rational_alpha_needs_a_unit_lead(self, route):
        f = TABLE_SERIES["Q"]()
        s2 = st.s2_assoc(f, 8)
        ps = st.moment_sequence(f, 5)
        bell = st.lemma_bell_moments(ps, 4)
        for alphas in ((Fraction(1, 2),), (1, Fraction(1, 2))):
            with pytest.raises(NonRepresentablePower) as cell_err:
                _cells(route, f, 4, s2, alphas, bell, ps)
            with pytest.raises(NonRepresentablePower) as table_err:
                _table(route, f, 4, s2, alphas, bell, ps)
            assert str(table_err.value) == str(cell_err.value)

    @pytest.mark.parametrize("route", ("schloemilch", "bell-moments", "double-sum", "corollary", "expansion"))
    def test_short_triangles_fail_where_the_cells_fail(self, route):
        f = TABLE_SERIES["Q(l)"]()
        full = st.s2_assoc(f, 10)
        for alphas in ((-2,), (-1,), (0,), (-1, -2), (1,), ALPHAS):
            for max_n in range(6):
                for rows in range(2 * max_n + 1):
                    s2 = st.Triangle("s2", rows, full.rows[:rows + 1], full.ring)
                    try:
                        want = _cells(route, f, max_n, s2, alphas)
                    except InsufficientOrder as exc:
                        with pytest.raises(InsufficientOrder) as err:
                            _table(route, f, max_n, s2, alphas)
                        assert str(err.value) == str(exc), (alphas, max_n, rows)
                    else:
                        assert _table(route, f, max_n, s2, alphas) == want, (alphas, max_n, rows)
