import math
import sys
from fractions import Fraction

from deltaseries import classical as cl
from deltaseries import scalar as sc

L = sc.LAMBDA


def test_comb0_conventions():
    assert cl.comb0(5, 2) == 10
    assert cl.comb0(5, 6) == 0
    assert cl.comb0(5, -1) == 0
    assert cl.comb0(0, 0) == 1
    assert cl.comb0(-1, 0) == 1  # C(m, 0) = 1 for every m


def test_binom_shift():
    assert cl.binom_shift(0, 0) == 1
    assert cl.binom_shift(4, 2) == 3
    assert cl.binom_shift(4, 0) == 0
    assert cl.binom_shift(4, 5) == 0


def test_classical_triangles():
    # second kind row 5: 1, 15, 25, 10, 1
    assert [cl.classical_s2(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]
    # signed first kind row 4: 0, -6, 11, -6, 1
    assert [cl.classical_s1(4, k) for k in range(5)] == [0, -6, 11, -6, 1]
    # mutual inversion
    for n in range(8):
        for l in range(n + 1):
            tot = sum(cl.classical_s2(n, k) * cl.classical_s1(k, l) for k in range(l, n + 1))
            assert tot == (1 if n == l else 0)


def test_classical_stirling_past_the_recursion_limit():
    # the rows are built by a loop; n = 1500 once raised RecursionError
    n = 1500
    assert n > sys.getrecursionlimit()
    assert cl.classical_s2(n, 2) == 2 ** (n - 1) - 1
    assert cl.classical_s2(n, 3) == (3**n - 3 * 2**n + 3) // 6
    assert cl.classical_s1(n, 1) == (-1) ** (n - 1) * math.factorial(n - 1)
    assert cl.classical_s1(n, 0) == cl.classical_s2(n, 0) == cl.classical_s2(n, n + 1) == 0


def test_lah_numbers():
    assert cl.lah(4, 2) == 36
    assert cl.lah(0, 0) == 1
    assert cl.lah(3, 0) == 0
    # recurrence L(n+1,k) = (n+k)L(n,k) + L(n,k-1)
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert cl.lah(n + 1, k) == (n + k) * cl.lah(n, k) + cl.lah(n, k - 1)


def test_falling_factorials():
    assert cl.deg_falling_value(5, 3, 1) == 60
    assert cl.deg_falling_value(L, 2, 1) == L**2 - L


def test_deg_falling_coeffs():
    # (x)_{3,l} = x(x-l)(x-2l) = 2l^2 x - 3l x^2 + x^3
    c = cl.deg_falling_coeffs(3, L)
    assert c[0] == 0 and c[1] == 2 * L**2 and c[2] == -3 * L and c[3] == 1
    # at l=1 these are the ordinary falling factorials (signed Stirling)
    c1 = cl.deg_falling_coeffs(4, Fraction(1))
    assert list(c1) == [Fraction(cl.classical_s1(4, m)) for m in range(5)]


def test_deg_falling_value():
    assert cl.deg_falling_value(Fraction(1, 2), 2, L) == Fraction(1, 4) - L / 2


def test_basis_round_trip():
    mono = [Fraction(3), Fraction(-1), Fraction(0), Fraction(2)]
    fall = cl.to_deg_falling_basis(mono, L)
    back = [Fraction(0)] * len(mono)
    for k, c in enumerate(fall):
        if not c:
            continue
        for m, b in enumerate(cl.deg_falling_coeffs(k, L)):
            back[m] = sc.simplify(back[m] + c * b)
    assert back == [sc.simplify(c) for c in mono]


def test_deg_stirling_lambda_limits():
    # both kinds collapse to the classical numbers at l = 0 ... after eval
    for n in range(7):
        for k in range(n + 1):
            assert sc.eval_lambda(cl.deg_s2(n, k, L), Fraction(0)) == cl.classical_s2(n, k)
            assert sc.eval_lambda(cl.deg_s1(n, k, L), Fraction(0)) == cl.classical_s1(n, k)


def test_deg_stirling_orthogonality():
    for n in range(6):
        for l in range(n + 1):
            tot = Fraction(0)
            for k in range(l, n + 1):
                tot = tot + cl.deg_s2(n, k, L) * cl.deg_s1(k, l, L)
            assert sc.simplify(tot) == (1 if n == l else 0)


def test_deg_lah_is_s2_at_negated_lambda():
    for n in range(6):
        for k in range(n + 1):
            assert cl.deg_lah(n, k, L) == cl.deg_s2(n, k, -L)
    # and at l = 1 the degenerate Lah numbers are the classical ones
    for n in range(6):
        for k in range(n + 1):
            assert cl.deg_lah(n, k, Fraction(1)) == cl.lah(n, k)
