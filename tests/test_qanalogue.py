import math

import pytest

from qfibcong.errors import DomainError
from qfibcong.modarith import Residue, multiplicative_order
from qfibcong.qanalogue import (
    QBINOM_MAX_N,
    IntPoly,
    QLucasContext,
    _context,
    c_k,
    c_k_all,
    q_binomial_mod,
    q_binomial_poly,
    q_factorial,
    q_integer,
    q_ratio,
)
from qfibcong.qfib import qfib_mod_andrews, qfib_mod_recurrence

from _oracles import primes_trial, qpascal_table


def poly(*coeffs):
    return IntPoly(coeffs)


def test_intpoly_basics():
    p = poly(1, 2, 1)
    assert p.degree == 2
    assert p(3) == 16
    assert p.eval_mod(3, 7) == 2
    assert (p - p).is_zero
    assert p.shifted(2).coeffs == (0, 0, 1, 2, 1)
    assert str(poly(1, 1, 2)) == "1 + q + 2*q^2"
    assert str(IntPoly.zero()) == "0"


def test_q_integer():
    assert q_integer(1) == IntPoly.one()
    assert q_integer(3) == poly(1, 1, 1)
    for n in range(1, 51):
        assert q_integer(n)(1) == n
    with pytest.raises(DomainError):
        q_integer(0)


def test_q_binomial_poly_examples():
    assert q_binomial_poly(4, 2) == poly(1, 1, 2, 1, 1)
    assert q_binomial_poly(3, 4).is_zero
    assert q_binomial_poly(5, -1).is_zero
    for n in range(10):
        assert q_binomial_poly(n, 0) == IntPoly.one()


def test_q_binomial_poly_specializes_to_binomial():
    for n in range(61):
        for m in range(n + 1):
            assert q_binomial_poly(n, m)(1) == math.comb(n, m)


def test_q_binomial_poly_symmetry():
    for n in range(41):
        for m in range(n + 1):
            assert q_binomial_poly(n, m) == q_binomial_poly(n, n - m)


def test_q_binomial_poly_is_bounded():
    assert QBINOM_MAX_N == 64
    assert q_binomial_poly(64, 32)(1) == math.comb(64, 32)
    with pytest.raises(DomainError):
        q_binomial_poly(65, 1)


def test_q_binomial_poly_product_formula():
    # [n]! = [n, m] * [m]! * [n-m]! pins the q-Pascal variant to the product form
    for n in range(21):
        for m in range(n + 1):
            lhs = q_factorial(n)
            rhs = q_binomial_poly(n, m) * q_factorial(m) * q_factorial(n - m)
            assert lhs == rhs


def test_q_binomial_mod_examples():
    alpha = Residue(2, 7)
    assert q_binomial_mod(6, 3, alpha, 3).value == 2
    assert q_binomial_poly(6, 3).eval_mod(2, 7) == 2
    assert q_binomial_mod(5, 0, alpha, 3).value == 1
    assert q_binomial_mod(4, 9, alpha, 3).value == 0
    assert q_binomial_mod(4, -2, alpha, 3).value == 0


def test_q_binomial_mod_requires_true_order():
    with pytest.raises(DomainError):
        q_binomial_mod(6, 3, Residue(2, 7), 4)


def test_q_binomial_mod_row_p_minus_1():
    # row p-1 vanishes off multiples of the order and is binomial on them
    for p in primes_trial(60):
        if p == 2:
            continue
        for a in range(2, p):
            d = multiplicative_order(Residue(a, p))
            idx = (p - 1) // d
            for k in range(p):
                v = q_binomial_mod(p - 1, k, Residue(a, p), d).value
                expected = math.comb(idx, k // d) % p if k % d == 0 else 0
                assert v == expected


def test_q_binomial_mod_against_pascal_oracle():
    for p in (3, 5, 7, 11, 13, 17):
        for a in range(2, p):
            d = multiplicative_order(Residue(a, p))
            table = qpascal_table(p - 1, a, p)
            for n in range(p):
                for m in range(n + 1):
                    assert q_binomial_mod(n, m, Residue(a, p), d).value == int(table[n][m])


def test_q_ratio_examples():
    alpha = Residue(2, 7)
    assert q_ratio(5, 2, alpha).value == 1
    assert q_ratio(6, 3, alpha).value == 2
    for l in range(1, 7):
        assert q_ratio(l, l, alpha).value == 1


def test_q_ratio_preconditions():
    alpha = Residue(2, 7)  # order 3
    with pytest.raises(DomainError):
        q_ratio(5, 3, alpha)  # 5 != 3 mod 3
    with pytest.raises(DomainError):
        q_ratio(4, 0, alpha)
    with pytest.raises(DomainError):
        q_ratio(4, 7, alpha)


def test_q_ratio_is_unit_valued():
    # the ratio always lands in Z_(p) and both branches are exercised
    for p in primes_trial(60):
        if p == 2:
            continue
        for a in range(2, p):
            alpha = Residue(a, p)
            d = multiplicative_order(alpha)
            for l in range(1, p):
                k = l + d
                got = q_ratio(k, l, alpha).value
                if l % d == 0:
                    assert got == k * pow(l, -1, p) % p
                else:
                    assert got == 1


def test_c_k_examples():
    alpha = Residue(2, 7)
    assert c_k(0, alpha).value == 2
    with pytest.raises(DomainError):
        c_k(5, alpha)  # k > p - 1 - ord
    with pytest.raises(DomainError):
        c_k(-1, alpha)


def test_c_k_lattice_formula():
    # C_{l*ord} = (I - l) / (l + 1) mod p
    for p, a in ((7, 2), (13, 3), (31, 2), (101, 5)):
        alpha = Residue(a, p)
        d = multiplicative_order(alpha)
        idx = (p - 1) // d
        for l in range(idx):
            got = c_k(l * d, alpha).value
            expected = (idx - l) * pow(l + 1, -1, p) % p
            assert got == expected


def test_c_k_never_vanishes():
    for p in primes_trial(500)[-8:]:
        for a in (2, 3, p - 2):
            alpha = Residue(a, p)
            d = multiplicative_order(alpha)
            for k in range(0, p - d, 7):
                assert c_k(k, alpha).value != 0


def test_c_k_all_matches_c_k():
    for p in primes_trial(100):
        if p == 2:
            continue
        for a in range(2, p):
            alpha = Residue(a, p)
            d = multiplicative_order(alpha)
            batch = c_k_all(alpha)
            assert len(batch) == p - d
            for k in range(p - d):
                assert batch[k] == c_k(k, alpha).value


def test_context_tables():
    ctx = QLucasContext(Residue(2, 7))
    assert ctx.d == 3
    assert ctx.q_int(1) == 1
    assert ctx.q_int(2) == 3
    assert ctx.comb_mod(6, 3) == math.comb(6, 3) % 7
    assert ctx.comb_mod(10, 4) == math.comb(10, 4) % 7


def test_context_tables_grow_only_as_far_as_read():
    # at n = p with a primitive root, the base-d reduction reads 0! and 1!
    # (C(I, m1) with I = 1) and only the empty q-factorial (n0 = 0)
    p = 140_009
    a = next(a for a in range(2, p) if multiplicative_order(Residue(a, p)) == p - 1)
    alpha = Residue(a, p)
    assert qfib_mod_andrews(p, alpha, p - 1) == qfib_mod_recurrence(p, alpha)
    ctx = _context(p, a)
    assert len(ctx._fact) <= 2
    assert len(ctx._qfact) <= 1
