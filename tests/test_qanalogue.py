import math

import pytest

from qfibcong.errors import DomainError
from qfibcong.modarith import multiplicative_order
from qfibcong.qanalogue import _context
from qfibcong.qfib import qfib_mod_andrews

from _oracles import (
    c_k,
    c_k_all,
    primes_trial,
    q_binomial,
    q_int,
    q_ratio,
    qpascal_row,
    qpascal_table,
)


def test_q_integer():
    # [n]_a = 1 + a + ... + a**(n-1) mod p, which is n mod p at a = 1
    for p, a in ((7, 2), (13, 5), (31, 1)):
        for n in range(1, 3 * p):
            assert q_int(n, a, p) == sum(pow(a, i, p) for i in range(n)) % p


def test_q_binomial_mod_examples():
    # 2 has order 3 mod 7
    assert q_binomial(6, 3, 2, 7, 3) == 2
    assert qpascal_table(6, 2, 7)[6][3] == 2
    assert q_binomial(5, 0, 2, 7, 3) == 1
    assert q_binomial(4, 9, 2, 7, 3) == 0
    assert q_binomial(4, -2, 2, 7, 3) == 0


def test_q_binomial_mod_requires_true_order():
    # the Andrews route reduces its q-binomials base d, so it refuses a d that does not divide p - 1
    with pytest.raises(DomainError):
        qfib_mod_andrews(7, 2, 4)


def test_order_check_accepts_the_order_alone():
    # among the divisors of p - 1, the Andrews route's check passes only the order itself
    for p in primes_trial(60)[1:]:
        for a in range(1, p):
            d = multiplicative_order(a, p)
            for e in range(1, p):
                if (p - 1) % e == 0:
                    assert _context(p, a, e) == (e == d), (p, a, e)


def test_q_binomial_mod_row_p_minus_1():
    # row p-1 vanishes off multiples of the order and is binomial on them:
    # the lemma the Andrews route rests on, checked on the naive triangle too
    for p in primes_trial(60):
        if p == 2:
            continue
        for a in range(1, p):
            d = multiplicative_order(a, p)
            idx = (p - 1) // d
            row = qpascal_row(p - 1, a, p)
            for k in range(p):
                expected = math.comb(idx, k // d) % p if k % d == 0 else 0
                assert q_binomial(p - 1, k, a, p, d) == expected
                assert row[k] == expected


def test_q_binomial_mod_against_pascal_oracle():
    for p in (3, 5, 7, 11, 13, 17):
        for a in range(2, p):
            d = multiplicative_order(a, p)
            table = qpascal_table(p - 1, a, p)
            for n in range(p):
                for m in range(n + 1):
                    assert q_binomial(n, m, a, p, d) == int(table[n][m])


def test_q_ratio_examples():
    assert q_ratio(5, 2, 2, 7) == 1
    assert q_ratio(6, 3, 2, 7) == 2
    for l in range(1, 7):
        assert q_ratio(l, l, 2, 7) == 1


def test_q_ratio_preconditions():
    # 2 has order 3 mod 7
    with pytest.raises(DomainError):
        q_ratio(5, 3, 2, 7)  # 5 != 3 mod 3
    with pytest.raises(DomainError):
        q_ratio(4, 0, 2, 7)
    with pytest.raises(DomainError):
        q_ratio(4, 7, 2, 7)


def test_q_ratio_is_unit_valued():
    # the ratio always lands in Z_(p) and both branches are exercised
    for p in primes_trial(60):
        if p == 2:
            continue
        for a in range(2, p):
            d = multiplicative_order(a, p)
            for l in range(1, p):
                k = l + d
                got = q_ratio(k, l, a, p)
                if l % d == 0:
                    assert got == k * pow(l, -1, p) % p
                else:
                    assert got == 1


def test_c_k_examples():
    assert c_k(0, 2, 7) == 2
    with pytest.raises(DomainError):
        c_k(5, 2, 7)  # k > p - 1 - ord
    with pytest.raises(DomainError):
        c_k(-1, 2, 7)


def test_c_k_lattice_formula():
    # C_{l*ord} = (I - l) / (l + 1) mod p
    for p, a in ((7, 2), (13, 3), (31, 2), (101, 5)):
        d = multiplicative_order(a, p)
        idx = (p - 1) // d
        for l in range(idx):
            got = c_k(l * d, a, p)
            expected = (idx - l) * pow(l + 1, -1, p) % p
            assert got == expected


def test_c_k_never_vanishes():
    for p in primes_trial(500)[-8:]:
        for a in (2, 3, p - 2):
            d = multiplicative_order(a, p)
            for k in range(0, p - d, 7):
                assert c_k(k, a, p) != 0


def test_c_k_all_matches_c_k():
    for p in primes_trial(100):
        if p == 2:
            continue
        for a in range(2, p):
            d = multiplicative_order(a, p)
            batch = c_k_all(a, p)
            assert len(batch) == p - d
            for k in range(p - d):
                assert batch[k] == c_k(k, a, p)
