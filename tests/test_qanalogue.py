import math

import pytest

from qfibcong.errors import DomainError
from qfibcong.modarith import Residue, multiplicative_order
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
    # the Andrews route reduces its q-binomials base d, so it refuses a wrong order
    with pytest.raises(DomainError):
        qfib_mod_andrews(7, Residue(2, 7), 4)


def test_q_binomial_mod_row_p_minus_1():
    # row p-1 vanishes off multiples of the order and is binomial on them:
    # the lemma the Andrews route rests on, checked on the naive triangle too
    for p in primes_trial(60):
        if p == 2:
            continue
        for a in range(1, p):
            d = multiplicative_order(Residue(a, p))
            idx = (p - 1) // d
            row = qpascal_row(p - 1, a, p)
            for k in range(p):
                expected = math.comb(idx, k // d) % p if k % d == 0 else 0
                assert q_binomial(p - 1, k, a, p, d) == expected
                assert row[k] == expected


def test_q_binomial_mod_against_pascal_oracle():
    for p in (3, 5, 7, 11, 13, 17):
        for a in range(2, p):
            d = multiplicative_order(Residue(a, p))
            table = qpascal_table(p - 1, a, p)
            for n in range(p):
                for m in range(n + 1):
                    assert q_binomial(n, m, a, p, d) == int(table[n][m])


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
