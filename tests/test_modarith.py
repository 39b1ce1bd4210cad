import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qfibcong.errors import DomainError, InternalInvariantViolation
from qfibcong.modarith import (
    euler_phi,
    factorize,
    is_prime,
    is_squarefree,
    kronecker,
    lsym5,
    moebius,
    multiplicative_order,
    prime_sieve,
    primes_upto,
    reduce_rational,
    residual_index,
)

from _oracles import legendre, order_brute, phi_brute, primes_trial


def test_prime_sieve_matches_trial_division():
    # every limit to 2,000 pins the base cases of the sieve's recursion on sqrt(limit)
    expected = primes_trial(3000)
    assert prime_sieve(3000) == expected
    for limit in range(2001):
        assert prime_sieve(limit) == [p for p in expected if p <= limit]
    for limit in (3, 59, 60, 61, 2000, 3000):
        for lo in range(-2, 60):
            assert prime_sieve(limit, lo) == [p for p in expected if lo <= p <= limit]


def test_prime_sieve_edges():
    assert prime_sieve(0) == []
    assert prime_sieve(1) == []
    assert prime_sieve(2) == [2]
    assert prime_sieve(3) == [2, 3]


def test_prime_sieve_crosses_segment_boundary():
    # 2**18 is the segment size; make sure nothing is lost at the seam
    primes = prime_sieve((1 << 18) + 1000)
    assert len(primes) == len(set(primes))
    for p in primes[-20:]:
        assert is_prime(p)
    assert len(prime_sieve(10**6)) == 78498


@settings(max_examples=40, deadline=None)
@given(st.integers(0, (1 << 18) + 3000).flatmap(
    lambda hi: st.tuples(st.integers(-5, hi + 5), st.just(hi))))
@example((2, 1000))
@example((0, 1000))
@example((20, 10_000))  # lo below sqrt(hi)
# segments of 2**18 start at lo, so these windows straddle a seam;
# the second segment of [1023, ...] starts at the prime 263167
@example((1023, (1 << 18) + 3000))
@example(((1 << 18) - 500, 2 * (1 << 18) + 100))
def test_primes_upto_window_matches_filtered_full_sieve(window):
    lo, hi = window
    assert list(primes_upto(hi, lo)) == [p for p in prime_sieve(hi) if p >= lo]


def test_primes_upto_is_cached_tuple():
    assert primes_upto(100) is primes_upto(100)
    assert list(primes_upto(100)) == prime_sieve(100)


def test_is_prime_against_sieve():
    table = set(prime_sieve(10000))
    for n in range(10000):
        assert is_prime(n) == (n in table)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert not is_prime(3825123056546413051)  # strong pseudoprime to several bases


def test_factorize_known():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(10**9 + 7) == [(10**9 + 7, 1)]
    assert factorize(10_000_019 * 10_000_079) == [(10_000_019, 1), (10_000_079, 1)]


@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_roundtrip(n):
    fac = factorize(n)
    assert math.prod(p**e for p, e in fac) == n
    assert all(is_prime(p) for p, _ in fac)
    assert [p for p, _ in fac] == sorted({p for p, _ in fac})


def test_reduce_rational():
    assert reduce_rational(Fraction(1, 2), 7) == 4
    assert reduce_rational(Fraction(2, 3), 5) == 4
    assert reduce_rational(Fraction(-1, 3), 7) == 2
    with pytest.raises(DomainError, match="^7 divides numerator of 7/3$"):
        reduce_rational(Fraction(7, 3), 7)
    with pytest.raises(DomainError, match="^7 divides denominator of 3/14$"):
        reduce_rational(Fraction(3, 14), 7)


def test_legendre_euler_criterion():
    for p in primes_trial(50):
        if p == 2:
            continue
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expected = 0 if a % p == 0 else (1 if a in squares else -1)
            assert legendre(a, p) == expected
    with pytest.raises(DomainError):
        legendre(3, 4)
    with pytest.raises(DomainError):
        legendre(3, 2)


def test_lsym5_table():
    assert [lsym5(m) for m in range(1, 6)] == [1, -1, -1, 1, 0]
    assert lsym5(11) == 1
    assert lsym5(-1) == lsym5(4)


def test_kronecker_multiplicative_odd_case():
    # against legendre on odd prime moduli and full multiplicativity
    for p in (3, 5, 7, 11, 13):
        for a in range(1, 30):
            assert kronecker(a, p) == legendre(a, p)
    for a in range(1, 40):
        for n in range(1, 40):
            for m in range(1, 20):
                assert kronecker(a, n * m) == kronecker(a, n) * kronecker(a, m)


def test_kronecker_at_two():
    # (a/2) = 0, 1, -1 for a even, a = +-1 mod 8, a = +-3 mod 8
    assert kronecker(2, 2) == 0
    assert kronecker(7, 2) == 1
    assert kronecker(3, 2) == -1


def test_multiplicative_order_brute():
    for p in primes_trial(200):
        if p == 2:
            continue
        for a in range(1, p):
            assert multiplicative_order(a, p) == order_brute(a, p)
    for a in (0, 14):
        with pytest.raises(DomainError, match="^0 mod 7 has no order$"):
            multiplicative_order(a, 7)


def test_residual_index():
    assert residual_index(7, 3) == 2
    assert residual_index(11, 10) == 1
    with pytest.raises(InternalInvariantViolation):
        residual_index(11, 4)


def test_euler_phi_brute():
    for n in range(1, 200):
        assert euler_phi(n) == phi_brute(n)
    with pytest.raises(DomainError):
        euler_phi(0)


def test_moebius_and_squarefree():
    mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 10: 1, 12: 0, 30: -1}
    for n, v in mu.items():
        assert moebius(n) == v
        assert is_squarefree(n) == (v != 0)
    # Mertens-style identity: sum_{d | n} mu(d) = [n == 1]
    for n in range(1, 120):
        total = sum(moebius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)


def test_is_squarefree_settles_or_refuses():
    for n in range(1, 3000):
        assert is_squarefree(n) == all(e == 1 for _, e in factorize(n)), n
    # factored by Pollard rho below 10**20 once the primes below 1000 are stripped
    assert is_squarefree(1009 * 1013 * 1019) and not is_squarefree(1009**2 * 1013)
    # past it, settled by a square test or Miller-Rabin alone, or refused
    p, q = 10**30 + 57, 10**31 + 33  # both prime
    assert is_squarefree(6 * p) and not is_squarefree(6 * p * p)
    for n in (p * q, 6 * p * q):
        with pytest.raises(DomainError):
            is_squarefree(n)
