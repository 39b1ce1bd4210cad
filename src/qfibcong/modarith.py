"""Modular and multiplicative arithmetic over prime fields.

Primes, factorization, the residue of a rational, multiplicative orders,
Euler's phi, square-freeness and the two quadratic-residue symbols the
rest of the library needs.  All functions are pure; a residue mod p is a plain int in [0, p).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError

Factorization = list[tuple[int, int]]

_TRIAL_LIMIT = 1000  # trial division covers all composites below _TRIAL_LIMIT**2
_RHO_SEED = 0x5EED
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # deterministic < 3.3e24
# The bound below which factorize and is_squarefree run Pollard rho, whose time grows as n**(1/4):
# a product of two primes near 1e9 took at most 0.07 s, one near 1e10 0.27 s (Python 3.11, 2-core
# Xeon VM).
_RHO_MAX_N = 10**20


_SEGMENT = 1 << 18


def prime_sieve(limit: int, lo: int = 2) -> list[int]:
    """All primes in [lo, limit], ascending.

    Segmented from max(lo, sqrt(limit)) with the base primes of a recursive
    call, so memory stays O(sqrt(limit) + segment) besides the output,
    however far the window lies from 2.
    """
    if limit < 2:
        return []
    root = math.isqrt(limit)
    base = prime_sieve(root)
    primes = [p for p in base if p >= lo]
    lo = max(lo, root + 1)
    while lo <= limit:
        hi = min(lo + _SEGMENT - 1, limit)
        mask = np.ones(hi - lo + 1, dtype=bool)
        for p in base:
            start = ((lo + p - 1) // p) * p
            if start <= hi:
                mask[start - lo :: p] = False
        primes.extend((np.flatnonzero(mask) + lo).tolist())
        lo = hi + 1
    return primes


@lru_cache(maxsize=4)  # whole windows, about 36 bytes per prime
def primes_upto(limit: int, lo: int = 2) -> tuple[int, ...]:
    """Cached variant of prime_sieve for repeated scans over the same window."""
    return tuple(prime_sieve(limit, lo))


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    return tuple(prime_sieve(_TRIAL_LIMIT))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any input the scans produce."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite n; fixed seed keeps runs reproducible."""
    rng = random.Random(_RHO_SEED ^ n)
    while True:
        c = rng.randrange(1, n)
        x = rng.randrange(0, n)
        y = x
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> Factorization:
    """Complete prime factorization of n >= 1, primes strictly increasing.

    It follows is_squarefree's rule: past the primes below _TRIAL_LIMIT, Pollard rho runs
    only on parts below _RHO_MAX_N, and a larger part must be a prime or a square, whose
    root is factored the same way, or DomainError is raised."""
    if n < 1:
        raise DomainError(f"factorize needs n >= 1, got {n}")
    whole = n
    factors: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if m < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(m):
                factors[m] = factors.get(m, 0) + 1
            elif m >= _RHO_MAX_N:
                root = math.isqrt(m)
                if root * root != m:
                    raise DomainError(
                        f"cannot factor {whole}: its part {m} has no prime factor below "
                        f"{_TRIAL_LIMIT}, is composite, not a square, and at least "
                        f"{_RHO_MAX_N:.0e}")
                stack += [root, root]
            else:
                d = _pollard_rho(m)
                stack.append(d)
                stack.append(m // d)
    return sorted(factors.items())


def reduce_rational(alpha: Fraction, p: int) -> int:
    """The image of alpha under Z_(p) -> Z/pZ, in [0, p); requires v_p(alpha) = 0."""
    num, den = alpha.numerator, alpha.denominator
    if num % p == 0:
        raise DomainError(f"{p} divides numerator of {alpha}")
    if den % p == 0:
        raise DomainError(f"{p} divides denominator of {alpha}")
    return num * pow(den, -1, p) % p


def lsym5(m: int) -> int:
    """The quadratic-residue symbol (m/5); the index-shift sign of the main congruence."""
    return (0, 1, -1, -1, 1)[m % 5]


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 0."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        raise DomainError("kronecker implemented for non-negative n only")
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def multiplicative_order(a: int, p: int) -> int:
    """Least d >= 1 with a**d = 1 mod the prime p, by dividing prime factors out of p - 1."""
    if a % p == 0:
        raise DomainError(f"0 mod {p} has no order")
    d = p - 1
    for q, _ in factorize(p - 1):
        while d % q == 0 and pow(a, d // q, p) == 1:
            d //= q
    return d


def euler_phi(n: int) -> int:
    if n < 1:
        raise DomainError(f"euler_phi needs n >= 1, got {n}")
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def is_squarefree(n: int) -> bool:
    """Whether n has no square factor.  Past the primes below _TRIAL_LIMIT, the rest of n
    is factored below _RHO_MAX_N; above, a square test or Miller-Rabin must settle it, or
    DomainError is raised."""
    if n < 1:
        return False
    rest = n
    for p in _trial_primes():
        if p * p > rest:
            return True
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                return False
    if rest < _RHO_MAX_N:
        return all(e == 1 for _, e in factorize(rest))
    if math.isqrt(rest) ** 2 == rest:
        return False
    if is_prime(rest):
        return True
    raise DomainError(f"cannot tell whether {n} is square-free: its part with no prime factor "
                      f"below {_TRIAL_LIMIT} is composite and at least {_RHO_MAX_N:.0e}")
