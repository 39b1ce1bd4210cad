"""The q-Fibonacci sequence by independent routes, plus helpers around it.

Routes: the defining recurrence (exact polynomials and mod p), Andrews'
explicit alternating q-binomial sum at n = p, reduced by the q-Lucas
theorem to I + 1 ordinary binomials, and the ordinary Fibonacci numbers
the q = 1 specialization recovers.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import add

import numpy as np

from .errors import DomainError
from .qanalogue import _context

_QFIB_POLYS: list[tuple[int, ...]] = [(), (1,)]

# The largest p with p*(p - 1) <= 2**63 - 1.  A recurrence step computes
# F1 + PW*F0 with every term below p in int64, so past it the step wraps.
RECURRENCE_MAX_P = 3_037_000_500

# The largest p with p*(p - 1) <= 2**32 - 1, by the same step bound: primes up
# to it run the lockstep in uint32, whose multiply and % cost about half of
# int64's, and the primes above it in int64.
_UINT32_MAX_P = 65_536

# A lockstep step costs 2.5-2.9 us of numpy overhead at 16-32 lanes, in uint32
# and int64 alike, a scalar step 0.14 us (numpy 2.4, Python 3.11, one core of
# a Xeon VM), so a batch of similar primes pays for the lockstep from about
# 19 primes on.
_LOCKSTEP_MIN_BATCH = 20

# The largest n for qfib_poly.  F_n(q) has degree about n**2/4, and the
# cache of F_0..F_n grows as n**3: n = 300 peaks at 171 MB, n = 600 at 1.2 GB.
POLY_MAX_N = 300


def qfib_poly(n: int) -> tuple[int, ...]:
    """F_n(q)'s exact coefficients, constant term first: F_{n+2} = F_{n+1} + q**n F_n,
    F_0 = 0 (the empty tuple), F_1 = 1."""
    if not 0 <= n <= POLY_MAX_N:
        raise DomainError(f"qfib_poly needs 0 <= n <= {POLY_MAX_N}, got {n}")
    while len(_QFIB_POLYS) <= n:
        k = len(_QFIB_POLYS)
        f1, f0 = _QFIB_POLYS[k - 1], (0,) * (k - 2) + _QFIB_POLYS[k - 2]
        # map stops at the shorter tuple; the longer one's tail follows unchanged
        _QFIB_POLYS.append(tuple(map(add, f1, f0)) + (f1[len(f0):] or f0[len(f1):]))
    return _QFIB_POLYS[n]


def qfib_mod_recurrence(n: int, a: int, p: int) -> int:
    """F_n(a) mod p by the recurrence, maintaining the rolling power q**k."""
    if n < 0:
        raise DomainError(f"qfib_mod_recurrence needs n >= 0, got {n}")
    if n == 0:
        return 0
    f0, f1, pw = 0, 1, 1
    for _ in range(n - 1):
        f0, f1 = f1, (f1 + pw * f0) % p
        pw = pw * a % p
    return f1


def qfib_mod_recurrence_many(primes: list[int], alpha_values: list[int]) -> list[int]:
    """F_p(alpha_p) mod p for an ascending batch of primes.

    The batch is split once at _UINT32_MAX_P, and each part runs in the
    narrowest lanes its step values fit: uint32 below the split, int64 above.
    """
    if max(primes, default=0) > RECURRENCE_MAX_P:
        raise DomainError(f"the recurrence kernel needs p <= {RECURRENCE_MAX_P}, got {max(primes)}")
    if any(q < p for p, q in zip(primes, primes[1:])):
        raise DomainError("the recurrence kernel needs the primes in ascending order")
    cut = bisect_right(primes, _UINT32_MAX_P)
    return (_recurrence_lanes(primes[:cut], alpha_values[:cut], np.uint32)
            + _recurrence_lanes(primes[cut:], alpha_values[cut:], np.int64))


def _recurrence_lanes(primes: list[int], alpha_values: list[int], dtype: type) -> list[int]:
    """F_p(alpha_p) mod p for ascending primes whose step values fit in dtype.

    A batch of at least _LOCKSTEP_MIN_BATCH primes runs the recurrence in
    numpy lockstep: the front prime's value is harvested as the step count
    reaches it, and the arrays are then cut down to the primes not yet
    finished, so the work is exactly sum(p - 1).  Shorter batches run the
    scalar recurrence prime by prime.
    """
    if len(primes) < _LOCKSTEP_MIN_BATCH:
        return [qfib_mod_recurrence(p, a, p) for p, a in zip(primes, alpha_values)]
    P = np.array(primes, dtype=dtype)
    A = np.array(alpha_values, dtype=dtype)
    F0 = np.zeros(len(primes), dtype=dtype)
    F1 = np.ones(len(primes), dtype=dtype)
    PW = np.ones(len(primes), dtype=dtype)
    out = []
    n = 1  # F1 holds F_n
    for p in primes:
        for _ in range(p - n):
            F0, F1 = F1, (F1 + PW * F0) % P
            PW = PW * A % P
        n = p
        out.append(int(F1[0]))
        P, A, F0, F1, PW = P[1:], A[1:], F0[1:], F1[1:], PW[1:]
    return out


class RouteValue(int):
    """F_p(alpha) mod p as a cross-check route returns it: a plain int that also answers
    .value, the attribute the benchmark's route check (perfbench/workloads.py) reads."""

    @property
    def value(self) -> int:
        return int(self)


def binomial_row(n: int, p: int) -> list[int]:
    """C(n, k) mod p for k = 0..n and a prime p > n, by C(n, k + 1) = C(n, k) * (n - k) / (k + 1)
    with the inverses of 1..n from the linear-time table inv[i] = -(p // i) * inv[p % i]."""
    if not 0 <= n < p:
        raise DomainError(f"binomial_row needs 0 <= n < p = {p}, got n = {n}")
    inv = [0, 1]
    for i in range(2, n + 1):
        inv.append((p - p // i) * inv[p % i] % p)
    row = [comb := 1]
    for k in range(n):
        row.append(comb := comb * (n - k) % p * inv[k + 1] % p)
    return row


def qfib_mod_andrews(p: int, a: int, d: int) -> RouteValue:
    """F_p(a) mod the odd prime p by Andrews' alternating q-binomial sum, for a unit a mod p
    of order d.

    Andrews' formula is F_p = sum_j (-1)**j q**(j(5j+1)/2) [p-1, floor((p-1-5j)/2)].
    With p - 1 = I*d, the q-Lucas theorem gives [p-1, m] = C(I, m/d) at q = a
    when d divides m, and 0 otherwise.  So only m = k*d, k = 0..I, survive:
    with t = p - 1 - 2kd, m = kd exactly when t mod 5 is 0 or 1, and then j = t // 5.
    That is O(I) terms; exponents are reduced mod p - 1 since a**(p-1) = 1.

    The caller passes d, as the residual data gives it; the route factors d, not p - 1,
    to check that d is exactly the order of a, and raises DomainError otherwise.
    """
    if not _context(p, a, d):
        raise DomainError(f"d = {d} is not the order of {a} mod {p}")
    total = 0
    for k, comb in enumerate(binomial_row((p - 1) // d, p)):
        t = p - 1 - 2 * k * d
        if t % 5 > 1:
            continue
        j = t // 5
        term = pow(a, j * (5 * j + 1) // 2 % (p - 1), p) * comb % p
        total = (total - term if j % 2 else total + term) % p
    return RouteValue(total)


def fib(n: int) -> int:
    """Ordinary Fibonacci number, exact, by fast doubling."""
    if n < 0:
        raise DomainError(f"fib needs n >= 0, got {n}")
    return _fib_pair(n)[0]


def _fib_pair(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) by fast doubling."""
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if n & 1 else (c, d)


def fib_mod(n: int, p: int) -> int:
    """F_n mod p by fast doubling, O(log n)."""
    if n < 0:
        raise DomainError(f"fib_mod needs n >= 0, got {n}")
    a, b = 0, 1
    for bit in bin(n)[2:]:
        c = a * (2 * b - a) % p
        d = (a * a + b * b) % p
        if bit == "1":
            a, b = d, (c + d) % p
        else:
            a, b = c, d
    return a


def fib_mod_lanes(n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """F_n mod p lane by lane, by fast doubling from the top bit of the largest n, for int64
    lanes with n >= 0 and p <= RECURRENCE_MAX_P.  2b - a and each square are reduced before
    they are added, so no sum passes 2p and no product (p - 1)**2; a lane's leading zero
    bits keep (F_0, F_1) = (0, 1)."""
    a, b = np.zeros_like(p), np.ones_like(p)
    for shift in range(int(n.max(initial=0)).bit_length() - 1, -1, -1):
        c = a * ((2 * b - a) % p) % p
        d = (a * a % p + b * b % p) % p
        bit = (n >> shift) & 1 == 1
        a, b = np.where(bit, d, c), np.where(bit, (c + d) % p, d)
    return a
