"""The q-Fibonacci sequence by independent routes, plus helpers around it.

Routes: the defining recurrence (exact polynomials and mod p), the
explicit alternating binomial sum evaluated through the base-d reduction,
and the ordinary Fibonacci numbers the q = 1 specialization recovers.
Also the integer double sums G_{n,m} that tie the congruence's two sides
together.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InternalInvariantViolation
from .modarith import Residue, lsym5
from .qanalogue import IntPoly, QLucasContext, _context, q_binomial_mod

_QFIB_POLYS: list[IntPoly] = [IntPoly.zero(), IntPoly.one()]

# The largest p with p*(p - 1) <= 2**63 - 1.  A recurrence step computes
# F1 + PW*F0 with every term below p in int64, so past it the step wraps.
RECURRENCE_MAX_P = 3_037_000_500


def qfib_poly(n: int) -> IntPoly:
    """F_n(q) as an exact polynomial: F_{n+2} = F_{n+1} + q**n F_n, F_0 = 0, F_1 = 1."""
    if n < 0:
        raise DomainError(f"qfib_poly needs n >= 0, got {n}")
    while len(_QFIB_POLYS) <= n:
        k = len(_QFIB_POLYS)
        _QFIB_POLYS.append(_QFIB_POLYS[k - 1] + _QFIB_POLYS[k - 2].shifted(k - 2))
    return _QFIB_POLYS[n]


def qfib_mod_recurrence(n: int, alpha: Residue) -> Residue:
    """F_n(alpha) mod p by the recurrence, maintaining the rolling power q**k."""
    if n < 0:
        raise DomainError(f"qfib_mod_recurrence needs n >= 0, got {n}")
    p = alpha.modulus
    a = alpha.value
    if n == 0:
        return Residue(0, p)
    f0, f1, pw = 0, 1, 1
    for _ in range(n - 1):
        f0, f1 = f1, (f1 + pw * f0) % p
        pw = pw * a % p
    return Residue(f1, p)


def qfib_mod_recurrence_many(primes: list[int], alpha_values: list[int]) -> list[int]:
    """F_p(alpha_p) mod p for an ascending batch of primes, vectorized.

    Runs the recurrence for the whole batch in lockstep and harvests each
    prime's value as the step count reaches it; dyadic blocking keeps the
    total work near sum(p).
    """
    if max(primes, default=0) > RECURRENCE_MAX_P:
        raise DomainError(f"the recurrence kernel needs p <= {RECURRENCE_MAX_P}, got {max(primes)}")
    out = [0] * len(primes)
    i = 0
    while i < len(primes):
        j = i
        cap = 2 * primes[i]
        while j < len(primes) and primes[j] < cap:
            j += 1
        _recurrence_block(primes[i:j], alpha_values[i:j], out, i)
        i = j
    return out


def _recurrence_block(ps: list[int], avals: list[int], out: list[int], offset: int) -> None:
    P = np.array(ps, dtype=np.int64)
    A = np.array(avals, dtype=np.int64)
    F0 = np.zeros(len(ps), dtype=np.int64)
    F1 = np.ones(len(ps), dtype=np.int64)
    PW = np.ones(len(ps), dtype=np.int64)
    k = 0
    for n in range(ps[-1] - 1):
        F0, F1 = F1, (F1 + PW * F0) % P
        PW = PW * A % P
        while k < len(ps) and ps[k] == n + 2:
            out[offset + k] = int(F1[k])
            k += 1


def _andrews_j_range(n: int) -> range:
    """Frozen summation window; terms outside it vanish identically."""
    ceil_fifth = -(-(n + 1) // 5)
    return range(-ceil_fifth - 1, (n - 1) // 5 + 2)


def qfib_mod_andrews(n: int, alpha: Residue, d: int, ctx: QLucasContext | None = None) -> Residue:
    """F_n(alpha) mod p by the explicit alternating q-binomial sum.

    Evaluates sum_j (-1)**j q**(j(5j+1)/2) [n-1, floor((n-1-5j)/2)] at
    q = alpha, each q-binomial through the base-d reduction; exponents are
    reduced mod p - 1 since alpha**(p-1) = 1.
    """
    p = alpha.modulus
    if n < 0:
        raise DomainError(f"qfib_mod_andrews needs n >= 0, got {n}")
    if n == 0:
        return Residue(0, p)
    if ctx is None:
        ctx = _context(p, alpha.value)
    if ctx.d != d:
        raise DomainError(f"d = {d} is not the order of {alpha.value} mod {p}")
    a = alpha.value
    nn = n - 1
    total = 0
    for j in _andrews_j_range(n):
        m = (nn - 5 * j) // 2
        if m < 0 or m > nn:
            continue
        e = j * (5 * j + 1)
        if e % 2 != 0:
            raise InternalInvariantViolation("j(5j+1) must be even")
        term = pow(a, (e // 2) % (p - 1), p) * ctx.q_binomial(nn, m) % p
        total = (total - term if j % 2 else total + term) % p
    return Residue(total, p)


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


def fib_mod(n: int, p: int) -> Residue:
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
    return Residue(a, p)


def g_value(n: int, m: int) -> int:
    """The integer G_{n,m}: a signed difference of two binomial sums over 5Z.

    (-1)**n * sum over k in 5Z of C(n, 3n+k) - C(n, 3(n - s*m)+k), where s
    is the mod-5 quadratic symbol of m.  Exact integers: the identities it
    satisfies (additive recurrence, Fibonacci link) are integer identities.
    """
    if n < 1:
        raise DomainError(f"g_value needs n >= 1, got {n}")
    s = lsym5(m)
    base1 = 3 * n
    base2 = 3 * (n - s * m)
    sum1 = sum(math.comb(n, i) for i in range(n + 1) if (i - base1) % 5 == 0)
    sum2 = sum(math.comb(n, i) for i in range(n + 1) if (i - base2) % 5 == 0)
    sign = -1 if n % 2 else 1
    return sign * (sum1 - sum2)
