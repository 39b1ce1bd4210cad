"""What the Andrews route reads once the q-Lucas theorem has done its work.

With p - 1 = I*d, d the order of alpha, the q-Lucas theorem reduces the
q-binomials [p-1, m] at alpha to ordinary binomials C(I, m/d) mod p.  So
the Andrews route reads only d and one binomial row.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError
from .modarith import Residue, multiplicative_order


@lru_cache(maxsize=64)
def _context(p: int, a: int) -> int:
    """The order of the unit a mod p."""
    return multiplicative_order(Residue(a, p))


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
