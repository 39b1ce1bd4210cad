"""The order check the Andrews route makes before it trusts the q-Lucas theorem.

With p - 1 = I*d, the q-Lucas theorem reduces the q-binomials [p-1, m] at
alpha to ordinary binomials C(I, m/d) mod p only when d is exactly the
order of alpha.  A multiple of the order passes a**d = 1 and would give a
wrong residue, so the route checks d against each prime factor of d.
"""

from __future__ import annotations

from functools import lru_cache

from .modarith import factorize


# The cache is read by the benchmark's tracer (perfbench/tracer.py) for its
# qanalogue.context counters.
@lru_cache(maxsize=64)
def _context(p: int, a: int, d: int) -> bool:
    """Whether d is the order of a mod p: d divides p - 1, a**d = 1, and a**(d/q) != 1 for
    every prime q dividing d.  It factors d alone, never p - 1."""
    return (0 < d and (p - 1) % d == 0 and pow(a, d, p) == 1
            and all(pow(a, d // q, p) != 1 for q, _ in factorize(d)))
