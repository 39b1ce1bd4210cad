"""Exact polynomials in q, and the per-(p, alpha) context of the Andrews route.

IntPoly carries the exact q-Fibonacci polynomials.  QLucasContext holds
what the Andrews route reads once the q-Lucas theorem has reduced its
q-binomials at alpha to ordinary binomials C(I, k) mod p: the order d of
alpha and a factorial table.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, NotInvertible
from .modarith import Residue, multiplicative_order


class IntPoly:
    """Dense polynomial in q with arbitrary-precision integer coefficients.

    coeffs[i] is the coefficient of q**i; the trailing coefficient is
    nonzero unless the polynomial is zero (empty tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls()

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def shifted(self, k: int) -> "IntPoly":
        """Multiplication by q**k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def eval_mod(self, a: int, p: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % p
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{i}" if mag == 1 else f"{mag}*q^{i}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"


class QLucasContext:
    """Per-(p, alpha) data the Andrews route reads: alpha's order d and k! mod p.

    The factorial table grows in place only as far as comb_mod reads it; the
    Andrews row p - 1 = I*d reads it up to I!.  Growth takes no lock: share no
    context across threads.
    """

    __slots__ = ("p", "a", "d", "_fact")

    def __init__(self, alpha: Residue):
        if alpha.value == 0:
            raise NotInvertible("alpha must be a unit mod p")
        self.p = alpha.modulus
        self.a = alpha.value
        self.d = multiplicative_order(alpha)
        self._fact = [1]

    def comb_mod(self, n: int, m: int) -> int:
        """C(n, m) mod p for 0 <= n < p, from the factorial table."""
        p, fact = self.p, self._fact
        if not 0 <= n < p:
            raise DomainError(f"comb_mod needs 0 <= n < p = {p}, got n = {n}")
        if m < 0 or m > n:
            return 0
        while len(fact) <= n:
            fact.append(fact[-1] * len(fact) % p)
        return fact[n] * pow(fact[m] * fact[n - m] % p, -1, p) % p


@lru_cache(maxsize=64)
def _context(p: int, a: int) -> QLucasContext:
    return QLucasContext(Residue(a, p))
