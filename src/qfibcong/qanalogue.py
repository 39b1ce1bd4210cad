"""Exact polynomials in q, and Gaussian (q-)binomials mod p.

IntPoly carries the exact q-Fibonacci polynomials.  QLucasContext
evaluates q-integers and Gaussian binomials at a residue alpha of
multiplicative order d without ever constructing a polynomial, via the
base-d (q-Lucas) reduction.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

from .errors import NotInvertible
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
    """Per-(p, alpha) tables backing base-d q-binomial evaluation.

    Holds k! and the q-factorials [1]_a ... [k]_a mod p, each grown in place
    only as far as a call reads it; the Andrews row p - 1 = I*d reads k! up
    to I! and no q-factorial.  Growth takes no lock: share no context across threads.
    """

    __slots__ = ("p", "a", "d", "_fact", "_qfact")

    def __init__(self, alpha: Residue):
        if alpha.value == 0:
            raise NotInvertible("alpha must be a unit mod p")
        self.p = alpha.modulus
        self.a = alpha.value
        self.d = multiplicative_order(alpha)
        self._fact = [1]
        self._qfact = [1]

    def _ratio(self, table: list[int], factor: Callable[[int], int], n: int, m: int) -> int:
        """table[n] / (table[m] * table[n - m]) mod p, growing table through index n.

        table[k] is factor(1) * ... * factor(k) mod p; every factor up to n must be a unit.
        """
        p = self.p
        while len(table) <= n:
            table.append(table[-1] * factor(len(table)) % p)
        return table[n] * pow(table[m] * table[n - m] % p, -1, p) % p

    def comb_mod(self, n: int, m: int) -> int:
        """C(n, m) mod p via factorials, with base-p reduction for n >= p."""
        if m < 0 or m > n:
            return 0
        p = self.p
        out = 1
        while n or m:
            n, n0 = divmod(n, p)
            m, m0 = divmod(m, p)
            if m0 > n0:
                return 0
            out = out * self._ratio(self._fact, int, n0, m0) % p
        return out

    def q_binomial(self, n: int, m: int) -> int:
        """Gaussian binomial [n, m] evaluated at alpha mod p, base-d reduction."""
        if m < 0 or m > n:
            return 0
        n1, n0 = divmod(n, self.d)
        m1, m0 = divmod(m, self.d)
        if m0 > n0:
            return 0
        return self.comb_mod(n1, m1) * self._ratio(self._qfact, self.q_int, n0, m0) % self.p

    def q_int(self, n: int) -> int:
        """[n]_alpha mod p."""
        p, a = self.p, self.a
        if a == 1:
            return n % p
        return (pow(a, n, p) - 1) * pow(a - 1, -1, p) % p


@lru_cache(maxsize=64)
def _context(p: int, a: int) -> QLucasContext:
    return QLucasContext(Residue(a, p))
