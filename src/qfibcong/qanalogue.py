"""q-integers, q-factorials and Gaussian (q-)binomials, exact and mod p.

The exact side works with dense integer-coefficient polynomials in q;
the modular side evaluates the same quantities at a residue alpha of
multiplicative order d without ever constructing a polynomial, via the
base-d (q-Lucas) reduction.
"""

from __future__ import annotations

from collections.abc import Callable
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

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

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

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPoly(out)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def shifted(self, k: int) -> "IntPoly":
        """Multiplication by q**k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


def q_integer(n: int) -> IntPoly:
    """[n]_q = 1 + q + ... + q**(n-1)."""
    if n <= 0:
        raise DomainError(f"q_integer needs n >= 1, got {n}")
    return IntPoly((1,) * n)


def q_factorial(n: int) -> IntPoly:
    """[n]_q! = [n]_q [n-1]_q ... [1]_q, with the empty product at n = 0."""
    if n < 0:
        raise DomainError(f"q_factorial needs n >= 0, got {n}")
    out = IntPoly.one()
    for i in range(1, n + 1):
        out = out * q_integer(i)
    return out


# Row cache for the q-Pascal recurrence; rows are write-once and idempotent.
_QBINOM_ROWS: list[list[IntPoly]] = [[IntPoly.one()]]

# The largest n for q_binomial_poly.  The cache of rows 0..n grows about as
# n**4: n = 49 peaks at 38 MB, n = 64 at 58 MB, n = 100 at 230 MB.
QBINOM_MAX_N = 64


def q_binomial_poly(n: int, m: int) -> IntPoly:
    """Gaussian binomial as an exact polynomial; zero outside 0 <= m <= n.

    Pascal variant: [n, m] = [n-1, m-1] + q**m [n-1, m].
    """
    if n > QBINOM_MAX_N:
        raise DomainError(f"q_binomial_poly needs n <= {QBINOM_MAX_N}, got {n}")
    if n < 0 or m < 0 or m > n:
        return IntPoly.zero()
    while len(_QBINOM_ROWS) <= n:
        k = len(_QBINOM_ROWS)
        prev = _QBINOM_ROWS[k - 1]
        row = [IntPoly.one()]
        for j in range(1, k):
            row.append(prev[j - 1] + prev[j].shifted(j))
        row.append(IntPoly.one())
        _QBINOM_ROWS.append(row)
    return _QBINOM_ROWS[n][m]


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


def q_binomial_mod(n: int, m: int, alpha: Residue, d: int) -> Residue:
    """The exact Gaussian binomial [n, m] evaluated at q = alpha, mod p.

    Writes n = n1*d + n0, m = m1*d + m0 and returns
    C(n1, m1) * [n0, m0]_alpha  (the base-d reduction); never builds the
    polynomial.  d must be the multiplicative order of alpha.
    """
    if n < 0:
        raise DomainError(f"q_binomial_mod needs n >= 0, got {n}")
    ctx = _context(alpha.modulus, alpha.value)
    if ctx.d != d:
        raise DomainError(f"d = {d} is not the order of {alpha.value} mod {alpha.modulus}")
    return Residue(ctx.q_binomial(n, m), alpha.modulus)


def q_ratio(k: int, l: int, alpha: Residue, ctx: QLucasContext | None = None) -> Residue:
    """The residue of [k]_alpha / [l]_alpha for k = l mod ord(alpha).

    When [l]_alpha is a unit this is a plain quotient of evaluated
    q-integers; when [l]_alpha vanishes (ord | l) the common geometric
    factor cancels and the value is (k/ord) / (l/ord) mod p.
    """
    if ctx is None:
        ctx = _context(alpha.modulus, alpha.value)
    p, d = ctx.p, ctx.d
    if not 1 <= l <= p - 1:
        raise DomainError(f"q_ratio needs 1 <= l <= p-1, got l = {l}")
    if k < 1:
        raise DomainError(f"q_ratio needs k >= 1, got {k}")
    if (k - l) % d != 0:
        raise DomainError(f"q_ratio needs k = l mod {d}")
    if l % d == 0:
        return Residue((k // d) % p * pow((l // d) % p, -1, p) % p, p)
    return Residue(ctx.q_int(k) * pow(ctx.q_int(l), -1, p) % p, p)


def c_k(k: int, alpha: Residue, ctx: QLucasContext | None = None) -> Residue:
    """The ratio ([p-k-1]...[p-k-d]) / ([k+d]...[k+1]) at alpha, as a residue.

    Each denominator factor [k+i] is paired with the unique numerator
    factor [p-k-j] in the same class mod d, and the pair is resolved by
    q_ratio; the product of the pairs is the value.
    """
    if ctx is None:
        ctx = _context(alpha.modulus, alpha.value)
    p, d = ctx.p, ctx.d
    if not 0 <= k <= p - 1 - d:
        raise DomainError(f"c_k needs 0 <= k <= p-1-ord, got k = {k}")
    out = 1
    for i in range(1, d + 1):
        j = (p - 2 * k - i) % d
        if j == 0:
            j = d
        out = out * q_ratio(p - k - j, k + i, alpha, ctx).value % p
    return Residue(out, p)


def c_k_all(alpha: Residue) -> list[int]:
    """C_k for every k in [0, p-1-d] in one O(p) pass.

    Same pairing as c_k, regrouped: with u[i] = [i]_alpha when d does not
    divide i and u[i] = i/d otherwise, every pair ratio is a quotient of
    u-values, so C_k is a quotient of prefix products of u.
    """
    ctx = _context(alpha.modulus, alpha.value)
    p, d, a = ctx.p, ctx.d, ctx.a
    u = [1] * p  # u[0] unused
    if a == 1:
        for i in range(1, p):
            u[i] = i % p
    else:
        inv_am1 = pow(a - 1, -1, p)
        apow = 1
        for i in range(1, p):
            apow = apow * a % p
            u[i] = i // d % p if i % d == 0 else (apow - 1) * inv_am1 % p
    prefix = [1] * p
    for i in range(1, p):
        prefix[i] = prefix[i - 1] * u[i] % p
    inv_prefix = [1] * p
    running = pow(prefix[p - 1], -1, p)
    for i in range(p - 1, -1, -1):
        inv_prefix[i] = running
        if i:
            running = running * u[i] % p
    out = []
    for k in range(p - d):
        num = prefix[p - k - 1] * inv_prefix[p - k - d - 1] % p
        den_inv = inv_prefix[k + d] * prefix[k] % p
        out.append(num * den_inv % p)
    return out
