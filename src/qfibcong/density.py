"""Density machinery for primes with a prescribed residual index.

Degrees of the Kummer-type fields K^g_{s,r} = Q(zeta_s, g^(1/r)), the
entanglement indicator C_g, exact-rational truncations of the density
series delta(a, d; t) with a certified tail bound, and empirical prime
counts to compare against.  Everything here is exact rational; floats
appear only when rendering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .congruence import WINDOW_BLOCK, multiplicative_orders, residues
from .errors import DomainError
from .modarith import euler_phi, factorize, is_squarefree, kronecker, prime_sieve, primes_upto
from .qfib import RECURRENCE_MAX_P


def _require_base(g: int) -> None:
    if g < 2 or not is_squarefree(g):
        raise DomainError(f"base must be a square-free integer >= 2, got {g}")


def require_x_bound(x: int, caller: str) -> None:
    """Refuse a window below 2, or past RECURRENCE_MAX_P, beyond which the int64 order
    kernel would wrap."""
    if x < 2:
        raise DomainError(f"{caller} needs x >= 2, got {x}")
    if x > RECURRENCE_MAX_P:
        raise DomainError(f"{caller} needs x <= {RECURRENCE_MAX_P}, got {x}")


def _field_degree(g: int, s: int, r: int, phi_s: int | None = None) -> int:
    """[Q(zeta_s, g^(1/r)) : Q] = r * phi(s) / epsilon for r | s, where the defect
    epsilon is 2 iff r is even and sqrt(g) lies in Q(zeta_s), that is, the discriminant
    D of Q(sqrt(g)), g when g = 1 mod 4 and 4g otherwise, divides s; else 1.  phi_s is
    phi(s), if the caller knows it."""
    epsilon = 2 if r % 2 == 0 and s % (g if g % 4 == 1 else 4 * g) == 0 else 1
    return r * (euler_phi(s) if phi_s is None else phi_s) // epsilon


def _c_g(g: int, b: int, f: int, v: int) -> int:
    """Entanglement indicator: 1 iff the Artin map at b fixes Q(zeta_f) within K^g_{v,v}.

    The abelian part of K^g_{v,v} is Q(zeta_v) for odd v and Q(zeta_v, sqrt(g)) for even
    v, so the intersection is the field of the Dirichlet characters mod f that are
    psi or psi * chi_D, with psi a character mod v and chi_D the character of the
    discriminant D of Q(sqrt(g)), g when g = 1 mod 4 and 4g otherwise; the second kind
    only for even v.  The Artin map at b fixes it iff every such character is 1 at b.

    The first kind are the characters mod m = gcd(f, v), all 1 at b iff b = 1 mod m.
    For the second, split chi_D into its local characters, of discriminants l* = +-l
    (conductor l) for the odd primes l | g and -4, 8 or -8 (conductor 4 or 8) at 2 for
    g != 1 mod 4; the conductors are prime powers, pairwise coprime, with product |D|.
    psi * chi_D has conductor dividing f iff at every l its l-part does.  Where the local
    conductor divides f, that asks psi's l-part to come from gcd(f, v); where it does not,
    psi's l-part must cancel the local character up to one mod f's l-part, which a
    character mod v can do iff the local conductor divides v.  So the second kind exist
    iff every local conductor divides f or v, that is, D divides lcm(f, v), and then they
    are chi_{D_f} * (the first kind), with D_f the product of the local discriminants
    whose conductor divides f.  The value is 1 iff b = 1 mod m and, when v is even and D
    divides lcm(f, v), chi_{D_f}(b) = +1.
    """
    if (b - 1) % math.gcd(f, v) != 0:
        return 0
    disc = g if g % 4 == 1 else 4 * g
    if v % 2 == 0 and math.lcm(f, v) % disc == 0:
        odd = g // 2 if g % 2 == 0 else g  # square-free g: its odd primes are those of disc
        odd_f = math.gcd(odd, f)
        d_f = odd_f if odd_f % 4 == 1 else -odd_f  # the product of l* over l | gcd(g, f)
        if g % 4 != 1:  # the local discriminant at 2: -4 for g = 3 mod 4, +-8 for even g
            d_2 = -4 if g % 2 else 8 if odd % 4 == 1 else -8
            d_f *= d_2 if f % d_2 == 0 else 1
        # chi_{D_f} is a character mod |D_f|, which divides f, so b % f > 0 has b's value
        if kronecker(d_f, b % f) != 1:
            return 0
    return 1


@dataclass(frozen=True)
class DeltaTerm:
    """One summand of the density series: mu(n) * C_g / degree."""

    n: int
    moebius: int
    c_g: int
    degree: int
    value: Fraction


@dataclass(frozen=True)
class DeltaEstimate:
    """Truncated density with an exact-rational certified tail bound."""

    g: int
    a: int
    d: int
    t: int
    truncation: int
    partial_sum: Fraction
    tail_bound: Fraction
    terms: tuple[DeltaTerm, ...]
    empirical: VCount | None = None

    @property
    def lower_bound(self) -> Fraction:
        return self.partial_sum - self.tail_bound

    @property
    def positive(self) -> bool:
        return self.lower_bound > 0


def mu_phi_sieve(n_max: int) -> tuple[list[int], list[int]]:
    """mu(n) and phi(n) for n = 0..n_max (index 0 unused), by one pass of numpy strides
    per prime q <= n_max: q flips the sign of mu on its multiples and zeroes it on those
    of q**2, and takes phi(n) to phi(n) - phi(n)/q on its multiples."""
    mu = np.ones(n_max + 1, dtype=np.int64)
    phi = np.arange(n_max + 1, dtype=np.int64)
    for q in prime_sieve(n_max):
        mu[q::q] *= -1
        mu[q * q::q * q] = 0
        phi[q::q] -= phi[q::q] // q
    return mu.tolist(), phi.tolist()


def _balanced_sum(values: list[Fraction]) -> Fraction:
    """sum(values), added pairwise level by level, so that most additions join two short
    fractions and the long ones come only near the root (binary splitting)."""
    while len(values) > 1:
        values = [x + y for x, y in zip(values[::2], values[1::2])] + values[len(values) & ~1:]
    return values[0] if values else Fraction(0)


def _tail_bound(t: int, phi_t: int, mu: list[int], phi: list[int]) -> Fraction:
    """Exact-rational bound on the tail sum past the truncation point N, for mu and phi
    sieved up to N and phi_t = phi(t).

    Every dropped term has absolute value at most 1/degree, and the degree
    satisfies degree >= n*t*phi(n)*phi(t)/2, so the tail is at most
    (2/(t*phi(t))) * sum_{n > N} 1/(n*phi(n)).  That sum is bounded by
    expanding n/phi(n) = sum_{m | n} mu(m)^2/phi(m) and swapping the order
    of summation:

        sum_{n>N} 1/(n*phi(n)) = sum_m mu(m)^2/(phi(m)*m^2) * sum_{j>N/m} 1/j^2.

    For m <= N the inner sum is at most 1/floor(N/m) (telescoping); the
    m > N remainder is at most zeta(2)*sqrt(2)*(2/3)*N^(-3/2) <= 33/(20*N*sqrt(N))
    using phi(m) >= sqrt(m/2) and zeta(2) <= 33/20.
    """
    n = len(mu) - 1
    head = _balanced_sum([Fraction(1, phi[m] * m * m * (n // m))
                          for m in range(1, n + 1) if mu[m]])
    rest = Fraction(33, 20 * n * math.isqrt(n))
    return Fraction(2, t * phi_t) * (head + rest)


def delta_truncated(g: int, a: int, d: int, t: int, n_max: int,
                    empirical_x: int | None = None) -> DeltaEstimate:
    """The density series truncated at n_max, with every term an exact rational, and the
    v_count of its primes up to empirical_x, if given, as the estimate's empirical.

    The whole request is checked here, before any work; the term helpers check nothing.
    f = d*t is factored once, within factorize's bounds, and each term's degree is
    built from it and the sieved phi(n): with s = lcm(d, n)*t = n*k for k = f/gcd(d, n),
    every prime of k divides f and every prime q of f that does not divide n divides k,
    so phi(s) = phi(n) * k * prod(1 - 1/q) over the primes q of f that do not divide n."""
    if empirical_x is not None:
        require_x_bound(empirical_x, "v_count")
    _require_base(g)
    if t < 1 or d < 1 or n_max < 1:
        raise DomainError(f"need t, d, N >= 1, got t={t}, d={d}, N={n_max}")
    b, f = 1 + t * a, d * t
    if math.gcd(b, f) != 1:  # refused before the sieve, whose cost grows with N
        raise DomainError(f"b={b} must be coprime to f={f}")
    primes = [q for q, _ in factorize(f)]
    phi_t = t
    for q in primes:
        if t % q == 0:
            phi_t = phi_t // q * (q - 1)
    mus, phis = mu_phi_sieve(n_max)
    terms: list[DeltaTerm] = []
    for n in range(1, n_max + 1):
        mu = mus[n]
        if mu == 0 or a % math.gcd(n, d) != 0:
            continue
        k = f // math.gcd(d, n)
        phi_s = phis[n] * k
        for q in primes:
            if n % q:
                phi_s = phi_s // q * (q - 1)
        ind = _c_g(g, b, f, n * t)
        deg = _field_degree(g, n * k, n * t, phi_s)
        terms.append(DeltaTerm(n, mu, ind, deg, Fraction(mu * ind, deg)))
    return DeltaEstimate(
        g=g,
        a=a,
        d=d,
        t=t,
        truncation=n_max,
        partial_sum=_balanced_sum([term.value for term in terms]),
        tail_bound=_tail_bound(t, phi_t, mus, phis),
        terms=tuple(terms),
        empirical=None if empirical_x is None else _v_count(g, a, d, t, empirical_x),
    )


@dataclass(frozen=True)
class VCount:
    """Empirical count of primes p <= x with I_p(g) = t in the progression 1+ta mod dt."""

    g: int
    a: int
    d: int
    t: int
    x: int
    count: int
    witnesses: tuple[int, ...]


def v_count(g: int, a: int, d: int, t: int, x: int) -> VCount:
    """Sieve, keep the primes of the arithmetic progression, then filter them on the
    residual index, block by block."""
    _require_base(g)
    if t < 1 or d < 1:
        raise DomainError(f"need t, d >= 1, got t={t}, d={d}")
    require_x_bound(x, "v_count")
    return _v_count(g, a, d, t, x)


def _v_count(g: int, a: int, d: int, t: int, x: int) -> VCount:
    """v_count for a request that v_count or delta_truncated has already checked."""
    modulus = d * t
    target = (1 + t * a) % modulus
    progression = [p for p in primes_upto(x) if p % modulus == target]
    hits: list[int] = []
    for start in range(0, len(progression), WINDOW_BLOCK):
        p = np.array(progression[start:start + WINDOW_BLOCK], dtype=np.int64)
        res = residues(g, p)
        p, res = p[res != 0], res[res != 0]
        hits += p[(p - 1) // multiplicative_orders(res, p) == t].tolist()
    return VCount(g, a, d, t, x, len(hits), tuple(hits))
