"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: direct sums, trial division, and
row-by-row Pascal recurrences, sharing no code with the library paths
they check.  The paper's lemma objects at the end (the Legendre symbol,
q-integers, the base-d q-binomial, Andrews' sum for every n, the unit
ratios C_k, the integer sums G_{n,m} and the S-set sums read off a
binomial row) are checked against the naive q-Pascal triangle, each other
and the shipped routes: kronecker, the Andrews route, the proposition
route's five-section and the recurrence.
"""

import math

import numpy as np

from qfibcong.errors import DomainError
from qfibcong.modarith import is_prime, lsym5, multiplicative_order


def primes_trial(limit: int) -> list[int]:
    """Primes up to limit by trial division."""
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def order_brute(a: int, p: int) -> int:
    """Multiplicative order by stepping powers one at a time."""
    x = a % p
    k = 1
    while x != 1:
        x = x * a % p
        k += 1
    return k


def qpascal_row(n: int, a: int, p: int) -> np.ndarray:
    """Row n of the q-binomial triangle evaluated at q = a, all mod p.

    Uses [n, m] = [n-1, m-1] + a**m [n-1, m] directly, no base-d
    reduction anywhere.
    """
    pw = np.empty(n + 1, dtype=np.int64)
    pw[0] = 1
    for m in range(1, n + 1):
        pw[m] = pw[m - 1] * a % p
    row = np.zeros(1, dtype=np.int64)
    row[0] = 1
    for k in range(1, n + 1):
        nxt = np.zeros(k + 1, dtype=np.int64)
        nxt[1:] = row
        nxt[: k] = (nxt[: k] + pw[: k] * row) % p
        row = nxt
    return row


def qpascal_table(n_max: int, a: int, p: int) -> list[np.ndarray]:
    """All rows 0..n_max of the evaluated q-binomial triangle mod p."""
    rows = [np.array([1], dtype=np.int64)]
    pw = np.empty(n_max + 1, dtype=np.int64)
    pw[0] = 1
    for m in range(1, n_max + 1):
        pw[m] = pw[m - 1] * a % p
    for k in range(1, n_max + 1):
        prev = rows[-1]
        nxt = np.zeros(k + 1, dtype=np.int64)
        nxt[1:] = prev
        nxt[: k] = (nxt[: k] + pw[: k] * prev) % p
        rows.append(nxt)
    return rows


def poly_add(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Sum of two coefficient tuples, constant term first."""
    n = max(len(f), len(g))
    return tuple((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n))


def poly_eval_mod(f: tuple[int, ...], a: int, p: int) -> int:
    """f(a) mod p as a direct sum of terms."""
    return sum(c * pow(a, i, p) for i, c in enumerate(f)) % p


def qfib_seq_mod(n_max: int, a: int, p: int) -> list[int]:
    """F_0..F_n_max at q = a mod p by the plain recurrence."""
    vals = [0, 1]
    pw = 1
    for n in range(n_max - 1):
        vals.append((vals[-1] + pw * vals[-2]) % p)
        pw = pw * a % p
    return vals[: n_max + 1]


def fib_seq(n_max: int) -> list[int]:
    vals = [0, 1]
    while len(vals) <= n_max:
        vals.append(vals[-1] + vals[-2])
    return vals[: n_max + 1]


def phi_brute(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion, p an odd prime."""
    if p == 2 or not is_prime(p):
        raise DomainError(f"legendre needs an odd prime, got {p}")
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def q_int(n: int, a: int, p: int) -> int:
    """[n]_a = 1 + a + ... + a**(n-1) mod p, by the geometric-sum closed form."""
    if a % p == 1:
        return n % p
    return (pow(a, n, p) - 1) * pow(a - 1, -1, p) % p


def q_binomial(n: int, m: int, a: int, p: int, d: int) -> int:
    """Gaussian binomial [n, m] at q = a mod p, d the order of a, by the q-Lucas theorem.

    With n = n1*d + n0 and m = m1*d + m0 (0 <= n0, m0 < d), [n, m] is
    C(n1, m1) [n0, m0]: an exact integer times a quotient of q-integers
    [i]_a with 0 < i < d, which are units.
    """
    if m < 0 or m > n:
        return 0
    n1, n0 = divmod(n, d)
    m1, m0 = divmod(m, d)
    if m0 > n0:
        return 0
    num = den = 1
    for i in range(1, m0 + 1):
        num = num * q_int(n0 - m0 + i, a, p) % p
        den = den * q_int(i, a, p) % p
    return math.comb(n1, m1) * num * pow(den, -1, p) % p


def andrews_j_range(n: int) -> range:
    """A window of j outside which floor((n-1-5j)/2) leaves [0, n-1]."""
    ceil_fifth = -(-(n + 1) // 5)
    return range(-ceil_fifth - 1, (n - 1) // 5 + 2)


def andrews_sum(n: int, a: int, p: int) -> int:
    """F_n(a) mod p by Andrews' formula, for every n >= 0.

    sum_j (-1)**j a**(j(5j+1)/2) [n-1, floor((n-1-5j)/2)], with the whole
    row n - 1 taken from the naive q-Pascal triangle.
    """
    if n == 0:
        return 0
    row = qpascal_row(n - 1, a, p)
    total = 0
    for j in andrews_j_range(n):
        m = (n - 1 - 5 * j) // 2
        if 0 <= m <= n - 1:
            total += (-1) ** j * pow(a, j * (5 * j + 1) // 2, p) * int(row[m])
    return total % p


def q_ratio(k: int, l: int, a: int, p: int, d: int | None = None) -> int:
    """The residue of [k]_a / [l]_a mod p for k = l mod d = ord(a).

    When [l]_a is a unit this is a plain quotient of evaluated
    q-integers; when [l]_a vanishes (d | l) the common geometric
    factor cancels and the value is (k/d) / (l/d) mod p.
    """
    if d is None:
        d = multiplicative_order(a, p)
    if not 1 <= l <= p - 1:
        raise DomainError(f"q_ratio needs 1 <= l <= p-1, got l = {l}")
    if k < 1:
        raise DomainError(f"q_ratio needs k >= 1, got {k}")
    if (k - l) % d != 0:
        raise DomainError(f"q_ratio needs k = l mod {d}")
    if l % d == 0:
        return (k // d) % p * pow((l // d) % p, -1, p) % p
    return q_int(k, a, p) * pow(q_int(l, a, p), -1, p) % p


def c_k(k: int, a: int, p: int, d: int | None = None) -> int:
    """The ratio ([p-k-1]...[p-k-d]) / ([k+d]...[k+1]) at a, as a residue mod p.

    Each denominator factor [k+i] is paired with the unique numerator
    factor [p-k-j] in the same class mod d, and the pair is resolved by
    q_ratio; the product of the pairs is the value.
    """
    if d is None:
        d = multiplicative_order(a, p)
    if not 0 <= k <= p - 1 - d:
        raise DomainError(f"c_k needs 0 <= k <= p-1-ord, got k = {k}")
    out = 1
    for i in range(1, d + 1):
        j = (p - 2 * k - i) % d
        if j == 0:
            j = d
        out = out * q_ratio(p - k - j, k + i, a, p, d) % p
    return out


def c_k_all(a: int, p: int) -> list[int]:
    """C_k for every k in [0, p-1-d] in one O(p) pass.

    Same pairing as c_k, regrouped: with u[i] = [i]_a when d does not
    divide i and u[i] = i/d otherwise, every pair ratio is a quotient of
    u-values, so C_k is a quotient of prefix products of u.
    """
    d = multiplicative_order(a, p)
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


def s_set_sums(row: list[int], d: int, p: int) -> tuple[int | None, int, int]:
    """S1's least index (None if S1 is empty), and row[k] summed over S1 and over S2:
    k is in S1 when 2*k*d - p = 4 mod 5, and in S2 when it is 3 mod 5."""
    k1 = None
    sum1 = sum2 = 0
    for k, comb in enumerate(row):
        r = (2 * k * d - p) % 5
        if r == 4:
            if k1 is None:
                k1 = k
            sum1 += comb
        elif r == 3:
            sum2 += comb
    return k1, sum1, sum2
