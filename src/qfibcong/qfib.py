"""The q-Fibonacci sequence by independent routes, plus helpers around it.

Routes: the defining recurrence (exact polynomials and mod p), Andrews'
explicit alternating q-binomial sum at n = p, reduced by the q-Lucas
theorem to I + 1 ordinary binomials, and the ordinary Fibonacci numbers
the q = 1 specialization recovers.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from itertools import count, islice
from operator import add

import numpy as np

from .errors import DomainError, InternalInvariantViolation
from .qanalogue import _context

# The largest p with p*(p - 1) <= 2**63 - 1, past which the int64 lanes that classify a
# window wrap.  The kernel's 64-bit lanes are unsigned: uint64 holds a step, below p*(p - 1),
# and an entry of the block-matrix tree, at most 2(p - 1)**2 < 2**64.
RECURRENCE_MAX_P = 3_037_000_500

# The largest p with p*(p - 1) <= 2**32 - 1, by the same step bound: primes up
# to it run the lockstep in uint32, whose multiply and % cost about half of
# uint64's, and the primes above it in uint64.
_UINT32_MAX_P = 65_536

# Batches of fewer primes than this run the blocked kernel (_block_products), wider ones
# the rescaled lockstep, whose step does 1.5 multiply-mods a lane against the matrix
# lane's 3.  Blocked/rescaled time, alpha 2, best of 3 in two sweeps pinned to one core of
# a Xeon VM (numpy 2.4, Python 3.11), on consecutive primes from 2e4, 5e4 (uint32) and
# 1e5 (64-bit): 0.63-0.72 (uint32) and 0.86-0.96 (64-bit) at 128 primes, 0.83-0.90 and
# 1.10-1.13 at 192, 0.94-1.04 and 1.18-1.28 at 256, 1.17-1.24 and 1.43-1.47 at 384.  The
# floor sits at the uint32 crossover, above the 64-bit one.  One prime alone runs blocked
# at every size: below p = 2,000 a scalar loop was faster, by at most 0.3 ms.
_WIDE_MIN_BATCH = 256

# The blocked kernel's default block: _BLOCK_STEPS steps a lane, or as many more as keep
# a call within _MAX_LANES lanes, so that it holds a few MB at any p.  On the same core,
# four primes each near 2e4, 8e4 and 1.4e5 took 10.5-10.9 ms in all (best of 15) in
# blocks of 40 or 48 steps, 11.2-11.7 ms in blocks of 24 or 64, and 11.9-12.1 ms in
# blocks of 32, where the tree pads 4,376 lanes to 8,192.  One prime near 1e7 ran at 115M,
# 129M, 135M and 123M element-steps/s on 4,096, 8,192, 16,384 and 32,768 lanes, and one
# near 1e8 at 128M, 138M and 126M on the last three.
_BLOCK_STEPS = 40
_MAX_LANES = 1 << 14

# The largest n for qfib_poly.  Walking F_0..F_n, of degree up to about n**2/4, took 0.12 s
# and 4.2 MB at n = 300 and 1.1 s and 23 MB at n = 600 (Python 3.11, one core of a Xeon VM).
POLY_MAX_N = 300


def qfib_polys() -> Iterator[tuple[int, ...]]:
    """F_0(q), F_1(q), F_2(q), ... as exact coefficients, constant term first, holding only
    the last two: F_{n+2} = F_{n+1} + q**n F_n, F_0 = 0 (the empty tuple), F_1 = 1."""
    f0, f1 = (), (1,)
    for n in count():
        yield f0
        shifted = (0,) * n + f0
        # map stops at the shorter tuple; the longer one's tail follows unchanged
        f0, f1 = f1, tuple(map(add, f1, shifted)) + (f1[len(shifted):] or shifted[len(f1):])


def qfib_poly(n: int) -> tuple[int, ...]:
    """F_n(q)'s exact coefficients, constant term first (see qfib_polys)."""
    if not 0 <= n <= POLY_MAX_N:
        raise DomainError(f"qfib_poly needs 0 <= n <= {POLY_MAX_N}, got {n}")
    return next(islice(qfib_polys(), n, None))


def qfib_mod_recurrence(n: int, a: int, p: int) -> int:
    """F_n(a) mod the odd prime p by the recurrence: the top left entry of M_{n-2}...M_0,
    with M_k = [[1, a**k], [1, 0]], which takes (F_{k+1}, F_k) to (F_{k+2}, F_{k+1}).

    a**k mod p has period dividing p - 1 (Fermat), so n - 1 = q(p - 1) + r steps are q
    whole periods and then r steps: one period runs in the blocked kernel, split at r,
    and the period's product is raised to the q-th power by squaring.  A modulus for
    which a**(p - 1) = 1 fails runs all n - 1 steps.  At a = 0 mod p every M_k past M_0
    is [[1, 0], [1, 0]], so F_n = 1 for every n >= 1.  A modulus past RECURRENCE_MAX_P
    runs a Python-int loop with no fold, as the CLI asks for it only with n < p.
    """
    if n < 0:
        raise DomainError(f"qfib_mod_recurrence needs n >= 0, got {n}")
    a %= p
    if n == 0 or a == 0:
        return min(n, 1)
    if p > RECURRENCE_MAX_P:
        f0, f1, pw = 0, 1, 1  # F_k, F_{k+1}, a**k
        for _ in range(n - 1):
            f0, f1, pw = f1, (f1 + pw * f0) % p, pw * a % p
        return f1
    dtype = np.uint32 if p <= _UINT32_MAX_P else np.uint64
    q, r = divmod(n - 1, p - 1)
    if q and pow(a, p - 1, p) == 1:
        head, rest = _block_products([(p, a, 0, r), (p, a, r, p - 1)], dtype)
        return _mat_mul(head, _mat_pow(_mat_mul(rest, head, p), q, p), p)[0]
    return _block_products([(p, a, 0, n - 1)], dtype)[0][0]


def _mat_mul(x: tuple[int, ...], y: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The 2x2 product x*y mod p, each matrix a 4-tuple: top row, then bottom row."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p


def _mat_pow(x: tuple[int, ...], e: int, p: int) -> tuple[int, ...]:
    """x**e mod p by squaring."""
    out = (1, 0, 0, 1)
    while e:
        if e & 1:
            out = _mat_mul(out, x, p)
        x = _mat_mul(x, x, p)
        e >>= 1
    return out


def _block_products(segments: list[tuple[int, int, int, int]], dtype: type,
                    block: int | None = None) -> list[tuple[int, ...]]:
    """M_{k1-1}...M_{k0} mod p, with M_k = [[1, a**k], [1, 0]], for each segment
    (p, a, k0, k1), 0 <= k0 <= k1: the exact block-product form of Bostan, Gaudry and
    Schost (SIAM J. Comput. 36(6), 2007), without their polynomial baby steps.

    Each segment is cut into blocks of `block` steps, by default _BLOCK_STEPS, or more
    where that would pass _MAX_LANES blocks in all.  Every block is one lane of a numpy
    lockstep of 2x2 matrices that starts from the identity and a**start; a step takes the
    top row to top + a**k * bottom and the bottom row to the old top, so no entry passes
    p*(p - 1), the step bound of dtype, uint32 or uint64.  The lockstep reduces
    by _reduce, by one numpy scalar when all segments share a modulus, which numpy divides
    by with a multiply and a shift, and else by a column of one modulus a lane.  A
    segment's last block, which may be short, is read off as the step count reaches it.

    The block matrices are multiplied in a pairwise tree, one matmul a round over lanes
    (0, 1), (2, 3), ... of every segment, later blocks on the left.  The tree runs in
    uint64, where an entry is at most 2(p - 1)**2 < 2**64 for p <= RECURRENCE_MAX_P.
    Segments go longest first, each padded with identities to a power of two lanes, so the
    segments still pairing are a prefix of the lanes.  The lanes' start powers
    a**(k0 + j*block) come down the same tree: in round t, lane 2m + 1 starts g**(2**t)
    steps of a after lane 2m, g = a**block.
    """
    if not segments:  # the empty side of qfib_mod_recurrence_many's uint32 cut
        return []
    lengths = np.array([k1 - k0 for *_, k0, k1 in segments], dtype=np.int64)
    steps = int(lengths.sum())
    block = block or max(_BLOCK_STEPS, -(-steps // _MAX_LANES))
    order = np.argsort(-lengths, kind="stable")
    segments = [segments[i] for i in order]
    lengths = lengths[order]
    counts = -(-lengths // block)
    widths = [1 << (c - 1).bit_length() if c else 0 for c in counts.tolist()]
    padding = np.array(widths, dtype=np.int64) - counts
    pad_at = np.arange(counts.sum()) + np.repeat(np.cumsum(padding) - padding, counts)
    # pairs[t]: each segment's lane pairs in round t of the tree, 0 once it is down to one
    pairs = [[w >> t + 1 if w >> t > 1 else 0 for w in widths]
             for t in range(max(widths, default=1).bit_length() - 1)]
    mods = [p for p, *_ in segments]
    P = _column(mods, dtype)
    # the start powers, from the top of the tree down
    G = [_column([pow(a, block, p) for p, a, *_ in segments], dtype)]
    for _ in pairs[1:]:
        G.append(G[-1] * G[-1] % P)
    PW = np.array([pow(a, k0, p) for (p, a, k0, _), n in zip(segments, counts) if n], dtype=dtype)
    for half, g in zip(reversed(pairs), reversed(G)):
        n = sum(half)
        split = np.empty(len(PW) + n, dtype=dtype)
        split[0:2 * n:2] = PW[:n]
        split[1:2 * n:2] = _reduce(PW[:n] * _lanes(g, half), _lanes(P, half))
        split[2 * n:] = PW[n:]
        PW = split
    # rows 0-1 and 3-4 hold a lane's two matrix rows, the one a step rewrites alternating,
    # and row 2 its power a**k, so that each step reduces three adjacent rows in one call
    R = np.zeros((5, len(pad_at)), dtype=dtype)
    R[1] = R[3] = 1
    R[2] = PW[pad_at]
    halves = ((R[3:5], R[0:2], R[2:5]), (R[0:2], R[3:5], R[0:3]))
    A = _lanes(_column([a for _, a, *_ in segments], dtype), counts)
    lane_P = _lanes(P, counts)
    last = lengths - (counts - 1) * block
    is_short = (counts > 0) & (last < block)
    short: dict[int, list[int]] = {}
    for n, j in zip(last[is_short].tolist(), (np.cumsum(counts) - 1)[is_short].tolist()):
        short.setdefault(n, []).append(j)
    early = []
    scratch = np.empty((3, len(pad_at)), dtype)
    k = 0
    for k in range(1, int(np.minimum(lengths, block).max(initial=0)) + 1):
        top, bottom, rows = halves[k % 2]
        top *= R[2]
        top += bottom
        R[2] *= A
        _reduce(rows, lane_P, scratch)
        if k in short:
            early.append((short[k], top[:, short[k]], bottom[:, short[k]]))
    lanes = np.stack(halves[k % 2][:2])
    for j, t, b in early:
        lanes[0][:, j], lanes[1][:, j] = t, b
    # the tree; pad_at maps each lockstep lane to its place among the padded lanes
    M = np.zeros((sum(widths), 2, 2), dtype=np.uint64)
    M[:, 0, 0] = M[:, 1, 1] = 1
    M[pad_at] = lanes.transpose(2, 0, 1)
    P = _column(mods, np.uint64)
    for half in pairs:
        n = 2 * sum(half)
        mod = _lanes(P, half)
        product = _reduce(np.matmul(M[1:n:2], M[0:n:2]), mod if np.ndim(mod) == 0 else
                          mod[:, None, None])
        M = np.concatenate((product, M[n:])) if n < len(M) else product
    products = [(1, 0, 0, 1)] * len(segments)
    for i, m in zip(order[counts > 0].tolist(), M.reshape(-1, 4).tolist()):
        products[i] = tuple(m)
    return products


def _column(values: list[int], dtype: type) -> np.generic | np.ndarray:
    """values, one a segment, in dtype: one scalar when they are all equal."""
    if values and values.count(values[0]) == len(values):
        return np.dtype(dtype).type(values[0])
    return np.array(values, dtype=dtype)


def _lanes(column: np.generic | np.ndarray, counts: np.ndarray) -> np.generic | np.ndarray:
    """A segment column's entry for each lane, counts[i] lanes of segment i in turn; a
    scalar stands for every lane."""
    return column if np.ndim(column) == 0 else np.repeat(column, counts)


def _reduce(x: np.ndarray, P: int | np.generic | np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """x mod P in place, x >= 0, as x -= x // P * P with out as scratch of x's shape if
    given: numpy divides by an integer scalar with a multiply and a shift (libdivide), but
    runs % by it as one hardware division an element, as it does // by an array."""
    quotient = np.floor_divide(x, P, out=out)
    quotient *= P
    x -= quotient
    return x


def qfib_mod_recurrence_many(primes: list[int], alpha_values: list[int]) -> list[int]:
    """F_p(alpha_p) mod p for an ascending batch of odd primes, each alpha_p in [0, p).

    The batch is split once at _UINT32_MAX_P, and each part runs in the
    narrowest lanes its step values fit: uint32 below the split, uint64 above.
    """
    if max(primes, default=0) > RECURRENCE_MAX_P:
        raise DomainError(f"the recurrence kernel needs p <= {RECURRENCE_MAX_P}, got {max(primes)}")
    if any(q < p for p, q in zip(primes, primes[1:])):
        raise DomainError("the recurrence kernel needs the primes in ascending order")
    if primes and primes[0] == 2:
        raise DomainError("the recurrence kernel needs odd primes")
    cut = bisect_right(primes, _UINT32_MAX_P)
    return (_recurrence_lanes(primes[:cut], alpha_values[:cut], np.uint32)
            + _recurrence_lanes(primes[cut:], alpha_values[cut:], np.uint64))


def _recurrence_lanes(primes: list[int], alpha_values: list[int], dtype: type) -> list[int]:
    """F_p(alpha_p) mod p for ascending odd primes whose step values fit in dtype, each
    alpha_p in [0, p).

    A batch of fewer than _WIDE_MIN_BATCH primes runs the blocked kernel, F_p being the
    top left entry of the product of a prime's p - 1 steps.  Wider batches run a numpy
    lockstep on the rescaled values V_k, F_k = a**e_k * V_k with e_k = floor((k - 1)**2 / 4).
    Since e_{k+2} = e_k + k and e_{k+2} - e_{k+1} = ceil(k / 2), F_{k+2} = F_{k+1} + a**k F_k
    becomes V_{k+2} = W_k V_{k+1} + V_k with V_0 = 0, V_1 = 1 and W_k = b**ceil(k / 2),
    b = a**-1 mod p.  W changes only on odd k, so a step does 1.5 multiply-mods a lane
    against the plain recurrence's 2, and W*V + V is at most p*(p - 1), the same bound.

    The front prime's value is harvested as the step count reaches it, and the arrays are
    then cut down to the primes not yet finished, so the work is exactly sum(p - 1).  After
    step p - 2, W = b**((p - 1) / 2), which is 1 or p - 1 by Euler's criterion, and
    e_p = ((p - 1) / 2)**2, so Fermat gives a**e_p = 1 when p = 1 mod 4 and
    a**((p - 1) / 2) = W when p = 3 mod 4: F_p = V_p, or W * V_p in the latter case.
    At a = 0 mod p, b = 0 leaves V_k = 1 = F_k for every k >= 1, with W = 0.
    """
    if len(primes) < _WIDE_MIN_BATCH:
        segments = [(p, a, 0, p - 1) for p, a in zip(primes, alpha_values)]
        return [product[0] for product in _block_products(segments, dtype)]
    P = np.array(primes, dtype=dtype)
    B = np.array([pow(a, -1, p) if a else 0 for p, a in zip(primes, alpha_values)], dtype=dtype)
    V0 = np.zeros(len(primes), dtype=dtype)
    V1 = np.ones(len(primes), dtype=dtype)
    W = np.ones(len(primes), dtype=dtype)
    T = np.empty_like(V0)
    out = []
    done = 0  # steps taken, always even: V0, V1 hold V_done, V_{done+1} and W holds W_done
    for p, a in zip(primes, alpha_values):
        for _ in range(done, p - 1, 2):  # steps k (even) and k + 1, with W_{k+1} = W_k * b
            np.multiply(W, V1, out=T)
            V0 += T
            V0 %= P
            W *= B
            W %= P
            np.multiply(W, V0, out=T)
            V1 += T
            V1 %= P
        done = p - 1
        w, v = int(W[0]), int(V1[0])
        if w != 1 and w != p - 1 and a:
            raise InternalInvariantViolation(
                f"the rescaled recurrence ended with b**((p - 1)/2) = {w} mod {p}, not 1 or -1")
        out.append(-v % p if w == p - 1 and p % 4 == 3 else v)
        P, B, V0, V1, W, T = P[1:], B[1:], V0[1:], V1[1:], W[1:], T[1:]
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
