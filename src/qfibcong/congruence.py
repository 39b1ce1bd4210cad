"""The main congruence as an executable verifier.

For a rational alpha and an odd prime p with v_p(alpha) = v_p(alpha-1) = 0
and ord_p(alpha) not divisible by 5,

    F_p(alpha)  =  F_{I_p(alpha) + (ord_p(alpha)/5)}   mod p,

where I_p is the residual index and (./5) the mod-5 quadratic symbol.
This module extracts the residual data, evaluates the left side by up to
four routes, and scans prime ranges in bulk.  Its chunk runner, which
sieves a window and classifies its primes across worker processes, also
serves the occurrence histograms in `stats`.  A window's residual data is
computed block by block as numpy columns (residual_window), with every
order found by one batched pass over the primes dividing the p - 1.
"""

from __future__ import annotations

import enum
import math
import os
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, InternalInvariantViolation, WorkerDied
from .modarith import is_prime, lsym5, multiplicative_order, prime_sieve, primes_upto
from .qfib import (POLY_MAX_N, RECURRENCE_MAX_P, RouteValue, fib_mod_lanes, qfib_mod_andrews,
                   qfib_mod_recurrence_many, qfib_polys)

DEFAULT_PATHS = frozenset({"recurrence"})


class Reason(enum.Enum):
    OK = "OK"
    BAD_VALUATION_ALPHA = "BadValuationAlpha"
    BAD_VALUATION_ALPHA_MINUS_1 = "BadValuationAlphaMinus1"
    ORD_DIVISIBLE_BY_5 = "OrdDivisibleBy5"


SKIP_REASONS = tuple(r for r in Reason if r is not Reason.OK)


@dataclass(frozen=True)
class ResidualData:
    """Everything the congruence needs to know about one (alpha, p) pair; alpha_res is
    alpha mod p, in [0, p), or None for a bad valuation of alpha or alpha - 1."""

    alpha: Fraction
    p: int
    alpha_res: int | None
    ord: int
    index: int
    lsym_ord: int
    reason: Reason

    @property
    def applicable(self) -> bool:
        return self.reason is Reason.OK


@dataclass(frozen=True)
class CongruenceRecord:
    """One prime's verification outcome: lhs is F_p(alpha) mod p and rhs F_{n*} mod p,
    each in [0, p)."""

    data: ResidualData
    lhs: int
    predicted_index: int
    rhs: int
    match: bool
    paths_agree: bool

    @property
    def p(self) -> int:
        return self.data.p


@dataclass(frozen=True)
class ScanReport:
    """Outcome of verifying the congruence over a prime range."""

    alpha: Fraction
    p_min: int
    p_max: int
    paths: tuple[str, ...]
    records: list[CongruenceRecord]
    skipped: dict[str, int]

    @property
    def all_match(self) -> bool:
        return all(r.match for r in self.records)


def residual_data(alpha: Fraction, p: int) -> ResidualData:
    """Order, index, symbol and applicability flags for one (alpha, p) pair."""
    alpha = _require_alpha(alpha)
    if p == 2 or not is_prime(p):
        raise DomainError(f"p must be an odd prime, got {p}")
    num, den = alpha.numerator, alpha.denominator
    if num % p == 0 or den % p == 0:
        return ResidualData(alpha, p, None, 0, 0, 0, Reason.BAD_VALUATION_ALPHA)
    if (num - den) % p == 0:  # alpha - 1 = (num - den)/den in lowest terms
        return ResidualData(alpha, p, None, 0, 0, 0, Reason.BAD_VALUATION_ALPHA_MINUS_1)
    a = num * pow(den, -1, p) % p
    d = multiplicative_order(a, p)
    reason = Reason.ORD_DIVISIBLE_BY_5 if d % 5 == 0 else Reason.OK
    return ResidualData(alpha, p, a, d, (p - 1) // d, lsym5(d), reason)


def _require_alpha(alpha: Fraction) -> Fraction:
    alpha = Fraction(alpha)
    if alpha == 0 or alpha == 1:
        raise DomainError("alpha must avoid 0 and 1")
    try:  # scan and verify print alpha after their work: refuse one that str() cannot print
        str(alpha)
    except ValueError:
        raise DomainError("alpha's numerator or denominator is past int()'s digit limit") from None
    return alpha


# A window is classified in blocks of this many primes, so that its numpy
# temporaries stay small.  In a fresh process, stats --g 3 --x 299001 peaked
# 2.6 MB above the per-prime classification at 4,096-prime blocks and 8.4 MB
# above it with the whole window as one block; 1,024-prime blocks saved 0.9 MB
# more, but classifying the window then took 0.107 s against 0.077 s (Python
# 3.11, numpy 2.4, 2-core Xeon VM).
WINDOW_BLOCK = 4096

_LSYM5 = np.array([lsym5(r) for r in range(5)])


def _powmod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base**exp % mod lane by lane, by square and multiply, for int64 lanes with
    0 <= base < mod and exp >= 0.  A product of two residues is at most (mod - 1)**2,
    which fits int64 for mod up to RECURRENCE_MAX_P."""
    if mod.max(initial=0) > RECURRENCE_MAX_P:
        raise DomainError(f"int64 lanes need p <= {RECURRENCE_MAX_P}, got {mod.max()}")
    out = np.ones_like(base)
    base, exp = base.copy(), exp.copy()
    while True:
        odd = exp & 1 == 1
        np.multiply(out, base, out=out, where=odd)
        np.remainder(out, mod, out=out, where=odd)
        exp >>= 1
        if not exp.any():
            return out
        np.multiply(base, base, out=base)
        np.remainder(base, mod, out=base)


def residues(x: int, primes: np.ndarray) -> np.ndarray:
    """x mod each of the primes, in [0, p) for a negative x too, as Python's % gives it."""
    if abs(x) < 2**62:
        return np.int64(x) % primes
    return np.array([x % p for p in primes.tolist()], dtype=np.int64)


def _prime_power_parts(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (lane, q, q**e) with q**e the exact power of the prime q dividing n[lane] > 0.

    Each base prime q <= sqrt(max n) is stripped from every n it divides;
    what is left of an n after them is 1 or a single prime.
    """
    rem = n.copy()
    lanes, qs, parts = [], [], []
    for q in prime_sieve(math.isqrt(int(n.max(initial=0)))):
        hit = np.flatnonzero(rem % q == 0)
        if hit.size:
            r, part = rem[hit] // q, np.full(hit.size, q)
            while (more := r % q == 0).any():
                r, part = np.where(more, r // q, r), np.where(more, part * q, part)
            rem[hit] = r
            lanes.append(hit)
            qs.append(q)
            parts.append(part)
    last = np.flatnonzero(rem > 1)
    q = np.concatenate([np.repeat(np.array(qs, dtype=np.int64), [hit.size for hit in lanes]),
                        rem[last]])
    return np.concatenate([*lanes, last]), q, np.concatenate([*parts, rem[last]])


def multiplicative_orders(a: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """The order of each unit a mod its prime, lane by lane.

    Cohen's order algorithm ("A Course in Computational Algebraic Number
    Theory", 1.4.3), run as a batch over every prime power q**e that
    exactly divides some p - 1: the q-part of the order is the order of
    b = a**((p - 1)/q**e), found by raising b to the q-th power until it
    is 1.
    """
    n = primes - 1
    lane, q, part = _prime_power_parts(n)
    b = _powmod(a[lane], n[lane] // part, primes[lane])
    qpart = np.ones_like(part)  # the q-part of the order found so far
    live = np.flatnonzero(b != 1)
    while live.size:
        qpart[live] *= q[live]
        live = live[qpart[live] < part[live]]
        b[live] = _powmod(b[live], q[live], primes[lane[live]])
        live = live[b[live] != 1]
    orders = np.ones_like(n)
    np.multiply.at(orders, lane, qpart)
    return orders


def residual_window(alpha: Fraction,
                    primes: Sequence[int]) -> tuple[tuple[np.ndarray, ...], dict[str, int]]:
    """Residual data for a block of odd primes, at most RECURRENCE_MAX_P, as numpy columns.

    Returns the columns (p, alpha mod p, ord, index, lsym) of the applicable
    primes, in the block's order, and the other primes counted by reason.
    Each row equals what residual_data gives its prime.
    """
    p = np.array(primes, dtype=np.int64)
    num, den = residues(alpha.numerator, p), residues(alpha.denominator, p)
    bad = (num == 0) | (den == 0)
    unit = ~bad & (num != den)  # alpha - 1 = (num - den)/den in lowest terms
    p, num, den = p[unit], num[unit], den[unit]
    a = num if alpha.denominator == 1 else num * _powmod(den, p - 2, p) % p
    d = multiplicative_orders(a, p)
    ok = d % 5 != 0
    skipped = {Reason.BAD_VALUATION_ALPHA.value: int(bad.sum()),
               Reason.BAD_VALUATION_ALPHA_MINUS_1.value: int(bad.size - bad.sum() - unit.sum()),
               Reason.ORD_DIVISIBLE_BY_5.value: int(ok.size - ok.sum())}
    p, a, d = p[ok], a[ok], d[ok]
    return (p, a, d, (p - 1) // d, _LSYM5[d % 5]), skipped


_INV_2D = np.array([0] + [pow(2 * r, -1, 5) for r in range(1, 5)])  # (2d)**-1 mod 5, by d mod 5


# _GATHER[i, k] is the j with (i + j) % 5 == k: the product of the coefficients of x**i
# and x**j lands on x**k in Z_p[x]/(x**5 - 1).
_GATHER = np.argsort([[(i + j) % 5 for j in range(5)] for i in range(5)], axis=1)


def _square_mod(f: np.ndarray, p: np.ndarray) -> np.ndarray:
    """f**2 in Z_p[x]/(x**5 - 1) lane by lane, for coefficient arrays of shape (5, lanes)
    below p.  Each product is reduced before the five that share a coefficient are added,
    so nothing passes 5p."""
    prod = f[:, None] * f[None] % p
    return prod[np.arange(5)[:, None], _GATHER].sum(axis=0) % p


def five_section(index: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The coefficients of (1 + x)**I in Z_p[x]/(x**5 - 1), shape (5, lanes): row r of lane
    (I, p) is the sum of C(I, k) mod p over k = r mod 5.

    By square and multiply from the top bit, O(log I) per lane; multiplying by 1 + x is
    a shift and an add.  The lanes are sorted by falling I, so those with a bit at or above
    a step's shift form a prefix.  A lane joins at its own top bit, so no lane squares
    the constant 1.
    """
    order = np.argsort(-index, kind="stable")
    exp, mod = index[order], p[order]
    acc = np.zeros((5, p.size), dtype=np.int64)
    acc[0] = 1
    for shift in range(int(exp.max(initial=0)).bit_length() - 1, -1, -1):
        above = np.count_nonzero(exp >> (shift + 1))
        acc[:, :above] = _square_mod(acc[:, :above], mod[:above])
        reached = np.count_nonzero(exp >> shift)
        head = acc[:, :reached]
        acc[:, :reached] = np.where((exp[:reached] >> shift) & 1 == 1,
                                    (head + np.roll(head, 1, axis=0)) % mod[:reached], head)
    out = np.empty_like(acc)
    out[:, order] = acc
    return out


def s_set_sums(p: np.ndarray, d: np.ndarray,
               index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S1's least index (-1 where S1 is empty), and C(I, k) mod p summed over S1 and over
    S2, lane by lane: k <= I is in S1 when 2*k*d - p = 4 mod 5, and in S2 when it is 3 mod 5.

    For 5 not dividing d, each set is one class k = r mod 5, with r = (4 + p)/(2d) for S1
    and (3 + p)/(2d) for S2, mod 5, so its sum is row r of the five-section; S1 is empty
    exactly when r > I.
    """
    inv = _INV_2D[d % 5]
    r1, r2 = (4 + p) * inv % 5, (3 + p) * inv % 5
    coeffs, lanes = five_section(index, p), np.arange(p.size)
    return np.where(r1 <= index, r1, -1), coeffs[r1, lanes], coeffs[r2, lanes]


def proposition_values(p: np.ndarray, a: np.ndarray, d: np.ndarray,
                       index: np.ndarray) -> np.ndarray:
    """F_p(alpha) mod p from the two S-set binomial sums, lane by lane, for applicable
    primes p up to RECURRENCE_MAX_P, alpha = a mod p of order d and index I = (p - 1)/d,
    as int64 columns.

    Exponents (p - 1 - 2k*ord)/10 are always integral for k in S1 but may
    be negative; they act through alpha**(p-1) = 1, so they are reduced
    mod p - 1.
    """
    euler = _powmod(a, (p - 1) // 2, p)  # (a/p) by Euler's criterion; p is prime
    k1, sum1, sum2 = s_set_sums(p, d, index)
    # 5 does not divide ord, so S1 is one residue class mod 5: its
    # exponents step down by 2*5*ord/10 = ord, and alpha**ord = 1
    # gives every S1 term the power of the first.
    has1 = k1 >= 0
    e = p - 1 - 2 * k1 * d
    if (e[has1] % 10 != 0).any():
        raise InternalInvariantViolation("S1 exponent must be divisible by 10")
    s1 = np.where(has1, _powmod(a, (e // 10) % (p - 1), p) * sum1 % p, 0)
    return ((p - euler) * sum2 % p + s1) % p  # S2's term is -(a/p) * sum2


def _lane(rd: ResidualData) -> list[np.ndarray]:
    """An applicable pair as one lane of the columns (p, alpha mod p, ord, index, lsym)."""
    return [np.array([v], dtype=np.int64)
            for v in (rd.p, rd.alpha_res, rd.ord, rd.index, rd.lsym_ord)]


def qfib_mod_proposition(rd: ResidualData) -> RouteValue:
    """F_p(alpha) mod p from the two S-set binomial sums (see proposition_values)."""
    if not rd.applicable:
        raise DomainError(f"inapplicable pair ({rd.alpha}, {rd.p}): {rd.reason.value}")
    if rd.p > RECURRENCE_MAX_P:  # before the lanes, which cannot hold a p of 2**63 or more
        raise DomainError(f"int64 lanes need p <= {RECURRENCE_MAX_P}, got {rd.p}")
    return RouteValue(proposition_values(*_lane(rd)[:4])[0])


def verify_theorem(alpha: Fraction, p: int,
                   paths: frozenset[str] = DEFAULT_PATHS) -> CongruenceRecord | ResidualData:
    """Check the congruence at one prime; optionally cross-check extra paths.  An
    inapplicable pair returns its residual data, whose reason says why."""
    _check_request(paths, p)
    rd = residual_data(alpha, p)
    return record_chunk([_lane(rd)], rd.alpha, paths)[0] if rd.applicable else rd


def _check_request(paths: frozenset[str], p_max: int) -> None:
    """Refuse unknown routes and primes past a route's bound, before any work.

    The recurrence always runs, so its bound holds for every request; checked
    before residual data, which factors p - 1 and could take unbounded time.
    """
    if p_max > RECURRENCE_MAX_P:
        raise DomainError(f"the recurrence kernel needs p <= {RECURRENCE_MAX_P}, got {p_max}")
    unknown = paths - ALL_PATHS
    if unknown:
        raise DomainError(f"unknown paths: {sorted(unknown)}")
    if "poly" in paths and p_max > POLY_MAX_N:
        raise DomainError(f"the poly route needs p <= {POLY_MAX_N}, got {p_max}")


def _andrews_values(p: np.ndarray, a: np.ndarray, d: np.ndarray, index: np.ndarray) -> np.ndarray:
    """F_p(alpha) mod p by Andrews' sum (qfib_mod_andrews), prime by prime."""
    return np.fromiter(map(qfib_mod_andrews, p.tolist(), a.tolist(), d.tolist()), np.int64, p.size)


def _poly_values(p: np.ndarray, a: np.ndarray, d: np.ndarray, index: np.ndarray) -> np.ndarray:
    """F_p(alpha) mod p by Horner's rule on F_p(q), walking F_0, F_1, ... once to the largest p."""
    alpha_res, values = dict(zip(p.tolist(), a.tolist())), {}
    for n, coeffs in zip(range(max(alpha_res, default=-1) + 1), qfib_polys()):
        if n in alpha_res:
            values[n] = 0
            for c in reversed(coeffs):
                values[n] = (values[n] * alpha_res[n] + c) % n
    return np.array([values[q] for q in p.tolist()], dtype=np.int64)


# Routes that cross-check the recurrence: columns (p, alpha mod p, ord, index) to F_p(alpha) mod p.
_CROSS_CHECKS = {"andrews": _andrews_values, "proposition": proposition_values,
                 "poly": _poly_values}
ALL_PATHS = frozenset({"recurrence", *_CROSS_CHECKS})


def record_chunk(blocks, alpha: Fraction, paths: frozenset[str],
                 lhs: dict[int, int] | None = None) -> list[CongruenceRecord]:
    """One record per applicable prime of a chunk, in its order, from its blocks of columns
    (p, alpha mod p, ord, index, lsym) as residual_window returns them.

    A prime's left side, F_p(alpha) mod p in [0, p), is lhs[p] where lhs has p; the
    recurrence, the ground truth, runs as one batch over the other primes, and not at all
    when none is left.  Each other requested route only decides whether the routes agree.
    """
    p, a, d, index, lsym = (np.concatenate(column) for column in zip(*blocks))
    lhs, primes = lhs or {}, p.tolist()
    left = np.array([lhs.get(q, -1) for q in primes], dtype=np.int64)
    if (missing := left < 0).any():
        left[missing] = qfib_mod_recurrence_many(p[missing].tolist(), a[missing].tolist())
    agree = np.ones(p.size, dtype=bool)
    for name in sorted(paths & _CROSS_CHECKS.keys()):
        agree &= _CROSS_CHECKS[name](p, a, d, index) == left
    if ((n_star := index + lsym) < 0).any():
        raise InternalInvariantViolation("predicted index must be non-negative")
    rhs = fib_mod_lanes(n_star, p)
    columns = (c.tolist() for c in (a, d, index, lsym, left, n_star, rhs, agree))
    return [CongruenceRecord(ResidualData(alpha, q, res, o, i, s, Reason.OK), lhs=x,
                             predicted_index=n, rhs=y, match=x == y, paths_agree=ok)
            for q, res, o, i, s, x, n, y, ok in zip(primes, *columns)]


def _window_blocks(alpha: Fraction, primes: Sequence[int],
                   skipped: dict[str, int]) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield the columns (p, alpha mod p, ord, index, lsym) of each block's applicable
    primes in turn, classifying the primes block by block; count the others in skipped
    by reason.

    The primes come from the sieve, so they are not tested again.
    """
    for start in range(0, len(primes), WINDOW_BLOCK):
        columns, skips = residual_window(alpha, primes[start:start + WINDOW_BLOCK])
        for reason, k in skips.items():
            skipped[reason] += k
        yield columns


def _run_chunk(job) -> tuple[object, dict[str, int]]:
    chunk_fn, alpha, primes, extra = job
    skipped = {r.value: 0 for r in SKIP_REASONS}
    return chunk_fn(_window_blocks(alpha, primes, skipped), *extra), skipped


def split_chunks(items: list, n: int) -> list[list]:
    """n chunks dealt round-robin (some possibly empty).

    Each chunk keeps the input's order, and their lengths differ by at
    most 1.  On ascending primes, where a prime's recurrence costs O(p),
    every chunk also gets nearly the same sum of p.
    """
    return [items[i::n] for i in range(max(1, n))]


def run_chunks(
    chunk_fn: Callable, alpha: Fraction, p_min: int, p_max: int, workers: int, *extra
) -> tuple[list, dict[str, int]]:
    """Run chunk_fn over the applicable primes of [p_min, p_max], chunk by chunk.

    Only the window is sieved.  Its primes are not tested again, so the
    caller must give 3 <= p_min and p_max <= RECURRENCE_MAX_P, and an alpha
    outside {0, 1}.  The primes are dealt into one chunk per worker by
    split_chunks.  The non-empty chunks run in one process pool of at most
    one process per chunk and per CPU, or inline when that is one; a worker
    that dies, killed for lack of memory say, raises WorkerDied.  Each
    call gets an iterator over its chunk's applicable primes as blocks of int64
    columns (p, alpha mod p, ord, index, lsym), as residual_window returns them,
    in ascending p, followed by extra;
    it must exhaust the iterator, which counts the other primes by reason
    as it goes.  Returns the chunk results in chunk order and the skip
    counts summed over chunks.
    """
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")
    primes = primes_upto(p_max, p_min)
    jobs = [(chunk_fn, alpha, chunk, extra) for chunk in split_chunks(primes, workers) if chunk]
    processes = min(workers, len(jobs), os.cpu_count() or 1)
    if processes > 1:
        # imported here, so that a run that stays inline does not pay for it; the executor
        # starts its processes as multiprocessing's default context does
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(processes) as pool:
                parts = list(pool.map(_run_chunk, jobs))
        except BrokenProcessPool:  # where multiprocessing.Pool.map waits for ever (bpo-22393)
            raise WorkerDied(f"a worker process died before its chunk was done, "
                             f"so the run over [{p_min}, {p_max}] is incomplete") from None
    else:
        parts = [_run_chunk(job) for job in jobs]
    skipped = {r.value: sum(skips[r.value] for _, skips in parts) for r in SKIP_REASONS}
    return [result for result, _ in parts], skipped


def scan_range(
    alpha: Fraction,
    p_min: int,
    p_max: int,
    paths: frozenset[str] = DEFAULT_PATHS,
    workers: int = 1,
    lhs: dict[int, int] | None = None,
) -> ScanReport:
    """Verify the congruence at every applicable prime in [p_min, p_max].

    The recurrence always runs, so it is always among the report's paths.
    A prime's left side is lhs[p] where lhs has p, taken as given, as
    record_chunk takes it.  Records depend only on (alpha, p) and lhs and are
    sorted by p after the merge, so the output is identical for any worker count.
    """
    _check_request(paths, p_max)
    alpha = _require_alpha(alpha)
    if not 2 < p_min <= p_max:
        raise DomainError(f"need 2 < p_min <= p_max, got [{p_min}, {p_max}]")
    paths = paths | {"recurrence"}
    parts, skipped = run_chunks(record_chunk, alpha, p_min, p_max, workers, alpha, paths, lhs)
    records = sorted((r for records in parts for r in records), key=lambda r: r.p)
    return ScanReport(alpha, p_min, p_max, tuple(sorted(paths)), records, skipped)
