"""Occurrence statistics of predicted Fibonacci values across primes.

For a fixed base g, every applicable prime p contributes a predicted
index n* = I_p(g) + (ord_p(g)/5); the histogram buckets primes by n* and
derives the value view keyed by F_{n*}.  Each prime is checked alongside
the bucketing by the S-set (proposition) route, a step of the paper's
proof: it checks G_{I,ord} = F_{I+(ord/5)}, not the theorem itself.  A
single mismatch anywhere aborts the whole scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .congruence import predicted_index, qfib_mod_proposition, residual_data, run_chunks
from .density import _require_base, v_count
from .errors import DomainError, InternalInvariantViolation, TheoremViolation
from .modarith import is_prime, primes_upto
from .qfib import fib, fib_mod

DEFAULT_WITNESS_CAP = 10_000

# Indices up to this bound get their exact Fibonacci value as the by_value
# key; larger ones are keyed symbolically to keep reports readable.
_VALUE_KEY_LIMIT = 300


def value_key(n: int) -> str:
    return str(fib(n)) if n <= _VALUE_KEY_LIMIT else f"index:{n}"


@dataclass(frozen=True)
class OccurrenceReport:
    """Histogram of predicted indices and values over all primes up to x."""

    g: int
    x: int
    witness_cap: int
    workers: int
    wall_time_s: float
    primes_checked: int
    skipped: dict[str, int]
    by_index_counts: dict[int, int]
    by_index_witnesses: dict[int, tuple[int, ...]]
    by_value_counts: dict[str, int]


def _histogram_chunk(rds, cap) -> tuple[dict[int, int], dict[int, list[int]]]:
    counts: dict[int, int] = {}
    witnesses: dict[int, list[int]] = {}
    for rd in rds:
        p = rd.p
        n_star = predicted_index(rd)
        lhs = qfib_mod_proposition(rd)
        if lhs.value != fib_mod(n_star, p).value:
            raise TheoremViolation(
                f"congruence failed at p={p}, alpha={rd.alpha}: "
                f"F_p = {lhs.value} but F_{n_star} = {fib_mod(n_star, p).value} mod p"
            )
        counts[n_star] = counts.get(n_star, 0) + 1
        bucket = witnesses.setdefault(n_star, [])
        if len(bucket) < cap:
            bucket.append(p)
    return counts, witnesses


def occurrence_histogram(
    g: int, x: int, workers: int = 1, witness_cap: int = DEFAULT_WITNESS_CAP
) -> OccurrenceReport:
    """Bucket every applicable odd prime p <= x by its predicted index.

    Witness lists are capped per bucket (counts stay exact).  Each chunk
    is ascending and keeps the cap smallest primes of each bucket it sees.
    A prime among a bucket's cap smallest overall has fewer than cap
    smaller primes in that bucket, so also within its own chunk, and is
    kept there; merging, sorting and capping the chunk lists therefore
    gives the bucket's cap smallest primes for any worker count.
    """
    _require_base(g)
    if x < 2:
        raise DomainError(f"occurrence_histogram needs x >= 2, got {x}")
    start = time.monotonic()
    parts, skipped = run_chunks(_histogram_chunk, Fraction(g), 3, x, workers, witness_cap)
    counts: dict[int, int] = {}
    witnesses: dict[int, list[int]] = {}
    for c, w in parts:
        for n, k in c.items():
            counts[n] = counts.get(n, 0) + k
        for n, ps in w.items():
            witnesses.setdefault(n, []).extend(ps)
    by_value: dict[str, int] = {}
    for n, k in counts.items():
        key = value_key(n)
        by_value[key] = by_value.get(key, 0) + k
    return OccurrenceReport(
        g=g,
        x=x,
        witness_cap=witness_cap,
        workers=workers,
        wall_time_s=time.monotonic() - start,
        primes_checked=sum(counts.values()),
        skipped=skipped,
        by_index_counts=dict(sorted(counts.items())),
        by_index_witnesses={n: tuple(sorted(ps)[:witness_cap]) for n, ps in sorted(witnesses.items())},
        by_value_counts=by_value,
    )


def target_index_census(g: int, x: int, t_list: list[int]) -> dict[int, int]:
    """Count primes p <= x with I_p(g) = t and p = 2 mod 5 for each requested t.

    Counted by a direct scan over residual data, then cross-checked
    against the progression-sieve count, which defines the same set since
    p = 1 + t mod 5t forces p = 2 mod 5 when t = 1 mod 5.
    """
    _require_base(g)
    for t in t_list:
        if not is_prime(t) or t % 5 != 1:
            raise DomainError(f"census targets must be primes = 1 mod 5, got {t}")
    wanted = set(t_list)
    counts = {t: 0 for t in t_list}
    for p in primes_upto(x):
        if p == 2 or g % p == 0 or p % 5 != 2:
            continue
        rd = residual_data(Fraction(g), p)
        if rd.index in wanted:
            counts[rd.index] += 1
    for t in t_list:
        independent = v_count(g, 1, 5, t, x).count
        if counts[t] != independent:
            raise InternalInvariantViolation(
                f"census({t}) = {counts[t]} disagrees with progression count {independent}"
            )
    return counts
