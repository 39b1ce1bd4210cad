"""Occurrence statistics of predicted Fibonacci values across primes.

For a fixed base g, every applicable prime p contributes a predicted
index n* = I_p(g) + (ord_p(g)/5); the histogram buckets primes by n* and
derives the value view keyed by F_{n*}.  Each prime is checked alongside
the bucketing by the S-set (proposition) route, a step of the paper's
proof: it checks G_{I,ord} = F_{I+(ord/5)}, not the theorem itself.  A
single mismatch anywhere aborts the whole scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .congruence import proposition_values, run_chunks
# Unused here; perfbench/tests/test_perfbench.py checks this binding is congruence's.
from .congruence import residual_data  # noqa: F401
from .density import _require_base, require_x_bound
from .errors import DomainError, TheoremViolation
from .qfib import fib, fib_mod_lanes

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
    primes_checked: int
    skipped: dict[str, int]
    by_index_counts: dict[int, int]
    by_index_witnesses: dict[int, tuple[int, ...]]
    by_value_counts: dict[str, int]


def _histogram_chunk(blocks, alpha, cap) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Check and bucket a chunk's applicable primes, block by block of ascending columns."""
    counts: dict[int, int] = {}
    witnesses: dict[int, list[int]] = {}
    for p, a, d, index, lsym in blocks:
        n_star = index + lsym
        lhs, rhs = proposition_values(p, a, d, index), fib_mod_lanes(n_star, p)
        failed = np.flatnonzero(lhs != rhs)
        if failed.size:
            i = failed[0]
            raise TheoremViolation(
                f"congruence failed at p={p[i]}, alpha={alpha}: "
                f"F_p = {lhs[i]} but F_{n_star[i]} = {rhs[i]} mod p"
            )
        order = np.argsort(n_star, kind="stable")  # each bucket's primes stay ascending
        keys, starts, sizes = np.unique(n_star[order], return_index=True, return_counts=True)
        ps = p[order]
        for n, start, size in zip(keys.tolist(), starts.tolist(), sizes.tolist()):
            counts[n] = counts.get(n, 0) + size
            bucket = witnesses.setdefault(n, [])
            bucket += ps[start:start + min(size, cap - len(bucket))].tolist()
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
    require_x_bound(x, "occurrence_histogram")
    if witness_cap < 0:
        raise DomainError(f"occurrence_histogram needs witness_cap >= 0, got {witness_cap}")
    alpha = Fraction(g)
    parts, skipped = run_chunks(_histogram_chunk, alpha, 3, x, workers, alpha, witness_cap)
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
        primes_checked=sum(counts.values()),
        skipped=skipped,
        by_index_counts=dict(sorted(counts.items())),
        by_index_witnesses={n: tuple(sorted(ps)[:witness_cap]) for n, ps in sorted(witnesses.items())},
        by_value_counts=by_value,
    )
