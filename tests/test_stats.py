import random
from fractions import Fraction

import pytest

from qfibcong.congruence import residual_data
from qfibcong import congruence, qfib, stats
from qfibcong.errors import DomainError, TheoremViolation
from qfibcong.modarith import primes_upto
from qfibcong.stats import occurrence_histogram, value_key


def test_histogram_hand_table():
    rep = occurrence_histogram(2, 20)
    assert rep.by_index_counts == {0: 3, 1: 2, 2: 1}
    assert rep.by_index_witnesses == {0: (3, 13, 19), 1: (7, 17), 2: (5,)}
    assert rep.skipped["OrdDivisibleBy5"] == 1  # p = 11
    assert rep.by_value_counts == {"0": 3, "1": 3}
    assert rep.primes_checked == 6


def test_histogram_counts_account_for_every_odd_prime():
    for x in (20, 100, 1000):
        rep = occurrence_histogram(2, x)
        total = rep.primes_checked + sum(rep.skipped.values())
        assert total == len(primes_upto(x)) - 1


def test_histogram_buckets_nest_as_x_grows():
    small = occurrence_histogram(2, 20)
    large = occurrence_histogram(2, 200)
    for n, ps in small.by_index_witnesses.items():
        assert set(ps) <= set(large.by_index_witnesses[n])
        assert large.by_index_counts[n] >= small.by_index_counts[n]


def test_histogram_witness_cap():
    rep = occurrence_histogram(2, 1000, witness_cap=2)
    for n, count in rep.by_index_counts.items():
        witnesses = rep.by_index_witnesses[n]
        assert len(witnesses) == min(2, count)
        # capped lists keep the smallest witnesses
        full = occurrence_histogram(2, 1000).by_index_witnesses[n]
        assert witnesses == full[: len(witnesses)]


def test_histogram_worker_counts_agree():
    base = occurrence_histogram(2, 2000, workers=1)
    for workers in (2, 8):
        other = occurrence_histogram(2, 2000, workers=workers)
        assert other.by_index_counts == base.by_index_counts
        assert other.by_index_witnesses == base.by_index_witnesses
        assert other.by_value_counts == base.by_value_counts
        assert other.skipped == base.skipped


def test_histogram_buckets_rederivable():
    rep = occurrence_histogram(2, 5000)
    rng = random.Random(3)
    pool = [(n, p) for n, ps in rep.by_index_witnesses.items() for p in ps]
    for n, p in rng.sample(pool, 100):
        rd = residual_data(Fraction(2), p)
        assert rd.applicable and rd.index + rd.lsym_ord == n


def test_by_value_merges_colliding_indices():
    rep = occurrence_histogram(2, 1000)
    ones = rep.by_index_counts.get(1, 0) + rep.by_index_counts.get(2, 0)
    assert rep.by_value_counts["1"] == ones
    assert value_key(1) == value_key(2) == "1"
    assert value_key(10) == "55"
    assert value_key(301) == "index:301"


def test_histogram_domain():
    with pytest.raises(DomainError):
        occurrence_histogram(4, 100)
    with pytest.raises(DomainError):
        occurrence_histogram(2, 1)
    with pytest.raises(DomainError):  # would silently empty every witness list
        occurrence_histogram(2, 200, witness_cap=-1)


def test_histogram_aborts_on_a_failed_congruence(monkeypatch):
    real = stats.proposition_values
    monkeypatch.setattr(stats, "proposition_values", lambda p, *args: (real(p, *args) + 1) % p)
    with pytest.raises(TheoremViolation, match="congruence failed at p=3, alpha=2: F_p = 1 but F_0 = 0"):
        occurrence_histogram(2, 100)


def test_histogram_reads_no_binomial_row_and_no_scalar_fib_mod(monkeypatch):
    def refuse(*args):
        raise AssertionError("stats checked a prime one at a time")

    for module in (stats, congruence, qfib):
        for name in ("fib_mod", "binomial_row"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    rep = occurrence_histogram(2, 20000)
    assert max(rep.by_index_counts) > 512  # an index past the old binomial_row cutoff
    assert rep.primes_checked > 0
