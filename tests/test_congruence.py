import concurrent.futures.process
import contextlib
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import qfibcong
from qfibcong import congruence, qfib
from qfibcong.congruence import (
    ALL_PATHS,
    SKIP_REASONS,
    Reason,
    ResidualData,
    ScanReport,
    qfib_mod_proposition,
    residual_data,
    scan_range,
    split_chunks,
    verify_theorem,
)
from qfibcong.density import DeltaEstimate, DeltaTerm, VCount
from qfibcong.errors import DomainError
from qfibcong.modarith import is_prime, multiplicative_order, primes_upto, reduce_rational
from qfibcong.qfib import RECURRENCE_MAX_P, binomial_row, fib_mod, qfib_mod_recurrence
from qfibcong.report import density_report_dict, scan_report_dict, stats_report_dict, write_json
from qfibcong.stats import OccurrenceReport, occurrence_histogram

from _oracles import primes_trial, s_set_sums as oracle_s_set_sums


def test_residual_data_examples():
    rd = residual_data(Fraction(2), 7)
    assert (rd.ord, rd.index, rd.lsym_ord) == (3, 2, -1)
    assert rd.applicable
    rd = residual_data(Fraction(2), 11)
    assert rd.reason is Reason.ORD_DIVISIBLE_BY_5
    assert not rd.applicable
    assert residual_data(Fraction(7), 7).reason is Reason.BAD_VALUATION_ALPHA
    assert residual_data(Fraction(1, 7), 7).reason is Reason.BAD_VALUATION_ALPHA
    assert residual_data(Fraction(8), 7).reason is Reason.BAD_VALUATION_ALPHA_MINUS_1


def test_residual_data_domain():
    for alpha in (Fraction(0), Fraction(1)):
        with pytest.raises(DomainError):
            residual_data(alpha, 7)
    for p in (2, 9, 1):
        with pytest.raises(DomainError):
            residual_data(Fraction(2), p)


def test_residual_data_reasons_and_residues():
    # covers p | num, p | den and p | num - den for these alphas; the
    # valuations and the residue are checked by Fraction arithmetic
    reasons = set()
    for alpha in map(Fraction, ("2", "3", "1/2", "3/2", "7/4", "2/5", "8")):
        for p in primes_trial(5000)[1:]:
            rd = residual_data(alpha, p)
            if alpha.numerator % p == 0 or alpha.denominator % p == 0:
                assert rd.reason is Reason.BAD_VALUATION_ALPHA
            elif (alpha - 1).numerator % p == 0:
                assert rd.reason is Reason.BAD_VALUATION_ALPHA_MINUS_1
            else:
                assert rd.alpha_res == reduce_rational(alpha, p)
            reasons.add(rd.reason)
    assert reasons == set(Reason)


def _window_oracle(alpha, primes):
    """residual_window's result, prime by prime through residual_data."""
    rows, skipped = [], {r.value: 0 for r in congruence.SKIP_REASONS}
    for p in primes:
        rd = residual_data(alpha, p)
        if rd.applicable:
            rows.append((p, rd.alpha_res, rd.ord, rd.index, rd.lsym_ord))
        else:
            skipped[rd.reason.value] += 1
    return rows, skipped


def _window(alpha, primes):
    columns, skipped = congruence.residual_window(alpha, primes)
    return list(zip(*(column.tolist() for column in columns))), skipped


_BIG = 2**63


@settings(max_examples=60, deadline=None)
@given(start=st.sampled_from((3, 10**6 - 2000, 10**9)), offset=st.integers(0, 2000),
       width=st.integers(1, 2500),
       num=st.one_of(st.integers(-50, 50), st.integers(-2 * _BIG, 2 * _BIG),
                     st.integers(_BIG, 4 * _BIG)),
       den=st.one_of(st.integers(1, 50), st.integers(1, 2 * _BIG), st.integers(_BIG, 4 * _BIG)),
       skip=st.sampled_from(("none", "num", "den", "minus1")), pick=st.integers(0, 10**6))
@example(start=3, offset=0, width=200, num=2, den=1, skip="none", pick=0)
@example(start=10**9, offset=0, width=800, num=-7, den=_BIG + 1, skip="minus1", pick=3)
@example(start=10**6 - 2000, offset=0, width=2000, num=-7, den=1, skip="none", pick=0)
def test_residual_window_matches_residual_data(start, offset, width, num, den, skip, pick):
    """The window function against the per-prime path, near 2, 1e6 and 1e9; p - 1 there
    has q**e with e >= 2 and a prime cofactor above sqrt(p_max) for many p."""
    primes = list(primes_upto(start + offset + width, start + offset))
    assume(primes and num != 0)
    q = primes[pick % len(primes)]  # a prime of the window for alpha to hit
    alpha = Fraction(num, den)
    if skip == "num":
        alpha *= q
    elif skip == "den":
        alpha /= q
    elif skip == "minus1":
        alpha = 1 + q * alpha
    assume(alpha not in (0, 1))
    assert _window(alpha, primes) == _window_oracle(alpha, primes)


def test_residual_window_hits_each_reason_and_each_order_step():
    # 65,537 = 2**16 + 1, where 3 has order 2**16: the order keeps q = 2 sixteen
    # times.  1,000,000,007 = 2 * 500,000,003 + 1 with 500,000,003 prime, far above
    # sqrt(p_max): 2 and 3 have order 500,000,003 there, the cofactor alone.
    for alpha, primes in ((Fraction(3), [65_537]), (Fraction(2), [10**9 + 7]),
                          (Fraction(3), [10**9 + 7, 10**9 + 403])):
        rows, _ = _window(alpha, primes)
        assert rows == _window_oracle(alpha, primes)[0] and len(rows) == len(primes)
    assert _window(Fraction(3), [65_537])[0][0][2] == 2**16
    assert [row[2] for row in _window(Fraction(2), [10**9 + 7])[0]] == [500_000_003]
    # each skip reason over [3, 50]: 7, 11 and 13 divide 77/13, and 3 divides 25/13 - 1
    primes = list(primes_upto(50, 3))
    for alpha in (Fraction(77, 13), Fraction(25, 13), Fraction(-3, 2**70)):
        got = _window(alpha, primes)
        assert got == _window_oracle(alpha, primes)
    assert _window(Fraction(77, 13), primes)[1]["BadValuationAlpha"] == 3
    assert _window(Fraction(25, 13), primes)[1]["BadValuationAlphaMinus1"] == 1
    assert _window(Fraction(2), primes)[1]["OrdDivisibleBy5"] == 3  # p = 11, 31, 41
    assert _window(Fraction(2), []) == ([], {r.value: 0 for r in congruence.SKIP_REASONS})
    with pytest.raises(DomainError):  # int64 lanes would wrap past the bound
        congruence.residual_window(Fraction(2), [RECURRENCE_MAX_P + 12])


def _s_set_lanes(p, d, index):
    """congruence.s_set_sums on lanes of ints, as (k1 or None, sum1, sum2) per lane."""
    k1, sum1, sum2 = congruence.s_set_sums(*(np.array(v, dtype=np.int64) for v in (p, d, index)))
    return [(None if k < 0 else k, s1, s2)
            for k, s1, s2 in zip(k1.tolist(), sum1.tolist(), sum2.tolist())]


def _s_set_oracle(p, d, index):
    k1, sum1, sum2 = oracle_s_set_sums(binomial_row(index, p), d, p)
    return k1, sum1 % p, sum2 % p


def test_s_set_sums_match_the_binomial_row_oracle_to_index_600():
    # one call over every I <= 600 and each d mod 5, so lanes join at every step
    p = 1009
    lanes = [(p, d, index) for index in range(601) for d in (1, 2, 3, 4, 6, p - 1)]
    want = [_s_set_oracle(*lane) for lane in lanes]
    assert _s_set_lanes(*zip(*lanes)) == want
    assert sum(k1 is None for k1, _, _ in want) > 0  # r1 > I: S1 empty
    for index in (600, 1025):
        # p = index * d + 1, and alpha = g**index for a primitive root g has order d
        d = next(d for d in range(2, 10**4) if d % 5 and is_prime(index * d + 1))
        p = index * d + 1
        g = next(g for g in range(2, p) if multiplicative_order(g, p) == p - 1)
        rd = residual_data(Fraction(pow(g, index, p)), p)
        assert (rd.ord, rd.index) == (d, index) and rd.applicable
        assert qfib_mod_proposition(rd) == qfib_mod_recurrence(p, rd.alpha_res, p)


_LANE = st.tuples(st.integers(3, RECURRENCE_MAX_P), st.integers(0, 3000),
                  st.integers(1, RECURRENCE_MAX_P))


@settings(max_examples=80, deadline=None)
@given(lanes=st.lists(_LANE, min_size=1, max_size=6))
@example(lanes=[(RECURRENCE_MAX_P, 0, 1), (RECURRENCE_MAX_P, 2, 7), (7, 3, 3),
                (RECURRENCE_MAX_P, 3000, RECURRENCE_MAX_P - 7)])
def test_s_set_sums_match_the_oracle_on_drawn_lanes(lanes):
    """Lanes of (p, I, d), with p the largest prime up to the draw, I < p and 5 not
    dividing d; the example's first two lanes have S1 empty (r1 > I)."""
    rows = []
    for top, index, d in lanes:
        p = next(q for q in range(top, 2, -1) if is_prime(q))
        rows.append((p, d if d % 5 else d + 1, index % p))
    assert _s_set_lanes(*zip(*rows)) == [_s_set_oracle(*row) for row in rows]


def test_predicted_index_examples():
    for p, n in ((3, 0), (5, 2), (7, 1)):
        assert verify_theorem(Fraction(2), p).predicted_index == n
    rd = verify_theorem(Fraction(2), 11)
    assert isinstance(rd, ResidualData) and rd.reason is Reason.ORD_DIVISIBLE_BY_5


def test_proposition_handles_negative_exponents():
    # p = 29, alpha = 12: ord 4, I = 7; k = 6 makes (p-1-2k*ord)/10 = -2,
    # which must act through alpha**(p-1) = 1
    rd = residual_data(Fraction(12), 29)
    assert (rd.ord, rd.index) == (4, 7)
    assert (2 * 6 * rd.ord - (29 - 1)) % 5 == 0  # k = 6 lies in S1
    got = qfib_mod_proposition(rd)
    assert got == got.value == qfib_mod_recurrence(29, 12, 29)  # .value for perfbench


def test_proposition_matches_recurrence_exhaustively():
    # many of these pairs have |S1| >= 2, where the S1 terms share one power
    multi = 0
    for p in primes_trial(400)[1:]:
        for a in range(2, p):
            rd = residual_data(Fraction(a), p)
            if not rd.applicable:
                continue
            s1 = [k for k in range(rd.index + 1) if (2 * k * rd.ord - (p - 1)) % 5 == 0]
            multi += len(s1) >= 2
            want = qfib_mod_recurrence(p, rd.alpha_res, p)
            assert qfib_mod_proposition(rd) == want, (a, p)
    assert multi > 100


_PROP_PRIMES = primes_trial(3000)[1:]


@st.composite
def _unit_lane(draw):
    """(p, a, d): an odd prime p < 3000 and a unit a of order d > 1 mod p, 5 not dividing d."""
    p = draw(st.sampled_from(_PROP_PRIMES))
    d = draw(st.sampled_from([d for d in range(2, p) if (p - 1) % d == 0 and d % 5]))
    k = draw(st.sampled_from([k for k in range(1, d) if math.gcd(k, d) == 1]))
    g = next(g for g in range(2, p) if multiplicative_order(g, p) == p - 1)
    return p, pow(g, (p - 1) // d * k, p), d


@settings(max_examples=200, deadline=None)
@given(_unit_lane())
@example((29, 12, 4))  # d even, I = 7 odd, and S1's e = -20
@example((7, 2, 3))  # d odd, I = 2 even
@example((17, 2, 8))  # d even, I = 2 even
def test_proposition_signs_match_the_modular_powers(lane):
    # Euler's criterion and S1's power alpha**(e/10), which proposition_values reads off the
    # parities of I and (I - 2*k1)/5, against Python's pow; a negative e acts through a**-1
    p, a, d = lane
    index = (p - 1) // d
    assert pow(a, (p - 1) // 2, p) == (1 if index % 2 == 0 else p - 1)
    k1 = congruence.s_set_sums(*(np.array([v]) for v in (p, d, index)))[0].tolist()[0]
    if k1 >= 0:
        e = p - 1 - 2 * k1 * d
        assert e % 10 == 0 and (index - 2 * k1) % 5 == 0
        assert pow(a, e // 10, p) == (p - 1 if d % 2 == 0 and (index - 2 * k1) // 5 % 2 else 1)
    got = congruence.proposition_values(*(np.array([v]) for v in (p, a, d, index)))
    assert got.tolist() == [qfib_mod_recurrence(p, a, p)]


def test_verify_theorem_examples():
    r = verify_theorem(Fraction(2), 7, ALL_PATHS)
    assert r.match and r.paths_agree
    assert (r.lhs, r.rhs, r.predicted_index) == (1, 1, 1)
    r = verify_theorem(Fraction(2), 13)
    assert r.match and (r.lhs, r.predicted_index) == (0, 0)
    r = verify_theorem(Fraction(2), 5)
    assert r.match and r.predicted_index == 2 and r.lhs == 1
    r = verify_theorem(Fraction(2), 11)
    assert isinstance(r, ResidualData)
    assert r == residual_data(Fraction(2), 11) and r.reason is Reason.ORD_DIVISIBLE_BY_5


def test_verify_theorem_rational_alphas():
    for alpha in (Fraction(1, 2), Fraction(2, 3), Fraction(5, 7)):
        for p in primes_trial(100):
            if p == 2:
                continue
            r = verify_theorem(alpha, p, ALL_PATHS)
            if isinstance(r, ResidualData):
                continue
            assert r.match and r.paths_agree


def test_verify_matches_prediction_via_independent_rhs():
    for p in primes_trial(200):
        if p == 2:
            continue
        r = verify_theorem(Fraction(3), p)
        if isinstance(r, ResidualData):
            continue
        assert r.rhs == fib_mod(r.predicted_index, p)
        assert r.match


def test_scan_range_small():
    rep = scan_range(Fraction(2), 3, 20)
    assert [r.p for r in rep.records] == [3, 5, 7, 13, 17, 19]
    assert rep.all_match
    assert rep.skipped == {
        "BadValuationAlpha": 0,
        "BadValuationAlphaMinus1": 0,
        "OrdDivisibleBy5": 1,
    }


def test_scan_range_worker_counts_agree():
    base = scan_range(Fraction(2), 3, 2000, workers=1)
    for workers in (2, 8):
        other = scan_range(Fraction(2), 3, 2000, workers=workers)
        assert [(r.p, r.lhs, r.match) for r in other.records] == [
            (r.p, r.lhs, r.match) for r in base.records
        ]
        assert other.skipped == base.skipped


def test_scan_range_across_the_uint32_bound():
    # the recurrence runs uint32 lanes up to 65,536 and int64 lanes above it
    paths = frozenset({"proposition"})
    base = scan_range(Fraction(2), 65_000, 66_100, paths=paths)
    ps = [r.p for r in base.records]
    assert ps[0] < 65_536 < ps[-1]
    assert base.all_match and all(r.paths_agree for r in base.records)
    assert scan_range(Fraction(2), 65_000, 66_100, paths=paths, workers=2).records == base.records


def test_scan_range_domain():
    with pytest.raises(DomainError):
        scan_range(Fraction(2), 2, 10)
    with pytest.raises(DomainError):
        scan_range(Fraction(2), 20, 10)
    with pytest.raises(DomainError):
        scan_range(Fraction(2), 3, 10, paths=frozenset({"nonsense"}))
    # unknown routes are refused even where no prime would use them:
    # [11, 12] holds only 11, where ord_11(2) = 10 is divisible by 5
    with pytest.raises(DomainError):
        scan_range(Fraction(2), 11, 12, paths=frozenset({"nonsense"}))
    with pytest.raises(DomainError):
        verify_theorem(Fraction(2), 11, frozenset({"nonsense"}))
    # refused before sieving, so this returns at once
    with pytest.raises(DomainError):
        scan_range(Fraction(2), RECURRENCE_MAX_P - 7, RECURRENCE_MAX_P + 100)
    # alpha in {0, 1} is refused even for a window without primes
    for alpha in (Fraction(0), Fraction(1)):
        with pytest.raises(DomainError):
            scan_range(alpha, 24, 28)


def test_scan_range_takes_known_left_sides(monkeypatch):
    alpha, paths = Fraction(3, 2), frozenset({"andrews", "proposition"})
    base = scan_range(alpha, 3, 3000, paths=paths)
    lhs = {r.p: r.lhs for r in base.records}

    def no_recurrence(*args):
        raise AssertionError("the recurrence ran for a prime whose left side was given")

    monkeypatch.setattr(congruence, "qfib_mod_recurrence_many", no_recurrence)
    assert scan_range(alpha, 3, 3000, paths=paths, lhs=lhs) == base
    # a wrong left side is taken as given: which ones to trust is the caller's decision
    p = base.records[3].p
    wrong = scan_range(alpha, 3, 3000, paths=paths, workers=2, lhs={**lhs, p: (lhs[p] + 1) % p})
    r = wrong.records[3]
    assert (r.p, r.lhs, r.match, r.paths_agree) == (p, (lhs[p] + 1) % p, False, False)
    assert wrong.records[:3] + wrong.records[4:] == base.records[:3] + base.records[4:]


def test_chunk_runner_sieves_only_the_window(monkeypatch):
    calls = []
    real = congruence.primes_upto

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(congruence, "primes_upto", recording)
    lo, hi = 10**6 - 300, 10**6
    parts, skipped = congruence.run_chunks(list, Fraction(2), lo, hi, 1)
    assert calls == [(hi, lo)]
    ps = [p for block in parts[0] for p in block[0].tolist()]
    assert len(ps) + sum(skipped.values()) == len(real(hi, lo)) > 0
    assert min(ps) >= lo


def test_scan_report_names_the_recurrence():
    assert scan_range(Fraction(2), 3, 50).paths == ("recurrence",)
    rep = scan_range(Fraction(2), 3, 50, paths=frozenset({"proposition"}))
    assert rep.paths == ("proposition", "recurrence")
    assert [r.lhs for r in rep.records] == [
        qfib_mod_recurrence(r.p, r.data.alpha_res, r.p) for r in rep.records
    ]


def test_route_disagreement_is_recorded(monkeypatch):
    real = congruence._CROSS_CHECKS["proposition"]
    monkeypatch.setitem(
        congruence._CROSS_CHECKS, "proposition", lambda p, *args: (real(p, *args) + 1) % p
    )
    both = frozenset({"recurrence", "proposition"})
    r = verify_theorem(Fraction(2), 13, both)
    assert r.match and not r.paths_agree
    assert verify_theorem(Fraction(2), 13).paths_agree
    rep = scan_range(Fraction(2), 3, 50, paths=both)
    assert len(rep.records) == 11 and rep.all_match
    assert not any(r.paths_agree for r in rep.records)


def test_scan_runs_the_proposition_once_per_chunk_and_no_scalar_fib_mod(monkeypatch):
    def refuse(*args):
        raise AssertionError("the scan checked a prime one at a time")

    monkeypatch.setattr(congruence, "qfib_mod_proposition", refuse)
    for module in (congruence, qfib):
        if hasattr(module, "fib_mod"):
            monkeypatch.setattr(module, "fib_mod", refuse)
    lanes = []
    real = congruence._CROSS_CHECKS["proposition"]

    def counted(p, *args):
        lanes.append(p.size)
        return real(p, *args)

    monkeypatch.setitem(congruence._CROSS_CHECKS, "proposition", counted)
    rep = scan_range(Fraction(2), 3, 40000, paths=frozenset({"recurrence", "andrews", "proposition"}))
    assert len(primes_upto(40000, 3)) > congruence.WINDOW_BLOCK  # the chunk spans two blocks
    assert lanes == [len(rep.records)]
    assert rep.all_match and all(r.paths_agree for r in rep.records)


def test_poly_scan_holds_no_polynomial_cache():
    # a fresh process, so that no earlier call has built polynomials
    code = ("import tracemalloc; from fractions import Fraction; from qfibcong import scan_range; "
            "tracemalloc.start(); "
            "scan_range(Fraction(2), 3, 300, paths=frozenset({'recurrence', 'poly'})); "
            "print(tracemalloc.get_traced_memory()[1])")
    src = os.path.dirname(os.path.dirname(qfibcong.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    peak = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout
    assert int(peak) < 20e6


def test_split_chunks():
    assert split_chunks([], 3) == [[], [], []]
    assert split_chunks([1], 4)[0] == [1]
    for items, n in ((list(range(100)), 7), ([1, 2, 3, 4, 5], 2), ([3, 5, 7], 8)):
        chunks = split_chunks(items, n)
        assert len(chunks) == n
        assert sorted(sum(chunks, [])) == items
        assert all(chunk == sorted(chunk) for chunk in chunks)
        assert max(map(len, chunks)) - min(map(len, chunks)) <= 1
    # each odd prime p costs O(p) in the recurrence, so the chunks share sum(p)
    primes = primes_trial(50_000)[1:]
    for n in (2, 3, 8):
        loads = [sum(chunk) for chunk in split_chunks(primes, n)]
        assert max(loads) <= 1.01 * sum(loads) / n


def test_chunk_runner_starts_no_idle_processes(monkeypatch):
    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(congruence.os, "cpu_count", lambda: 8)
    # [1500, 1530] holds two primes, 1511 and 1523: two non-empty chunks of 64
    rep = scan_range(Fraction(2), 1500, 1530, workers=64)
    assert sizes == [2]
    assert rep.records == scan_range(Fraction(2), 1500, 1530, workers=1).records
    monkeypatch.setattr(congruence.os, "cpu_count", lambda: 1)
    scan_range(Fraction(2), 3, 1000, workers=64)
    assert sizes == [2]


# Runs one 2-worker command whose worker holding p = 5 dies, by os._exit or by SIGKILL to
# itself, then prints the exit code and how many pool processes are left.
_DYING_WORKER = """
import multiprocessing, os, signal, sys
from qfibcong import cli, congruence, stats

how, command = sys.argv[1:]
multiprocessing.set_start_method("fork")  # the workers inherit the patch below
congruence.os.cpu_count = lambda: 2


def dying(real, primes_arg):
    def wrapper(*args):
        if 5 in list(args[primes_arg]):
            os._exit(137) if how == "exit" else os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)
    return wrapper


if command == "scan":
    congruence.qfib_mod_recurrence_many = dying(congruence.qfib_mod_recurrence_many, 0)
    argv = ["scan", "--alpha", "2", "--pmax", "1000", "--workers", "2"]
else:
    stats.fib_mod_lanes = dying(stats.fib_mod_lanes, 1)
    argv = ["stats", "--g", "2", "--x", "1000", "--workers", "2"]
code = cli.main(argv)
print(code, len(multiprocessing.active_children()))
"""


def test_a_dead_worker_fails_the_run_instead_of_hanging():
    # each command runs in a child, in its own process group, so that a hang fails the test
    # after 10 s and leaves no process behind
    src = os.path.dirname(os.path.dirname(qfibcong.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for how in ("exit", "kill"):
        for command in ("scan", "stats"):
            child = subprocess.Popen([sys.executable, "-c", _DYING_WORKER, how, command], env=env,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                     start_new_session=True)
            try:
                out, err = child.communicate(timeout=10)
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(child.pid, signal.SIGKILL)
                child.wait()
            assert (out, err) == ("5 0\n", "error: a worker process died before its chunk was "
                                            "done, so the run over [3, 1000] is incomplete\n")


def _body(payload):
    return json.dumps({k: v for k, v in payload.items() if k != "run"})


@settings(max_examples=15, deadline=None)
@given(
    st.integers(3, 3000).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 3000))),
    st.sampled_from((2, 3, 6)),
)
@example((3, 3000), 2)
@example((1500, 1530), 3)
def test_chunk_runner_covers_the_window_for_any_worker_count(window, g):
    p_min, p_max = window
    odd_primes = [p for p in primes_trial(p_max) if p >= p_min and p > 2]
    scans, histograms = [], []
    for workers in (1, 2, 3):
        rep = scan_range(Fraction(g), p_min, p_max, workers=workers)
        ps = [r.p for r in rep.records]
        assert ps == sorted(set(ps)) and set(ps) <= set(odd_primes)
        assert len(ps) + sum(rep.skipped.values()) == len(odd_primes)
        scans.append(rep)
        histograms.append(occurrence_histogram(g, p_max, workers=workers))
    # the library's results, not only their report bodies, owe nothing to the worker count
    assert scans[0] == scans[1] == scans[2] and histograms[0] == histograms[1] == histograms[2]
    assert len({_body(scan_report_dict(rep)) for rep in scans}) == 1
    assert len({_body(stats_report_dict(hist)) for hist in histograms}) == 1


def _record_rows(p):
    """One drawn record row at the prime-sized modulus p: (p, alpha mod p, ord, index, lsym,
    lhs, rhs, match, paths_agree), each field drawn on its own."""
    return st.tuples(st.just(p), st.integers(0, p - 1), st.integers(1, p - 1),
                     st.integers(0, p - 1), st.sampled_from((-1, 1)), st.integers(0, p - 1),
                     st.integers(0, p - 1), st.booleans(), st.booleans())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(3, RECURRENCE_MAX_P).flatmap(_record_rows), max_size=5),
    st.sampled_from((Fraction(2), Fraction(-5, 7), Fraction(3, 2), Fraction(10**30 + 1, 7))),
    st.lists(st.integers(0, 10**9), min_size=len(SKIP_REASONS), max_size=len(SKIP_REASONS)),
    st.sets(st.sampled_from(sorted(ALL_PATHS))),
    st.fixed_dictionaries({"workers": st.integers(1, 64), "wall_time_s": st.floats(0, 1e4)}),
)
@example([], Fraction(2), [0, 0, 0], set(), {"workers": 1, "wall_time_s": 0.5})
@example([(RECURRENCE_MAX_P, RECURRENCE_MAX_P - 1, 1, 0, -1, RECURRENCE_MAX_P - 1,
           RECURRENCE_MAX_P - 1, False, False)],
         Fraction(-5, 7), [1, 2, 3], {"recurrence"}, {"workers": 3, "wall_time_s": 1e-9})
def test_write_json_writes_what_the_encoder_writes(rows, alpha, skips, paths, run):
    """write_json gives json.dumps(indent=2)'s text for a scan's body, its records given as
    dicts or, as the CLI gives them, as columns."""
    names = ("p", "alpha_res", "ord", "index", "lsym", "lhs", "rhs", "match", "paths_agree")
    columns = {name: np.array(column, dtype=congruence.RECORD_FIELDS[name])
               for name, column in zip(names, zip(*rows) if rows else [()] * len(names))}
    columns["predicted_index"] = columns["index"] + columns["lsym"]
    rep = ScanReport(alpha, 3, RECURRENCE_MAX_P, tuple(sorted(paths)), columns,
                     {r.value: k for r, k in zip(SKIP_REASONS, skips)})
    payload = {**scan_report_dict(rep), "run": run}
    assert _written(payload) == json.dumps(payload, indent=2) + "\n"
    assert _written({**scan_report_dict(rep, as_columns=True), "run": run}) == _written(payload)


def _written(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "body.json")
        write_json(payload, path)
        with open(path) as fh:
            return fh.read()


_RUNS = st.one_of(st.just({}), st.fixed_dictionaries(
    {"workers": st.integers(1, 64), "wall_time_s": st.floats(0, 1e4)}))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 10**30), st.integers(2, RECURRENCE_MAX_P), st.integers(0, 10**4),
    st.dictionaries(st.integers(0, 10**6), st.lists(st.integers(3, RECURRENCE_MAX_P), max_size=4)),
    st.dictionaries(st.text(), st.integers(0, 10**9)),
    st.lists(st.integers(0, 10**9), min_size=len(SKIP_REASONS), max_size=len(SKIP_REASONS)),
    _RUNS,
)
@example(2, 2, 0, {}, {}, [0, 0, 0], {})
@example(7, 300_000, 10_000, {0: [3, 13], 4: [], 12: [7]}, {"0": 2, "3": 1, "index:301": 0},
         [1, 2, 3], {"workers": 1, "wall_time_s": 0.125})
def test_write_json_writes_stats_bodies_as_the_encoder_does(g, x, cap, buckets, by_value, skips,
                                                            run):
    counts = {n: len(witnesses) + n % 3 for n, witnesses in buckets.items()}
    rep = OccurrenceReport(g, x, cap, sum(counts.values()),
                           {r.value: k for r, k in zip(SKIP_REASONS, skips)}, counts,
                           {n: tuple(witnesses) for n, witnesses in buckets.items()}, by_value)
    payload = {**stats_report_dict(rep), "run": run}
    assert _written(payload) == json.dumps(payload, indent=2) + "\n"


_TERMS = st.tuples(st.integers(1, 10**4), st.sampled_from((-1, 0, 1)), st.integers(0, 1),
                   st.integers(1, 10**40))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 10**30), st.integers(-10**6, 10**6), st.integers(1, 10**6),
    st.integers(1, 10**6), st.integers(1, 10**6), st.lists(_TERMS, max_size=6),
    st.fractions(min_value=0, max_denominator=10**30),
    st.one_of(st.none(), st.tuples(st.integers(2, RECURRENCE_MAX_P),
                                   st.lists(st.integers(3, RECURRENCE_MAX_P), max_size=4))),
    _RUNS,
)
@example(2, 1, 5, 11, 1, [], Fraction(0), None, {})
@example(2, -1, 5, 2, 30, [(1, 1, 1, 40), (3, -1, 1, 80), (6, 1, 0, 160)], Fraction(1, 7),
         (100, []), {"workers": 1, "wall_time_s": 1e-9})
def test_write_json_writes_density_bodies_as_the_encoder_does(g, a, d, t, n_max, terms, tail,
                                                              empirical, run):
    terms = tuple(DeltaTerm(n, mu, c, deg, Fraction(mu * c, deg)) for n, mu, c, deg in terms)
    count = None if empirical is None else VCount(g, a, d, t, empirical[0], len(empirical[1]),
                                                  tuple(empirical[1]))
    est = DeltaEstimate(g, a, d, t, n_max, sum((x.value for x in terms), Fraction(0)), tail, terms,
                        count)
    payload = {**density_report_dict(est), "run": run}
    assert _written(payload) == json.dumps(payload, indent=2) + "\n"


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_FLAT_LISTS = st.lists(st.text(), min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries({k: _SCALARS for k in keys}), min_size=1,
                          max_size=4))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(st.integers(), max_size=4)
                   | st.lists(st.text(), max_size=4) | _FLAT_LISTS
                   | st.dictionaries(st.text() | st.integers() | st.floats() | st.booleans(), inner,
                                     max_size=4)),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(), _VALUES, max_size=5))
@example({"terms": [{"n": 1, "%d": "x"}, {"n": 2, "%d": None}], "e": [], "o": {}, "f": [1.5, -0.0]})
@example({"mixed": [{"a": 1}, {"b": 1}], "nested": [{"a": [1]}, {"a": [2]}], "nan": float("nan")})
def test_write_json_writes_any_json_value_as_the_encoder_does(payload):
    assert _written(payload) == json.dumps(payload, indent=2) + "\n"
