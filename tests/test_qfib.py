import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfibcong.errors import DomainError
from qfibcong.modarith import Residue, lsym5, multiplicative_order
from qfibcong.qanalogue import _context, binomial_row
from qfibcong.qfib import (
    POLY_MAX_N,
    RECURRENCE_MAX_P,
    _LOCKSTEP_MIN_BATCH,
    _UINT32_MAX_P,
    fib,
    fib_mod,
    fib_mod_lanes,
    qfib_mod_andrews,
    qfib_mod_recurrence,
    qfib_mod_recurrence_many,
    qfib_poly,
)

from _oracles import (
    andrews_j_range,
    andrews_sum,
    fib_seq,
    g_value,
    poly_add,
    poly_eval_mod,
    primes_trial,
    qfib_seq_mod,
)


def test_qfib_poly_small():
    assert qfib_poly(0) == ()
    assert qfib_poly(1) == (1,)
    assert qfib_poly(3) == (1, 1)
    assert qfib_poly(5) == (1, 1, 1, 1, 1)
    with pytest.raises(DomainError):
        qfib_poly(-1)
    with pytest.raises(DomainError):
        qfib_poly(POLY_MAX_N + 1)


def test_qfib_poly_recurrence():
    for n in range(121):
        assert qfib_poly(n + 2) == poly_add(qfib_poly(n + 1), (0,) * n + qfib_poly(n))


def test_qfib_mod_recurrence_examples():
    assert poly_eval_mod(qfib_poly(7), 2, 10**9 + 7) == 1135
    assert qfib_mod_recurrence(7, Residue(2, 7)).value == 1
    assert qfib_mod_recurrence(13, Residue(2, 13)).value == 0
    for p in (7, 13, 101):
        for n in (0, 1, 10, 40):
            assert qfib_mod_recurrence(n, Residue(1, p)).value == fib_mod(n, p).value


def test_qfib_mod_recurrence_against_oracle():
    for p, a in ((7, 2), (13, 5), (29, 3)):
        seq = qfib_seq_mod(2 * p, a, p)
        for n in range(2 * p):
            assert qfib_mod_recurrence(n, Residue(a, p)).value == seq[n]


def _order(a, p):
    return multiplicative_order(Residue(a, p))


def test_qfib_mod_andrews_examples():
    for p, a in ((7, 2), (11, 3), (31, 2), (31, 1)):
        d = _order(a, p)
        assert qfib_mod_andrews(p, Residue(a, p), d).value == poly_eval_mod(qfib_poly(p), a, p)
    assert qfib_mod_andrews(7, Residue(2, 7), 3).value == 1
    # the route serves n = p only, and only with the true order of alpha
    for n in (0, 1, 6, 8, 14):
        with pytest.raises(DomainError):
            qfib_mod_andrews(n, Residue(2, 7), 3)
    for d in (1, 2, 6):
        with pytest.raises(DomainError):
            qfib_mod_andrews(7, Residue(2, 7), d)


_ODD_PRIMES = primes_trial(20_000)[1:]


def test_qfib_mod_andrews_matches_recurrence():
    # every odd p < 400 and every a in [1, p-1]: d = 1 (a = 1, I = p - 1),
    # d = 2 (I = (p-1)/2), d = p - 1 (I = 1) and orders divisible by 5
    for p in _ODD_PRIMES:
        if p > 400:
            break
        for a in range(1, p):
            alpha = Residue(a, p)
            assert qfib_mod_andrews(p, alpha, _order(a, p)) == qfib_mod_recurrence(p, alpha), (p, a)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ODD_PRIMES).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p - 1))))
def test_qfib_mod_andrews_matches_recurrence_on_drawn_primes(pa):
    p, a = pa
    alpha = Residue(a, p)
    assert qfib_mod_andrews(p, alpha, _order(a, p)) == qfib_mod_recurrence(p, alpha)


def test_andrews_sum_matches_recurrence_for_every_n():
    rng = random.Random(7)
    for p in _ODD_PRIMES:
        if p > 60:
            break
        for a in range(2, p):
            seq = qfib_seq_mod(3 * p, a, p)
            for n in {0, 1, p - 1, p, p + 1, rng.randrange(3 * p)}:
                assert andrews_sum(n, a, p) == seq[n], (n, a, p)


def test_andrews_window_is_wide_enough():
    # widening the oracle's j-interval by 3 on each side only adds terms whose
    # q-binomial argument is out of range, so no value can change
    for n in range(1, 401):
        window = andrews_j_range(n)
        for j in list(range(window.start - 3, window.start)) + list(
            range(window.stop, window.stop + 3)
        ):
            m = (n - 1 - 5 * j) // 2
            assert m < 0 or m > n - 1


def test_binomial_row():
    for p in primes_trial(60):
        for n in range(p):
            assert binomial_row(n, p) == [math.comb(n, k) % p for k in range(n + 1)], (n, p)
        for n in (p, -1):
            with pytest.raises(DomainError):
                binomial_row(n, p)


def test_andrews_route_at_a_primitive_root():
    # I = 1: the route reads the row C(1, k) and the cached order alone
    p = 140_009
    a = next(a for a in range(2, p) if multiplicative_order(Residue(a, p)) == p - 1)
    alpha = Residue(a, p)
    assert qfib_mod_andrews(p, alpha, p - 1) == qfib_mod_recurrence(p, alpha)
    assert _context(p, a) == p - 1


def test_fib_and_fib_mod():
    seq = fib_seq(300)
    for n in range(301):
        assert fib(n) == seq[n]
    assert fib(10) == 55
    for p in (7, 97, 10**9 + 7):
        for n in (0, 1, 100, 12345):
            assert fib_mod(n, p).value == fib(n) % p
    with pytest.raises(DomainError):
        fib(-1)


def test_fib_mod_lanes_match_fib_mod():
    # every n < 2**20 in one call, at the largest prime the int64 lanes serve, against
    # F_n mod p by the plain recurrence
    n = np.arange(2**20, dtype=np.int64)
    p = 3_037_000_493
    want = qfib_seq_mod(2**20 - 1, 1, p)
    assert fib_mod_lanes(n, np.full(n.size, p, dtype=np.int64)).tolist() == want
    # mixed lanes, near RECURRENCE_MAX_P and small, against the scalar fast doubling
    rng = random.Random(18)
    ps = [rng.choice((3_037_000_493, 3_037_000_453, 2_147_483_647, 65_537, 7, 3))
          for _ in range(300)]
    ns = [rng.choice((0, 1, rng.randrange(2**20), rng.randrange(2**62))) for _ in ps]
    got = fib_mod_lanes(np.array(ns, dtype=np.int64), np.array(ps, dtype=np.int64))
    assert got.tolist() == [fib_mod(k, p).value for k, p in zip(ns, ps)]


def test_g_value_small_table():
    # g_value(2, 1) is 2: only k = -5 contributes to the first sum (C(2,1))
    # and the second sum is empty; the additive recurrence below, with
    # G_{1,1} = 1 and G_{3,1} = 3, independently forces the same value.
    assert g_value(1, 1) == 1
    assert g_value(2, 1) == 2
    assert g_value(1, 2) == 0
    assert g_value(2, 2) == 1
    assert g_value(3, 1) == 3
    with pytest.raises(DomainError):
        g_value(0, 1)


def test_g_value_vanishes_for_multiples_of_five():
    for n in range(1, 51):
        assert g_value(n, 5) == 0
        assert g_value(n, 10) == 0


def test_g_value_recurrence():
    for m in range(1, 26):
        vals = [g_value(n, m) for n in range(1, 303)]
        for i in range(300):
            assert vals[i] + vals[i + 1] == vals[i + 2]


def test_g_value_fibonacci_identity():
    for m in range(1, 26):
        if m % 5 == 0:
            continue
        s = lsym5(m)
        for n in range(1, 301):
            assert g_value(n, m) == fib(n + s)


def test_g_value_matches_recurrence_ground_truth():
    # F_p(alpha) = G_{I,ord} (mod p), with the recurrence as the left side;
    # p = 13, alpha = 4 (ord 6, I = 2) gives G_{2,6} = 2 (mod 13), and
    # G_{2,6} = G_{2,1} by the period-five symmetry tested below.
    for p in primes_trial(200):
        if p == 2:
            continue
        for a in range(2, p):
            alpha = Residue(a, p)
            d = multiplicative_order(alpha)
            if d % 5 == 0:
                continue
            assert g_value((p - 1) // d, d) % p == qfib_mod_recurrence(p, alpha).value


def test_g_value_period_five_symmetry():
    for n in range(1, 101):
        for m in range(1, 26):
            assert g_value(n, m) == g_value(n, m % 5 + 5)
            assert g_value(n, m) == g_value(n, (-m) % 5 + 5)


def test_recurrence_kernel_refuses_primes_past_int64():
    p = RECURRENCE_MAX_P
    assert p * (p - 1) <= 2**63 - 1 < (p + 1) * p
    # the kernel's largest step value F1 + PW*F0, all terms p - 1, fits at p and wraps past it
    for q, fits in ((p, True), (p + 1, False)):
        t = np.array([q - 1], dtype=np.int64)
        assert (int((t + t * t)[0]) == q * (q - 1)) is fits
    # refused before the first step, so neither call runs a long recurrence
    with pytest.raises(DomainError):
        qfib_mod_recurrence_many([3, 3_037_000_507], [2, 2])


def test_recurrence_kernel_on_both_sides_of_the_lockstep_threshold():
    rng = random.Random(5)
    odd = primes_trial(2999)[1:]
    m = _LOCKSTEP_MIN_BATCH
    batches = [sorted(rng.sample(odd, k)) for k in (0, 1, m - 1, m, m + 1, 300)]
    batches += [odd[i:i + k] for i in (0, 1, 2) for k in (m - 1, m, m + 1)]  # from 3, 5 and 7
    batches += [[3] + odd[-k:] for k in (m - 2, m - 1)]  # 3 and 2999 far apart
    for ps in batches:
        avals = [rng.randrange(2, p) for p in ps]
        expected = [qfib_mod_recurrence(p, Residue(a, p)).value for p, a in zip(ps, avals)]
        assert qfib_mod_recurrence_many(ps, avals) == expected, ps
    with pytest.raises(DomainError):
        qfib_mod_recurrence_many(odd[:m][::-1], [2] * m)


def test_uint32_lanes_hold_every_step_below_their_bound():
    p = _UINT32_MAX_P
    assert p * (p - 1) <= 2**32 - 1 < (p + 1) * p
    for q, fits in ((p, True), (p + 1, False)):
        t = np.array([q - 1], dtype=np.uint32)
        assert (int((t + t * t)[0]) == q * (q - 1)) is fits


def test_recurrence_kernel_on_both_sides_of_the_uint32_bound():
    odd = [n for n in range(65_001, 66_200, 2) if all(n % d for d in range(3, math.isqrt(n) + 1, 2))]
    below = [p for p in odd if p <= _UINT32_MAX_P]
    above = [p for p in odd if p > _UINT32_MAX_P]
    assert above[0] == 65_537
    rng = random.Random(15)
    # alpha = p - 1 makes PW*A = (p - 1)**2, which wraps in uint32 at p = 65,537
    alphas = {p: p - 1 if p == 65_537 or rng.random() < 0.5 else rng.randrange(2, p - 1) for p in odd}
    expected = {p: qfib_mod_recurrence(p, Residue(a, p)).value for p, a in alphas.items()}
    m = _LOCKSTEP_MIN_BATCH
    for lo in (m - 1, m, m + 1):
        for hi in (m - 1, m, m + 1):
            ps = below[-lo:] + above[:hi]
            assert qfib_mod_recurrence_many(ps, [alphas[p] for p in ps]) == [expected[p] for p in ps], (lo, hi)
