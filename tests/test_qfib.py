import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qfibcong import qfib
from qfibcong.errors import DomainError, InternalInvariantViolation
from qfibcong.modarith import is_prime, lsym5, multiplicative_order
from qfibcong.qfib import (
    POLY_MAX_N,
    RECURRENCE_MAX_P,
    _UINT32_MAX_P,
    _WIDE_MIN_BATCH,
    _block_products,
    _recurrence_lanes,
    binomial_row,
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
    qfib_mod_scalar,
    qfib_seq_mod,
    step_product,
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
    assert qfib_mod_recurrence(7, 2, 7) == 1
    assert qfib_mod_recurrence(13, 2, 13) == 0
    for p in (7, 13, 101):
        for n in (0, 1, 10, 40):
            assert qfib_mod_recurrence(n, 1, p) == fib_mod(n, p)


def test_qfib_mod_recurrence_against_oracle():
    for p, a in ((7, 2), (13, 5), (29, 3)):
        seq = qfib_seq_mod(2 * p, a, p)
        for n in range(2 * p):
            assert qfib_mod_recurrence(n, a, p) == seq[n]


def test_qfib_mod_andrews_examples():
    for p, a in ((7, 2), (11, 3), (31, 2), (31, 1)):
        d = multiplicative_order(a, p)
        assert qfib_mod_andrews(p, a, d) == poly_eval_mod(qfib_poly(p), a, p)
    assert qfib_mod_andrews(7, 2, 3) == qfib_mod_andrews(7, 2, 3).value == 1  # .value for perfbench
    # the route takes only the true order of a: 2 has order 3 mod 7, and 6 is a multiple of it
    for d in (1, 2, 6):
        with pytest.raises(DomainError):
            qfib_mod_andrews(7, 2, d)


_ODD_PRIMES = primes_trial(20_000)[1:]


def test_qfib_mod_andrews_matches_recurrence():
    # every odd p < 400 and every a in [1, p-1]: d = 1 (a = 1, I = p - 1),
    # d = 2 (I = (p-1)/2), d = p - 1 (I = 1) and orders divisible by 5
    for p in _ODD_PRIMES:
        if p > 400:
            break
        for a in range(1, p):
            d = multiplicative_order(a, p)
            assert qfib_mod_andrews(p, a, d) == qfib_mod_recurrence(p, a, p), (p, a)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ODD_PRIMES).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p - 1))))
def test_qfib_mod_andrews_matches_recurrence_on_drawn_primes(pa):
    p, a = pa
    assert qfib_mod_andrews(p, a, multiplicative_order(a, p)) == qfib_mod_recurrence(p, a, p)


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
    # I = 1: the route reads the row C(1, k) and the caller's order, and it refuses d = p - 1
    # for a unit that is not a primitive root, though a**(p - 1) = 1 for every unit
    p = 140_009
    a = next(a for a in range(2, p) if multiplicative_order(a, p) == p - 1)
    assert qfib_mod_andrews(p, a, p - 1) == qfib_mod_recurrence(p, a, p)
    with pytest.raises(DomainError):
        qfib_mod_andrews(p, a * a % p, p - 1)


def test_fib_and_fib_mod():
    seq = fib_seq(300)
    for n in range(301):
        assert fib(n) == seq[n]
    assert fib(10) == 55
    for p in (7, 97, 10**9 + 7):
        for n in (0, 1, 100, 12345):
            assert fib_mod(n, p) == fib(n) % p
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
    assert got.tolist() == [fib_mod(k, p) for k, p in zip(ns, ps)]


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
            d = multiplicative_order(a, p)
            if d % 5 == 0:
                continue
            assert g_value((p - 1) // d, d) % p == qfib_mod_recurrence(p, a, p)


def test_g_value_period_five_symmetry():
    for n in range(1, 101):
        for m in range(1, 26):
            assert g_value(n, m) == g_value(n, m % 5 + 5)
            assert g_value(n, m) == g_value(n, (-m) % 5 + 5)


def test_recurrence_kernel_refuses_primes_past_int64():
    p = RECURRENCE_MAX_P
    assert p * (p - 1) <= 2**63 - 1 < (p + 1) * p
    # a step value F1 + PW*F0, all terms p - 1, fits the int64 lanes that classify a window
    # at p and wraps past it
    for q, fits in ((p, True), (p + 1, False)):
        t = np.array([q - 1], dtype=np.int64)
        assert (int((t + t * t)[0]) == q * (q - 1)) is fits
    # refused before the first step, so neither call runs a long recurrence
    with pytest.raises(DomainError):
        qfib_mod_recurrence_many([3, 3_037_000_507], [2, 2])


def test_recurrence_kernel_on_both_sides_of_the_lockstep_threshold():
    # narrower batches run the blocked kernel, wider ones the plain lockstep
    rng = random.Random(5)
    odd = primes_trial(2999)[1:]
    m = _WIDE_MIN_BATCH
    batches = [sorted(rng.sample(odd, k)) for k in (0, 1, 2, m - 1, m, m + 1, 300)]
    batches += [odd[i:i + k] for i in (0, 1, 2) for k in (m - 1, m, m + 1)]  # from 3, 5 and 7
    batches += [[3] + odd[-k:] for k in (m - 2, m - 1)]  # 3 and 2999 far apart
    for ps in batches:
        avals = [rng.randrange(2, p) for p in ps]
        expected = [qfib_mod_scalar(p, a, p) for p, a in zip(ps, avals)]
        assert qfib_mod_recurrence_many(ps, avals) == expected, ps
    with pytest.raises(DomainError):
        qfib_mod_recurrence_many(odd[:m][::-1], [2] * m)
    with pytest.raises(DomainError):  # the wide path takes its steps in pairs, so p - 1 even
        qfib_mod_recurrence_many([2] + odd[:m], [1] * (m + 1))


def test_block_kernel_matches_the_oracle_for_every_alpha():
    # every odd p < 400 and every alpha mod p, 0 included, as one batch of p lanes per p
    for p in _ODD_PRIMES:
        if p > 400:
            break
        products = _block_products([(p, a, 0, p - 1) for a in range(p)], np.uint32)
        assert [m[0] for m in products] == [qfib_mod_scalar(p, a, p) for a in range(p)], p


# the largest prime <= RECURRENCE_MAX_P, and the primes on either side of the uint32 cut
_TOP_PRIME = 3_037_000_493
_EDGE_PRIMES = (65_521, 65_537, _TOP_PRIME)


@st.composite
def _segment(draw, p):
    # (p, a, k0, k1); the edge primes only on short segments, which the oracle can walk
    a = draw(st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1)))
    if p in _EDGE_PRIMES:
        k0 = draw(st.one_of(st.sampled_from((0, p - 41)), st.integers(0, p - 1)))
        return p, a, k0, k0 + draw(st.integers(0, 40))
    if draw(st.booleans()):
        return p, a, 0, p - 1
    k0, k1 = sorted(draw(st.lists(st.integers(0, 2 * p), min_size=2, max_size=2)))
    return p, a, k0, k1


@st.composite
def _batch(draw):
    # one modulus for every segment, or one drawn for each
    primes = st.one_of(st.sampled_from(_ODD_PRIMES), st.sampled_from(_EDGE_PRIMES))
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        ps = [draw(primes)] * n
    else:
        ps = draw(st.lists(primes, min_size=n, max_size=n))
    segments = [draw(_segment(p)) for p in ps]
    longest = max(k1 - k0 for *_, k0, k1 in segments)
    block = draw(st.one_of(st.none(), st.sampled_from((1, 2, 3, longest + 1)),
                           st.integers(1, longest + 1)))
    dtypes = (np.uint32, np.uint64) if max(ps) <= _UINT32_MAX_P else (np.uint64,)
    dtype = draw(st.sampled_from(dtypes))
    return segments, dtype, block


@settings(max_examples=150, deadline=None)
@given(_batch())
@example(([(101, 2, 0, 0), (101, 2, 5, 5), (103, 3, 0, 0)], np.uint32, None))  # no steps at all
@example(([(101, a, 0, 100) for a in (0, 1, 100)] + [(101, 7, 3, 3)], np.uint64, 7))
@example(([(101, 2, 0, 100), (103, 5, 7, 95), (107, 106, 1, 2), (109, 0, 0, 0)], np.uint32, 3))
@example(([(65_521, 65_520, 65_480, 65_520), (65_521, 3, 0, 40)], np.uint32, 6))
@example(([(65_521, 65_520, 65_480, 65_520), (65_537, 65_536, 65_490, 65_536)], np.uint64, 1))
@example(([(_TOP_PRIME, _TOP_PRIME - 1, _TOP_PRIME - 41, _TOP_PRIME - 1), (_TOP_PRIME, 2, 0, 40),
           (_TOP_PRIME, 1, 12_345, 12_390)], np.uint64, 3))
def test_block_kernel_matches_the_oracle_on_drawn_blocks(batch):
    # one modulus (a scalar) or several (a column of moduli); zero-length
    # segments, lane counts that are not powers of two, block 1, blocks past every segment
    # and the default; against the plain matrix product, and F_p for a whole period
    segments, dtype, block = batch
    products = _block_products(segments, dtype, block)
    assert products == [step_product(*s) for s in segments]
    for (p, a, k0, k1), product in zip(segments, products):
        if (k0, k1) == (0, p - 1):
            assert product[0] == qfib_mod_scalar(p, a, p)


def test_qfib_mod_recurrence_folds_by_the_period():
    # n past p - 1 folds by a**(p - 1) = 1; a = 0 mod p has its own case; a composite
    # modulus, for which the fold's premise can fail, runs every step
    rng = random.Random(25)
    for p in (3, 5, 7, 11, 13, 9, 15, 21, 25):
        for a in range(-1, 2 * p):
            for n in list(range(4 * p)) + [rng.randrange(4 * p, 60 * p) for _ in range(3)]:
                assert qfib_mod_recurrence(n, a, p) == qfib_mod_scalar(n, a % p, p), (n, a, p)
    for p, n in ((7, 100_003), (65_537, 300_001), (1_000_003, 2_000_010)):
        a = rng.randrange(2, p)
        assert qfib_mod_recurrence(n, a, p) == qfib_mod_scalar(n, a, p), (n, a, p)
    # moduli past RECURRENCE_MAX_P run a Python-int loop: the smallest prime past the
    # bound, and one far past it
    assert [q for q in range(RECURRENCE_MAX_P, 3_037_000_508) if is_prime(q)] == [3_037_000_507]
    for p in (3_037_000_507, 10**12 + 39):
        for a in (0, 1, p - 1, rng.randrange(2, p - 1)):
            got = [qfib_mod_recurrence(n, a, p) for n in range(300)]
            assert got == qfib_seq_mod(299, a, p), (a, p)


def test_uint32_lanes_hold_every_step_below_their_bound():
    p = _UINT32_MAX_P
    assert p * (p - 1) <= 2**32 - 1 < (p + 1) * p
    for q, fits in ((p, True), (p + 1, False)):
        t = np.array([q - 1], dtype=np.uint32)
        assert (int((t + t * t)[0]) == q * (q - 1)) is fits


def test_uint64_tree_holds_every_product_below_its_bound():
    # the tree multiplies 2x2 block matrices in uint64: an entry a*e + b*g of two matrices
    # with entries up to p - 1 is at most 2(p - 1)**2, below 2**64 up to RECURRENCE_MAX_P
    p = RECURRENCE_MAX_P
    for q, fits in ((p, True), (p + 1, False)):
        x = np.full((1, 2, 2), q - 1, dtype=np.uint64)
        assert (2 * (q - 1) ** 2 < 2**64) is fits
        assert (int(np.matmul(x, x)[0, 0, 0]) == 2 * (q - 1) ** 2) is fits


def test_recurrence_kernel_on_both_sides_of_the_uint32_bound():
    odd = [n for n in range(65_001, 65_700, 2) if all(n % d for d in range(3, math.isqrt(n) + 1, 2))]
    below = [p for p in odd if p <= _UINT32_MAX_P]
    above = [p for p in odd if p > _UINT32_MAX_P]
    assert above[0] == 65_537 and below[-1] == 65_521
    m = _WIDE_MIN_BATCH
    small = primes_trial(2000)[1:m]
    rng = random.Random(15)
    # alpha = p - 1 makes PW*A = (p - 1)**2, which wraps in uint32 at p = 65,537
    alphas = {p: p - 1 if p in (65_521, 65_537) or rng.random() < 0.5 else rng.randrange(1, p)
              for p in small + odd}
    expected = {p: qfib_mod_scalar(p, a, p) for p, a in alphas.items()}
    # the uint32 side narrow or wide (m, the plain lockstep's floor, padded with small primes)
    for lo in (1, 3, m):
        for hi in (1, 3, len(above)):
            ps = small[:max(0, lo - len(below))] + below[-lo:] + above[:hi]
            assert qfib_mod_recurrence_many(ps, [alphas[p] for p in ps]) == [expected[p] for p in ps], (lo, hi)
    # a wide batch in uint64 lanes, on primes small enough for the oracle
    assert _recurrence_lanes(small + below, [alphas[p] for p in small + below], np.uint64) == [
        expected[p] for p in small + below]


def test_rescaled_wide_path_matches_the_oracle_for_every_alpha():
    # every odd p < 400 and every alpha mod p, 0 included, repeated until the batch of the
    # one prime is wide; p = 1 and 3 mod 4 and residues and non-residues are all covered
    m = _WIDE_MIN_BATCH
    for p in _ODD_PRIMES:
        if p > 400:
            break
        alphas = list(range(p)) * -(-m // p)
        expected = [qfib_mod_scalar(p, a, p) for a in range(p)] * -(-m // p)
        for dtype in (np.uint32, np.uint64):
            assert _recurrence_lanes([p] * len(alphas), alphas, dtype) == expected, (p, dtype)


_SMALL_ODD = primes_trial(3000)[1:]
_NEAR_CUT = [n for n in range(65_001, 69_000, 2) if all(n % d for d in range(3, math.isqrt(n) + 1, 2))]
_M = _WIDE_MIN_BATCH


@settings(max_examples=10, deadline=None)
@given(st.one_of(st.sampled_from((_M - 1, _M, _M + 1)), st.integers(0, 2 * _M)),
       st.integers(0, 8), st.one_of(st.integers(0, 3), st.sampled_from((_M - 1, _M))),
       st.randoms(use_true_random=False))
def test_rescaled_wide_path_on_batches_that_straddle_the_uint32_bound(n_small, n_below, n_above, rng):
    # mixed ascending batches, repeats allowed, narrow or wide on either side of the cut,
    # against each prime's blocked product; alpha = p - 1 makes b = p - 1, the largest values
    below = [p for p in _NEAR_CUT if p <= _UINT32_MAX_P]
    above = [p for p in _NEAR_CUT if p > _UINT32_MAX_P]
    ps = sorted(rng.choices(_SMALL_ODD, k=n_small) + rng.choices(below, k=n_below)) + sorted(
        rng.sample(above, n_above))
    avals = [rng.choice((0, 1, p - 1, rng.randrange(p))) for p in ps]
    expected = [product[0] for product in _block_products(
        [(p, a, 0, p - 1) for p, a in zip(ps, avals)], np.uint64)]
    assert qfib_mod_recurrence_many(ps, avals) == expected


def test_rescaled_wide_path_checks_eulers_criterion(monkeypatch):
    # b**((p - 1)/2) must end at 1 or p - 1: a lane whose b is not a unit, and a composite
    # modulus, each leave another value there
    ps = _ODD_PRIMES[:_WIDE_MIN_BATCH]
    avals = [2] * len(ps)
    assert _recurrence_lanes(ps, avals, np.uint32) == [qfib_mod_scalar(p, 2, p) for p in ps]
    bad = ps[100]
    monkeypatch.setattr(qfib, "pow", lambda a, e, p: 0 if (e, p) == (-1, bad) else pow(a, e, p),
                        raising=False)
    with pytest.raises(InternalInvariantViolation, match=f"mod {bad}"):
        _recurrence_lanes(ps, avals, np.uint32)
    monkeypatch.undo()
    with pytest.raises(InternalInvariantViolation, match="mod 9,"):
        _recurrence_lanes(sorted(ps[1:] + [9]), avals, np.uint64)
