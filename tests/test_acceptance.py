"""The acceptance gate: nine numbered criteria, one test each.

Every test prints a single "ACCEPTANCE n: PASS/FAIL" line straight to the
terminal (bypassing capture) before asserting, so a full run always shows
the scorecard.
"""

import json
import math
import random
import time
from fractions import Fraction

from qfibcong.congruence import ALL_PATHS, scan_range
from qfibcong.density import delta_truncated, field_degree
from qfibcong.modarith import lsym5, multiplicative_order, primes_upto
from qfibcong.qfib import fib
from qfibcong.report import scan_report_dict, stats_report_dict
from qfibcong.stats import occurrence_histogram

from _oracles import c_k_all, g_value, q_binomial, q_ratio, qpascal_table


def report_line(capsys, num, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_1_mass_verification(capsys):
    """Zero mismatches for every applicable prime below 10**5, six bases."""
    failures = []
    timings = []
    for g in (2, 3, 5, 6, 7, 10):
        start = time.monotonic()
        rep = scan_range(Fraction(g), 3, 10**5, workers=8)
        elapsed = time.monotonic() - start
        timings.append(elapsed)
        mismatches = [r for r in rep.records if not r.match]
        if mismatches:
            failures.append(f"g={g}: {len(mismatches)} mismatches")
        if elapsed >= 180:
            failures.append(f"g={g}: took {elapsed:.0f}s, target < 180s")
    ok = not failures
    report_line(capsys, 1, ok, f"6 bases, worst {max(timings):.1f}s" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_2_multi_path_agreement(capsys):
    """All evaluation routes agree: three routes below 2000, four below 300."""
    failures = []
    three = ALL_PATHS - {"poly"}
    for alpha in (Fraction(2), Fraction(3), Fraction(5), Fraction(1, 2), Fraction(2, 3)):
        rep = scan_range(alpha, 3, 1999, paths=three)
        bad = [r.p for r in rep.records if not r.paths_agree]
        if bad:
            failures.append(f"alpha={alpha}, 3 paths disagree at {bad[:5]}")
        rep = scan_range(alpha, 3, 299, paths=ALL_PATHS)
        bad = [r.p for r in rep.records if not r.paths_agree]
        if bad:
            failures.append(f"alpha={alpha}, 4 paths disagree at {bad[:5]}")
    ok = not failures
    report_line(capsys, 2, ok, "" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_3_g_table_and_identities(capsys):
    """Reference values for G plus its recurrence and Fibonacci form.

    The stated reference table gave G(2,1) = 1; the entry is now 2.  By hand,
    at n = 2, m = 1 (symbol +1) only i = 1 lies in the class i = 3n (mod 5),
    so the first sum is C(2,1) = 2; the class i = 3(n - m) (mod 5) is empty
    in 0..2, so the second sum is 0, and the sign is +.  The same 2 is forced
    by the additive recurrence G(1,1) + G(2,1) = G(3,1) = 3, by the Fibonacci
    form F_{2+1} = F_3 = 2, and by ground truth: for p = 13 and alpha = 4
    (ord 6, index 2, symbol +1) the plain recurrence gives
    F_13(4) = 2 (mod 13) = G(2,1) mod 13.
    """
    failures = []
    table = {(1, 1): 1, (2, 1): 2, (1, 2): 0, (2, 2): 1}
    for (n, m), expected in table.items():
        got = g_value(n, m)
        if got != expected:
            failures.append(f"G({n},{m}) = {got}, stated table says {expected}")
    for m in range(1, 26):
        if m % 5 == 0:
            continue
        s = lsym5(m)
        vals = [g_value(n, m) for n in range(1, 303)]
        for i in range(300):
            if vals[i] + vals[i + 1] != vals[i + 2]:
                failures.append(f"recurrence fails at n={i + 1}, m={m}")
                break
        for n in range(1, 301):
            if vals[n - 1] != fib(n + s):
                failures.append(f"Fibonacci identity fails at n={n}, m={m}")
                break
    ok = not failures
    report_line(capsys, 3, ok, "" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_4_unit_ratio_suite(capsys):
    """Ratio branches, C_k congruence and non-vanishing, and the top row,
    exhaustively for every p <= 300 and every alpha in [2, p-1]."""
    failures = []
    for p in primes_upto(300):
        if p == 2:
            continue
        for a in range(2, p):
            d = multiplicative_order(a, p)
            idx = (p - 1) // d
            # ratio branches: [k]/[l] is 1 off the zero class, k/l on it
            for l in range(1, p):
                k = l + d
                got = q_ratio(k, l, a, p, d)
                want = k * pow(l, -1, p) % p if l % d == 0 else 1
                if got != want:
                    failures.append(f"q_ratio({k},{l}) wrong at p={p}, a={a}")
            # top row: zero off multiples of d, plain binomial on them
            row = [q_binomial(p - 1, k, a, p, d) for k in range(p)]
            for k in range(p):
                want = math.comb(idx, k // d) % p if k % d == 0 else 0
                if row[k] != want:
                    failures.append(f"row p-1 wrong at p={p}, a={a}, k={k}")
            # C_k: never zero, and it advances the top row by d
            cks = c_k_all(a, p)
            if any(v == 0 for v in cks):
                failures.append(f"vanishing C_k at p={p}, a={a}")
            for k in range(p - 1 - d):
                if row[k + d] != cks[k] * row[k] % p:
                    failures.append(f"C_k congruence fails at p={p}, a={a}, k={k}")
            if failures:
                break
        if failures:
            break
    ok = not failures
    report_line(capsys, 4, ok, "" if ok else "; ".join(failures[:3]))
    assert ok, failures


def test_criterion_5_q_lucas_oracle(capsys):
    """Base-d reduction (the oracle the Andrews route's row p - 1 rests on)
    equals direct q-Pascal evaluation, exhaustively for p <= 50 and on 10**4
    random draws with p <= 200."""
    failures = []
    for p in primes_upto(50):
        if p == 2:
            continue
        for a in range(2, p):
            d = multiplicative_order(a, p)
            table = qpascal_table(p - 1, a, p)
            for n in range(p):
                for m in range(n + 1):
                    want = int(table[n][m])
                    if q_binomial(n, m, a, p, d) != want:
                        failures.append(f"exhaustive mismatch p={p}, a={a}, n={n}, m={m}")
    rng = random.Random(2026)
    odd_primes = [p for p in primes_upto(200) if p > 2]
    draws = 0
    while draws < 10**4:
        p = rng.choice(odd_primes)
        a = rng.randrange(2, p)
        d = multiplicative_order(a, p)
        table = qpascal_table(p - 1, a, p)
        for _ in range(100):
            n = rng.randrange(p)
            m = rng.randrange(n + 2)
            got = q_binomial(n, m, a, p, d)
            want = int(table[n][m]) if m <= n else 0
            if got != want:
                failures.append(f"random mismatch p={p}, a={a}, n={n}, m={m}")
            draws += 1
    ok = not failures
    report_line(capsys, 5, ok, "" if ok else "; ".join(failures[:3]))
    assert ok, failures


def test_criterion_6_density_positivity(capsys):
    """Exact-rational positivity certificate with leading term 1/440."""
    est = delta_truncated(2, 1, 5, 11, 200)
    failures = []
    if est.terms[0].value != Fraction(1, 440):
        failures.append(f"leading term {est.terms[0].value} != 1/440")
    if not est.positive:
        failures.append(f"lower bound {est.lower_bound} not positive")
    ok = not failures
    detail = f"lower bound ~ {float(est.lower_bound):.3e}" if ok else "; ".join(failures)
    report_line(capsys, 6, ok, detail)
    assert ok, failures


def test_criterion_7_degree_formulas(capsys):
    """Hand degree values plus ratio inequalities on 100 random tuples."""
    failures = []
    if field_degree(2, 5, 5) != 20:
        failures.append("field_degree(2,5,5) != 20")
    if field_degree(2, 55, 11) != 440:
        failures.append("field_degree(2,55,11) != 440")
    rng = random.Random(440)
    bases = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15]
    odd_primes = [3, 5, 7, 11, 13]
    for _ in range(100):
        g = rng.choice(bases)
        b = rng.randrange(2, 30)
        p = rng.choice(odd_primes)
        a = b * p * rng.randrange(1, 20)
        # [Q(zeta_ap, g^(1/b)) : Q(zeta_a, g^(1/b))] >= (p-1)/2 and
        # [Q(zeta_a, g^(1/bp)) : Q(zeta_a, g^(1/b))] = p
        part1 = Fraction(field_degree(g, a * p, b), field_degree(g, a, b))
        part2 = Fraction(field_degree(g, a, b * p), field_degree(g, a, b))
        if part1 < Fraction(p - 1, 2):
            failures.append(f"part 1 fails: g={g}, a={a}, b={b}, p={p}, ratio={part1}")
        if part2 != p:
            failures.append(f"part 2 fails: g={g}, a={a}, b={b}, p={p}, ratio={part2}")
    ok = not failures
    report_line(capsys, 7, ok, "" if ok else "; ".join(failures[:3]))
    assert ok, failures


def test_criterion_8_occurrence_evidence(capsys):
    """Histogram at 10**6 has >= 3 values occurring >= 20 times; the x = 20
    buckets equal the hand table."""
    failures = []
    small = occurrence_histogram(2, 20)
    if small.by_index_witnesses != {0: (3, 13, 19), 1: (7, 17), 2: (5,)}:
        failures.append(f"x=20 buckets {small.by_index_witnesses}")
    if small.skipped["OrdDivisibleBy5"] != 1:
        failures.append("x=20 skip count wrong")
    big = occurrence_histogram(2, 10**6, workers=8)
    frequent = [v for v, c in big.by_value_counts.items() if c >= 20]
    if len(frequent) < 3:
        failures.append(f"only {len(frequent)} values reach 20 occurrences")
    ok = not failures
    detail = f"{len(frequent)} values with >= 20 occurrences" if ok else "; ".join(failures)
    report_line(capsys, 8, ok, detail)
    assert ok, failures


def test_criterion_9_determinism(capsys):
    """Scan and stats report bodies are byte-identical for 1, 2 and 8 workers."""
    failures = []
    scan_bodies = set()
    stats_bodies = set()
    for workers in (1, 2, 8):
        rep = scan_range(Fraction(2), 3, 5000, workers=workers)
        payload = {k: v for k, v in scan_report_dict(rep).items() if k != "run"}
        scan_bodies.add(json.dumps(payload, sort_keys=True).encode())
        hist = occurrence_histogram(2, 10**4, workers=workers)
        payload = {k: v for k, v in stats_report_dict(hist).items() if k != "run"}
        stats_bodies.add(json.dumps(payload, sort_keys=True).encode())
    if len(scan_bodies) != 1:
        failures.append("scan bodies differ across worker counts")
    if len(stats_bodies) != 1:
        failures.append("stats bodies differ across worker counts")
    ok = not failures
    report_line(capsys, 9, ok, "" if ok else "; ".join(failures))
    assert ok, failures
