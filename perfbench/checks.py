"""Reference arithmetic and output checks for the benchmark.

Nothing here imports qfibcong.  Every value the program reports is
recomputed from first principles: primes by a bytearray sieve, orders by
trial-division factoring, Fibonacci numbers by 2x2 matrix powers (the
program uses fast doubling), and F_p(alpha) by the plain recurrence.
Each check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


def primes_upto(n: int) -> list[int]:
    """All primes <= n, by an Eratosthenes bytearray sieve."""
    if n < 2:
        return []
    mask = bytearray([1]) * (n + 1)
    mask[0] = mask[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if mask[i]:
            mask[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i, flag in enumerate(mask) if flag]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def totient(n: int) -> int:
    out = n
    for q in prime_factors(n):
        out = out // q * (q - 1)
    return out


def moebius(n: int) -> int:
    fs = prime_factors(n)
    m = n
    for q in fs:
        m //= q
    return 0 if m != 1 else (-1) ** len(fs)


def order(a: int, p: int) -> int:
    """Multiplicative order of a unit a mod p."""
    d = p - 1
    for q in prime_factors(p - 1):
        while d % q == 0 and pow(a, d // q, p) == 1:
            d //= q
    return d


def residue(alpha: Fraction, p: int) -> int | None:
    """alpha mod p, or None when p divides its numerator or denominator."""
    if alpha.numerator % p == 0 or alpha.denominator % p == 0:
        return None
    return alpha.numerator * pow(alpha.denominator, -1, p) % p


def sym5(m: int) -> int:
    """The quadratic-residue symbol (m/5)."""
    return {0: 0, 1: 1, 4: 1, 2: -1, 3: -1}[m % 5]


def fib_mod(n: int, p: int) -> int:
    """F_n mod p by powering the matrix [[1, 1], [1, 0]]."""
    r00, r01, r10, r11 = 1, 0, 0, 1
    m00, m01, m10, m11 = 1, 1, 1, 0
    while n:
        if n & 1:
            r00, r01, r10, r11 = ((r00 * m00 + r01 * m10) % p, (r00 * m01 + r01 * m11) % p,
                                  (r10 * m00 + r11 * m10) % p, (r10 * m01 + r11 * m11) % p)
        m00, m01, m10, m11 = ((m00 * m00 + m01 * m10) % p, (m00 * m01 + m01 * m11) % p,
                              (m10 * m00 + m11 * m10) % p, (m10 * m01 + m11 * m11) % p)
        n >>= 1
    return r01


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def qfib_mod(n: int, a: int, p: int) -> int:
    """F_n(a) mod p by the defining recurrence F_{k+2} = F_{k+1} + a**k F_k."""
    f0, f1, pw = 0, 1, 1
    if n == 0:
        return 0
    for _ in range(n - 1):
        f0, f1 = f1, (f1 + pw * f0) % p
        pw = pw * a % p
    return f1


def classify(alpha: Fraction, p: int) -> tuple[str, int, int]:
    """(reason, ord, index) for one prime, with the program's reason names."""
    a = residue(alpha, p)
    if a is None:
        return "BadValuationAlpha", 0, 0
    if (alpha - 1).numerator % p == 0:
        return "BadValuationAlphaMinus1", 0, 0
    d = order(a, p)
    return ("OrdDivisibleBy5" if d % 5 == 0 else "OK"), d, (p - 1) // d


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_scan(payload: dict, alpha: Fraction, p_min: int, p_max: int,
               sample: list[int]) -> list[str]:
    """Every record, every skip and a sample of left sides of a scan report.

    `sample` holds record positions whose left side is recomputed by the
    plain recurrence; every other value is recomputed for every record.
    """
    problems: list[str] = []
    window = [p for p in primes_upto(p_max) if p >= p_min and p > 2]
    expected: dict[int, tuple[int, int]] = {}
    skipped = {"BadValuationAlpha": 0, "BadValuationAlphaMinus1": 0, "OrdDivisibleBy5": 0}
    for p in window:
        reason, d, idx = classify(alpha, p)
        if reason == "OK":
            expected[p] = (d, idx)
        else:
            skipped[reason] += 1
    records = payload["records"]
    got = [r["p"] for r in records]
    if got != sorted(expected):
        problems.append(f"record primes differ from the applicable primes in [{p_min}, {p_max}]")
    if payload["summary"]["skipped"] != skipped:
        problems.append(f"skips {payload['summary']['skipped']} != {skipped}")
    if len(records) + sum(payload["summary"]["skipped"].values()) != len(window):
        problems.append("records plus skips do not account for every prime in the window")
    for r in records:
        p = r["p"]
        a = residue(alpha, p)
        d, idx = expected.get(p, (None, None))
        lhs, rhs = int(r["lhs"]), int(r["rhs"])
        n_star = idx + sym5(d) if d else None
        if a is None or pow(a, r["ord"], p) != 1 or r["ord"] * r["index"] != p - 1:
            problems.append(f"p={p}: ord {r['ord']} is not an order with ord * index = p - 1")
        elif (r["ord"], r["index"]) != (d, idx):
            problems.append(f"p={p}: ord {r['ord']} is not minimal (expected {d})")
        if r["lsym"] != sym5(r["ord"]) or r["predicted_index"] != n_star:
            problems.append(f"p={p}: predicted index {r['predicted_index']} != {n_star}")
        if n_star is not None and rhs != fib_mod(n_star, p):
            problems.append(f"p={p}: rhs {rhs} != F_{n_star} mod p")
        if lhs != rhs or r["match"] is not True or r["paths_agree"] is not True:
            problems.append(f"p={p}: congruence or route agreement fails")
    for i in sample:
        r = records[i]
        p = r["p"]
        if int(r["lhs"]) != qfib_mod(p, residue(alpha, p), p):
            problems.append(f"p={p}: lhs differs from the plain recurrence")
    return problems


def value_key(n: int) -> str:
    """The program's by_value bucket name: the exact F_n up to n = 300."""
    return str(fib(n)) if n <= 300 else f"index:{n}"


def check_stats(payload: dict, g: int, x: int, sample: list[int]) -> list[str]:
    """Histogram totals against pi(x), and sampled primes against their buckets."""
    problems: list[str] = []
    primes = [p for p in primes_upto(x) if p > 2]
    summary = payload["summary"]
    by_index = payload["by_index"]
    counted = sum(e["count"] for e in by_index.values())
    if counted != summary["primes_checked"]:
        problems.append("bucket counts do not sum to primes_checked")
    if counted + sum(summary["primes_skipped"].values()) != len(primes):
        problems.append(f"counts plus skips != pi({x}) - 1")
    by_value: dict[str, int] = {}
    for key, entry in by_index.items():
        k = value_key(int(key))
        by_value[k] = by_value.get(k, 0) + entry["count"]
    if by_value != payload["by_value"]:
        problems.append("by_value is not the sum of its index buckets")
    alpha = Fraction(g)
    for i in sample:
        p = primes[i % len(primes)]
        reason, d, idx = classify(alpha, p)
        if reason != "OK":
            continue
        n_star = idx + sym5(d)
        entry = by_index.get(str(n_star))
        if entry is None:
            problems.append(f"p={p}: predicted bucket {n_star} is missing")
        elif p not in entry["witnesses"] and (
                len(entry["witnesses"]) == entry["count"] or p < entry["witnesses"][-1]):
            # capped buckets keep their smallest primes, so only larger ones may be absent
            problems.append(f"p={p}: not a witness of its predicted bucket {n_star}")
    return problems


def check_density(payload: dict, g: int, t: int, n_max: int, x: int) -> list[str]:
    """Terms, bound and empirical count of `density --a 1 --d 5` against a recount."""
    problems: list[str] = []
    summary = payload["summary"]
    partial = Fraction(summary["partial_sum"])
    tail = Fraction(summary["tail_bound"])
    lower = Fraction(summary["lower_bound"])
    terms = payload["terms"]
    if sum((Fraction(term["value"]) for term in terms), Fraction(0)) != partial:
        problems.append("partial sum != exact sum of the terms")
    if lower != partial - tail or not lower > 0 or summary["positive"] is not True:
        problems.append("lower bound is not the positive partial sum minus the tail bound")
    wanted = [n for n in range(1, n_max + 1) if moebius(n) != 0 and n % 5 != 0]
    if [term["n"] for term in terms] != wanted:
        problems.append("terms are not exactly the squarefree n <= N prime to 5")
    for term in terms:
        n = term["n"]
        s = n * 5 // math.gcd(n, 5) * t
        eps = 2 if s % (2 * g) == 0 and g % 4 == 1 else 1
        degree = n * t * totient(s) // eps
        if (term["moebius"] != moebius(n) or int(term["degree"]) != degree
                or term["c_g"] not in (0, 1)
                or Fraction(term["value"]) != Fraction(term["moebius"] * term["c_g"], degree)):
            problems.append(f"term n={n} is not mu(n) * C_g / degree")
    witnesses = []
    for p in primes_upto(x):
        if p % (5 * t) == (1 + t) % (5 * t) and g % p != 0 and (p - 1) // order(g % p, p) == t:
            witnesses.append(p)
    empirical = payload["empirical"]
    if empirical["count"] != len(witnesses) or [int(w) for w in empirical["witnesses"]] != witnesses:
        problems.append(f"v_count {empirical['count']} != independent count {len(witnesses)}")
    return problems


def check_verify(out: str, alpha: Fraction, p: int) -> list[str]:
    """The printed record of `verify` against a full recomputation."""
    fields: dict[str, str] = {}
    for line in out.splitlines():
        for part in line.replace(" (mod", ",").split(","):
            key, sep, value = part.partition(" = ")
            if sep:
                fields[key.strip()] = value.strip().rstrip(")")
    a = residue(alpha, p)
    d = order(a, p)
    n_star = (p - 1) // d + sym5(d)
    want = {
        "ord": str(d),
        "index": str((p - 1) // d),
        "lsym": f"{sym5(d):+d}",
        "predicted index": str(n_star),
        "lhs": str(qfib_mod(p, a, p)),
        "rhs": str(fib_mod(n_star, p)),
    }
    problems = [f"p={p}: {k} = {fields.get(k)} != {v}" for k, v in want.items() if fields.get(k) != v]
    if out.splitlines()[-1:] != ["match"]:
        problems.append(f"p={p}: verify did not print match")
    return problems
