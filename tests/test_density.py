import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qfibcong import density
from qfibcong.cli import main
from qfibcong.congruence import multiplicative_orders, residues
from qfibcong.density import _c_g, _field_degree, delta_truncated, mu_phi_sieve, v_count
from qfibcong.errors import DomainError
from qfibcong.modarith import euler_phi, is_squarefree, kronecker, primes_upto
from qfibcong.report import check_report

from _oracles import delta_sequential, moebius

SQUAREFREE = [g for g in range(2, 60) if is_squarefree(g)]


def test_epsilon_g_examples():
    # epsilon = 2 iff r is even and the discriminant D of Q(sqrt(g)) divides s, read off
    # [Q(zeta_s, g^(1/r)) : Q] = r * phi(s) / epsilon
    assert _field_degree(2, 5, 1) == 4
    assert _field_degree(5, 20, 1) == 8  # odd r: Q(zeta_20) itself
    assert _field_degree(5, 10, 2) == 4  # sqrt(5) lies in Q(zeta_5)
    assert _field_degree(5, 15, 1) == 8
    assert _field_degree(13, 26, 1) == 12
    assert _field_degree(13, 26, 2) == 12
    assert _field_degree(2, 8, 2) == 4  # D = 8: sqrt(2) lies in Q(zeta_8)
    assert _field_degree(2, 4, 2) == 4  # Q(i, sqrt(2)) = Q(zeta_8)
    assert _field_degree(3, 12, 2) == 4  # D = 12
    assert _field_degree(3, 6, 2) == 4  # 12 does not divide 6
    for g in (4, -2):  # the base is checked once, by the entry point
        with pytest.raises(DomainError, match="square-free"):
            delta_truncated(g, 1, 5, 11, 30)


def test_field_degree_examples():
    assert _field_degree(2, 5, 5) == 20
    assert _field_degree(2, 55, 11) == 440
    for g in (2, 3, 7):
        for s in (3, 5, 9, 25):
            if s % (2 * g) != 0:
                assert _field_degree(g, s, 1) == euler_phi(s)


def test_field_degree_divides_exactly_randomized():
    rng = random.Random(11)
    for _ in range(1000):
        g = rng.choice(SQUAREFREE)
        r = rng.randrange(1, 50)
        s = r * rng.randrange(1, 50)
        deg = _field_degree(g, s, r)
        epsilon = 2 if r % 2 == 0 and s % (g if g % 4 == 1 else 4 * g) == 0 else 1
        assert deg >= 1
        assert deg * epsilon == r * euler_phi(s)


def test_degree_ratio_bounds_examples():
    # [Q(zeta_ap, g^(1/b)) : Q(zeta_a, g^(1/b))] >= (p-1)/2 and, when bp | a,
    # [Q(zeta_a, g^(1/bp)) : Q(zeta_a, g^(1/b))] = p
    assert Fraction(_field_degree(2, 6 * 5, 3), _field_degree(2, 6, 3)) == 4
    assert Fraction(_field_degree(2, 30, 3 * 5), _field_degree(2, 30, 3)) == 5
    assert Fraction(_field_degree(5, 10 * 3, 2), _field_degree(5, 10, 2)) >= 1


def test_quadratic_discriminant():
    # D = g when g = 1 mod 4, else 4g.  With v = 2 the character of D at b gates
    # the value when f = D, and nothing does when f = 2g, which 4g does not divide.
    for g, disc in ((2, 8), (3, 12), (5, 5), (13, 13)):
        for b in range(1, 3 * disc):
            if math.gcd(b, disc) == 1:
                assert _c_g(g, b, disc, 2) == (1 if kronecker(disc, b) == 1 else 0)
                if disc == 4 * g:
                    assert _c_g(g, b, 2 * g, 2) == 1


def test_c_g_examples():
    assert _c_g(2, 1, 55, 11) == 1
    assert _c_g(2, 12, 55, 11) == 1
    assert _c_g(2, 2, 55, 11) == 0  # 2 is not 1 mod 11
    for g in (2, 3, 5):
        for b in (1, 3, 7, 9):
            assert _c_g(g, b, 4, 9) == 1  # gcd(f, v) = 1, v odd
    with pytest.raises(DomainError, match="b=45 must be coprime to f=55"):
        delta_truncated(2, 4, 5, 11, 30)  # b = 1 + 11*4, f = 5*11


def test_c_g_even_v_quadratic_condition():
    # D = 8 for g = 2; with D | f and v even the character at b gates the value
    for b in (3, 5, 7, 9, 11, 13):
        expected = 1 if kronecker(8, b) == 1 else 0
        got = _c_g(2, b, 8, 2)  # m = gcd(8, 2) = 2, so b = 1 mod 2 holds for odd b
        assert got == expected


def test_non_coprime_progression_is_refused_before_the_sieve(monkeypatch):
    def no_sieve(n_max):
        raise AssertionError("mu and phi sieved for a refused request")

    monkeypatch.setattr(density, "mu_phi_sieve", no_sieve)
    with pytest.raises(DomainError) as refusal:
        delta_truncated(2, 4, 5, 11, 10**8)
    assert str(refusal.value) == "b=45 must be coprime to f=55"


def test_series_matches_the_prime_count_on_even_moduli():
    # progressions whose d brings 2 and g (or 4g) into s, where the degree's defect
    # decides the terms: the series at N = 300 against v_count / pi(x) at x = 3e5
    # (measured 5e-6 against 0, 0.1968 against 0.1971 and 0.0935 against 0.0936)
    x = 300_000
    pi_x = len(primes_upto(x))
    for g, a, d, t in ((5, 0, 10, 1), (5, 2, 10, 1), (2, 0, 4, 2)):
        est = delta_truncated(g, a, d, t, 300)
        assert abs(est.partial_sum - Fraction(v_count(g, a, d, t, x).count, pi_x)) < Fraction(1, 200)
    # p = 1 mod 10 makes 5 a square mod p, so no prime has index 1 there
    assert v_count(5, 0, 10, 1, x).count == 0
    assert not delta_truncated(5, 0, 10, 1, 300).positive


def test_c_g_local_characters_split_between_f_and_v():
    # g = 3: D = 12 = (-4)(-3).  With f = 4 and v = 6, 3 | v and 4 | f, so K_{v,v} holds
    # sqrt(3) and sqrt(-3), hence i, and chi_{-4} gates b; the old rule asked 12 | f
    assert [_c_g(3, b, 4, 6) for b in (1, 3, 5, 7)] == [1, 0, 1, 0]
    # g = 21: D = 21 = (-3)(-7), f = 3 and 7 | v: chi_{-3} gates b
    assert [_c_g(21, b, 3, 14) for b in (1, 2)] == [1, 0]
    # a local conductor dividing neither f nor v leaves no condition past b = 1 mod m
    assert [_c_g(3, b, 4, 2) for b in (1, 3)] == [1, 1]


def test_series_within_its_tail_bound_of_the_prime_count_on_a_grid():
    # every progression of the grid at N = 200 against v_count / pi(3e5), each g's primes
    # classified once.  The margin, 0.005, covers the sampling spread: a binomial ratio
    # over pi(3e5) = 25,997 primes has a standard deviation of at most 0.5/sqrt(25,997) =
    # 0.0031.  Measured: at most 0.0024 apart, always inside the tail bound; the rule
    # that asked D | f read 0.2243 against 0.1486 at g = 3, t = 1, d = 4, a = 2
    x, margin = 300_000, 0.005
    p = np.array(primes_upto(x), dtype=np.int64)
    for g in (2, 3, 5, 6, 7, 13, 21):
        res = residues(g, p)
        index = np.zeros_like(p)
        index[res != 0] = (p[res != 0] - 1) // multiplicative_orders(res[res != 0], p[res != 0])
        for t in (1, 2, 3):
            with_index = p[index == t]
            for d in (1, 2, 3, 4, 5, 8, 10, 12):
                for a in range(d):
                    if math.gcd(1 + t * a, d * t) != 1:
                        continue
                    est = delta_truncated(g, a, d, t, 200)
                    ratio = np.count_nonzero(with_index % (d * t) == (1 + t * a) % (d * t)) / p.size
                    assert abs(float(est.partial_sum) - ratio) <= float(est.tail_bound) + margin, (
                        g, t, d, a, float(est.partial_sum), ratio)
                    assert float(est.lower_bound) <= ratio + margin, (g, t, d, a)


def test_v_count_checks_the_base_once_per_request(monkeypatch, capsys, tmp_path):
    # density --empirical-x checks g in delta_truncated only, and so does check of its
    # report; the public v_count keeps its own check
    calls = []
    real = density._require_base

    def counted(g):
        calls.append(g)
        real(g)

    monkeypatch.setattr(density, "_require_base", counted)
    out = tmp_path / "d.json"
    argv = ["density", "--g", "6", "--t", "11", "--trunc", "30", "--empirical-x", "2000", "--out", str(out)]
    assert main(argv) == 0
    assert calls == [6]
    calls.clear()
    assert check_report(str(out)) == []
    assert calls == [6]
    calls.clear()
    v_count(6, 1, 5, 11, 2000)
    assert calls == [6]
    capsys.readouterr()


def test_delta_truncated_leading_term():
    est = delta_truncated(2, 1, 5, 11, 1)
    assert est.partial_sum == Fraction(1, 440)
    assert est.terms[0].degree == 440
    assert est.terms[0].c_g == 1


def test_delta_truncated_ledger_reconstructs_sum():
    for n_max in (1, 10, 50, 200):
        est = delta_truncated(2, 1, 5, 11, n_max)
        assert sum((t.value for t in est.terms), Fraction(0)) == est.partial_sum
        assert all(t.degree >= 1 for t in est.terms)
        assert all(is_squarefree(t.n) and 1 % math.gcd(t.n, 5) == 0 for t in est.terms)


def test_delta_truncated_successive_truncations():
    prev = delta_truncated(2, 1, 5, 11, 30)
    for n_max in range(31, 40):
        cur = delta_truncated(2, 1, 5, 11, n_max)
        diff = cur.partial_sum - prev.partial_sum
        assert abs(diff) <= Fraction(2, n_max * 11 * euler_phi(n_max) * 10)
        prev = cur


def test_delta_truncated_checks_the_base_once(monkeypatch):
    calls = []
    real = density.is_squarefree

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(density, "is_squarefree", counted)
    g = 1000000007 * 10000000019  # square-free
    delta_truncated(g, 1, 5, 11, 200)
    assert calls == [g]
    calls.clear()
    for _ in range(2):  # a failing base is refused every time
        with pytest.raises(DomainError):
            delta_truncated(12, 1, 5, 11, 200)
    assert calls == [12, 12]


def test_delta_truncated_matches_the_sequential_oracle_on_a_grid():
    # t and d share primes with each other and with n, so every case of the degree's
    # phi(lcm(d, n)*t) from the factorization of d*t and the sieved phi(n) is reached;
    # a progression that is not coprime is refused
    for g in (2, 3, 5, 6, 7, 13, 21):
        for t in (1, 2, 3, 4, 11, 12):
            for d in (1, 2, 4, 5, 10, 12):
                for a in (-1, 0, 1, 2, 4):
                    if math.gcd(1 + t * a, d * t) != 1:
                        with pytest.raises(DomainError, match="coprime"):
                            delta_truncated(g, a, d, t, 30)
                        continue
                    for n_max in (1, 30, 200):
                        est = delta_truncated(g, a, d, t, n_max)
                        terms, partial, tail = delta_sequential(g, a, d, t, n_max)
                        assert [(x.n, x.moebius, x.c_g, x.degree, x.value)
                                for x in est.terms] == terms, (g, a, d, t, n_max)
                        assert (est.partial_sum, est.tail_bound) == (partial, tail)


def test_delta_truncated_positive_certificate():
    est = delta_truncated(2, 1, 5, 11, 200)
    assert est.positive
    assert est.lower_bound == est.partial_sum - est.tail_bound


def test_mu_phi_sieve_matches_moebius_and_euler_phi():
    mu, phi = mu_phi_sieve(10**4)
    assert len(mu) == len(phi) == 10**4 + 1
    assert mu[1:] == [moebius(n) for n in range(1, 10**4 + 1)]
    assert phi[1:] == [euler_phi(n) for n in range(1, 10**4 + 1)]


def test_tail_bound_dominates_partial_tails():
    # the certified bound must exceed any finite continuation of the dropped sum
    est = delta_truncated(2, 1, 5, 11, 50)
    tail_piece = sum(
        (
            Fraction(2, 11 * 10 * n * euler_phi(n))
            for n in range(51, 400)
            if is_squarefree(n)
        ),
        Fraction(0),
    )
    assert est.tail_bound > tail_piece


def test_v_count_examples():
    vc = v_count(2, 1, 5, 11, 100)
    assert vc.count == 0 and vc.witnesses == ()
    assert v_count(2, 1, 5, 1, 20).count == 0
    # empty progression: no prime is 1 + 7*3 = 22 mod 7*3... and x below dt
    assert v_count(2, 3, 1, 7, 6).count == 0
    with pytest.raises(DomainError):
        v_count(2, 1, 5, 11, 1)


def test_v_count_monotone_and_witnessed():
    prev = 0
    for x in (100, 1000, 5000, 20000):
        vc = v_count(2, 1, 5, 3, x)
        assert vc.count >= prev
        assert len(vc.witnesses) == vc.count
        for p in vc.witnesses:
            assert p <= x and p % 15 == 4
        prev = vc.count


def test_v_count_partitions_indexed_primes():
    # for each small index t, summing over the d = 5 residue classes of a
    # recovers a direct census of primes with that index
    from qfibcong.congruence import residual_data

    x = 10**4
    for t in (1, 2, 3, 4, 6):
        direct = 0
        for p in primes_upto(x):
            if p == 2:
                continue
            rd = residual_data(Fraction(2), p)
            if rd.reason.value != "BadValuationAlpha" and rd.index == t:
                direct += 1
        total = sum(v_count(2, a, 5, t, x).count for a in range(5))
        assert total == direct
