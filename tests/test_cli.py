import csv
import json
import os
import stat
import time
from fractions import Fraction

from qfibcong import cli, congruence, density, modarith, qanalogue, report, stats
from qfibcong.cli import main
from qfibcong.modarith import lsym5
from qfibcong.qfib import POLY_MAX_N, RECURRENCE_MAX_P, fib_mod
from qfibcong.report import check_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_run(payload):
    return {k: v for k, v in payload.items() if k != "run"}


def test_qfib_poly(capsys):
    code, out, _ = run(capsys, "qfib", "5", "--poly")
    assert code == 0 and out.strip() == "1 + q + q^2 + q^3 + q^4"
    code, out, _ = run(capsys, "qfib", "0", "--poly")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "qfib", "7", "--poly")
    assert code == 0 and out.strip() == (
        "1 + q + q^2 + q^3 + 2*q^4 + 2*q^5 + 2*q^6 + q^7 + q^8 + q^9")


def test_qfib_mod(capsys):
    code, out, _ = run(capsys, "qfib", "7", "--q", "2", "--p", "7")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "qfib", "7", "--q", "1/2", "--p", "13")
    assert code == 0
    # alpha must be a unit mod p: p may divide neither its numerator nor its denominator
    for q, err_text in (("7", "error: 7 divides numerator of 7\n"),
                        ("1/7", "error: 7 divides denominator of 1/7\n")):
        code, out, err = run(capsys, "qfib", "5", "--q", q, "--p", "7")
        assert (code, out, err) == (2, "", err_text)


def test_qfib_mod_refuses_bad_input_before_any_work(capsys, monkeypatch):
    def no_recurrence(*args):
        raise AssertionError("recurrence started before the input checks")

    monkeypatch.setattr(cli, "qfib_mod_recurrence", no_recurrence)
    for p in ("9", "2", "1"):
        code, out, err = run(capsys, "qfib", "10", "--q", "2", "--p", p)
        assert code == 2 and out == "" and "odd prime" in err
    code, out, err = run(capsys, "qfib", "10000000000", "--q", "2", "--p", "7")
    assert code == 2 and out == "" and "3037000500" in err


def test_qfib_missing_flags(capsys):
    code, _, err = run(capsys, "qfib", "5")
    assert code == 2 and "usage" in err or "need" in err


def test_verify_exit_codes(capsys, monkeypatch):
    code, out, err = run(capsys, "verify", "--alpha", "2", "--p", "7")
    assert code == 0 and err == ""
    assert out == (
        "alpha = 2, p = 7\n"
        "ord = 3, index = 2, lsym = -1\n"
        "predicted index = 1\n"
        "lhs = 1, rhs = 1 (mod 7)\n"
        "match\n"
    )
    for alpha, p, reason in (("7", "7", "BadValuationAlpha"), ("8", "7", "BadValuationAlphaMinus1"),
                             ("2", "11", "OrdDivisibleBy5")):
        code, out, err = run(capsys, "verify", "--alpha", alpha, "--p", p)
        assert (code, out, err) == (3, f"inapplicable: {reason} (alpha = {alpha}, p = {p})\n", "")
    code, _, err = run(capsys, "verify", "--alpha", "1", "--p", "7")
    assert code == 2
    code, _, err = run(capsys, "verify", "--alpha", "2", "--p", "9")
    assert code == 2
    # an alpha that str() cannot print is refused before its residual data
    def no_work(*args):
        raise AssertionError("residual data computed before the alpha check")

    monkeypatch.setattr(congruence, "multiplicative_order", no_work)
    code, out, err = run(capsys, "verify", "--alpha", "1e5000", "--p", "7")
    assert code == 2 and out == "" and "digit limit" in err
    # an unknown route is a usage error even at a prime where the pair is inapplicable
    code, _, err = run(capsys, "verify", "--alpha", "2", "--p", "11", "--paths", "nonsense")
    assert code == 2 and "nonsense" in err
    # a prime past the recurrence bound is refused before its residual data, which
    # would factor p - 1 = 2 * 1000000000000000009 * 1000000000000004189 by Pollard rho
    def no_residual_data(*args):
        raise AssertionError("residual data computed before the bound check")

    monkeypatch.setattr(congruence, "residual_data", no_residual_data)
    code, _, err = run(capsys, "verify", "--alpha", "2",
                       "--p", "2000000000000008396000000000000075403")
    assert code == 2 and "3037000500" in err


def test_scan_refuses_bad_input_before_any_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("the window was sieved before the input checks")

    monkeypatch.setattr(congruence, "run_chunks", no_work)
    code, _, err = run(capsys, "scan", "--alpha", "2", "--pmin", "11", "--pmax", "12",
                       "--paths", "nonsense")
    assert code == 2 and "nonsense" in err
    # p_max past the int64 bound of the recurrence kernel
    code, _, err = run(capsys, "scan", "--alpha", "2", "--pmin", "3037000493",
                       "--pmax", "3037000600")
    assert code == 2 and "3037000500" in err
    # an alpha whose numerator str() cannot print, as scan would after the whole window
    code, out, err = run(capsys, "scan", "--alpha", "1e5000", "--pmax", "200")
    assert code == 2 and out == "" and "digit limit" in err


def test_a_bad_rational_is_refused_by_its_option_and_text(capsys, tmp_path):
    for argv, option in ((("verify", "--alpha", "1/0", "--p", "7"), "--alpha"),
                         (("scan", "--alpha", "1/0", "--pmax", "100"), "--alpha"),
                         (("qfib", "5", "--q", "1/0", "--p", "7"), "--q")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and f"argument {option}: '1/0' has a zero denominator" in err
    code, out, err = run(capsys, "verify", "--alpha", "two", "--p", "7")
    assert (code, out) == (2, "") and "argument --alpha: Invalid literal for Fraction: 'two'" in err
    # a config entry is parsed by the option's type, as a flag is
    config = tmp_path / "q.cfg"
    config.write_text("q = 1/0\n")
    code, out, err = run(capsys, "--config", str(config), "qfib", "5", "--p", "7")
    assert (code, out) == (2, "") and "argument --q: '1/0' has a zero denominator" in err


def test_windows_past_the_order_kernel_bound_are_refused_before_any_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the input checks")

    monkeypatch.setattr(stats, "run_chunks", no_work)
    for name in ("_require_base", "mu_phi_sieve", "primes_upto"):  # what follows the x check
        monkeypatch.setattr(density, name, no_work)
    for x, refusal in ((str(RECURRENCE_MAX_P + 1), "<= 3037000500"), ("1", ">= 2")):
        for argv, caller in ((("stats", "--g", "2", "--x", x), "occurrence_histogram"),
                             (("density", "--g", "2", "--t", "11", "--empirical-x", x), "v_count")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "") and f"{caller} needs x {refusal}, got {x}" in err


def test_window_paths_find_no_order_one_prime_at_a_time(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("an order was found one prime at a time")

    for module, name in ((modarith, "factorize"), (modarith, "multiplicative_order"),
                         (congruence, "multiplicative_order"), (qanalogue, "factorize")):
        monkeypatch.setattr(module, name, refuse)
    scan, hist = tmp_path / "scan.json", tmp_path / "stats.json"
    assert run(capsys, "scan", "--alpha", "3/2", "--pmax", "3000", "--out", str(scan))[0] == 0
    assert run(capsys, "stats", "--g", "6", "--x", "5000", "--out", str(hist))[0] == 0
    assert check_report(str(scan)) == [] and check_report(str(hist)) == []
    assert density.v_count(2, 1, 5, 11, 20000).count > 0


def test_check_recomputes_a_claimed_counterexample(capsys, tmp_path):
    # record 3 made a counterexample to the congruence: its lhs moved off the right
    # side, its match set false and one count moved in the summary to suit
    path = tmp_path / "r.json"
    run(capsys, "scan", "--alpha", "2", "--pmax", "2000", "--out", str(path))
    payload = json.loads(path.read_text())
    record = payload["records"][3]
    record["lhs"] = str((int(record["lhs"]) + 1) % record["p"])
    record["match"] = False
    payload["summary"]["matched"] -= 1
    payload["summary"]["mismatched"] += 1
    path.write_text(json.dumps(payload))
    assert check_report(str(path)) == [
        "record 3 differs from the rebuild in lhs, match",
        "summary differs from the rebuild in matched, mismatched",
    ]
    code, out, err = run(capsys, "check", str(path))
    assert code == 1 and out == "" and "record 3" in err


def test_checking_a_complete_scan_report_runs_no_recurrence(capsys, monkeypatch, tmp_path):
    path = tmp_path / "scan.json"
    assert run(capsys, "scan", "--alpha", "3/2", "--pmax", "3000", "--out", str(path))[0] == 0
    batches = []
    real = congruence.qfib_mod_recurrence_many

    def counted(primes, alpha_values):
        batches.append(len(primes))
        return real(primes, alpha_values)

    monkeypatch.setattr(congruence, "qfib_mod_recurrence_many", counted)
    assert check_report(str(path)) == [] and batches == []
    payload = json.loads(path.read_text())
    deleted = payload["records"].pop(4)
    path.write_text(json.dumps(payload))
    assert f"no record for p={deleted['p']}, an applicable prime of the window" in check_report(
        str(path))
    assert batches == [1]


def test_check_rebuilds_a_scan_report_by_one_scan_range_call(capsys, monkeypatch, tmp_path):
    path = tmp_path / "scan.json"
    assert run(capsys, "scan", "--alpha", "2", "--pmax", "1000", "--out", str(path))[0] == 0
    calls = {"scan_range": 0, "run_chunks": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    scan_range = counted("scan_range", congruence.scan_range)
    monkeypatch.setattr(congruence, "scan_range", scan_range)
    monkeypatch.setattr(report, "scan_range", scan_range)
    monkeypatch.setattr(congruence, "run_chunks", counted("run_chunks", congruence.run_chunks))
    assert check_report(str(path)) == []
    assert calls == {"scan_range": 1, "run_chunks": 1}


def test_worker_counts_below_one_are_refused(capsys):
    for workers in ("0", "-3"):
        code, out, err = run(capsys, "scan", "--alpha", "2", "--pmax", "100", "--workers", workers)
        assert code == 2 and out == "" and "workers" in err
        code, out, err = run(capsys, "stats", "--g", "2", "--x", "100", "--workers", workers)
        assert code == 2 and out == "" and "workers" in err


def test_exact_polynomial_route_is_bounded(capsys):
    code, out, err = run(capsys, "qfib", "301", "--poly")
    assert code == 2 and out == "" and "300" in err
    code, _, err = run(capsys, "scan", "--alpha", "2", "--pmax", "301", "--paths", "poly")
    assert code == 2 and "poly" in err
    code, _, err = run(capsys, "verify", "--alpha", "2", "--p", "307", "--paths", "poly")
    assert code == 2 and "poly" in err
    code, _, _ = run(capsys, "verify", "--alpha", "2", "--p", "13", "--paths", "poly")
    assert code == 0


def test_route_disagreement_fails(capsys, monkeypatch, tmp_path):
    real = congruence._CROSS_CHECKS["proposition"]
    monkeypatch.setitem(
        congruence._CROSS_CHECKS, "proposition", lambda p, *args: (real(p, *args) + 1) % p
    )
    code, out, err = run(capsys, "verify", "--alpha", "2", "--p", "13",
                         "--paths", "recurrence,proposition")
    assert code == 1 and out.splitlines()[-1] == "match" and "disagree" in err
    path = tmp_path / "r.json"
    code, _, err = run(capsys, "scan", "--alpha", "2", "--pmax", "50",
                       "--paths", "recurrence,proposition", "--out", str(path))
    assert code == 1 and "disagree at 11 primes" in err
    code, _, err = run(capsys, "check", str(path))
    assert code == 1 and "record 0: the evaluation routes disagree" in err


def test_scan_writes_reports(capsys, tmp_path):
    out_json = tmp_path / "r.json"
    out_csv = tmp_path / "r.csv"
    code, out, _ = run(
        capsys, "scan", "--alpha", "2", "--pmin", "3", "--pmax", "20",
        "--out", str(out_json), "--csv", str(out_csv),
    )
    assert code == 0
    assert "checked = 6" in out and "mismatched = 0" in out
    payload = json.loads(out_json.read_text())
    assert payload["kind"] == "scan"
    assert len(payload["records"]) == 6
    assert payload["summary"]["skipped"]["OrdDivisibleBy5"] == 1
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["p"]) for r in rows] == [3, 5, 7, 13, 17, 19]
    assert all(r["match"] == "True" for r in rows)


def test_reports_take_the_mode_that_the_umask_gives(capsys, tmp_path):
    out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
    out_json.write_text("")
    out_json.chmod(0o600)  # a rewritten report takes the umask's mode too
    old = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "scan", "--alpha", "2", "--pmax", "50",
                         "--out", str(out_json), "--csv", str(out_csv))
    finally:
        os.umask(old)
    assert code == 0
    assert [stat.S_IMODE(path.stat().st_mode) for path in (out_json, out_csv)] == [0o644, 0o644]


def test_scan_deterministic_across_workers(capsys, tmp_path):
    bodies = []
    for workers in ("1", "2", "8"):
        path = tmp_path / f"w{workers}.json"
        code, _, _ = run(
            capsys, "scan", "--alpha", "2", "--pmax", "500",
            "--workers", workers, "--out", str(path),
        )
        assert code == 0
        bodies.append(json.dumps(strip_run(json.loads(path.read_text()))))
    assert bodies[0] == bodies[1] == bodies[2]


def test_density_refuses_a_non_coprime_progression_before_the_sieve(capsys, monkeypatch):
    def no_sieve(n_max):
        raise AssertionError("mu and phi sieved for a refused request")

    monkeypatch.setattr(density, "mu_phi_sieve", no_sieve)
    code, out, err = run(capsys, "density", "--g", "2", "--t", "11", "--a", "4", "--trunc", "100000000")
    assert (code, out) == (2, "") and "b=45 must be coprime to f=55" in err


# (10**30 + 57) * (10**31 + 33), a product of two primes far past the bound below which
# Pollard rho runs
_SEMIPRIME = 10000000000000000000000000000603000000000000000000000000001881


def test_density_refuses_a_t_or_d_it_cannot_factor_before_the_sieve(capsys, monkeypatch,
                                                                     tmp_path):
    path = tmp_path / "d.json"
    code, _, _ = run(capsys, "density", "--g", "2", "--t", "11", "--trunc", "10", "--out", str(path))
    assert code == 0

    def refuse(*args):
        raise AssertionError("Pollard rho or the sieve ran for a refused request")

    monkeypatch.setattr(modarith, "_pollard_rho", refuse)
    monkeypatch.setattr(density, "mu_phi_sieve", refuse)
    refusal = f"its part {_SEMIPRIME} has no prime factor below 1000, is composite, not a square"
    for argv in (("--t", str(_SEMIPRIME)), ("--t", "11", "--d", str(_SEMIPRIME))):
        start = time.monotonic()
        code, out, err = run(capsys, "density", "--g", "2", *argv, "--trunc", "10")
        assert time.monotonic() - start < 2
        assert (code, out) == (2, "") and refusal in err
    # check rebuilds through delta_truncated, so it inherits the refusal
    payload = json.loads(path.read_text())
    payload["metadata"]["t"] = _SEMIPRIME
    path.write_text(json.dumps(payload))
    start = time.monotonic()
    code, out, err = run(capsys, "check", str(path))
    assert time.monotonic() - start < 2
    assert (code, out) == (1, "") and f"{path}: cannot rebuild: cannot factor" in err
    assert refusal in err


def test_check_lists_an_integer_past_the_digit_limit(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"kind": "scan", "metadata": {"p_min": 3, "p_max": ' + "9" * 5000 + "}}")
    problems = check_report(str(path))
    assert len(problems) == 1
    assert problems[0].startswith("the report holds an integer that cannot be read: ")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (1, "", f"{path}: {problems[0]}\n")


def test_check_command(capsys, tmp_path):
    path = tmp_path / "r.json"
    run(capsys, "scan", "--alpha", "2", "--pmax", "100", "--out", str(path))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and "ok" in out

    # corrupt a record: 5 is not a residue mod 3, so the rebuild takes the recurrence's lhs
    payload = json.loads(path.read_text())
    payload["records"][0]["lhs"] = "5"
    path.write_text(json.dumps(payload))
    assert check_report(str(path)) == ["record 0 differs from the rebuild in lhs"]
    code, _, err = run(capsys, "check", str(path))
    assert code == 1 and err == f"{path}: record 0 differs from the rebuild in lhs\n"

    # a record whose two sides were both moved to the same wrong value:
    # only recomputing the right side can see it
    path = tmp_path / "r2000.json"
    run(capsys, "scan", "--alpha", "2", "--pmax", "2000", "--out", str(path))
    payload = json.loads(path.read_text())
    record = payload["records"][5]
    wrong = str((int(record["rhs"]) + 1) % record["p"])
    record["lhs"] = record["rhs"] = wrong
    path.write_text(json.dumps(payload))
    assert check_report(str(path)) == [
        "record 5 differs from the rebuild in rhs, match",
        "summary differs from the rebuild in matched, mismatched",
    ]
    code, _, _ = run(capsys, "check", str(path))
    assert code == 1

    # records whose order and index are wrong for metadata.alpha
    path = tmp_path / "r30.json"
    run(capsys, "scan", "--alpha", "2", "--pmax", "30", "--out", str(path))
    payload = json.loads(path.read_text())
    payload["metadata"]["alpha"] = "3"
    path.write_text(json.dumps(payload))
    assert check_report(str(path)) == [
        "record 0: p=3 is not an applicable prime of the window",
        "record 2 differs from the rebuild in ord, index, lsym, predicted_index",
        "record 3 differs from the rebuild in ord, index, predicted_index, rhs, match",
        "record 4 differs from the rebuild in ord, index, lsym, predicted_index",
        "summary differs from the rebuild in checked, matched, mismatched, skipped",
    ]
    code, _, _ = run(capsys, "check", str(path))
    assert code == 1

    # record 5 (p = 19, ord = 18) with its symbol flipped to +1 and every field
    # derived from it made consistent: only recomputing (ord/5) can see it
    path = tmp_path / "r_lsym.json"
    run(capsys, "scan", "--alpha", "2", "--pmax", "2000", "--out", str(path))
    payload = json.loads(path.read_text())
    record = payload["records"][5]
    assert (record["p"], record["lsym"]) == (19, -1)
    record["lsym"] = 1
    record["predicted_index"] = record["index"] + record["lsym"]
    record["lhs"] = record["rhs"] = str(fib_mod(2, 19))
    record["match"] = True
    path.write_text(json.dumps(payload))
    assert check_report(str(path)) == [
        "record 5 differs from the rebuild in lsym, predicted_index, rhs, match",
        "summary differs from the rebuild in matched, mismatched",
    ]
    code, _, _ = run(capsys, "check", str(path))
    assert code == 1

    # a record whose ord is a multiple of the true order, with every field
    # derived from it made consistent: only recomputing the order can see it
    path = tmp_path / "r_ord.json"
    run(capsys, "scan", "--alpha", "2", "--pmax", "2000", "--out", str(path))
    payload = json.loads(path.read_text())
    i, record = next((i, r) for i, r in enumerate(payload["records"]) if r["index"] % 2 == 0)
    record["ord"] *= 2
    record["index"] //= 2
    record["lsym"] = lsym5(record["ord"])
    record["predicted_index"] = record["index"] + record["lsym"]
    record["lhs"] = record["rhs"] = str(fib_mod(record["predicted_index"], record["p"]))
    record["match"] = True
    path.write_text(json.dumps(payload))
    assert check_report(str(path)) == [
        f"record {i} differs from the rebuild in ord, index, lsym, predicted_index"
    ]
    code, _, _ = run(capsys, "check", str(path))
    assert code == 1

    missing = tmp_path / "nope.json"
    code, _, _ = run(capsys, "check", str(missing))
    assert code == 4


def test_scan_unwritable_path(capsys, tmp_path):
    code, _, err = run(
        capsys, "scan", "--alpha", "2", "--pmax", "20",
        "--out", str(tmp_path / "no" / "such" / "dir" / "r.json"),
    )
    assert code == 4


def test_density_command(capsys, tmp_path):
    path = tmp_path / "d.json"
    code, out, _ = run(
        capsys, "density", "--g", "2", "--t", "11", "--trunc", "200",
        "--empirical-x", "100", "--out", str(path),
    )
    assert code == 0
    assert "POSITIVE" in out
    assert "empirical count up to 100: 0" in out
    payload = json.loads(path.read_text())
    assert payload["kind"] == "density"
    assert payload["summary"]["positive"] is True
    assert payload["empirical"]["count"] == 0
    assert check_report(str(path)) == []

    code, _, err = run(capsys, "density", "--g", "4", "--t", "11")
    assert code == 2 and "square-free" in err


def test_density_and_its_check_each_sum_the_series_once_and_count_once(capsys, monkeypatch,
                                                                       tmp_path):
    # one delta_truncated call, within which the series is summed once and the primes
    # counted once
    calls = []

    def counted(name, real, modules):
        def wrapper(*args):
            calls.append(name)
            result = real(*args)
            calls.append(f"{name} returned")
            return result

        for module in modules:
            monkeypatch.setattr(module, name, wrapper)

    counted("delta_truncated", density.delta_truncated, (density, report))
    counted("mu_phi_sieve", density.mu_phi_sieve, (density,))
    counted("_v_count", density._v_count, (density,))
    path = tmp_path / "d.json"
    code, out, _ = run(capsys, "density", "--g", "6", "--t", "11", "--trunc", "50",
                       "--empirical-x", "5000", "--out", str(path))
    assert code == 0 and "empirical count up to 5000" in out
    nested = ["delta_truncated", "mu_phi_sieve", "mu_phi_sieve returned", "_v_count",
              "_v_count returned", "delta_truncated returned"]
    assert calls == nested
    calls.clear()
    assert run(capsys, "check", str(path))[0] == 0
    assert calls == nested


def test_density_takes_a_by_its_class_mod_d(capsys, tmp_path):
    bodies = []
    for a in ("-1", "4", "9"):
        path = tmp_path / f"d{a}.json"
        code, _, err = run(capsys, "density", "--g", "5", "--t", "2", "--d", "5", "--a", a,
                           "--trunc", "30", "--out", str(path))
        assert (code, err) == (0, "") and check_report(str(path)) == []
        payload = strip_run(json.loads(path.read_text()))
        assert payload["metadata"].pop("a") == int(a)
        bodies.append(payload)
    assert bodies[0] == bodies[1] == bodies[2]


# The product of the primes 10**30 + 57 and 10**31 + 33: no trial divisor,
# not a square, not a prime, and too large for Pollard rho to split quickly.
UNSETTLED_BASE = str((10**30 + 57) * (10**31 + 33))


def test_unsettled_base_fails_fast(capsys, monkeypatch):
    def no_rho(n):
        raise AssertionError("Pollard rho started on the base")

    monkeypatch.setattr(modarith, "_pollard_rho", no_rho)
    for argv in (("stats", "--g", UNSETTLED_BASE, "--x", "100"),
                 ("density", "--g", UNSETTLED_BASE, "--t", "11")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"cannot tell whether {UNSETTLED_BASE} is square-free" in err


def test_stats_command(capsys, tmp_path):
    path = tmp_path / "s.json"
    code, out, _ = run(capsys, "stats", "--g", "2", "--x", "20", "--out", str(path))
    assert code == 0
    assert "index 0 (value 0): 3" in out
    payload = json.loads(path.read_text())
    assert payload["kind"] == "stats"
    assert payload["by_index"]["0"]["witnesses"] == [3, 13, 19]
    assert payload["by_value"] == {"0": 3, "1": 3}
    assert check_report(str(path)) == []

    code, out, _ = run(capsys, "stats", "--g", "2", "--x", "3")
    assert code == 0  # x = 3 has a single prime, bucketed under index 0


def test_config_file_defaults_and_overrides(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "qfib.cfg"
    cfg.write_text("pmin = 3\nworkers = 2\n# comment\n\n")
    code, out, _ = run(
        capsys, "--config", str(cfg), "scan", "--alpha", "2", "--pmax", "20"
    )
    assert code == 0 and "range [3, 20]" in out
    # a flag beats the config entry
    code, out, _ = run(
        capsys, "--config", str(cfg), "scan", "--alpha", "2", "--pmax", "20",
        "--pmin", "5",
    )
    assert code == 0 and "range [5, 20]" in out
    code, _, err = run(capsys, "--config", str(tmp_path / "bad.cfg"), "scan",
                       "--alpha", "2", "--pmax", "20")
    assert code == 4

    def with_config(text, *argv):
        cfg.write_text(text)
        return run(capsys, "--config", str(cfg), *argv)

    scan = ("scan", "--alpha", "2", "--pmax", "20")
    code, out, _ = with_config("paths = recurrence, andrews\n", *scan)
    assert code == 0 and "paths andrews,recurrence" in out
    # a boolean flag's entry is true or false
    code, out, _ = with_config("poly = true\n", "qfib", "5")
    assert code == 0 and out == "1 + q + q^2 + q^3 + q^4\n"
    code, out, err = with_config("poly = false\n", "qfib", "5")
    assert code == 2 and out == "" and "need" in err
    code, out, _ = with_config("poly = false\n", "qfib", "7", "--q", "2", "--p", "7")
    assert code == 0 and out == "1\n"
    # a key is the option's name with - written as _
    code, out, _ = with_config("a = 2\nd = 10\ntrunc = 50\nempirical_x = 100\n",
                               "density", "--g", "2", "--t", "11")
    assert code == 0
    assert "delta(g = 2, a = 2, d = 10, t = 11) truncated at N = 50\n" in out
    assert "empirical count up to 100: " in out
    code, out, _ = with_config("workers = two\n", *scan)
    assert code == 2 and out == ""
    # keys that name no option of the command are ignored
    code, out, _ = with_config("command = qfib\nfrobnicate = 1\npmin = 5\n", *scan)
    assert code == 0 and "range [5, 20]" in out

    # QFIB_WORKERS loses to a config entry, which loses to --workers
    monkeypatch.setenv("QFIB_WORKERS", "3")
    report_path = tmp_path / "w.json"
    for text, flags, workers in (("", (), 3), ("workers = 2\n", (), 2),
                                 ("workers = 2\n", ("--workers", "1"), 1)):
        code, _, _ = with_config(text, *scan, *flags, "--out", str(report_path))
        assert code == 0 and json.loads(report_path.read_text())["run"]["workers"] == workers
    # so a malformed QFIB_WORKERS matters only where nothing above it sets workers
    monkeypatch.setenv("QFIB_WORKERS", "abc")
    code, _, _ = with_config("workers = 2\n", *scan, "--out", str(report_path))
    assert code == 0 and json.loads(report_path.read_text())["run"]["workers"] == 2
    code, out, err = run(capsys, *scan)
    assert code == 2 and out == "" and "abc" in err
    code, _, _ = run(capsys, *scan, "--workers", "2")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--alpha", "2", "--p", "7")
    assert code == 0 and "match" in out


def test_parser_is_built_once_and_config_defaults_do_not_leak(capsys, tmp_path, monkeypatch):
    # the first call builds the parser and later ones reuse it; a call whose config
    # supplies defaults parses again on a fresh parser, so the next plain call reads none
    monkeypatch.delenv("QFIB_WORKERS", raising=False)
    monkeypatch.setattr(cli, "_PARSER", None)
    builds, seen = [], []
    real = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or real())
    monkeypatch.setitem(cli._COMMANDS, "scan", lambda args: seen.append(args.workers) or 0)
    cfg = tmp_path / "qfib.cfg"
    cfg.write_text("workers = 2\n")
    scan = ("scan", "--alpha", "2", "--pmax", "20")
    assert main(["--config", str(cfg), *scan]) == 0
    assert main(list(scan)) == 0
    assert main(list(scan)) == 0
    assert seen == [2, 1, 1] and len(builds) == 2


def test_workers_env_default(capsys, monkeypatch):
    monkeypatch.setenv("QFIB_WORKERS", "2")
    code, out, _ = run(capsys, "scan", "--alpha", "2", "--pmax", "100")
    assert code == 0 and "checked" in out


def test_bad_subcommand_usage(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["--version"]) == 0


def test_check_lists_malformed_reports(capsys, tmp_path):
    # each tamper is a listed problem with exit 1, never a traceback or a usage error
    bodies = {}
    for kind, argv in (("scan", ("scan", "--alpha", "2", "--pmax", "100")),
                       ("stats", ("stats", "--g", "2", "--x", "100")),
                       ("density", ("density", "--g", "2", "--t", "11", "--trunc", "20"))):
        path = tmp_path / f"{kind}.json"
        run(capsys, *argv, "--out", str(path))
        bodies[kind] = path.read_text()

    def tampered(kind, *keys, value):
        payload = json.loads(bodies[kind])
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return payload

    cases = [
        ([1, 2], "the report is not a JSON object"),
        (tampered("scan", "metadata", value=[1]), "metadata is not an object"),
        (tampered("scan", "summary", value="x"), "summary is not an object"),
        (tampered("scan", "records", value=5), "records is not a list"),
        (tampered("scan", "records", 5, value=[1]), "record 5 is not an object"),
        (tampered("scan", "records", 5, "p", value="19"), "record 5: p is not an integer"),
        (tampered("scan", "records", 5, "ord", value="18"), "record 5: ord is not an integer"),
        (tampered("scan", "records", 5, "lsym", value=True), "record 5: lsym is not an integer"),
        (tampered("scan", "records", 5, "lhs", value="abc"),
         "record 5: lhs is not a decimal string"),
        (tampered("scan", "metadata", "p_max", value="100"), "metadata: p_max is not an integer"),
        (tampered("scan", "metadata", "alpha", value=float("inf")), "metadata.alpha unparsable"),
        (tampered("scan", "metadata", "paths", value=[1]), "metadata: paths is not a list of strings"),
        (tampered("stats", "summary", value=[]), "summary is not an object"),
        (tampered("stats", "metadata", value=[]), "metadata is not an object"),
        (tampered("stats", "metadata", "g", value=2), "metadata: g is not a decimal string"),
        (tampered("stats", "metadata", "x", value="100"), "metadata: x is not an integer"),
        (tampered("stats", "metadata", "witness_cap", value=None),
         "metadata: witness_cap is not an integer"),
        (tampered("stats", "by_index", value=[1]), "by_index is not an object"),
        (tampered("stats", "by_index", "0", value=3), "index 0 is not an object"),
        (tampered("stats", "by_index", "0", "count", value="3"),
         "index 0: count is not an integer"),
        (tampered("stats", "by_index", "0", "witnesses", value=[3, "a"]),
         "index 0: witnesses is not a list of integers"),
        (tampered("stats", "by_value", "0", value="3"), "by_value: 0 is not an integer"),
        (tampered("density", "summary", value=[]), "summary is not an object"),
        (tampered("density", "summary", "partial_sum", value=None),
         "summary differs from the rebuild in partial_sum"),
        (tampered("density", "terms", value=7), "terms is not a list"),
        (tampered("density", "terms", 0, value=7), "term 0 is not an object"),
    ]
    path = tmp_path / "t.json"
    for payload, problem in cases:
        path.write_text(json.dumps(payload))
        assert check_report(str(path)) == [problem]
        code, out, err = run(capsys, "check", str(path))
        assert code == 1 and out == "" and err == f"{path}: {problem}\n"

    # a record at a composite p, then one past the recurrence bound that scan enforces:
    # each is named as a prime the window lacks, and neither is factored or reduced mod p
    path = tmp_path / "third.json"
    run(capsys, "scan", "--alpha", "1/3", "--pmax", "100", "--out", str(path))
    payload = json.loads(path.read_text())
    assert payload["records"][2]["p"] == 13
    for p in (9, 2000000000000008396000000000000075403):
        payload["records"][2].update(p=p, ord=p - 1, index=1)
        path.write_text(json.dumps(payload))
        assert check_report(str(path)) == [
            f"record 2: p={p} is not an applicable prime of the window",
            "no record for p=13, an applicable prime of the window",
        ]
        code, _, _ = run(capsys, "check", str(path))
        assert code == 1


def test_check_rebuilds_scan_reports(capsys, monkeypatch, tmp_path):
    # tampers whose every summary count was kept consistent with the records
    path = tmp_path / "r1000.json"
    run(capsys, "scan", "--alpha", "2", "--pmax", "1000", "--out", str(path))
    body = path.read_text()

    def check(payload, problems):
        path.write_text(json.dumps(payload))
        assert check_report(str(path)) == problems
        code, out, err = run(capsys, "check", str(path))
        assert code == 1 and out == "" and "Traceback" not in err
        assert err == "".join(f"{path}: {problem}\n" for problem in problems)

    # 645 = 3 * 5 * 43 is a base-2 Fermat pseudoprime, with ord 28 and index 23
    payload = json.loads(body)
    k = next(k for k, r in enumerate(payload["records"]) if r["p"] > 645)
    value = str(fib_mod(22, 645))
    payload["records"].insert(k, {"p": 645, "ord": 28, "index": 23, "lsym": -1,
                                  "predicted_index": 22, "lhs": value, "rhs": value,
                                  "match": True, "paths_agree": True})
    payload["summary"]["checked"] += 1
    payload["summary"]["matched"] += 1
    check(payload, [f"record {k}: p=645 is not an applicable prime of the window",
                    "summary differs from the rebuild in checked, matched"])

    # an lhs past int()'s digit limit
    payload = json.loads(body)
    payload["records"][5]["lhs"] = "7" * 5000
    check(payload, ["record 5 differs from the rebuild in lhs"])

    payload = json.loads(body)
    deleted = payload["records"].pop(7)
    payload["summary"]["checked"] -= 1
    payload["summary"]["matched"] -= 1
    check(payload, [f"no record for p={deleted['p']}, an applicable prime of the window",
                    "summary differs from the rebuild in checked, matched"])

    payload = json.loads(body)
    payload["summary"]["skipped"]["OrdDivisibleBy5"] += 3
    check(payload, ["summary differs from the rebuild in skipped"])

    # a window that scan would refuse is refused before any sieving
    def refuse(*args):
        raise AssertionError("the window was sieved before the input checks")

    monkeypatch.setattr(congruence, "run_chunks", refuse)
    payload = json.loads(body)
    payload["metadata"]["p_max"] = RECURRENCE_MAX_P + 1
    check(payload, [f"cannot rebuild: the recurrence kernel needs p <= {RECURRENCE_MAX_P}, "
                    f"got {RECURRENCE_MAX_P + 1}"])
    payload = json.loads(body)
    payload["metadata"]["paths"] = ["poly", "recurrence"]
    check(payload, [f"cannot rebuild: the poly route needs p <= {POLY_MAX_N}, got 1000"])
    payload = json.loads(body)
    payload["metadata"]["alpha"] = "1e5000"
    check(payload, ["cannot rebuild: alpha's numerator or denominator is past int()'s digit limit"])


def test_check_lists_single_field_mutants_as_before(capsys, tmp_path):
    # one mutant of each kind that check words differently; each list was taken from the
    # record-by-record check that came before the column one
    path = tmp_path / "r.json"
    run(capsys, "scan", "--alpha", "3/2", "--pmax", "2000", "--out", str(path))
    body = path.read_text()
    assert json.loads(body)["records"][4]["p"] == 19

    def record(key, change):
        return lambda payload: payload["records"][4].update({key: change(payload["records"][4])})

    def swap(payload):
        records = payload["records"]
        records[4], records[5] = records[5], records[4]

    applicable = "an applicable prime of the window"
    cases = [
        (record("ord", lambda r: r["ord"] + 1), ["record 4 differs from the rebuild in ord"]),
        (record("p", lambda r: r["p"] + 1), [f"record 4: p=20 is not {applicable}",
                                             f"no record for p=19, {applicable}"]),
        (lambda payload: payload["records"][4].update(p=payload["records"][5]["p"]),
         ["record 4 differs from the rebuild in ord, index, lsym, predicted_index, lhs, rhs",
          f"no record for p=19, {applicable}"]),
        (record("paths_agree", lambda r: False),
         ["record 4 differs from the rebuild in paths_agree",
          "record 4: the evaluation routes disagree"]),
        (record("lhs", lambda r: str(int(r["lhs"]) + 1)),
         ["record 4 differs from the rebuild in match",
          "summary differs from the rebuild in matched, mismatched"]),
        (record("rhs", lambda r: str(int(r["rhs"]) - 1)),
         ["record 4 differs from the rebuild in rhs"]),
        (record("match", lambda r: 1), []),  # 1 == True, as the rebuild's dicts compared it
        (lambda payload: payload["records"][4].pop("p"), [f"record 4: p=None is not {applicable}",
                                                          f"no record for p=19, {applicable}"]),
        (lambda payload: payload["records"][4].pop("lhs"),
         ["record 4 differs from the rebuild in lhs"]),
        (record("extra", lambda r: 1), ["record 4 differs from the rebuild in extra"]),
        (record("extra", lambda r: None), ["the report differs from its rebuild"]),
        (swap, ["the report differs from its rebuild"]),
        (lambda payload: payload.update(format_version=2), ["the report differs from its rebuild"]),
        (lambda payload: payload["summary"]["skipped"].update(OrdDivisibleBy5=0),
         ["summary differs from the rebuild in skipped"]),
        (lambda payload: payload["metadata"].update(p_min=2),
         ["cannot rebuild: need 2 < p_min <= p_max, got [2, 2000]"]),
        (lambda payload: payload.pop("metadata"), ["metadata.alpha unparsable"]),
    ]
    for tamper, problems in cases:
        payload = json.loads(body)
        tamper(payload)
        path.write_text(json.dumps(payload))
        assert check_report(str(path)) == problems


def test_check_rebuilds_density_reports(capsys, monkeypatch, tmp_path):
    path = tmp_path / "d.json"
    run(capsys, "density", "--g", "2", "--t", "11", "--trunc", "200", "--out", str(path))
    body = path.read_text()

    def check(payload, problems):
        path.write_text(json.dumps(payload))
        assert check_report(str(path)) == problems
        code, _, _ = run(capsys, "check", str(path))
        assert code == 1

    def consistent(summary, partial, tail):
        lower = partial - tail
        summary.update(partial_sum=str(partial), tail_bound=str(tail),
                       lower_bound=str(lower), positive=lower > 0)

    payload = json.loads(body)
    term, summary = payload["terms"][1], payload["summary"]
    old = Fraction(term["value"])
    term["degree"] = str(2 * int(term["degree"]))
    term["value"] = str(old / 2)
    consistent(summary, Fraction(summary["partial_sum"]) - old / 2,
               Fraction(summary["tail_bound"]))
    check(payload, ["term 1 differs from the rebuild in degree, value",
                    "summary differs from the rebuild in partial_sum, lower_bound"])

    payload = json.loads(body)
    summary = payload["summary"]
    consistent(summary, Fraction(summary["partial_sum"]), Fraction(summary["tail_bound"]) / 2)
    check(payload, ["summary differs from the rebuild in tail_bound, lower_bound"])

    payload = json.loads(body)
    payload["metadata"]["g"] = UNSETTLED_BASE
    check(payload, [f"cannot rebuild: cannot tell whether {UNSETTLED_BASE} is square-free: its part "
                    "with no prime factor below 1000 is composite and at least 1e+20"])

    # a count past the order kernel's bound is refused before the series is summed
    def no_series(*args):
        raise AssertionError("the series was summed before the input checks")

    monkeypatch.setattr(density, "mu_phi_sieve", no_series)
    payload = json.loads(body)
    payload["empirical"] = {"x": RECURRENCE_MAX_P + 1, "count": 0, "witnesses": []}
    check(payload, [f"cannot rebuild: v_count needs x <= {RECURRENCE_MAX_P}, "
                    f"got {RECURRENCE_MAX_P + 1}"])


def test_check_rebuilds_stats_reports(capsys, tmp_path):
    path = tmp_path / "s2000.json"
    run(capsys, "stats", "--g", "2", "--x", "2000", "--out", str(path))
    body = path.read_text()

    def check(tamper, problems):
        payload = json.loads(body)
        tamper(payload)
        path.write_text(json.dumps(payload))
        assert check_report(str(path)) == problems
        code, out, err = run(capsys, "check", str(path))
        assert code == 1 and out == "" and "Traceback" not in err
        assert err == "".join(f"{path}: {problem}\n" for problem in problems)

    # a prime moved from bucket 1 to bucket 2: F_1 = F_2 = 1, so by_value is unchanged
    def move(payload):
        one, two = payload["by_index"]["1"], payload["by_index"]["2"]
        two["witnesses"] = sorted(two["witnesses"] + [one["witnesses"].pop()])
        one["count"] -= 1
        two["count"] += 1

    check(move, ["by_index differs from the rebuild in 1, 2"])
    check(lambda payload: payload["metadata"].update(x=1500), [
        "summary differs from the rebuild in primes_checked, primes_skipped, distinct_indices, "
        "distinct_values",
        "by_index differs from the rebuild in 0, 1, 2, 3, 4, 5, 8, 9, 13, 17, 30, 25",
        "by_value differs from the rebuild in 0, 1, 1597, 2, 21, 233, 3, 34, 5, 832040, 75025",
    ])
    check(lambda payload: payload["summary"]["primes_skipped"].update(OrdDivisibleBy5=68),
          ["summary differs from the rebuild in primes_skipped"])
    check(lambda payload: payload["metadata"].update(g="3"), [
        "summary differs from the rebuild in primes_checked, primes_skipped, distinct_indices, "
        "distinct_values",
        "by_index differs from the rebuild in 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 23, "
        "25, 29, 31, 40, 85, 109, 155, 17, 18, 30, 39",
        "by_value differs from the rebuild in 0, 1, 102334155, "
        "110560307156090817237632754212345, 13, 1346269, 2, 21, 259695496911122585, "
        "26925748508234281076009, 28657, 3, 34, 5, 514229, 55, 610, 89, 1597, 2584, 63245986, "
        "832040",
    ])

    # what the consistency rules of earlier versions caught, the rebuild catches too:
    # more witnesses than the count, unsorted witnesses, and three summary totals
    zero = "by_index differs from the rebuild in 0"
    check(lambda payload: payload["by_index"]["0"].update(count=53), [zero])
    check(lambda payload: payload["by_index"]["0"]["witnesses"].reverse(), [zero])
    check(lambda payload: payload["summary"].update(primes_checked=238),
          ["summary differs from the rebuild in primes_checked"])
    check(lambda payload: payload["by_value"].update({"0": 55}),
          ["by_value differs from the rebuild in 0"])
    check(lambda payload: payload["summary"].update(distinct_indices=19),
          ["summary differs from the rebuild in distinct_indices"])

    # inputs that occurrence_histogram refuses, each one listed problem
    check(lambda payload: payload["metadata"].update(g="4"),
          ["cannot rebuild: base must be a square-free integer >= 2, got 4"])
    check(lambda payload: payload["metadata"].update(x=1),
          ["cannot rebuild: occurrence_histogram needs x >= 2, got 1"])
    check(lambda payload: payload["metadata"].update(x=RECURRENCE_MAX_P + 1),
          [f"cannot rebuild: occurrence_histogram needs x <= {RECURRENCE_MAX_P}, "
           f"got {RECURRENCE_MAX_P + 1}"])
    check(lambda payload: payload["metadata"].update(witness_cap=-1),
          ["cannot rebuild: occurrence_histogram needs witness_cap >= 0, got -1"])
    check(lambda payload: payload["metadata"].update(g=UNSETTLED_BASE),
          [f"cannot rebuild: cannot tell whether {UNSETTLED_BASE} is square-free: its part with "
           "no prime factor below 1000 is composite and at least 1e+20"])
    # a g past int()'s digit limit, whose message is Python's own
    payload = json.loads(body)
    payload["metadata"]["g"] = "7" * 5000
    path.write_text(json.dumps(payload))
    [problem] = check_report(str(path))
    assert problem.startswith("cannot rebuild: ") and "digits" in problem
    code, _, err = run(capsys, "check", str(path))
    assert code == 1 and err == f"{path}: {problem}\n"
