"""Tests of the benchmark itself, at small input sizes.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qfibcong import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_run_of_every_workload_passes_its_checks(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                  "--scale", "0.02", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= run.MIN_ROUNDS
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_same_inputs_and_seeds_differ():
    assert workloads.make_rounds("verify", 5, 0.05) == workloads.make_rounds("verify", 5, 0.05)
    assert workloads.make_rounds("scan", 5) != workloads.make_rounds("scan", 6)


def _scan(tmp_path, pmax, workers, name):
    out = str(tmp_path / name)
    assert cli.main(["scan", "--alpha", "2", "--pmin", "3", "--pmax", str(pmax),
                     "--workers", str(workers), "--out", out]) == 0
    return checks.load(out)


def test_checker_rejects_lhs_and_rhs_changed_to_the_same_wrong_value(tmp_path):
    from fractions import Fraction

    payload = _scan(tmp_path, 2000, 1, "scan.json")
    assert checks.check_scan(payload, Fraction(2), 3, 2000, [0, 5]) == []
    record = payload["records"][5]
    wrong = str((int(record["rhs"]) + 1) % record["p"])
    record["lhs"] = record["rhs"] = wrong
    assert checks.check_scan(payload, Fraction(2), 3, 2000, []) != []


def test_traced_run_survives_a_missing_name(monkeypatch):
    monkeypatch.chdir(ROOT)
    targets = tracer.TARGETS + (("qfib", "no_such_function", "qfib.fib_mod"),)
    args = run._parse(["--workload", "stats", "--seed", "1", "--seconds", "0.1",
                       "--scale", "0.02", "--trace", "1"])
    result = run.run(args, targets)
    assert result["correct"] is True
    assert result["metrics"]["trace.not_traced"]["value"] == 1
    assert result["metrics"]["density.delta_s"]["value"] > 0
    from qfibcong import congruence, stats

    assert stats.residual_data is congruence.residual_data  # wrappers were removed


def test_scan_bodies_are_byte_identical_at_one_and_two_workers(tmp_path):
    bodies = []
    for workers in (1, 2):
        payload = _scan(tmp_path, 3000, workers, f"scan-{workers}.json")
        del payload["run"]
        bodies.append(json.dumps(payload, indent=2).encode())
    assert bodies[0] == bodies[1]


def test_self_times_subtract_child_spans():
    t = tracer.Tracer()
    for layer, parent, start, end in (("cli.self", -1, 0, 100), ("qfib.fib_mod", 0, 10, 40),
                                      ("modarith.sieve", 0, 50, 60)):
        t.layer.append(t.layer_ids[layer])
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    selfs = t.self_times(0, 3)
    assert selfs["cli.self"] == 60e-9 and selfs["qfib.fib_mod"] == 30e-9


def test_reference_arithmetic():
    assert checks.primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [checks.fib_mod(n, 1000) for n in range(12)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert checks.order(2, 13) == 12 and checks.order(4, 13) == 6
    assert checks.qfib_mod(13, 4, 13) == 2  # F_13(4) = F_{2 + (6/5)} = F_3 mod 13


def test_exits_nonzero_without_the_program(tmp_path):
    proc = _bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
