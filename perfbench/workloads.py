"""Seeded inputs, the CLI calls of one round, and the checks of its outputs.

A round is the unit the benchmark times: the same operations, on inputs
of nearly the same cost, so that rounds and runs compare.  Inputs differ
from round to round, so the program's module-level caches never carry a
result from one round into the next.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

import checks

WORKLOADS = ("scan", "stats", "verify", "scan-parallel")
PARALLEL_WORKERS = 2
MAX_ROUNDS = 64

ALPHAS = ("2", "3", "5", "6", "7", "10", "3/2", "5/3", "7/4", "2/5")
STATS_BASES = (2, 3, 6, 7)

SCAN_PMAX = 50_000
STATS_X = 300_000
STATS_T = 11
DENSITY_TRUNC = 3000
VERIFY_TARGETS = (20_000, 80_000, 140_000)
VERIFY_PATHS = "recurrence,andrews,proposition"
JITTER = 0.01  # sizes are drawn from just below size * (1 - JITTER) up to size


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output is checked against."""

    argv: tuple[str, ...]
    kind: str
    params: tuple


def _sizes(rng: random.Random, size: int, scale: float) -> list[int]:
    """MAX_ROUNDS distinct sizes, so that no round finds its sieve in a cache."""
    top = max(2 * MAX_ROUNDS, int(size * scale))
    return rng.sample(range(int(top * (1 - JITTER)) - MAX_ROUNDS, top + 1), MAX_ROUNDS)


def _verify_pair(rng: random.Random, target: int, used: set[int]) -> tuple[str, int]:
    """An applicable (alpha, p) near target with alpha a primitive root, so index 1.

    Fixing the index fixes the size of the program's per-pair Andrews tables,
    so that rounds cost the same time and memory whatever the seed.
    """
    p = target - rng.randrange(max(1, target // 100))
    while True:
        if p not in used and p > 7 and checks.is_prime(p):
            used.add(p)
            for alpha in rng.sample(ALPHAS, len(ALPHAS)):
                reason, d, idx = checks.classify(Fraction(alpha), p)
                if reason == "OK" and idx == 1:
                    return alpha, p
        p += 1


def workers_of(workload: str) -> int:
    """Worker processes the program runs for a workload."""
    return PARALLEL_WORKERS if workload == "scan-parallel" else 1


def make_rounds(workload: str, seed: int, scale: float = 1.0) -> list[list[Op]]:
    """MAX_ROUNDS rounds of CLI calls, a function of (workload, seed, scale) only."""
    rng = random.Random(f"{workload}:{seed}")
    sizes = _sizes(rng, STATS_X if workload == "stats" else SCAN_PMAX, scale)
    used: set[int] = set()
    rounds = []
    for r in range(MAX_ROUNDS):
        if workload in ("scan", "scan-parallel"):
            alpha = rng.choice(ALPHAS)
            pmax = sizes[r]
            workers = str(workers_of(workload))
            out = f"scan-{r}.json"
            ops = [
                Op(("scan", "--alpha", alpha, "--pmin", "3", "--pmax", str(pmax),
                    "--workers", workers, "--out", out), "scan", (alpha, pmax, out)),
                Op(("check", out), "check", ()),
            ]
        elif workload == "stats":
            g = rng.choice(STATS_BASES)
            x = sizes[r]
            trunc = max(20, int(DENSITY_TRUNC * scale))
            ops = [
                Op(("stats", "--g", str(g), "--x", str(x), "--workers", "1",
                    "--out", f"stats-{r}.json"), "stats", (g, x, f"stats-{r}.json")),
                Op(("density", "--g", str(g), "--t", str(STATS_T), "--trunc", str(trunc),
                    "--empirical-x", str(x), "--out", f"density-{r}.json"),
                   "density", (g, trunc, x, f"density-{r}.json")),
            ]
        elif workload == "verify":
            ops = []
            for target in VERIFY_TARGETS:
                alpha, p = _verify_pair(rng, max(60, int(target * scale)), used)
                ops.append(Op(("verify", "--alpha", alpha, "--p", str(p), "--paths", VERIFY_PATHS),
                              "verify", (alpha, p)))
        else:
            raise ValueError(f"unknown workload {workload!r}")
        rounds.append(ops)
    return rounds


def check_op(op: Op, outdir: str, stdout: str, rng: random.Random) -> tuple[list[str], int]:
    """Problems found in one operation's output by independent recomputation,
    and the number of applicable primes whose congruence the operation checked."""
    if op.kind == "scan":
        alpha, pmax, out = op.params
        payload = checks.load(os.path.join(outdir, out))
        sample = rng.sample(range(len(payload["records"])), min(3, len(payload["records"])))
        return (checks.check_scan(payload, Fraction(alpha), 3, pmax, sample),
                payload["summary"]["checked"])
    if op.kind == "stats":
        g, x, out = op.params
        payload = checks.load(os.path.join(outdir, out))
        return (checks.check_stats(payload, g, x, [rng.randrange(x) for _ in range(200)]),
                payload["summary"]["primes_checked"])
    if op.kind == "density":
        g, trunc, x, out = op.params
        payload = checks.load(os.path.join(outdir, out))
        return checks.check_density(payload, g, STATS_T, trunc, x), 0
    if op.kind == "verify":
        alpha, p = op.params
        return (checks.check_verify(stdout, Fraction(alpha), p),
                int(stdout.splitlines()[-1:] == ["match"]))
    return [], 0  # `check` is judged by its exit code alone


def check_routes(alpha: str, p: int) -> list[str]:
    """The Andrews and proposition routes, through qfibcong's exports, against the plain recurrence."""
    import qfibcong

    alpha_f = Fraction(alpha)
    rd = qfibcong.residual_data(alpha_f, p)
    want = checks.qfib_mod(p, checks.residue(alpha_f, p), p)
    got = {
        "andrews": qfibcong.qfib_mod_andrews(p, rd.alpha_res, rd.ord).value,
        "proposition": qfibcong.qfib_mod_proposition(rd).value,
    }
    return [f"p={p}: {route} route gives {v} != {want}" for route, v in got.items() if v != want]
