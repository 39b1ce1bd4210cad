"""Reference figures: every workload over several seeds, as markdown tables.

Run from the repository root (about 25 s per run):

    python3 perfbench/reference.py --seeds 1-10 --traced-seeds 1-3

For each workload and end-to-end metric it prints the median, the
quartiles and their distance as a share of the median (the spread), and
for each per-layer metric the median over the traced seeds.  The tracing
overhead is the traced round time (trace.wall_s) minus the untraced
median wall_s.  Raw results go to .perfbench_out/reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed\n{proc.stderr}")
    return result


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="1-3")
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    names = workloads.WORKLOADS
    raw = {w: {"untraced": [_run(w, s, 0, seconds) for s in _seeds(args.seeds)],
               "traced": [_run(w, s, 1, seconds) for s in _seeds(args.traced_seeds)]}
           for w in names}
    os.makedirs(".perfbench_out", exist_ok=True)
    with open(os.path.join(".perfbench_out", "reference.json"), "w") as fh:
        json.dump(raw, fh, indent=1)

    print("| workload | metric | median | q1 | q3 | spread |")
    print("| --- | --- | --- | --- | --- | --- |")
    for w in names:
        for metric, m in raw[w]["untraced"][0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in raw[w]["untraced"]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| {w} | {metric} ({m['unit']}) | {_fmt(med)} | {_fmt(q1)} | {_fmt(q3)} "
                  f"| {(q3 - q1) / med:.3f} |")
    print()
    print("| metric | " + " | ".join(names) + " |")
    print("| --- |" + " --- |" * len(names))
    for metric, m in raw[names[0]]["traced"][0]["metrics"].items():
        cells = [_fmt(statistics.median(r["metrics"][metric]["value"] for r in raw[w]["traced"]))
                 for w in names]
        print(f"| {metric} ({m['unit']}) | " + " | ".join(cells) + " |")
    overhead = []
    for w in names:
        traced = statistics.median(r["metrics"]["trace.wall_s"]["value"] for r in raw[w]["traced"])
        wall = statistics.median(r["metrics"]["wall_s"]["value"] for r in raw[w]["untraced"])
        overhead.append(f"{traced - wall:+.3f} s ({(traced - wall) / wall:+.1%})")
    print("| tracing overhead | " + " | ".join(overhead) + " |")


if __name__ == "__main__":
    main()
