"""Benchmark of the qfibcong CLI: one workload, one seed, one fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

The program is imported from ./src and called only through
`qfibcong.cli.main(argv)` and the names `qfibcong` exports.  The run
times whole rounds of CLI calls until --seconds of timed work are done,
then checks every output by independent recomputation, and prints one
JSON object as its last line of standard output: the end-to-end metrics
with --trace 0, the per-layer metrics of the traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads

SETUP_PROBES = 5
# Every run times at least this many rounds, and peak_rss_mb is read after
# exactly this many, so that memory a run keeps per round compares across
# runs whatever their speed.
MIN_ROUNDS = 4
OUT_DIR = ".perfbench_out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input size (tests use small values)")
    parser.add_argument("--probe-setup", action="store_true",
                        help="import and generate inputs, print 'ready' and exit")
    return parser.parse_args(argv)


def _setup(args):
    """Everything before the first timed call: imports and seeded inputs."""
    from qfibcong import cli

    return cli, workloads.make_rounds(args.workload, args.seed, args.scale)


def _current_cpu() -> int:
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def _steal_s(cpus: set[int]) -> float:
    """Seconds the hypervisor has kept the given CPUs from this VM, per CPU.

    The `steal` column of /proc/stat.  The benchmark runs in a VM whose
    host also runs other guests; time they take is not the program's, so
    wall times are reported with it subtracted (0 where there is no VM).
    """
    ticks = 0
    with open("/proc/stat") as fh:
        for line in fh:
            name, *fields = line.split()
            if name[3:].isdigit() and int(name[3:]) in cpus and len(fields) > 7:
                ticks += int(fields[7])
    return ticks / os.sysconf("SC_CLK_TCK") / len(cpus)


def _now(cpus: set[int]) -> float:
    """Wall clock minus hypervisor steal on the CPUs the run may use."""
    return time.perf_counter() - _steal_s(cpus)


def _measure_setup(args, cpus: set[int]) -> float:
    """Median seconds from spawning a fresh interpreter to the end of its _setup."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--scale", str(args.scale),
            "--probe-setup"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = _now(cpus)
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(_now(cpus) - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return statistics.median(times)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def run(args, targets=None) -> dict:
    """One benchmark run; returns the result object that main prints."""
    root = os.getcwd()
    allowed = os.sched_getaffinity(0)
    if workloads.workers_of(args.workload) == 1:
        # one CPU, so that its steal column is exactly the time taken from the run
        os.sched_setaffinity(0, {_current_cpu()})
    cpus = os.sched_getaffinity(0)
    setup_s = None if args.trace else _measure_setup(args, cpus)
    sys.path.insert(0, os.path.join(root, "src"))
    cli, rounds = _setup(args)
    tracer = None
    if args.trace:
        from tracer import TARGETS, Tracer

        tracer = Tracer().install(targets or TARGETS)
    outdir = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(outdir)
    os.chdir(outdir)
    try:
        done, walls, cpu_times, attempted, failed = [], [], [], 0, 0
        for ops in rounds:
            if sum(walls) >= args.seconds and len(walls) >= MIN_ROUNDS:
                break
            outputs = []
            cpu0 = _cpu_s()
            t0 = _now(cpus)
            with tracer.round() if tracer else contextlib.nullcontext():
                for op in ops:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        with tracer.span("cli.self") if tracer else contextlib.nullcontext():
                            code = cli.main(list(op.argv))
                    outputs.append((op, code, buf.getvalue()))
            walls.append(_now(cpus) - t0)
            cpu_times.append(_cpu_s() - cpu0)
            attempted += len(ops)
            failed += sum(code != 0 for _, code, _ in outputs)
            done.append(outputs)
            if len(done) == MIN_ROUNDS:
                peak_rss_mb = _peak_rss_mb()
        print("perfbench: round walls " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)

        problems, rates = [], []
        rng = random.Random(f"check:{args.workload}:{args.seed}")
        for outputs, wall in zip(done, walls):
            primes = 0
            for op, code, out in outputs:
                if code == 0:
                    found, checked = workloads.check_op(op, outdir, out, rng)
                    problems += found
                    primes += checked
            rates.append(primes / wall)
        verified = [op.params for outputs in done for op, code, _ in outputs
                    if op.kind == "verify" and code == 0]
        for alpha, p in rng.sample(verified, min(MIN_ROUNDS, len(verified))):
            problems += workloads.check_routes(alpha, p)
        for problem in problems[:20]:
            print(f"perfbench: {problem}", file=sys.stderr)
    finally:
        os.chdir(root)
        os.sched_setaffinity(0, allowed)
        if tracer:
            tracer.uninstall()
            tracer.write(os.path.join(root, OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz"))
        shutil.rmtree(outdir, ignore_errors=True)

    if tracer:
        metrics = tracer.metrics(walls)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpu_times), "unit": "s"},
            "primes_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join("src", "qfibcong", "__init__.py")):
        print("perfbench: no ./src/qfibcong here; run from the root of a qfibcong checkout",
              file=sys.stderr)
        return 2
    if args.probe_setup:
        sys.path.insert(0, os.path.abspath("src"))
        _setup(args)
        print("ready", flush=True)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
