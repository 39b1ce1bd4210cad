"""Command-line front end.

Subcommands: qfib, verify, scan, density, stats, check.  Exit codes:
0 ok, 1 congruence mismatch, disagreeing routes or failed revalidation,
2 usage or domain error, 3 inapplicable input, 4 I/O error.
Batch-oriented: reports are written atomically and are byte-identical
for any worker count.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import __version__, congruence, density, report, stats
from .errors import DomainError, QFibError, TheoremViolation
from .modarith import is_prime, reduce_rational
from .qfib import RECURRENCE_MAX_P, qfib_mod_recurrence, qfib_poly

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3
EXIT_IO = 4


def _parse_paths(text: str) -> frozenset[str]:
    return frozenset(part.strip() for part in text.split(",") if part.strip())


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    parser = argparse.ArgumentParser(
        prog="qfibcong",
        description="q-Fibonacci congruence toolkit: evaluate, verify, scan, estimate densities.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", metavar="FILE",
                        help="flat key = value file supplying defaults; flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    paths = dict(type=_parse_paths, default=congruence.DEFAULT_PATHS,
                 help=f"comma list from: {','.join(sorted(congruence.ALL_PATHS))}")
    workers = dict(type=int, default=1)

    p_qfib = sub.add_parser("qfib", help="evaluate F_n(q) exactly or mod p")
    p_qfib.add_argument("n", type=int)
    p_qfib.add_argument("--poly", action="store_true", help="print the exact polynomial")
    p_qfib.add_argument("--q", metavar="RAT", help="rational evaluation point")
    p_qfib.add_argument("--p", type=int, help="odd prime modulus")

    p_verify = sub.add_parser("verify", help="check the congruence at one prime")
    p_verify.add_argument("--alpha", metavar="RAT", required=True)
    p_verify.add_argument("--p", type=int, required=True)
    p_verify.add_argument("--paths", **paths)

    p_scan = sub.add_parser("scan", help="verify the congruence over a prime range")
    p_scan.add_argument("--alpha", metavar="RAT", required=True)
    p_scan.add_argument("--pmin", type=int, default=3)
    p_scan.add_argument("--pmax", type=int, required=True)
    p_scan.add_argument("--paths", **paths)
    p_scan.add_argument("--workers", **workers)
    p_scan.add_argument("--out", metavar="FILE", help="write a JSON report")
    p_scan.add_argument("--csv", metavar="FILE", help="write a flat CSV of records")

    p_density = sub.add_parser("density", help="truncated density with a certified tail bound")
    p_density.add_argument("--g", type=int, required=True)
    p_density.add_argument("--t", type=int, required=True)
    p_density.add_argument("--a", type=int, default=1)
    p_density.add_argument("--d", type=int, default=5)
    p_density.add_argument("--trunc", type=int, default=200, metavar="N")
    p_density.add_argument("--empirical-x", type=int, metavar="X",
                           help="also count matching primes up to X")
    p_density.add_argument("--out", metavar="FILE")

    p_stats = sub.add_parser("stats", help="histogram of predicted Fibonacci indices")
    p_stats.add_argument("--g", type=int, required=True)
    p_stats.add_argument("--x", type=int, required=True)
    p_stats.add_argument("--workers", **workers)
    p_stats.add_argument("--out", metavar="FILE")

    p_check = sub.add_parser("check", help="revalidate a previously written report")
    p_check.add_argument("file")

    return parser, sub


def _load_config(path: str) -> dict[str, str]:
    config: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise QFibError(f"bad config line: {line!r}")
            key, _, value = line.partition("=")
            config[key.strip()] = value.strip()
    return config


def _config_defaults(args: argparse.Namespace, config: dict[str, str]) -> dict[str, object]:
    """The config entries that name one of the parsed command's options.

    A value stays a string for the option's type= to convert; a boolean
    flag's entry is true or false.  A positional is always given, so an
    entry naming it changes nothing.
    """
    own = vars(args).keys() - {"command", "config"}
    return {key: value.lower() == "true" if isinstance(getattr(args, key), bool) else value
            for key, value in config.items() if key in own}


def _cmd_qfib(args) -> int:
    if args.poly:
        # every coefficient of F_n is at least 1 for 1 <= n <= POLY_MAX_N, so each term
        # is printed with a "+"; F_0 is the empty tuple, printed "0"
        coeffs = qfib_poly(args.n)
        monomials = ["", "q", *(f"q^{i}" for i in range(2, len(coeffs)))]
        print(" + ".join(str(c) if not m else m if c == 1 else f"{c}*{m}"
                         for c, m in zip(coeffs, monomials)) or "0")
        return EXIT_OK
    if args.q is None or args.p is None:
        print("qfib: need --poly, or both --q and --p", file=sys.stderr)
        return EXIT_USAGE
    if args.p == 2 or not is_prime(args.p):
        raise DomainError(f"p must be an odd prime, got {args.p}")
    if args.n > RECURRENCE_MAX_P:
        raise DomainError(f"qfib mod p needs N <= {RECURRENCE_MAX_P}, got {args.n}")
    print(qfib_mod_recurrence(args.n, reduce_rational(Fraction(args.q), args.p), args.p))
    return EXIT_OK


def _cmd_verify(args) -> int:
    result = congruence.verify_theorem(Fraction(args.alpha), args.p, args.paths)
    if isinstance(result, congruence.ResidualData):
        print(f"inapplicable: {result.reason.value} (alpha = {args.alpha}, p = {args.p})")
        return EXIT_INAPPLICABLE
    rd = result.data
    print(f"alpha = {rd.alpha}, p = {rd.p}")
    print(f"ord = {rd.ord}, index = {rd.index}, lsym = {rd.lsym_ord:+d}")
    print(f"predicted index = {result.predicted_index}")
    print(f"lhs = {result.lhs}, rhs = {result.rhs} (mod {rd.p})")
    print("match" if result.match else "MISMATCH")
    if not result.paths_agree:
        print("error: the evaluation routes disagree", file=sys.stderr)
    return EXIT_OK if result.match and result.paths_agree else EXIT_MISMATCH


def _cmd_scan(args) -> int:
    start = time.monotonic()
    rep = congruence.scan_range(
        Fraction(args.alpha), args.pmin, args.pmax, paths=args.paths, workers=args.workers
    )
    run = {"workers": args.workers, "wall_time_s": time.monotonic() - start}
    payload = {**report.scan_report_dict(rep), "run": run}
    summary = payload["summary"]
    print(f"scan alpha = {rep.alpha}, range [{rep.p_min}, {rep.p_max}], paths {','.join(rep.paths)}")
    print(f"checked = {summary['checked']}, matched = {summary['matched']}, "
          f"mismatched = {summary['mismatched']}, skipped = {summary['skipped']}")
    if args.out:
        report.write_json(payload, args.out)
        print(f"report written to {args.out}")
    if args.csv:
        report.write_csv(rep, args.csv)
        print(f"records written to {args.csv}")
    disagreeing = [r.p for r in rep.records if not r.paths_agree]
    if disagreeing:
        print(f"error: the routes disagree at {len(disagreeing)} primes, first p = {disagreeing[0]}",
              file=sys.stderr)
    return EXIT_OK if rep.all_match and not disagreeing else EXIT_MISMATCH


def _cmd_density(args) -> int:
    if args.empirical_x is not None:  # refused before the series, not after it
        density.require_x_bound(args.empirical_x, "v_count")
    est = density.delta_truncated(args.g, args.a, args.d, args.t, args.trunc)
    print(f"delta(g = {est.g}, a = {est.a}, d = {est.d}, t = {est.t}) truncated at N = {est.truncation}")
    print(f"partial sum = {est.partial_sum} ~ {float(est.partial_sum):.6g}")
    print(f"tail bound  = {est.tail_bound} ~ {float(est.tail_bound):.6g}")
    print(f"lower bound = {est.lower_bound} ~ {float(est.lower_bound):.6g}"
          f" -> {'POSITIVE' if est.positive else 'not certified positive'}")
    vc = None
    if args.empirical_x is not None:
        vc = density._v_count(est.g, est.a, est.d, est.t, args.empirical_x)
        print(f"empirical count up to {args.empirical_x}: {vc.count}")
    if args.out:
        report.write_json(report.density_report_dict(est, vc), args.out)
        print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    start = time.monotonic()
    rep = stats.occurrence_histogram(args.g, args.x, workers=args.workers)
    run = {"workers": args.workers, "wall_time_s": time.monotonic() - start}
    print(f"stats g = {rep.g}, x = {rep.x}: {rep.primes_checked} primes in "
          f"{len(rep.by_index_counts)} index buckets, skipped {rep.skipped}")
    for n in sorted(rep.by_index_counts):
        print(f"  index {n} (value {stats.value_key(n)}): {rep.by_index_counts[n]}")
    if args.out:
        report.write_json({**report.stats_report_dict(rep), "run": run}, args.out)
        print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_check(args) -> int:
    problems = report.check_report(args.file)
    if not problems:
        print(f"{args.file}: ok")
        return EXIT_OK
    for problem in problems:
        print(f"{args.file}: {problem}", file=sys.stderr)
    if any(p.startswith("unreadable report") for p in problems):
        return EXIT_IO
    return EXIT_MISMATCH


_COMMANDS = {
    "qfib": _cmd_qfib,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "density": _cmd_density,
    "stats": _cmd_stats,
    "check": _cmd_check,
}


# The parser main builds on its first call and reuses; a call whose config supplies
# defaults re-parses on a fresh parser, so they never reach a later call.
_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    try:
        if _PARSER is None:
            _PARSER = _build_parser()[0]
        args = _PARSER.parse_args(argv)
        # QFIB_WORKERS is the lowest config entry: flags, then the file, then it, then 1
        config = {"workers": os.environ["QFIB_WORKERS"]} if "QFIB_WORKERS" in os.environ else {}
        if args.config:
            config.update(_load_config(args.config))
        if defaults := _config_defaults(args, config):
            parser, sub = _build_parser()
            sub.choices[args.command].set_defaults(**defaults)
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except TheoremViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (QFibError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())
