"""JSON/CSV serialization and revalidation of the library's reports.

Report bodies are deterministic functions of their inputs: anything that
varies between runs (worker count, wall time) lives in a separate "run"
object, which the caller fills, so bodies can be compared byte for byte.
Integers that may exceed 2**53 are serialized as decimal strings.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from fractions import Fraction
from typing import Any

from .congruence import CongruenceRecord, ScanReport
from .modarith import lsym5, multiplicative_order, reduce_rational
from .qfib import RECURRENCE_MAX_P, fib_mod

FORMAT_VERSION = 1

CSV_COLUMNS = ("p", "ord", "index", "lsym", "predicted_index", "lhs", "rhs", "match")


def _big(n: int) -> str:
    """Decimal-string encoding for integers that may not fit a double."""
    return str(int(n))


def _record_dict(r: CongruenceRecord) -> dict[str, Any]:
    return {
        "p": r.p,
        "ord": r.data.ord,
        "index": r.data.index,
        "lsym": r.data.lsym_ord,
        "predicted_index": r.predicted_index,
        "lhs": _big(r.lhs.value),
        "rhs": _big(r.rhs.value),
        "match": r.match,
        "paths_agree": r.paths_agree,
    }


def scan_report_dict(rep: ScanReport) -> dict[str, Any]:
    """JSON-ready dict for a scan; the "run" sub-object is the only volatile part."""
    return {
        "kind": "scan",
        "format_version": FORMAT_VERSION,
        "metadata": {
            "alpha": str(rep.alpha),
            "p_min": rep.p_min,
            "p_max": rep.p_max,
            "paths": list(rep.paths),
        },
        "run": {},
        "summary": {
            "checked": len(rep.records),
            "matched": sum(r.match for r in rep.records),
            "mismatched": sum(not r.match for r in rep.records),
            "skipped": dict(sorted(rep.skipped.items())),
        },
        "records": [_record_dict(r) for r in rep.records],
    }


def stats_report_dict(rep) -> dict[str, Any]:
    """JSON-ready dict for an occurrence histogram (see stats.OccurrenceReport)."""
    return {
        "kind": "stats",
        "format_version": FORMAT_VERSION,
        "metadata": {"g": _big(rep.g), "x": rep.x, "witness_cap": rep.witness_cap},
        "run": {},
        "summary": {
            "primes_checked": rep.primes_checked,
            "primes_skipped": dict(sorted(rep.skipped.items())),
            "distinct_indices": len(rep.by_index_counts),
            "distinct_values": len(rep.by_value_counts),
        },
        "by_index": {
            str(n): {
                "count": rep.by_index_counts[n],
                "witnesses": list(rep.by_index_witnesses.get(n, ())),
            }
            for n in sorted(rep.by_index_counts)
        },
        "by_value": {k: rep.by_value_counts[k] for k in sorted(rep.by_value_counts)},
    }


def density_report_dict(est, vc=None) -> dict[str, Any]:
    """JSON-ready dict for a truncated density estimate, optionally with counts."""
    out = {
        "kind": "density",
        "format_version": FORMAT_VERSION,
        "metadata": {
            "g": _big(est.g),
            "a": est.a,
            "d": est.d,
            "t": est.t,
            "truncation": est.truncation,
        },
        "run": {},
        "summary": {
            "partial_sum": str(est.partial_sum),
            "tail_bound": str(est.tail_bound),
            "lower_bound": str(est.lower_bound),
            "positive": est.positive,
        },
        "terms": [
            {"n": t.n, "moebius": t.moebius, "c_g": t.c_g,
             "degree": _big(t.degree), "value": str(t.value)}
            for t in est.terms
        ],
    }
    if vc is not None:
        out["empirical"] = {
            "x": vc.x,
            "count": vc.count,
            "witnesses": [_big(p) for p in vc.witnesses],
        }
    return out


def write_json(payload: dict[str, Any], path: str) -> None:
    """Serialize to path atomically (write to a sibling temp file, then rename)."""
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=False) + "\n")


def write_csv(rep: ScanReport, path: str) -> None:
    """Flat per-prime table for a scan report: the record dicts' CSV_COLUMNS."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([d[c] for c in CSV_COLUMNS] for d in map(_record_dict, rep.records))
    _atomic_write(path, buf.getvalue())


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def check_report(path: str) -> list[str]:
    """Revalidate a written JSON report; returns a list of problems (empty = ok)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable report: {exc}"]
    if not isinstance(payload, dict):
        return ["the report is not a JSON object"]
    kind = payload.get("kind")
    if kind == "scan":
        return _check_scan(payload)
    if kind == "stats":
        return _check_stats(payload)
    if kind == "density":
        return _check_density(payload)
    return [f"unknown report kind: {kind!r}"]


def _malformed(where: str, obj: Any, ints=(), decimals=(), int_lists=()) -> list[str]:
    """Shape problems of one JSON value: it must be an object, and each of the
    named fields it holds an integer, a decimal string or a list of integers."""
    if not isinstance(obj, dict):
        return [f"{where} is not an object"]
    kinds = ((ints, "an integer", lambda v: type(v) is int),
             (decimals, "a decimal string",
              lambda v: isinstance(v, str) and v.removeprefix("-").isdecimal()),
             (int_lists, "a list of integers",
              lambda v: isinstance(v, list) and all(type(w) is int for w in v)))
    return [f"{where}: {key} is not {name}"
            for keys, name, ok in kinds for key in keys if key in obj and not ok(obj[key])]


def _malformed_list(where: str, items: Any, label: str, **kinds) -> list[str]:
    """Shape problems of a JSON list whose items must each pass _malformed."""
    if not isinstance(items, list):
        return [f"{where} is not a list"]
    return [problem for i, item in enumerate(items)
            for problem in _malformed(f"{label} {i}", item, **kinds)]


def _check_scan(payload: dict[str, Any]) -> list[str]:
    """Consistency of a scan report, plus a recomputation of each record's
    right side, order and symbol, at O(log p) plus the factoring of p - 1 per record."""
    records = payload.get("records", [])
    summary = payload.get("summary", {})
    meta = payload.get("metadata", {})
    problems = (_malformed("metadata", meta, ints=("p_min", "p_max")) + _malformed("summary", summary)
                + _malformed_list("records", records, "record", decimals=("lhs", "rhs"),
                                  ints=("p", "ord", "index", "lsym", "predicted_index")))
    if problems:
        return problems
    try:
        alpha = Fraction(meta.get("alpha", ""))
    except (TypeError, ValueError, ZeroDivisionError):
        return ["metadata.alpha unparsable"]
    last_p = 0
    matched = mismatched = 0
    for i, r in enumerate(records):
        p = r.get("p", 0)
        if p <= last_p:
            problems.append(f"record {i}: primes not strictly increasing at p={p}")
        last_p = p
        if not (meta.get("p_min", 0) <= p <= meta.get("p_max", 0)):
            problems.append(f"record {i}: p={p} outside scanned range")
        if r.get("ord", 0) * r.get("index", 0) != p - 1:
            problems.append(f"record {i}: ord * index != p - 1")
        if r.get("lsym") not in (-1, 1):
            problems.append(f"record {i}: lsym must be +-1")
        if r.get("predicted_index") != r.get("index", 0) + r.get("lsym", 0):
            problems.append(f"record {i}: predicted_index != index + lsym")
        match = int(r.get("lhs", "-1")) == int(r.get("rhs", "-2"))
        if match != r.get("match"):
            problems.append(f"record {i}: match flag inconsistent with lhs/rhs")
        if r.get("paths_agree") is not True:
            problems.append(f"record {i}: the evaluation routes disagree")
        problems += _recompute_record(i, r, alpha)
        matched += match
        mismatched += not match
    if summary.get("checked") != len(records):
        problems.append("summary.checked != number of records")
    if summary.get("matched") != matched:
        problems.append("summary.matched inconsistent with records")
    if summary.get("mismatched") != mismatched:
        problems.append("summary.mismatched inconsistent with records")
    return problems


def _recompute_record(i: int, r: dict[str, Any], alpha: Fraction) -> list[str]:
    p, d, n = r.get("p", 0), r.get("ord", 0), r.get("predicted_index", -1)
    if (not 3 <= p <= RECURRENCE_MAX_P or d < 1 or n < 0
            or math.gcd(alpha.numerator * alpha.denominator, p) != 1):
        return [f"record {i}: cannot recompute at p={p}"]
    problems = []
    res = reduce_rational(alpha, p)
    if pow(res.value, d, p) != 1:
        problems.append(f"record {i}: alpha^ord != 1 mod p")
    elif multiplicative_order(res) != d:
        problems.append(f"record {i}: ord is not the least exponent with alpha^ord = 1 mod p")
    if r.get("lsym") != lsym5(d):
        problems.append(f"record {i}: lsym != (ord/5)")
    if int(r.get("rhs", "-1")) != fib_mod(n, p).value:
        problems.append(f"record {i}: rhs != F_predicted_index mod p")
    return problems


def _check_stats(payload: dict[str, Any]) -> list[str]:
    by_index = payload.get("by_index", {})
    by_value = payload.get("by_value", {})
    summary = payload.get("summary", {})
    if not isinstance(by_index, dict):
        return ["by_index is not an object"]
    problems = _malformed("summary", summary) + _malformed("by_value", by_value, ints=by_value)
    for key, entry in by_index.items():
        problems += _malformed(f"index {key}", entry, ints=("count",), int_lists=("witnesses",))
    if problems:
        return problems
    total = 0
    for key, entry in by_index.items():
        count = entry.get("count", 0)
        witnesses = entry.get("witnesses", [])
        total += count
        if len(witnesses) > count:
            problems.append(f"index {key}: more witnesses than the count")
        if sorted(witnesses) != witnesses:
            problems.append(f"index {key}: witnesses not sorted")
    if summary.get("primes_checked") != total:
        problems.append("summary.primes_checked != sum of index counts")
    value_total = sum(by_value.values())
    if value_total != total:
        problems.append("by_value counts do not account for every prime")
    if summary.get("distinct_indices") != len(by_index):
        problems.append("summary.distinct_indices inconsistent")
    return problems


def _check_density(payload: dict[str, Any]) -> list[str]:
    summary = payload.get("summary", {})
    terms = payload.get("terms", [])
    problems = _malformed("summary", summary) + _malformed_list("terms", terms, "term")
    if problems:
        return problems
    try:
        partial = Fraction(summary.get("partial_sum", "0"))
        tail = Fraction(summary.get("tail_bound", "0"))
        lower = Fraction(summary.get("lower_bound", "0"))
    except (TypeError, ValueError, ZeroDivisionError):
        return ["summary fractions unparsable"]
    if partial - tail != lower:
        problems.append("lower_bound != partial_sum - tail_bound")
    if (lower > 0) != summary.get("positive"):
        problems.append("positive flag inconsistent with lower_bound")
    term_sum = Fraction(0)
    for t in terms:
        try:
            term_sum += Fraction(t.get("value", "0"))
        except (TypeError, ValueError, ZeroDivisionError):
            problems.append(f"term n={t.get('n')}: value unparsable")
    if term_sum != partial:
        problems.append("partial_sum != sum of term values")
    return problems
