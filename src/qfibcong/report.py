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
import os
from fractions import Fraction
from typing import Any

from .congruence import CongruenceRecord, ScanReport, scan_range
from .density import delta_truncated
from .errors import DomainError
from .stats import occurrence_histogram

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
        "lhs": _big(r.lhs),
        "rhs": _big(r.rhs),
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


def density_report_dict(est) -> dict[str, Any]:
    """JSON-ready dict for a truncated density estimate, with its count if it has one."""
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
    if est.empirical is not None:
        out["empirical"] = {
            "x": est.empirical.x,
            "count": est.empirical.count,
            "witnesses": [_big(p) for p in est.empirical.witnesses],
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
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}.part")
    # 0o666 under the umask, as open(path, "w") gives; mkstemp's 0600 would outlive the rename
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def _malformed(where: str, obj: Any, ints=(), decimals=(), int_lists=(),
               str_lists=()) -> list[str]:
    """Shape problems of one JSON value: it must be an object, and each of the
    named fields it holds an integer, a decimal string or a list of integers
    or of strings."""
    if not isinstance(obj, dict):
        return [f"{where} is not an object"]
    kinds = ((ints, "an integer", lambda v: type(v) is int),
             (decimals, "a decimal string",
              lambda v: isinstance(v, str) and v.removeprefix("-").isdecimal()),
             (int_lists, "a list of integers",
              lambda v: isinstance(v, list) and all(type(w) is int for w in v)),
             (str_lists, "a list of strings",
              lambda v: isinstance(v, list) and all(isinstance(w, str) for w in v)))
    return [f"{where}: {key} is not {name}"
            for keys, name, ok in kinds for key in keys if key in obj and not ok(obj[key])]


def _malformed_list(where: str, items: Any, label: str, **kinds) -> list[str]:
    """Shape problems of a JSON list whose items must each pass _malformed."""
    if not isinstance(items, list):
        return [f"{where} is not a list"]
    return [problem for i, item in enumerate(items)
            for problem in _malformed(f"{label} {i}", item, **kinds)]


def _check_scan(payload: dict[str, Any]) -> list[str]:
    """Rebuild a scan report by the call scan makes, and list where it differs.

    A record is rebuilt with the report's own lhs where that is a residue of p and the
    record claims a match and agreeing routes; the recurrence runs for the window's
    other applicable primes, a claimed mismatch or disagreement included.
    """
    records = payload.get("records", [])
    meta = payload.get("metadata", {})
    problems = (_malformed("metadata", meta, ints=("p_min", "p_max"), str_lists=("paths",))
                + _malformed("summary", payload.get("summary", {}))
                + _malformed_list("records", records, "record", decimals=("lhs", "rhs"),
                                  ints=("p", "ord", "index", "lsym", "predicted_index")))
    if problems:
        return problems
    try:
        alpha = Fraction(meta.get("alpha", ""))
    except (TypeError, ValueError, ArithmeticError):
        return ["metadata.alpha unparsable"]
    # a string longer than str(p) is no residue, and could pass int()'s digit limit
    lhs = {r["p"]: int(r["lhs"]) for r in records if "p" in r and r.get("match") is True
           and r.get("paths_agree") is True and r.get("lhs", "").isdecimal()
           and len(r["lhs"]) <= len(str(r["p"])) and int(r["lhs"]) < r["p"]}
    try:
        rep = scan_range(alpha, meta.get("p_min", 0), meta.get("p_max", 0),
                         frozenset(meta.get("paths", ())), lhs=lhs)
    except DomainError as exc:
        return [f"cannot rebuild: {exc}"]
    return (_compare(payload, scan_report_dict(rep), "records", "p",
                     "an applicable prime of the window")
            + [f"record {i}: the evaluation routes disagree"
               for i, r in enumerate(records) if r.get("paths_agree") is not True])


def _compare(payload: dict[str, Any], rebuilt: dict[str, Any], items: str = "", key: str = "",
             what: str = "") -> list[str]:
    """Where a report's body differs from its rebuild: the list payload[items], if
    named, matched on key, then every other object, then anything else at all."""
    label, mine = items[:-1], payload.get(items, []) if items else []
    theirs = {item[key]: item for item in rebuilt.get(items, [])}
    problems = [_differing(f"{label} {i}", item, theirs[item.get(key)])
                if item.get(key) in theirs else f"{label} {i}: {key}={item.get(key)} is not {what}"
                for i, item in enumerate(mine)]
    present = {item.get(key) for item in mine}
    problems += [f"no {label} for {key}={k}, {what}" for k in theirs if k not in present]
    problems += [_differing(name, payload.get(name, {}), value)
                 for name, value in rebuilt.items() if isinstance(value, dict) and name != "run"]
    problems = [problem for problem in problems if problem]
    if not problems and {**payload, "run": {}} != rebuilt:
        problems.append("the report differs from its rebuild")  # such as its items' order
    return problems


def _differing(where: str, obj: dict[str, Any], built: dict[str, Any]) -> str | None:
    fields = [] if obj == built else [k for k in {**built, **obj} if obj.get(k) != built.get(k)]
    return f"{where} differs from the rebuild in {', '.join(fields)}" if fields else None


def _check_stats(payload: dict[str, Any]) -> list[str]:
    """Rebuild a stats report by the call stats makes, at one worker, and list where it differs."""
    meta, by_index, by_value = (payload.get(k, {}) for k in ("metadata", "by_index", "by_value"))
    if not isinstance(by_index, dict):
        return ["by_index is not an object"]
    problems = (_malformed("metadata", meta, ints=("x", "witness_cap"), decimals=("g",))
                + _malformed("summary", payload.get("summary", {}))
                + _malformed("by_value", by_value, ints=by_value))
    for key, entry in by_index.items():
        problems += _malformed(f"index {key}", entry, ints=("count",), int_lists=("witnesses",))
    if problems:
        return problems
    try:  # int() refuses a g past its digit limit, as the CLI's --g does
        rep = occurrence_histogram(int(meta.get("g", "0")), meta.get("x", 0), 1,
                                   meta.get("witness_cap", 0))
    except (DomainError, ValueError) as exc:
        return [f"cannot rebuild: {exc}"]
    return _compare(payload, stats_report_dict(rep))


def _check_density(payload: dict[str, Any]) -> list[str]:
    """Rebuild a density report by the call density makes, and list where it differs."""
    meta, empirical = payload.get("metadata", {}), payload.get("empirical", {})
    problems = (_malformed("metadata", meta, ints=("a", "d", "t", "truncation"), decimals=("g",))
                + _malformed("summary", payload.get("summary", {}))
                + _malformed_list("terms", payload.get("terms", []), "term", ints=("n",))
                + _malformed("empirical", empirical, ints=("x",)))
    if problems:
        return problems
    try:  # int() refuses a g past its digit limit, as the CLI's --g does
        est = delta_truncated(int(meta.get("g", "0")),
                              *(meta.get(k, 0) for k in ("a", "d", "t", "truncation")),
                              empirical.get("x", 0) if "empirical" in payload else None)
    except (DomainError, ValueError) as exc:
        return [f"cannot rebuild: {exc}"]
    return _compare(payload, density_report_dict(est), "terms", "n", "a term of the truncation")
