"""JSON/CSV serialization and revalidation of the library's reports.

Report bodies are deterministic functions of their inputs: anything that
varies between runs (worker count, wall time) lives in a separate "run"
object, which the caller fills, so bodies can be compared byte for byte.
Integers that may exceed 2**53 are serialized as decimal strings.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from fractions import Fraction
from typing import Any

import numpy as np

from .congruence import RECORD_FIELDS, ScanReport, scan_range
from .density import delta_truncated
from .errors import DomainError
from .stats import occurrence_histogram

FORMAT_VERSION = 1

CSV_COLUMNS = ("p", "ord", "index", "lsym", "predicted_index", "lhs", "rhs", "match")

_BOOLS = np.array(["false", "true"])
_ESCAPE = json.encoder.encode_basestring_ascii  # a str as json.dumps writes it, quotes included


def _big(n: int) -> str:
    """Decimal-string encoding for integers that may not fit a double."""
    return str(int(n))


# The keys of a scan record in the body, in order: (p, ord, index, lsym, predicted_index,
# lhs, rhs, match, paths_agree), and the % field each is written by.
RECORD_KEYS = tuple(k for k in RECORD_FIELDS if k != "alpha_res")
_RECORD_FIELDS = ("%d", "%d", "%d", "%d", "%d", '"%d"', '"%d"', "%s", "%s")


class _RecordColumns:
    """A scan's records as the columns they are built from, which write_json writes as
    the list of record dicts that scan_report_dict gives."""

    def __init__(self, columns: dict[str, np.ndarray]):
        self.columns = columns


def _scan_head(rep: ScanReport) -> dict[str, Any]:
    """A scan's body but its records."""
    matched = int(rep.columns["match"].sum())
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
            "checked": rep.columns["p"].size,
            "matched": matched,
            "mismatched": rep.columns["p"].size - matched,
            "skipped": dict(sorted(rep.skipped.items())),
        },
    }


def scan_report_dict(rep: ScanReport, as_columns: bool = False) -> dict[str, Any]:
    """JSON-ready dict for a scan; the "run" sub-object is the only volatile part.

    As columns, the records stay the report's columns, which write_json writes as the
    record dicts; a caller that only writes the body then builds no record dict."""
    if as_columns:
        records: Any = _RecordColumns(rep.columns)
    else:
        records = [{"p": p, "ord": d, "index": i, "lsym": s, "predicted_index": n,
                    "lhs": str(x), "rhs": str(y), "match": m, "paths_agree": ok}
                   for p, d, i, s, n, x, y, m, ok
                   in zip(*(rep.columns[k].tolist() for k in RECORD_KEYS))]
    return {**_scan_head(rep), "records": records}


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
    """Serialize to path atomically (write to a sibling temp file, then rename), in the
    bytes of json.dumps(payload, indent=2), by _encode."""
    out: list[str] = []
    _encode(payload, "", out)
    out.append("\n")
    _atomic_write(path, "".join(out))


def _encode(value: Any, indent: str, out: list[str]) -> None:
    """Append value's text at the given indent, as json.dumps(indent=2) writes it.

    A list of ints or of strings is written by one join, a list of flat objects by one
    template built from its first item, and a scan's record columns by the record
    template; everything else value by value.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{\n" + inner
        for key, item in value.items():
            out.append(f"{sep}{_key(key)}: ")
            _encode(item, inner, out)
            sep = ",\n" + inner
        out.append(f"\n{indent}}}")
    elif isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        if not value:
            out.append("[]")
        elif kinds == {int} or kinds == {str}:
            text = f",\n{inner}".join(map(int.__repr__ if int in kinds else _ESCAPE, value))
            out.append(f"[\n{inner}{text}\n{indent}]")
        elif kinds == {dict} and (rows := _flat_objects(value, inner)) is not None:
            out.append(f"[\n{rows}\n{indent}]")
        else:
            sep = "[\n" + inner
            for item in value:
                out.append(sep)
                _encode(item, inner, out)
                sep = ",\n" + inner
            out.append(f"\n{indent}]")
    elif isinstance(value, _RecordColumns):
        columns = value.columns
        rows = [columns[k].tolist() for k in RECORD_KEYS[:7]]
        rows += [_BOOLS[columns[k].astype(np.intp)].tolist() for k in RECORD_KEYS[7:]]
        text = ",\n".join(map(_object_template(RECORD_KEYS, _RECORD_FIELDS, inner).__mod__,
                               zip(*rows)))
        out.append(f"[\n{text}\n{indent}]" if text else "[]")
    else:
        out.append(_scalar(value))


def _scalar(value: Any) -> str:
    """A value that is neither a list nor an object, as json.dumps writes it."""
    if isinstance(value, str):
        return _ESCAPE(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    return json.dumps(value)  # None, a bool or a float; anything else is a TypeError


def _key(key: Any) -> str:
    """An object's key as json.dumps writes it: a str, or a scalar's JSON text as a str."""
    if isinstance(key, str):
        return _ESCAPE(key)
    if key is None or isinstance(key, (int, float)):
        return _ESCAPE(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _object_template(keys: tuple[str, ...], fields: tuple[str, ...], indent: str) -> str:
    """An object with the given keys at the given indent, each value a % field."""
    inner = indent + "  "
    text = ",\n".join(f"{inner}{_ESCAPE(k).replace('%', '%%')}: {f}" for k, f in zip(keys, fields))
    return f"{indent}{{\n{text}\n{indent}}}"


def _flat_objects(items: list[dict], indent: str) -> str | None:
    """The items at the given indent, joined, if they have the same str keys in the same
    order and no list or object values; else None."""
    keys = tuple(items[0])
    if not keys or set(map(type, keys)) != {str} or not all(map(keys.__eq__, map(tuple, items))):
        return None
    columns = []
    for key in keys:
        column = [item[key] for item in items]
        kinds = set(map(type, column))
        if kinds == {int} or kinds == {str}:
            columns.append(map(int.__repr__ if int in kinds else _ESCAPE, column))
        elif any(issubclass(kind, (dict, list, tuple, _RecordColumns)) for kind in kinds):
            return None
        else:
            columns.append(map(_scalar, column))
    template = _object_template(keys, ("%s",) * len(keys), indent)
    return ",\n".join(map(template.__mod__, zip(*columns)))


def write_csv(rep: ScanReport, path: str) -> None:
    """Flat per-prime table for a scan report: its CSV_COLUMNS, as the body writes them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(zip(*(rep.columns[c].tolist() for c in CSV_COLUMNS)))
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
    except ValueError as exc:  # an integer literal past int()'s digit limit
        return [f"the report holds an integer that cannot be read: {exc}"]
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


_ABSENT = object()  # a key that a record lacks, told apart from a null


def _record_columns(records: list) -> tuple[dict[str, list], bool]:
    """The values of a scan's records key by key, _ABSENT where a record lacks the key, and
    whether every record is an object whose integers and decimal strings are well typed.

    Each field's type is checked over its whole column, by the set of its values' types
    and, for decimal strings, by their concatenation; a column that fails this may still
    be well typed (a negative decimal string), and _malformed_list then says.
    """
    rows = [r if isinstance(r, dict) else {} for r in records]
    columns = {k: list(map(dict.get, rows, itertools.repeat(k), itertools.repeat(_ABSENT)))
               for k in RECORD_KEYS}
    kinds = {k: set(map(type, columns[k])) for k in RECORD_KEYS[:7]}
    integers = all(kinds[k] <= {int, object} for k in RECORD_KEYS[:5])  # object: _ABSENT
    decimals = all(kinds[k] <= {str} and all(columns[k]) and "".join(columns[k]).isdecimal()
                   for k in ("lhs", "rhs"))
    return columns, set(map(type, records)) <= {dict} and integers and decimals


def _check_scan(payload: dict[str, Any]) -> list[str]:
    """Rebuild a scan report by the call scan makes, and list where it differs.

    A record is rebuilt with the report's own lhs where that is a residue of p and the
    record claims a match and agreeing routes; the recurrence runs for the window's
    other applicable primes, a claimed mismatch or disagreement included.  The records
    are read, checked and compared key by key, as columns.
    """
    records = payload.get("records", [])
    meta = payload.get("metadata", {})
    problems = (_malformed("metadata", meta, ints=("p_min", "p_max"), str_lists=("paths",))
                + _malformed("summary", payload.get("summary", {})))
    if not isinstance(records, list):
        return problems + ["records is not a list"]
    columns, well_typed = _record_columns(records)
    if not well_typed:
        problems += _malformed_list("records", records, "record", decimals=("lhs", "rhs"),
                                    ints=("p", "ord", "index", "lsym", "predicted_index"))
    if problems:
        return problems
    try:
        alpha = Fraction(meta.get("alpha", ""))
    except (TypeError, ValueError, ArithmeticError):
        return ["metadata.alpha unparsable"]
    # a string longer than str(p) is no residue, and could pass int()'s digit limit
    claims = zip(columns["p"], columns["lhs"], columns["match"], columns["paths_agree"])
    lhs = {p: value for p, x, match, agree in claims
           if match is True and agree is True and p is not _ABSENT and x is not _ABSENT
           and x.isdecimal() and len(x) <= len(str(p)) and (value := int(x)) < p}
    try:
        rep = scan_range(alpha, meta.get("p_min", 0), meta.get("p_max", 0),
                         frozenset(meta.get("paths", ())), lhs=lhs)
    except DomainError as exc:
        return [f"cannot rebuild: {exc}"]
    return (_compare_scan(payload, records, columns, rep)
            + [f"record {i}: the evaluation routes disagree"
               for i, agree in enumerate(columns["paths_agree"]) if agree is not True])


def _compare_scan(payload: dict[str, Any], records: list[dict], columns: dict[str, list],
                  rep: ScanReport) -> list[str]:
    """Where a scan report's body differs from its rebuild, as _compare lists it: each
    record matched on p, then the window's primes with no record, then every other
    object, then anything else at all.  Each key's values are compared with the
    rebuild's at once, by Python's != over numpy object arrays."""
    built_p, mine = rep.columns["p"].tolist(), columns["p"]
    row_of = dict(zip(built_p, range(len(built_p))))
    rows = np.fromiter(map(row_of.get, mine, itertools.repeat(-1)), np.intp, len(mine))
    hit = rows >= 0
    built = {k: rep.columns[k].astype(object) for k in RECORD_KEYS}
    for k in ("lhs", "rhs"):  # decimal strings in the body
        built[k] = rep.columns[k].astype(str).astype(object)
    differ = np.zeros((len(RECORD_KEYS), len(mine)), dtype=bool)
    for row, key in zip(differ, RECORD_KEYS):
        row[hit] = np.fromiter(columns[key], object, len(mine))[hit] != built[key][rows[hit]]
    sizes = np.fromiter(map(len, records), np.intp, len(records))
    problems = []
    for i in np.flatnonzero(~hit | differ.any(axis=0) | (sizes > len(RECORD_KEYS))).tolist():
        if not hit[i]:
            p = None if mine[i] is _ABSENT else mine[i]
            problems.append(f"record {i}: p={p} is not an applicable prime of the window")
            continue
        fields = [key for key, d in zip(RECORD_KEYS, differ[:, i]) if d]
        fields += [k for k, v in records[i].items() if k not in RECORD_KEYS and v is not None]
        if fields:
            problems.append(f"record {i} differs from the rebuild in {', '.join(fields)}")
    problems += [f"no record for p={p}, an applicable prime of the window"
                 for p in sorted(set(built_p).difference(mine))]
    head = _scan_head(rep)
    problems += filter(None, (_differing(name, payload.get(name, {}), value)
                              for name, value in head.items()
                              if isinstance(value, dict) and name != "run"))
    same = ("records" in payload and mine == built_p and (sizes == len(RECORD_KEYS)).all()
            and {**payload, "run": {}, "records": []} == {**head, "records": []})
    if not problems and not same:
        problems.append("the report differs from its rebuild")  # such as its records' order
    return problems


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
