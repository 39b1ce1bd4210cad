"""Per-layer spans around calls into qfibcong, recorded from outside the program.

`Tracer.install` replaces each target function with a timing wrapper in
every qfibcong module that bound the name, since `from x import f` copies
the binding.  Spans (layer, start, end, parent) are kept in flat arrays
and written out once, when the run ends.  A layer's self time is its
span time minus the time of its child spans, so the self times of one
round add up to the time spent under the root spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import statistics
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (module, name, layer).  A layer of None counts calls without a span.
TARGETS = (
    ("modarith", "primes_upto", "modarith.sieve"),
    ("modarith", "factorize", "modarith.factorize"),
    ("modarith", "is_prime", None),
    ("congruence", "residual_data", "congruence.residual"),
    ("congruence", "qfib_mod_proposition", "congruence.proposition"),
    ("congruence", "scan_range", "congruence.pool"),
    ("congruence", "split_chunks", None),
    ("qfib", "qfib_mod_recurrence_many", "qfib.recurrence"),
    ("qfib", "qfib_mod_andrews", "qfib.andrews"),
    ("qfib", "fib_mod", "qfib.fib_mod"),
    ("qanalogue", "_context", "qanalogue.context"),
    ("stats", "occurrence_histogram", "stats.histogram_self"),
    ("density", "delta_truncated", "density.delta"),
    ("density", "v_count", "density.v_count"),
    ("report", "scan_report_dict", "report.serialize"),
    ("report", "stats_report_dict", "report.serialize"),
    ("report", "density_report_dict", "report.serialize"),
    ("report", "write_json", "report.serialize"),
    ("report", "check_report", "report.check"),
)

ROOT = "cli.self"
LAYERS = tuple(dict.fromkeys([layer for _, _, layer in TARGETS if layer] + [ROOT]))

# Per-layer metrics besides the `<layer>_s` self times, with their units.
COUNT_METRICS = {
    "modarith.sieve_cache_hits": "count",
    "modarith.is_prime_calls": "count",
    "modarith.is_prime_per_prime": "ratio",
    "congruence.residual_calls": "count",
    "congruence.chunk_imbalance": "ratio",
    "qfib.element_steps_per_s": "1/s",
    "qfib.recurrence_batch_mean": "count",
    "qanalogue.context_cache_hits": "count",
    "qanalogue.context_cache_misses": "count",
    "report.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.not_traced": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    return {**{f"{layer}_s": "s" for layer in LAYERS}, **COUNT_METRICS}


class Tracer:
    """Span store and wrapper factory for one traced benchmark process."""

    def __init__(self):
        self.layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.enabled = True
        self.not_traced: list[str] = []
        self.rounds: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        # forked pool workers inherit the wrappers but not the span store
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    @contextmanager
    def span(self, layer: str):
        i = self._open(self.layer_ids[layer])
        try:
            yield
        finally:
            self._close(i)

    def _open(self, lid: int) -> int:
        i = len(self.start)
        self.layer.append(lid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, layer: str | None, hook):
        tracer = self
        if layer is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.enabled:
                    hook(args, result)
                return result
            return counted
        lid = self.layer_ids[layer]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            i = tracer._open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if hook is not None:
                hook(args, result)
            return result
        return timed

    def install(self, targets=TARGETS) -> "Tracer":
        """Wrap every target that exists; note the others as not traced."""
        import qfibcong  # noqa: F401  (loads every module that binds a target)

        modules = [m for name, m in list(sys.modules.items())
                   if name == "qfibcong" or name.startswith("qfibcong.")]
        for module, name, layer in targets:
            owner = sys.modules.get(f"qfibcong.{module}")
            fn = getattr(owner, name, None)
            if fn is None:
                self.not_traced.append(f"{module}.{name}")
                print(f"perfbench: not traced: qfibcong.{module}.{name}", file=sys.stderr)
                continue
            self._originals[name] = fn
            wrapper = self._wrap(fn, layer, self._hook(name, fn))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patched.append((m, attr, fn))
                        setattr(m, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def _hook(self, name: str, fn):
        counts = self.counts
        if name == "is_prime":
            def hook(args, result):
                counts["is_prime_calls"] += 1
        elif name == "residual_data":
            def hook(args, result):
                counts["residual_calls"] += 1
        elif name == "primes_upto":
            seen = [fn.cache_info().misses]

            def hook(args, result):
                misses = fn.cache_info().misses
                if misses != seen[0]:
                    counts["sieved_primes"] += len(result)
                    seen[0] = misses
        elif name == "split_chunks":
            def hook(args, result):
                loads = [sum(chunk) for chunk in result]
                mean = sum(loads) / len(loads)
                if mean:
                    counts["chunk_imbalance"] = max(counts["chunk_imbalance"], max(loads) / mean)
        elif name == "qfib_mod_recurrence_many":
            def hook(args, result):
                counts["recurrence_calls"] += 1
                counts["recurrence_primes"] += len(args[0])
                counts["element_steps"] += sum(args[0]) - len(args[0])
        elif name == "write_json":
            def hook(args, result):
                counts["bytes_written"] += os.path.getsize(args[1])
        else:
            hook = None
        return hook

    def _cache_counts(self) -> Counter:
        out = Counter(self.counts)
        for name, key in (("primes_upto", "sieve"), ("_context", "context")):
            fn = self._originals.get(name)
            if fn is not None:
                info = fn.cache_info()
                out[f"{key}_hits"] = info.hits
                out[f"{key}_misses"] = info.misses
        return out

    @contextmanager
    def round(self):
        """Bracket one benchmark round: its span range and count deltas."""
        self.counts["chunk_imbalance"] = 0
        before = self._cache_counts()
        first = len(self.start)
        yield
        after = self._cache_counts()
        delta = {k: after[k] - before.get(k, 0) for k in after}
        delta["chunk_imbalance"] = after["chunk_imbalance"]
        self.rounds.append({"spans": (first, len(self.start)), "counts": delta})

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Seconds of self time per layer over spans [first, last)."""
        child = [0] * (last - first)
        for i in range(first, last):
            j = self.parent[i]
            if j >= first:
                child[j - first] += self.end[i] - self.start[i]
        total = [0] * len(LAYERS)
        for i in range(first, last):
            total[self.layer[i]] += self.end[i] - self.start[i] - child[i - first]
        return {layer: total[k] / 1e9 for k, layer in enumerate(LAYERS)}

    def metrics(self, walls: list[float]) -> dict[str, dict]:
        """Per-layer metrics: medians of per-round self times, per-round counts, ratios.

        `walls` are the benchmark's round times, measured as for wall_s.
        """
        n = len(self.rounds)
        selfs = [self.self_times(*r["spans"]) for r in self.rounds]
        total = Counter()
        for r in self.rounds:
            total.update({k: v for k, v in r["counts"].items() if k != "chunk_imbalance"})
        recurrence_s = sum(s["qfib.recurrence"] for s in selfs)
        values = {f"{layer}_s": statistics.median(s[layer] for s in selfs) for layer in LAYERS}
        values.update({
            "modarith.sieve_cache_hits": total["sieve_hits"] / n,
            "modarith.is_prime_calls": total["is_prime_calls"] / n,
            "modarith.is_prime_per_prime": (total["is_prime_calls"] / total["sieved_primes"]
                                            if total["sieved_primes"] else 0.0),
            "congruence.residual_calls": total["residual_calls"] / n,
            "congruence.chunk_imbalance": max(r["counts"]["chunk_imbalance"] for r in self.rounds),
            "qfib.element_steps_per_s": total["element_steps"] / recurrence_s if recurrence_s else 0.0,
            "qfib.recurrence_batch_mean": (total["recurrence_primes"] / total["recurrence_calls"]
                                           if total["recurrence_calls"] else 0.0),
            "qanalogue.context_cache_hits": total["context_hits"] / n,
            "qanalogue.context_cache_misses": total["context_misses"] / n,
            "report.bytes_written": total["bytes_written"] / n,
            "trace.wall_s": statistics.median(walls),
            "trace.not_traced": len(self.not_traced),
        })
        return {name: {"value": values[name], "unit": unit} for name, unit in metric_units().items()}

    def write(self, path: str) -> None:
        """Write every span and round to a gzipped JSON file."""
        payload = {
            "layers": list(LAYERS),
            "not_traced": self.not_traced,
            "rounds": self.rounds,
            "spans": {"layer": self.layer.tolist(), "parent": self.parent.tolist(),
                      "start_ns": self.start.tolist(), "end_ns": self.end.tolist()},
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)
