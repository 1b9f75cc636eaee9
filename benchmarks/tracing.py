"""Spans around the program's public functions, recorded from outside.

``install`` replaces each function in ``TRACED`` with a wrapper in every
``wnocpower`` module that holds it, so calls between modules are traced
too; the program's source is not touched. A span is (name, start, end,
parent). Closing a span also folds it into per-name aggregates (count,
total time, self time, summed attributes), so memory stays bounded: raw
spans are kept only up to ``MAX_SPANS`` per process and written, with
the aggregates, when the process ends.

Self time is a span's duration minus the durations of its direct
children. A parent's aggregate also counts its direct children by name
and sums their attributes, which is how "breakdowns per recommend call"
is measured where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from pathlib import Path

MAX_SPANS = 20_000


def _strategy_family(args, kwargs, result):
    strategy = args[1] if len(args) > 1 else kwargs.get("strategy")
    tag = getattr(strategy, "tag", "pareto-upper")
    return tag.split(":")[0], {"n_in": len(args[0]), "n_out": len(result)}


def _admissible(args, kwargs, result):
    return None, {"admissible": 0 if result.any_extrapolated else 1}


# (module, function, describe(args, kwargs, result) -> (key, attributes))
TRACED = (
    ("survey", "parse_survey_csv", lambda a, k, r: (None, {"rows": len(r)})),
    ("survey", "best_in_class", _strategy_family),
    ("survey", "dataset_digest", None),
    ("regression", "fit_exponential", lambda a, k, r: (None, {"points": len(a[0])})),
    ("regression", "save_model", None),
    ("regression", "load_model", None),
    ("blocks", "pa_dc_power", None),
    ("blocks", "osc_dc_power", None),
    ("blocks", "mixer_dc_power", None),
    ("chain", "chain_breakdown", _admissible),
    ("chain", "sweep", lambda a, k, r: (None, {"points": len(r)})),
    ("chain", "breakdowns_to_csv", lambda a, k, r: (None, {"rows": len(a[0]), "bytes": len(r)})),
    ("chain", "recommend_frequency", None),
    ("exampledata", "fit_bundle", None),
    ("exampledata", "validate_bundle", None),
)


class Recorder:
    """Open-span stack, bounded raw span list and per-name aggregates."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.dropped = 0
        self.aggregates: dict[str, dict] = {}
        self._stack: list[list] = []  # [index, name, start_ns, child_ns, child_sums]
        self._patched: list[tuple] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        index = -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append([name, 0, 0, parent])
        else:
            self.dropped += 1
        self._stack.append([index, name, time.perf_counter_ns(), 0, {}])

    def close(self, key: str | None, attrs: dict) -> None:
        """Close the innermost open span."""
        end = time.perf_counter_ns()
        index, name, start, child_ns, child_sums = self._stack.pop()
        duration = end - start
        if index >= 0:
            self.spans[index][1:3] = [start, end]
        agg_name = name if key is None else f"{name}:{key}"
        agg = self.aggregates.setdefault(agg_name, {"count": 0, "total_ns": 0, "self_ns": 0, "sums": {}})
        agg["count"] += 1
        agg["total_ns"] += duration
        agg["self_ns"] += duration - child_ns
        for attr, value in list(attrs.items()) + list(child_sums.items()):
            agg["sums"][attr] = agg["sums"].get(attr, 0) + value
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            sums = parent[4]
            sums[f"n:{name}"] = sums.get(f"n:{name}", 0) + 1
            for attr, value in attrs.items():
                sums[f"{name}.{attr}"] = sums.get(f"{name}.{attr}", 0) + value

    @contextlib.contextmanager
    def span(self, name: str, key: str | None = None):
        self.open(name)
        try:
            yield
        finally:
            self.close(key, {})

    def _wrap(self, name: str, fn, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(None, {"error": 1})
                raise
            key, attrs = describe(args, kwargs, result) if describe else (None, {})
            self.close(key, attrs)
            return result
        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever a wnocpower module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "wnocpower" or n.startswith("wnocpower."))]
        for mod_name, fn_name, describe in TRACED:
            original = getattr(importlib.import_module(f"wnocpower.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, describe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        Path(path).write_text(json.dumps({
            "spans": self.spans, "dropped": self.dropped, "aggregates": self.aggregates,
        }), encoding="utf-8")


def merge(total: dict, aggregates: dict) -> None:
    """Add one process's aggregates into ``total``."""
    for name, agg in aggregates.items():
        into = total.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0, "sums": {}})
        for field in ("count", "total_ns", "self_ns"):
            into[field] += agg[field]
        for attr, value in agg["sums"].items():
            into["sums"][attr] = into["sums"].get(attr, 0) + value
