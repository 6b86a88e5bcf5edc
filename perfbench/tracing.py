"""Outside-in tracing: rebind majorityrank's public functions to span recorders.

Each traced function is replaced in every ``majorityrank`` module namespace
(and module-level dispatch dict) that refers to it, so nested calls such as
``stationary`` inside ``markovian_ranking`` or ``pair_stats`` inside
``rankings_majority`` are caught.  Spans (name, start, end, parent, pass id)
are kept in memory and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    pass_id: int


def has_cycle(adj: np.ndarray) -> bool:
    """A digraph on n nodes has a cycle iff it has a walk of n arcs.

    The benchmark keeps this test of its own: the library's is private and
    may change, while the cyclic ratio must mean the same on every tree.
    Walk counts are sums of non-negative terms, so float64 rounding cannot
    turn a nonzero count into zero.
    """
    return bool(np.linalg.matrix_power(adj.astype(np.float64), len(adj)).any())


def _sort_name(args, kwargs) -> str:
    kind = kwargs.get("kind", args[1] if len(args) > 1 else "")
    return f"solutions.{str(kind).lower()}_sort"


def _on_sort(rec: "Recorder", args, kwargs, result) -> None:
    rec.count(f"{_sort_name(args, kwargs)}_classes", len(result.classes))


def _on_build(rec: "Recorder", args, kwargs, result) -> None:
    rec.maximum("majority.m", len(result))


def _on_leagues(rec: "Recorder", args, kwargs, result) -> None:
    sizes = [len(league) for league in result.leagues]
    rec.maximum("markovian.league_max", max(sizes))
    if rec.parent_name() == "markovian.ranking":
        # markovian_ranking solves one stationary vector per league of two or more
        rec.count("markovian.expected_stationary_calls", sum(1 for s in sizes if s >= 2))


def _on_markovian(rec: "Recorder", args, kwargs, result) -> None:
    positions = defaultdict(int)
    for rank in result.ranks.values():
        positions[rank] += 1
    rec.count("markovian.tied_positions", sum(1 for n in positions.values() if n >= 2))


def _on_pair_stats(rec: "Recorder", args, kwargs, result) -> None:
    rec.count("correlation.pairs_compared", result.total)


def _on_weak_order(rec: "Recorder", args, kwargs, result) -> None:
    comparison = args[0] if args else kwargs["mc"]
    rec.count("metarank.weak_orders", 1)
    if has_cycle(comparison.majority):
        rec.count("metarank.cyclic", 1)
        rec.count("metarank.dp_states", 2 ** len(comparison.candidates))


PACKAGE = "majorityrank"

# (module, function, span name or namer, counter hook)
TRACED: tuple[tuple[str, str, str | Callable, Callable | None], ...] = (
    ("cli", "cmd_reproduce", "cli.reproduce", None),
    ("cli", "cmd_rank", "cli.rank", None),
    ("cli", "cmd_analyze", "cli.analyze", None),
    ("cli", "cmd_correlate", "cli.correlate", None),
    ("cli", "cmd_metarank", "cli.metarank", None),
    ("io", "run_reproduce", "io.run_reproduce", None),
    ("io", "load_ranks", "io.load", None),
    ("io", "load_weights", "io.load", None),
    ("io", "save_ranking", "io.write", None),
    ("io", "write_labeled_matrix", "io.write", None),
    ("core", "from_scores", "core.from_scores", None),
    ("majority", "build_majority", "majority.build", _on_build),
    ("majority", "count_cycles", "majority.count_cycles", None),
    ("copeland", "copeland_ranking", "copeland.ranking", None),
    ("solutions", "sort_by_solution", _sort_name, _on_sort),
    ("solutions", "uncovered_set", "solutions.uc", None),
    ("solutions", "mes_union", "solutions.mes", None),
    ("solutions", "weak_top_cycle", "solutions.wtc", None),
    ("markovian", "leagues", "markovian.leagues", _on_leagues),
    ("markovian", "stationary", "markovian.stationary", None),
    ("markovian", "markovian_ranking", "markovian.ranking", _on_markovian),
    ("correlation", "pair_stats", "correlation.pair_stats", _on_pair_stats),
    ("correlation", "correlation_matrix", "correlation.matrix", None),
    ("metarank", "rankings_majority", "metarank.rankings_majority", None),
    ("metarank", "closest_weak_order", "metarank.closest_weak_order", _on_weak_order),
    ("metarank", "optimal_order_count", "metarank.optimal_order_count", None),
    ("cip", "cip_ranking", "cip.ranking", None),
)

SPAN_NAMES = tuple(sorted({
    name for _, _, name, _ in TRACED if isinstance(name, str)
} | {"solutions.uc_sort", "solutions.mes_sort", "solutions.wtc_sort"}))

# Spans that stand for one round of a sort: only their call count is reported.
ROUND_SPANS = {
    "solutions.uc": "solutions.uc_rounds",
    "solutions.mes": "solutions.mes_rounds",
    "solutions.wtc": "solutions.wtc_rounds",
}
COUNTERS = {  # reported counter -> unit
    "majority.m": "count",
    "markovian.league_max": "count",
    "markovian.tied_positions": "count",
    "correlation.pairs_compared": "count",
    "metarank.weak_orders": "count",
    "metarank.cyclic_ratio": "ratio",
    "metarank.dp_states": "count",
}


class Recorder:
    """In-memory span and counter store for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.pass_id = 0
        self._stack: list[tuple[int, str]] = []

    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller of a span just closed)."""
        return self._stack[-1][1] if self._stack else None

    def count(self, name: str, amount: float) -> None:
        self.counters[self.pass_id][name] += amount

    def maximum(self, name: str, value: float) -> None:
        bucket = self.counters[self.pass_id]
        bucket[name] = max(bucket[name], value)

    def wrap(self, func: Callable, name: str | Callable, hook: Callable | None) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)  # placeholder keeps parents before children
            self._stack.append((index, label))
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(label, start, end, parent, self.pass_id)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.pass_id] for s in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "pass_id"], "spans": rows}))


@contextmanager
def rebound(recorder: Recorder):
    """Replace every reference to each traced function, restoring all on exit."""
    modules = [mod for key, mod in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
    undo: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, name, hook in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = recorder.wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if key.startswith("__"):
                        continue
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                undo.append((value, dkey, original))
                                value[dkey] = wrapper
        yield recorder
    finally:
        for target, key, original in reversed(undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - _covered(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


def layer_totals(spans: list[Span]) -> dict[int, dict[str, dict[str, float]]]:
    """Per pass and span name: inclusive seconds, self seconds and call count.

    Inclusive time counts only the outermost span of a name, so a function
    that re-enters itself is not counted twice.
    """
    own = self_times(spans)
    totals: dict[int, dict[str, dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: {"incl": 0.0, "self": 0.0, "calls": 0})
    )
    for i, span in enumerate(spans):
        entry = totals[span.pass_id][span.name]
        entry["calls"] += 1
        entry["self"] += own[i]
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            entry["incl"] += span.end - span.start
    return totals


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    names: dict[str, str] = {}
    for span in SPAN_NAMES:
        if span in ROUND_SPANS:
            names[ROUND_SPANS[span]] = "count"
        else:
            names.update({f"{span}_ms": "ms", f"{span}_self_ms": "ms", f"{span}_calls": "count"})
    names.update(COUNTERS)
    names["trace.overhead_s"] = "s"
    return names


def layer_metrics(recorder: Recorder, traced_ids: list[int]) -> tuple[dict[str, float], list[tuple]]:
    """Median over traced passes of each layer's ms, calls and counters.

    Also returns the traced call counts that disagree with counts derived
    from outputs, as (pass id, metric, traced, derived): one stationary
    solve per league of two or more in each Markov ranking, one solver
    round per class of each sort.
    """
    totals = layer_totals(recorder.spans)
    rows, mismatches = [], []
    for pid in traced_ids:
        row: dict[str, float] = {}
        for span in SPAN_NAMES:
            entry = totals[pid].get(span, {"incl": 0.0, "self": 0.0, "calls": 0})
            if span in ROUND_SPANS:
                row[ROUND_SPANS[span]] = entry["calls"]
                continue
            row[f"{span}_ms"] = entry["incl"] * 1000.0
            row[f"{span}_self_ms"] = entry["self"] * 1000.0
            row[f"{span}_calls"] = entry["calls"]
        counters = recorder.counters[pid]
        for name in COUNTERS:
            row[name] = counters.get(name, 0)
        orders = counters.get("metarank.weak_orders", 0)
        row["metarank.cyclic_ratio"] = counters.get("metarank.cyclic", 0) / orders if orders else 0.0
        rows.append(row)

        derived = {"markovian.stationary_calls": counters.get("markovian.expected_stationary_calls", 0)}
        for kind in ("uc", "mes", "wtc"):
            derived[f"solutions.{kind}_rounds"] = counters.get(f"solutions.{kind}_sort_classes", 0)
        mismatches += [(pid, name, row.get(name, 0), want) for name, want in derived.items()
                       if row.get(name, 0) != want]
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}, mismatches
