"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` replaces each public layer function, under the module
attribute its caller looks it up by, with a wrapper that opens a span
around the call and derives counts from the return value. Spans nest on
a per-thread stack, so each span knows its parent and a layer's self
time is its duration minus that of its child spans. Durations are the
CPU time of the calling thread: decomposition runs in a thread pool,
and with the interpreter lock two threads' wall-clock spans overlap.
Counting work done after a call is charged to a span of its own
(`trace.count`) so it lands in no layer. `Tracer.remove` puts every
original back.

A hook whose target no longer exists is listed in `missing`; its
metrics read 0.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

clock = time.thread_time

# Span name -> per-layer time metric (self time, summed).
TIME_METRICS = {
    "model.load": "model.load_s",
    "formula.parse": "formula.parse_s",
    "formula.refs": "formula.refs_s",
    "vectors": "vectors.self_s",
    "grid.build": "grid.build_s",
    "entropy.delimiter": "entropy.delimiter_s",
    "entropy.tree": "entropy.tree_s",
    "entropy.coalesce": "entropy.coalesce_s",
    "fixes.candidates": "fixes.candidates_s",
    "fixes.screen": "fixes.screen_s",
    "fixes.delta": "fixes.delta_s",
    "fixes.distance": "fixes.distance_s",
    "fixes.rank": "fixes.rank_s",
    "report.render": "report.render_s",
    "pipeline": "pipeline.other_s",
}

COUNT_METRICS = (
    "model.cells",
    "formula.formulas",
    "formula.refs",
    "vectors.fingerprints",
    "vectors.downgraded",
    "grid.counts_in_calls",
    "entropy.pieces",
    "entropy.tree_nodes",
    "entropy.tree_depth",
    "entropy.leaves",
    "entropy.regions",
    "fixes.candidates",
    "fixes.rejected_c1",
    "fixes.rejected_c2",
    "fixes.rejected_c3",
    "fixes.no_drop",
    "fixes.emitted",
    "fixes.flagged_cells",
)


def _tree_shape(tree) -> tuple[int, int, int]:
    """(nodes, leaves, depth) of an entropy tree; a lone leaf has depth 0."""
    nodes = leaves = depth = 0
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if hasattr(node, "low"):
            stack.append((node.low, d + 1))
            stack.append((node.high, d + 1))
        else:
            leaves += 1
    return nodes, leaves, depth


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list = []  # open spans: [name, start, time covered by children]
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.depth = 0


class Tracer:
    def __init__(self) -> None:
        self.missing: list[str] = []
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._installed: list[tuple[Any, str, Any]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span; returns its result."""
        state = self._state()
        stack = state.stack
        entry = [name, clock(), 0.0]
        stack.append(entry)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - entry[1]
            stack.pop()
            state.self_time[name] += duration - entry[2]
            if stack:
                stack[-1][2] += duration

    def add_cells(self, workbook: Any) -> None:
        self._state().counts["model.cells"] += sum(len(s.cells) for s in workbook.sheets)

    # -- hooks -------------------------------------------------------------

    def _wrap(self, label: str, owner: Any, attr: str, name: str,
              counter: Optional[Callable[[Any], dict]]) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.span(name, original, *args, **kwargs)
            if counter is not None:
                tracer.span("trace.count", tracer._count, counter, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def _count(self, counter: Callable[[Any], dict], result: Any) -> None:
        state = self._state()
        for key, n in counter(result).items():
            if key == "entropy.tree_depth":
                state.depth = max(state.depth, n)
            else:
                state.counts[key] += n

    def _wrap_counts_in(self, grid_class: Any) -> None:
        # Called hundreds of thousands of times from the tree search: a
        # per-thread tally only, no span, so its time stays in its caller.
        original = getattr(grid_class, "counts_in", None)
        if original is None:
            self.missing.append("grid.FingerprintGrid.counts_in")
            return
        tracer = self

        def counts_in(grid, rect):
            tracer._state().counts["grid.counts_in_calls"] += 1
            return original(grid, rect)

        counts_in.__wrapped__ = original
        setattr(grid_class, "counts_in", counts_in)
        self._installed.append((grid_class, "counts_in", original))

    def install(self) -> None:
        """Wrap each layer function where its caller looks it up."""
        mod = importlib.import_module
        vectors, pipeline = mod("gridlint.vectors"), mod("gridlint.pipeline")
        entropy, fixes = mod("gridlint.entropy"), mod("gridlint.fixes")
        report, grid = mod("gridlint.report"), mod("gridlint.grid")

        def tree_counts(tree):
            nodes, leaves, depth = _tree_shape(tree)
            return {"entropy.tree_nodes": nodes, "entropy.leaves": leaves, "entropy.tree_depth": depth}

        def table_counts(table):
            return {"vectors.fingerprints": len(set(table.fingerprints.values())),
                    "vectors.downgraded": len(table.diagnostics)}

        def rank_counts(kept):
            return {"fixes.emitted": len(kept),
                    "fixes.flagged_cells": sum(len(f.source_cells) for f in kept)}

        hooks = [
            ("vectors.parse_formula", vectors, "formula.parse", lambda r: {"formula.formulas": 1}),
            ("vectors.references", vectors, "formula.refs", lambda r: {"formula.refs": len(r)}),
            ("pipeline.analyze_sheet_vectors", pipeline, "vectors", table_counts),
            ("pipeline.grid_from_table", pipeline, "grid.build", None),
            ("entropy.delimiter_splits", entropy, "entropy.delimiter", lambda r: {"entropy.pieces": len(r)}),
            ("entropy.entropy_tree", entropy, "entropy.tree", tree_counts),
            ("entropy.coalesce", entropy, "entropy.coalesce", lambda r: {"entropy.regions": len(r)}),
            ("fixes.candidate_fixes", fixes, "fixes.candidates", lambda r: {"fixes.candidates": len(r)}),
            ("fixes.admissible", fixes, "fixes.screen", lambda r: {f"fixes.rejected_{r.lower()}": 1} if r else {}),
            ("fixes.entropy_delta", fixes, "fixes.delta", lambda r: {"fixes.no_drop": int(r >= 0)}),
            ("fixes.fix_distance", fixes, "fixes.distance", None),
            ("fixes.rank_and_cut", fixes, "fixes.rank", rank_counts),
            ("report.audit_json", report, "report.render", None),
        ]
        for label, owner, name, counter in hooks:
            self._wrap(label, owner, label.rsplit(".", 1)[1], name, counter)
        self._wrap_counts_in(getattr(grid, "FingerprintGrid", None))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics summed over every thread that recorded any."""
        self_time: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        depth = 0
        for state in self._threads:
            for name, t in state.self_time.items():
                self_time[name] += t
            for name, n in state.counts.items():
                counts[name] += n
            depth = max(depth, state.depth)
        counts["entropy.tree_depth"] = depth
        out: dict[str, float] = {metric: self_time[span] for span, metric in TIME_METRICS.items()}
        out.update({metric: counts[metric] for metric in COUNT_METRICS})
        return out
