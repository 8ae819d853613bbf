"""Traced runs: spans and counts around calls into each module of the program.

The tracer wraps public functions in place (every module attribute bound to
the original is rebound), from outside the program, so nested calls such as
``plan`` -> ``plan_bfs`` become child spans of their caller.  A span is
``[name, start, end, parent, query, busy]``; ``busy`` equals ``end - start``
except for generator spans, which are busy only while the generator runs.
A span's self time is its busy time minus its children's busy time, so the
self times of all spans of a query add up to the query's own span.

Functions called thousands of times per query (moves, validity checks,
boundary endpoints) are counted, not spanned; their time stays in the
caller's self time.  Nothing is recorded outside a query.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# (module, function, span name)
SPANS = (
    ("cli", "main", "cli.main"),
    ("complexes", "f_vector", "complexes.f_vector"),
    ("complexes", "valid_parts", "complexes.valid_parts"),
    ("counting", "two_one_cell_counts", "counting.closed_form"),
    ("counting", "uniform_cell_counts", "counting.closed_form"),
    ("counting", "wedge_count", "counting.closed_form"),
    ("skeleton", "build_one_skeleton", "skeleton.build"),
    ("skeleton", "component_labels", "skeleton.component_labels"),
    ("planner", "plan", "planner.plan"),
    ("planner", "plan_bfs", "planner.plan_bfs"),
    ("planner", "verify_plan", "planner.verify_plan"),
    ("planner", "format_plan", "planner.format_parse"),
    ("planner", "parse_plan", "planner.format_parse"),
    ("graphs", "shortest_path", "graphs.shortest_path"),
)
GENERATORS = (("complexes", "enumerate_cells", "complexes.enumerate_cells"),)
# (module, function, counter name)
COUNTED = (
    ("complexes", "is_valid_cell", "complexes.is_valid_cell_calls"),
    ("planner", "is_valid_move", "planner.moves_tried"),
    ("planner", "apply_move", "planner.successors"),
    ("skeleton", "boundary_endpoints", "skeleton.boundary_endpoints_calls"),
)
QUERY_SPAN = "bench.query"


def _after_hooks(counts: Counter):
    """Counts taken from a call's arguments or result, keyed by span name."""

    def cells_counted(args, result):
        counts["complexes.cells_counted"] += sum(result)

    def parts_generated(args, result):
        counts["complexes.parts_generated"] += len(result)

    def moves_replayed(args, result):
        counts["planner.moves_replayed"] += len(args[0].moves)

    def output_bytes(args, result):
        # cli.main runs with stdout captured in a fresh StringIO
        counts["cli.output_bytes"] += sys.stdout.tell()

    return {
        "complexes.f_vector": cells_counted,
        "complexes.valid_parts": parts_generated,
        "planner.verify_plan": moves_replayed,
        "cli.main": output_bytes,
    }


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.query: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        t = perf_counter()
        self.spans.append([name, t, t, parent, self.query, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, since: float) -> None:
        t = perf_counter()
        span = self.spans[idx]
        span[2] = t
        span[5] += t - since
        self.stack.pop()

    def begin_query(self, qid: int) -> int:
        self.query = qid
        return self.open(QUERY_SPAN)

    def end_query(self, idx: int) -> None:
        self.close(idx, self.spans[idx][1])
        self.query = None

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, fn, name: str, after):
        @wraps(fn)
        def traced(*args, **kwargs):
            if self.query is None:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx, self.spans[idx][1])
            if after is not None:
                after(args, result)
            return result

        return traced

    def _generator_wrapper(self, fn, name: str):
        tracer = self
        counts = self.counts

        class TracedGenerator:
            def __init__(self, gen):
                self.gen = gen
                self.idx = None

            def __iter__(self):
                return self

            def __next__(self):
                if tracer.query is None:
                    return next(self.gen)
                if self.idx is None:
                    self.idx = tracer.open(name)
                else:
                    tracer.stack.append(self.idx)
                since = perf_counter()
                try:
                    item = next(self.gen)
                finally:
                    tracer.close(self.idx, since)
                counts["complexes.cells_enumerated"] += 1
                return item

        @wraps(fn)
        def traced(*args, **kwargs):
            return TracedGenerator(fn(*args, **kwargs))

        return traced

    def _counting_wrapper(self, fn, name: str):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            if self.query is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, sc) -> None:
        """Rebind every module attribute that refers to a traced function."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == sc.__name__]
        hooks = _after_hooks(self.counts)
        for module_name, fn_name, name in SPANS + GENERATORS + COUNTED:
            original = getattr(getattr(sc, module_name), fn_name)
            if (module_name, fn_name, name) in GENERATORS:
                wrapper = self._generator_wrapper(original, name)
            elif (module_name, fn_name, name) in COUNTED:
                wrapper = self._counting_wrapper(original, name)
            else:
                wrapper = self._span_wrapper(original, name, hooks.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- analysis ---------------------------------------------------------
    def self_times(self) -> list[float]:
        own = [span[5] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[5]
        return own

    def layer_metrics(self, queries: int) -> dict[str, float]:
        """Per-layer metrics, each averaged per query over the traced queries."""
        own = self.self_times()
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx, span in enumerate(self.spans):
            self_s[span[0]] += own[idx]
            calls[span[0]] += 1
        fallbacks = self.fallback_spans()
        c = self.counts
        tried = c["planner.moves_tried"]
        values = {
            "graphs.shortest_path_calls": calls["graphs.shortest_path"],
            "graphs.shortest_path_s": self_s["graphs.shortest_path"],
            "complexes.valid_parts_s": self_s["complexes.valid_parts"],
            "complexes.parts_generated": c["complexes.parts_generated"],
            "complexes.f_vector_self_s": self_s["complexes.f_vector"],
            "complexes.cells_counted": c["complexes.cells_counted"],
            "complexes.enumerate_cells_self_s": self_s["complexes.enumerate_cells"],
            "complexes.cells_enumerated": c["complexes.cells_enumerated"],
            "complexes.is_valid_cell_calls": c["complexes.is_valid_cell_calls"],
            "counting.closed_form_s": self_s["counting.closed_form"],
            "skeleton.build_self_s": self_s["skeleton.build"],
            "skeleton.boundary_endpoints_calls": c["skeleton.boundary_endpoints_calls"],
            "skeleton.component_labels_s": self_s["skeleton.component_labels"],
            "planner.plan_self_s": self_s["planner.plan"],
            "planner.fallbacks": len(fallbacks),
            "planner.fallback_s": sum(self.spans[idx][5] for idx in fallbacks),
            "planner.plan_bfs_s": self_s["planner.plan_bfs"],
            "planner.moves_tried": tried,
            "planner.successors": c["planner.successors"],
            "planner.verify_plan_s": self_s["planner.verify_plan"],
            "planner.moves_replayed": c["planner.moves_replayed"],
            "planner.format_parse_s": self_s["planner.format_parse"],
            "cli.main_self_s": self_s["cli.main"],
            "cli.output_bytes": c["cli.output_bytes"],
            "bench.query_self_s": self_s[QUERY_SPAN],
        }
        out = {key: value / queries for key, value in values.items()}
        out["planner.successor_yield"] = c["planner.successors"] / tried if tried else 0.0
        return out

    def fallback_spans(self) -> list[int]:
        """The plan_bfs spans that ran inside plan (the planner's fallback)."""
        out = []
        for idx, span in enumerate(self.spans):
            parent = span[3] if span[0] == "planner.plan_bfs" else -1
            while parent >= 0 and self.spans[parent][0] != "planner.plan":
                parent = self.spans[parent][3]
            if parent >= 0:
                out.append(idx)
        return out
