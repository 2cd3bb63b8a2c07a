"""Span tracing for the benchmark's traced run.

The tracer wraps mapcoach's public functions from the outside: every module
namespace that holds a reference to a target function gets a wrapper that
records one span per call (name, start, end, parent span, request id), and
methods are wrapped on their class.  Spans stay in memory in flat arrays and
are written once, when the run ends.  Nothing under ``src/`` changes.

The request id of a span is the student id where the call names a student
(a profile, an event, an annotated log, a log file named after the student),
and is otherwise inherited from the parent span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import os
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

NO_PARENT = -1


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Each span's duration minus the part of its interval covered by its
    children (the union of their intervals, clipped to the parent)."""
    n = len(starts)
    covered = [0.0] * n
    covered_until = [float("-inf")] * n
    for i in sorted(range(n), key=starts.__getitem__):
        p = parents[i]
        if p == NO_PARENT:
            continue
        lo = max(starts[i], starts[p], covered_until[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            covered_until[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


class Tracer:
    """In-memory span store plus the counters recorded at the same
    boundaries (deliveries, events, bytes, distinct quiz inputs, ...)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.requests: list[str] = [""]
        self._request_ids: dict[str, int] = {"": 0}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.graded: set = set()
        self.quiz_inputs: set = set()
        self.tested: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def request_id(self, request: Optional[str]) -> int:
        if request is None:
            return self.request[self._stack[-1]] if self._stack else 0
        if request not in self._request_ids:
            self._request_ids[request] = len(self.requests)
            self.requests.append(request)
        return self._request_ids[request]

    def open(self, name_id: int, request: Optional[str] = None) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.request.append(self.request_id(request))
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None):
        idx = self.open(self.name_id(name), request)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key: str, amount: float = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def write(self, path: Path):
        """Write every span as one tab-separated line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tparent\trequest\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{self.requests[self.request[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )


def map_key(cmap) -> tuple:
    return (frozenset(cmap.concepts.values()), frozenset(cmap.links.values()))


# -- counters recorded after a wrapped call returns ------------------------------


def _after_grade(tr: Tracer, args, kwargs, result):
    student_map, questions = args[0], args[1]
    key = (tr.request[tr._stack[-1]] if tr._stack else 0, map_key(student_map), tuple(questions))
    if key in tr.graded:
        tr.count("causal.grade_quiz.repeats")
    tr.graded.add(key)


def _after_generate(tr: Tracer, args, kwargs, result):
    scope = args[1] if len(args) > 1 else kwargs.get("scope")
    key = (map_key(args[0].map), scope.display())
    if key not in tr.quiz_inputs:
        tr.count("causal.generate_quiz.distinct")
    tr.quiz_inputs.add(key)


def _after_contains(tr: Tracer, args, kwargs, result):
    pattern = tuple(args[1])
    if len(pattern) >= 2:
        tr.tested.add(pattern)


def _after_mine(tr: Tracer, args, kwargs, result):
    tr.count("mining.kept", len(result))
    tr.count("mining.tested", len(tr.tested))
    tr.tested.clear()


def _after_deliveries(tr: Tracer, args, kwargs, result):
    tr.count("engine.deliveries", len(result))


def _after_session(tr: Tracer, args, kwargs, result):
    tr.count("simulate.events", len(result.events))


def _after_read_jsonl(tr: Tracer, args, kwargs, result):
    tr.count("logio.read.records", len(result))
    tr.count("logio.read.bytes", os.path.getsize(args[0]))


def _after_read_document(tr: Tracer, args, kwargs, result):
    tr.count("logio.read.records", 1)
    tr.count("logio.read.bytes", os.path.getsize(args[0]))


def _after_write(tr: Tracer, args, kwargs, result):
    tr.count("logio.write.bytes", os.path.getsize(args[1]))


def _file_student(path_arg: int) -> Callable:
    return lambda args, kwargs: Path(args[path_arg]).stem


def _verify_student(args, kwargs):
    return args[0][0].base.student_id if args[0] else None


# (module, attribute, span name, request-id function, counter hook)
TARGETS = [
    ("mapcoach.causal", "grade_quiz", "causal.grade_quiz", None, _after_grade),
    ("mapcoach.causal", "answer_query", "causal.answer_query", None, None),
    ("mapcoach.causal", "generate_quiz", "causal.generate_quiz", None, _after_generate),
    ("mapcoach.causal", "classify_link", "causal.classify_link", None, None),
    ("mapcoach.causal", "map_score", "causal.map_score", None, None),
    ("mapcoach.annotate", "SessionAnnotator.feed", "annotate.feed",
     lambda a, k: a[1].student_id, None),
    ("mapcoach.annotate", "apply_edit", "annotate.apply_edit", None, None),
    ("mapcoach.annotate", "tag_coherence", "annotate.tag_coherence", None, None),
    ("mapcoach.annotate", "collapse", "annotate.collapse", None, None),
    ("mapcoach.engine", "ScaffoldEngine.observe", "engine.observe",
     lambda a, k: a[0].student_id, _after_deliveries),
    ("mapcoach.engine", "ScaffoldEngine.finalize", "engine.finalize",
     lambda a, k: a[0].student_id, _after_deliveries),
    ("mapcoach.simulate", "simulate_session", "simulate.simulate_session",
     lambda a, k: a[0].student_id, _after_session),
    ("mapcoach.pipeline", "replay_events", "pipeline.replay_events",
     lambda a, k: a[0], None),
    ("mapcoach.mining", "mine", "mining.mine", None, _after_mine),
    ("mapcoach.mining", "contains_pattern", "mining.contains_pattern", None, _after_contains),
    ("mapcoach.mining", "count_occurrences", "mining.count_occurrences", None, None),
    ("mapcoach.stats", "t_two_sided_p", "stats.t_two_sided_p", None, None),
    ("mapcoach.analytics", "scaffold_impact", "analytics.scaffold_impact", None, None),
    ("mapcoach.verify", "verify_session", "verify.verify_session", _verify_student, None),
] + [
    ("mapcoach.reports", name, "reports.tables", None, None)
    for name in ("time_distribution_table", "delivery_table", "dsm_table",
                 "outcomes_table", "impact_table")
] + [
    ("mapcoach.logio", "read_jsonl", "logio.read", _file_student(0), _after_read_jsonl),
    ("mapcoach.logio", "load_map", "logio.read", None, _after_read_document),
    ("mapcoach.logio", "load_grouping", "logio.read", None, _after_read_document),
] + [
    ("mapcoach.logio", name, "logio.read", _file_student(0), None)
    for name in ("read_events", "read_annotated", "read_deliveries", "read_affect",
                 "load_expert_map", "load_outcomes")
] + [
    ("mapcoach.logio", "write_jsonl", "logio.write", _file_student(1), _after_write),
    ("mapcoach.logio", "save_map", "logio.write", None, _after_write),
    ("mapcoach.logio", "write_grouping", "logio.write", None, _after_write),
] + [
    ("mapcoach.logio", name, "logio.write", _file_student(1), None)
    for name in ("write_events", "write_annotated", "write_deliveries")
] + [
    ("mapcoach.logio", "write_affect", "logio.write", _file_student(2), None),
]


def _wrap(tr: Tracer, fn: Callable, name: str, request_of, after) -> Callable:
    name_id = tr.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tr.open(name_id, request_of(args, kwargs) if request_of else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if after is not None:
            after(tr, args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def installed(tr: Tracer, targets: Iterable = TARGETS):
    """Wrap every target in every mapcoach module that references it; undo
    every replacement on exit."""
    undo: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, name, request_of, after in targets:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                undo.append((cls, method, original))
                setattr(cls, method, _wrap(tr, original, name, request_of, after))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(tr, original, name, request_of, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "mapcoach" or mod_name.startswith("mapcoach.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tr
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# -- per-layer metrics -------------------------------------------------------------


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Call counts and self times per span name, plus the boundary counters,
    under the metric names the benchmark publishes."""
    selfs = self_times(tr.start, tr.end, tr.parent)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, value in enumerate(selfs):
        name = tr.names[tr.name[i]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + value
    out: dict[str, float] = {}
    for _, _, name, _, _ in TARGETS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    c = tr.counters
    out["causal.grade_quiz.repeat_map_share"] = _share(
        c.get("causal.grade_quiz.repeats", 0), calls.get("causal.grade_quiz", 0))
    out["causal.generate_quiz.distinct_share"] = _share(
        c.get("causal.generate_quiz.distinct", 0), calls.get("causal.generate_quiz", 0))
    out["mining.candidate_yield"] = _share(c.get("mining.kept", 0), c.get("mining.tested", 0))
    for key in ("engine.deliveries", "simulate.events", "logio.read.records",
                "logio.read.bytes", "logio.write.bytes"):
        out[key] = c.get(key, 0)
    out["trace.spans"] = len(tr.start)
    return out
