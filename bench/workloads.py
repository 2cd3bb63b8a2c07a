"""The benchmark's two workloads.

Each workload drives mapcoach only through its public functions and
``mapcoach.cli.main``, in this process and on one thread.  ``setup`` is
repeated several times per run and ``run_pass`` once per measured pass;
both record stage times and per-event latencies into a ``Recorder``.
``digest`` hashes the byte-stable outputs of the last pass (manifests are
excluded, since they hold wall-clock times).

Every workload re-imports mapcoach in its set-up, so set-up time includes
module import and expert-map construction: work a change moves there shows
up in ``setup_s``.  This module itself never imports mapcoach at module
level, so nothing here holds objects from an earlier import.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import shutil
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from tracing import Tracer


class Recorder:
    """Stage times and per-event latencies (seconds) of one pass or set-up.
    Both workloads time their events inside the ``replay`` stage."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.stages: dict[str, float] = {}
        self.windows: dict[str, tuple[float, float]] = {}  # first start, last end
        self.latencies: list[float] = []
        self.tracer = tracer

    @contextlib.contextmanager
    def stage(self, name: str):
        span = self.tracer.span("bench." + name) if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                yield
        finally:
            t1 = time.perf_counter()
            self.stages[name] = self.stages.get(name, 0.0) + t1 - t0
            self.windows[name] = (self.windows.get(name, (t0,))[0], t1)


@contextlib.contextmanager
def event_latency_probe(mc: SimpleNamespace, samples: list[float]):
    """Time each event from the start of ``SessionAnnotator.feed`` to the end
    of the ``ScaffoldEngine.observe`` that follows it, the same span the
    live-engine loop times directly.  Used where the events are replayed
    inside a CLI call."""
    annotator_cls, engine_cls = mc.annotate.SessionAnnotator, mc.engine.ScaffoldEngine
    feed, observe = annotator_cls.feed, engine_cls.observe
    started = [0.0]

    def timed_feed(self, event):
        started[0] = time.perf_counter()
        return feed(self, event)

    def timed_observe(self, *args, **kwargs):
        out = observe(self, *args, **kwargs)
        samples.append(time.perf_counter() - started[0])
        return out

    annotator_cls.feed, engine_cls.observe = timed_feed, timed_observe
    try:
        yield
    finally:
        annotator_cls.feed, engine_cls.observe = feed, observe


def import_mapcoach() -> SimpleNamespace:
    """Drop any loaded mapcoach modules and import the package afresh."""
    for name in [n for n in sys.modules if n == "mapcoach" or n.startswith("mapcoach.")]:
        del sys.modules[name]
    modules = ("annotate", "causal", "cli", "engine", "logio", "pack", "simulate", "verify")
    return SimpleNamespace(
        **{m: importlib.import_module(f"mapcoach.{m}") for m in modules}
    )


def hash_tree(*dirs: Path) -> str:
    """SHA-256 over relative path and bytes of every file except manifests."""
    h = hashlib.sha256()
    for base in dirs:
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if path.name.endswith("manifest.json"):
                continue
            h.update(f"{base.name}/{path.relative_to(base)}\0".encode())
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path, size: int = 40):
        self.seed = seed
        self.work = work
        self.size = size
        self.mc: Optional[SimpleNamespace] = None

    def input_seeds(self) -> dict[str, int]:
        return {"cohort_seed": self.seed}

    def setup(self, rec: Recorder) -> tuple[int, int]:
        """Returns (operations attempted, operations failed)."""
        self.mc = import_mapcoach()
        self.expert = self.mc.pack.default_expert_map()
        return 0, 0

    def cli(self, argv: list[str]) -> bool:
        """One CLI stage call; True when it exits 0."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.mc.cli.main(argv) == 0
        except Exception:
            traceback.print_exc()
            return False

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


class CohortPipeline(Workload):
    """The four CLI stages on the README default cohort (seed = cohort seed)."""

    name = "cohort-pipeline"
    budget = 1500.0

    def run_pass(self, rec: Recorder) -> tuple[int, int]:
        out = self.fresh_dir("pipeline")
        self.out = out
        sim, replay, report = out / "sim", out / "replay", out / "report"
        n = str(self.size)
        steps = [
            ("simulate", ["simulate", "--high", n, "--low", n, "--seed", str(self.seed),
                          "--budget", str(self.budget), "--out", str(sim)]),
            ("replay", ["replay", "--events", str(sim / "events"),
                        "--expert", str(sim / "expert-map.json"), "--out", str(replay)]),
            ("mine", ["mine", "--annotated", str(replay / "annotated"),
                      "--grouping", str(sim / "grouping.json"), "--out", str(out / "dsm.tsv")]),
            ("report", ["report", "--annotated", str(replay / "annotated"),
                        "--deliveries", str(replay / "deliveries"), "--affect", str(sim / "affect"),
                        "--grouping", str(sim / "grouping.json"),
                        "--outcomes", str(sim / "outcomes.jsonl"), "--out", str(report)]),
        ]
        for done, (stage, argv) in enumerate(steps):
            probe = (event_latency_probe(self.mc, rec.latencies) if stage == "replay"
                     else contextlib.nullcontext())
            with rec.stage(stage), probe:
                ok = self.cli(argv)
            if not ok:
                return len(steps), len(steps) - done
        return len(steps), 0

    def digest(self) -> str:
        return hash_tree(self.out)


class LiveEngine(Workload):
    """One criterion-12 batch: simulate with the engine in the loop, stream
    every session event by event through annotator and engine, verify."""

    name = "live-engine"
    budget = 3600.0

    def input_seeds(self) -> dict[str, int]:
        return {"cohort_seed": 5000 + self.seed}

    def setup(self, rec: Recorder) -> tuple[int, int]:
        super().setup(rec)
        self.config = self.mc.engine.EngineConfig(min_inter_scaffold_seconds=15.0)
        return 0, 0

    def run_pass(self, rec: Recorder) -> tuple[int, int]:
        mc, expert, config = self.mc, self.expert, self.config
        n = self.size
        self.results = []
        with rec.stage("simulate"):
            try:
                cohort = mc.simulate.simulate_cohort(
                    n, n, seed=5000 + self.seed, expert=expert,
                    duration_budget=self.budget, engine_config=config,
                )
            except Exception:
                traceback.print_exc()
                return 2 * n, 2 * n
        failed: set[str] = set()
        streamed = []
        with rec.stage("replay"):
            for session in cohort.sessions:
                try:
                    annotated, deliveries = self._stream(session, rec.latencies)
                except Exception:
                    traceback.print_exc()
                    failed.add(session.student_id)
                    continue
                if deliveries != list(session.deliveries):
                    failed.add(session.student_id)
                streamed.append((session.student_id, annotated, deliveries))
        with rec.stage("verify"):
            for sid, annotated, deliveries in streamed:
                try:
                    violations = mc.verify.verify_session(annotated, deliveries, expert, config)
                except Exception:
                    traceback.print_exc()
                    violations = ["exception"]
                if violations:
                    failed.add(sid)
        self.results = streamed
        return len(cohort.sessions), len(failed)

    def _stream(self, session, latencies: list[float]):
        """Feed one recorded session to a fresh annotator and engine, one
        event at a time, timing each event's decision."""
        mc, expert, config = self.mc, self.expert, self.config
        annotator = mc.annotate.SessionAnnotator(expert, long_threshold=config.long_threshold)
        engine = mc.engine.ScaffoldEngine(session.student_id, expert, config)
        quiz_kind = mc.annotate.ActionKind.TAKE_QUIZ
        quiz_cache: dict[str, list] = {}
        last_quiz = None
        annotated, deliveries = [], []
        clock = time.perf_counter
        for event in session.events:
            t0 = clock()
            ann = annotator.feed(event)
            if event.kind is quiz_kind:
                scope = event.quiz_scope
                key = scope.display()
                if key not in quiz_cache:
                    quiz_cache[key] = mc.causal.generate_quiz(expert, scope)
                last_quiz = mc.causal.grade_quiz(annotator.current_map, quiz_cache[key], scope=scope)
            released = engine.observe(ann, annotator.current_map, last_quiz)
            latencies.append(clock() - t0)
            deliveries.extend(released)
            annotated.append(ann)
        deliveries.extend(engine.finalize(session.events[-1].end if session.events else 0.0))
        return annotated, deliveries

    def digest(self) -> str:
        logio = self.mc.logio
        h = hashlib.sha256()
        for sid, annotated, deliveries in self.results:
            h.update(sid.encode() + b"\0")
            for record in map(logio.annotated_to_record, annotated):
                h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
            for record in map(logio.delivery_to_record, deliveries):
                h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (CohortPipeline, LiveEngine)}
