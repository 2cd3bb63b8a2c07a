#!/usr/bin/env python3
"""mapcoach benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up the workload several times (reporting the median
set-up time), runs one untimed warm-up pass, then repeats measured passes
until ``--seconds`` of pass time have accumulated.  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes and prints the per-layer metrics taken from the traced spans,
with the tracing overhead.  Times are reported at a fixed reference host
speed, measured while the workload runs (``hostspeed.py``).  Every pass is
checked: a stage that fails, a live-engine session whose streamed
deliveries differ from the in-loop ones or that has a verification
violation, or an output digest that differs between passes (or from an
earlier run of the same sources and seed) counts as a failed operation.

The last line of standard output is the JSON result; the line before it
holds provenance, digests and sample counts.  Both also go to
``.bench_out/results/``; the spans of the last traced pass go to
``.bench_out/trace/``.  See ``bench/DESIGN.md`` for the workloads, the
metrics and the predictions they support.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from tracing import Tracer, installed, layer_metrics
from workloads import WORKLOADS, Recorder

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"

SETUP_REPS = 15

# Seeds kept out of every tuning run, for confirming later claims.
HELD_OUT_SEEDS = {"cohort-pipeline": 9001, "live-engine": 9002}

# name -> unit; the order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "event_p50_us": "us",
    "event_p99_us": "us",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
STAGES = ("simulate", "replay", "mine", "report", "verify")
PER_LAYER = {
    "causal.grade_quiz.calls": "count",
    "causal.grade_quiz.self_s": "s",
    "causal.grade_quiz.repeat_map_share": "ratio",
    "causal.answer_query.calls": "count",
    "causal.answer_query.self_s": "s",
    "causal.generate_quiz.calls": "count",
    "causal.generate_quiz.distinct_share": "ratio",
    "causal.classify_link.calls": "count",
    "causal.classify_link.self_s": "s",
    "causal.map_score.calls": "count",
    "causal.map_score.self_s": "s",
    "annotate.feed.calls": "count",
    "annotate.feed.self_s": "s",
    "annotate.apply_edit.calls": "count",
    "annotate.apply_edit.self_s": "s",
    "annotate.tag_coherence.self_s": "s",
    "annotate.collapse.self_s": "s",
    "engine.observe.calls": "count",
    "engine.observe.self_s": "s",
    "engine.finalize.self_s": "s",
    "engine.deliveries": "count",
    "simulate.simulate_session.self_s": "s",
    "simulate.events": "count",
    "pipeline.replay_events.self_s": "s",
    "mining.mine.self_s": "s",
    "mining.contains_pattern.calls": "count",
    "mining.contains_pattern.self_s": "s",
    "mining.count_occurrences.calls": "count",
    "mining.count_occurrences.self_s": "s",
    "mining.candidate_yield": "ratio",
    "stats.t_two_sided_p.calls": "count",
    "stats.t_two_sided_p.self_s": "s",
    "analytics.scaffold_impact.self_s": "s",
    "reports.tables.self_s": "s",
    "logio.read.self_s": "s",
    "logio.read.records": "count",
    "logio.read.bytes": "bytes",
    "logio.write.self_s": "s",
    "logio.write.bytes": "bytes",
    "verify.verify_session.calls": "count",
    "verify.verify_session.self_s": "s",
    **{f"stage.{s}_s": "s" for s in STAGES},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of the samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def source_digest() -> str:
    """SHA-256 over the package and benchmark sources (stands in for a
    commit id when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "mapcoach", BENCH_DIR):
        for path in sorted(base.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


class Run:
    """Operation accounting and digest checks for one benchmark run."""

    def __init__(self, workload, speed: HostSpeed):
        self.wl = workload
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()

    def account(self, ops: tuple[int, int]):
        attempted, failed = ops
        self.attempted += attempted
        self.failed += failed

    def timed(self, call) -> tuple[float, float]:
        """(seconds without the sampler's share, host-speed factor) of one call."""
        busy, t0 = self.speed.busy, time.perf_counter()
        ops = call()
        t1 = time.perf_counter()
        self.account(ops)
        return t1 - t0 - (self.speed.busy - busy), self.speed.factor(t0, t1)

    def setup(self, rec) -> tuple[float, float]:
        return self.timed(lambda: self.wl.setup(rec))

    def run_pass(self, rec) -> tuple[float, float]:
        gc.collect()  # the previous pass's garbage is not collected inside this one
        timed = self.timed(lambda: self.wl.run_pass(rec))
        digest = self.wl.digest()
        if self.digests and digest not in self.digests:
            self.failed = max(self.failed, 1)
        self.digests.add(digest)
        return timed


def check_stored_digest(key: str, digest: str) -> bool:
    """Compare with the digest an earlier run of the same sources and seed
    stored; store it when there is none."""
    path = OUT / "digests.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    if key in stored:
        return stored[key] == digest
    stored[key] = digest
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return True


def measure(args, work: Path):
    wl = WORKLOADS[args.workload](args.seed, work, size=args.size)
    speed = HostSpeed()
    run = Run(wl, speed)
    untraced, traced = [], []
    spans = None
    with speed.sampling():
        setups = [run.setup(Recorder()) for _ in range(1 if args.trace else SETUP_REPS)]
        run.run_pass(Recorder())  # warm-up, untimed
        while sum(p[0][0] for p in untraced + traced) < args.seconds:
            rec = Recorder()
            untraced.append((run.run_pass(rec), rec))
            if args.trace:
                tracer = Tracer()
                rec = Recorder(tracer)
                with installed(tracer):
                    timed = run.run_pass(rec)
                traced.append((timed, rec, layer_metrics(tracer)))
                spans = tracer

    # Times are reported at the reference host speed (see hostspeed.py):
    # each is multiplied by the speed factor sampled while it ran.
    def stage_median(stage: str) -> float:
        return median([r.stages[stage] * speed.factor(*r.windows[stage])
                       for _, r in untraced if stage in r.stages])

    def event_us(q: int) -> float:
        # per-pass percentile, median over passes: a pass run while the
        # host is slow moves it less than a percentile of the pooled events
        return median([percentile(r.latencies, q) * speed.factor(*r.windows["replay"])
                       for _, r in untraced]) * 1e6

    wall = median([s * f for (s, f), _ in untraced])
    if args.trace:
        # median_low keeps counts whole numbers
        metrics = {
            name: statistics.median_low([m[name] for _, _, m in traced]) for name in PER_LAYER
            if not name.startswith(("stage.", "trace.overhead"))
        }
        metrics.update({f"stage.{s}_s": stage_median(s) for s in STAGES})
        metrics["trace.overhead_s"] = median([s * f for (s, f), _, _ in traced]) - wall
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": median([s * f for s, f in setups]),
            "wall_s": wall,
            "event_p50_us": event_us(50),
            "event_p99_us": event_us(99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    (digest,) = run.digests if len(run.digests) == 1 else (None,)
    key = f"{args.workload}:{args.seed}:{args.size}:{source_digest()}"
    if digest is None or not check_stored_digest(key, digest):
        run.failed = max(run.failed, 1)
    if not args.trace:
        metrics["ok_ratio"] = (run.attempted - run.failed) / run.attempted
    details = {
        "workload": args.workload,
        "digest": digest,
        "provenance": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "seed": args.seed,
            "input_seeds": wl.input_seeds(),
            "held_out_seed": HELD_OUT_SEEDS[args.workload],
            "students": 2 * args.size,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "samples": {
            "setups": len(setups),
            "speed_samples": len(speed.took),
            "passes": len(untraced),
            "traced_passes": len(traced),
            "events": sum(len(r.latencies) for _, r in untraced),
            "operations": run.attempted,
        },
        "raw": {
            "setup_s": [s for s, _ in setups],
            "pass_s": [s for (s, _), _ in untraced],
            "pass_speed_factor": [f for (_, f), _ in untraced],
            "traced_pass_s": [s for (s, _), _, _ in traced],
            "reference_loop_s": statistics.median(speed.took) if speed.took else None,
        },
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return details, result, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=40,
                        help="students per group (40 is the benchmark; smaller is for tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mapcoach" / "__init__.py").is_file():
        print(f"error: no mapcoach sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        details, result, spans = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        spans.write(OUT / "trace" / f"{args.workload}.spans.tsv.gz")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
