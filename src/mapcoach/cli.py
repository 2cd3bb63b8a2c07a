"""Command-line entry point wiring the whole pipeline.

Subcommands:
  simulate   generate a synthetic cohort (event/affect/delivery logs)
  replay     annotate recorded event logs and re-run the scaffold engine
  mine       differential sequence mining between the two groups
  report     time-distribution, delivery-count, impact, and outcome tables
  score      one-shot map scoring / quiz grading for a map file

Every command writes a manifest.json next to its outputs recording the
arguments, seed, version, and wall-clock time.  Outputs other than the
manifest are byte-stable for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, logio
from .analytics import StudentRecord, scaffold_impact
from .annotate import ReplayError
from .causal import EmptyQuiz, Grade, MapError, generate_quiz, grade_quiz, map_score
from .engine import EngineConfig, ScaffoldKind, delivery_counts, load_trees
from .logio import FormatError, scope_from_str
from .mining import TokenSequence, mine
from .pack import default_expert_map
from .pipeline import replay_events
from .reports import (
    delivery_table,
    dsm_table,
    impact_table,
    outcomes_table,
    time_distribution_table,
)
from .simulate import derive_seed, simulate_cohort
from .annotate import collapse


class CliError(Exception):
    pass


def _engine_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--min-inter-scaffold", type=float,
                        help="minimum seconds between scaffolds (default 60)")
    parser.add_argument("--long-threshold", type=float,
                        help="seconds for a read to count as long (default 60)")
    parser.add_argument("--hint1-window-seconds", type=float,
                        help="hint1 follow-up window in seconds (default 120)")
    parser.add_argument("--hint1-window-events", type=int,
                        help="hint1 follow-up window in events (default 5)")
    parser.add_argument("--enc3-every", type=int,
                        help="reassure on every n-th otherwise-unresolved "
                        "ineffective-edit->quiz occasion (default 3)")
    parser.add_argument("--disable", action="append", metavar="KIND",
                        help="disable a scaffold kind (repeatable), e.g. hint2")
    parser.add_argument("--engine-config", type=Path, default=None,
                        help="JSON file with engine settings; flags override it")
    parser.add_argument("--trees", type=Path, default=None,
                        help="JSON conversation-tree document (kinds it omits "
                        "keep the bundled trees)")


def _engine_config(args) -> EngineConfig:
    """Engine settings: an explicit flag wins over the --engine-config file,
    and the file wins over the EngineConfig defaults."""
    settings = {} if args.engine_config is None else _read_engine_config(args.engine_config)
    flags = {
        "min_inter_scaffold_seconds": args.min_inter_scaffold,
        "long_threshold": args.long_threshold,
        "hint1_window_seconds": args.hint1_window_seconds,
        "hint1_window_events": args.hint1_window_events,
        "enc3_every": args.enc3_every,
        "disabled_kinds": (
            None if args.disable is None else frozenset(ScaffoldKind(k) for k in args.disable)
        ),
    }
    settings.update((key, value) for key, value in flags.items() if value is not None)
    return EngineConfig(**settings)


def _read_engine_config(path: Path) -> dict:
    """The EngineConfig fields an --engine-config file sets: a JSON object of
    known settings, each of its field's type; a bad file is a CliError naming
    it."""
    defaults = {f.name: f.default for f in dataclasses.fields(EngineConfig)}
    try:
        settings = json.loads(path.read_text())
        if not isinstance(settings, dict):
            raise ValueError("expected a JSON object of engine settings")
        for key, value in settings.items():
            if key not in defaults:
                raise ValueError(f"unknown engine setting {key!r}")
            accepted = {float: (int, float), int: int, frozenset: list}[type(defaults[key])]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(f"engine setting {key!r} cannot be {type(value).__name__}")
            if key == "disabled_kinds":
                settings[key] = frozenset(ScaffoldKind(k) for k in value)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return settings


def _write_manifest(path: Path, command: str, args: argparse.Namespace,
                    outputs: list[str], started: float, seed=None):
    manifest = {
        "tool": "mapcoach",
        "version": __version__,
        "command": command,
        "args": {k: str(v) for k, v in vars(args).items() if k not in ("func", "_t0")},
        "seed": seed,
        "started_utc": datetime.fromtimestamp(started, timezone.utc).isoformat(),
        "wall_seconds": round(time.monotonic() - args._t0, 3),
        "outputs": sorted(outputs),
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_expert(path) -> "ExpertMap":
    if path is None:
        return default_expert_map()
    return logio.load_expert_map(path)


# -- simulate -------------------------------------------------------------------


def cmd_simulate(args) -> int:
    started = time.time()
    out_dir = Path(args.out)
    expert = _load_expert(args.expert)
    config = _engine_config(args) if not args.no_engine else None
    profiles = None
    if args.profiles is not None:
        profiles = _load_profiles(args.profiles)
    trees = load_trees(args.trees) if args.trees is not None else None
    cohort = simulate_cohort(
        n_high=args.high,
        n_low=args.low,
        seed=args.seed,
        expert=expert,
        duration_budget=args.budget,
        engine_config=config,
        profiles=profiles,
        trees=trees,
    )
    for sub in ("events", "affect", "deliveries"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    outputs = []
    outcome_rows = []
    for session in cohort.sessions:
        sid = session.student_id
        logio.write_events(session.events, out_dir / "events" / f"{sid}.jsonl")
        logio.write_affect(sid, session.affect, out_dir / "affect" / f"{sid}.jsonl")
        logio.write_deliveries(session.deliveries, out_dir / "deliveries" / f"{sid}.jsonl")
        outputs += [f"events/{sid}.jsonl", f"affect/{sid}.jsonl", f"deliveries/{sid}.jsonl"]
        outcome_rows.append(_draw_outcome(sid, cohort.grouping[sid], args.seed))
    logio.write_grouping(cohort.grouping, out_dir / "grouping.json")
    logio.save_map(expert.map, out_dir / "expert-map.json")
    logio.write_jsonl(outcome_rows, out_dir / "outcomes.jsonl")
    outputs += ["grouping.json", "expert-map.json", "outcomes.jsonl"]
    _write_manifest(out_dir / "manifest.json", "simulate", args, outputs, started, seed=args.seed)
    print(f"simulated {len(cohort.sessions)} students into {out_dir}")
    return 0


def _draw_outcome(student_id: str, group: str, cohort_seed: int) -> dict:
    """Pre/post test points for exercising the outcome analytics; drawn from
    per-group normals, not from simulated behavior."""
    rng = random.Random(derive_seed(cohort_seed, student_id + ":outcome"))
    max_score = 23.0
    pre_mean, gain_mean = (4.2, 0.33) if group == "High" else (3.3, 0.10)
    pre = round(min(max_score - 1.0, max(0.0, rng.gauss(pre_mean, 1.9))), 2)
    gain = min(1.0, max(-0.3, rng.gauss(gain_mean, 0.15)))
    post = round(min(max_score, max(0.0, pre + gain * (max_score - pre))), 2)
    return {"student": student_id, "pre": pre, "post": post, "max": max_score}


def _load_profiles(path: Path):
    from .simulate import profiles_from_document

    profiles = profiles_from_document(json.loads(Path(path).read_text()))
    if set(profiles) != {"high", "low"}:
        raise CliError("profiles file must define exactly 'high' and 'low'")
    return profiles


# -- replay ---------------------------------------------------------------------


def cmd_replay(args) -> int:
    out_dir = Path(args.out)
    expert = _load_expert(args.expert)
    config = _engine_config(args)
    trees = load_trees(args.trees) if args.trees is not None else None
    events_dir = Path(args.events)
    files = sorted(events_dir.glob("*.jsonl"))
    started = time.time()
    (out_dir / "annotated").mkdir(parents=True, exist_ok=True)
    (out_dir / "deliveries").mkdir(parents=True, exist_ok=True)
    outputs = []
    if not files:
        print(f"warning: no event logs in {events_dir}", file=sys.stderr)
    for path in files:
        sid = path.stem
        events = logio.read_events(path)
        try:
            result = replay_events(sid, events, expert, config,
                                   coherence_lookback=args.coherence_lookback,
                                   trees=trees)
        except ReplayError as exc:
            raise CliError(f"{path}: student {sid}: {exc}") from exc
        logio.write_annotated(result.annotated, out_dir / "annotated" / f"{sid}.jsonl")
        logio.write_deliveries(result.deliveries, out_dir / "deliveries" / f"{sid}.jsonl")
        outputs += [f"annotated/{sid}.jsonl", f"deliveries/{sid}.jsonl"]
    _write_manifest(out_dir / "manifest.json", "replay", args, outputs, started)
    print(f"replayed {len(files)} event logs into {out_dir}")
    return 0


# -- mine ------------------------------------------------------------------------


def _read_group_sequences(annotated_dir: Path, grouping: dict[str, str]):
    groups: dict[str, list[TokenSequence]] = {}
    for path in sorted(Path(annotated_dir).glob("*.jsonl")):
        sid = path.stem
        group = grouping.get(sid)
        if group is None:
            continue
        annotated = logio.read_annotated(path)
        tokens = tuple(t.label for t in collapse(annotated))
        if tokens:
            groups.setdefault(group, []).append(TokenSequence(student_id=sid, tokens=tokens))
    return groups


def cmd_mine(args) -> int:
    started = time.time()
    grouping = logio.load_grouping(args.grouping)
    groups = _read_group_sequences(args.annotated, grouping)
    names = sorted(groups)
    if len(names) != 2:
        raise CliError(f"need exactly 2 groups in {args.grouping}, found {names}")
    label_a, label_b = ("High", "Low") if set(names) == {"High", "Low"} else tuple(names)
    patterns = mine(
        groups[label_a],
        groups[label_b],
        max_gap=args.max_gap,
        s_threshold=args.s_threshold,
        max_len=args.max_len,
    )
    table = dsm_table(patterns, label_a=label_a, label_b=label_b)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(table)
    _write_manifest(out.with_name(out.stem + ".manifest.json"),
                    "mine", args, [out.name], started)
    print(f"wrote {len(patterns)} patterns to {out}")
    return 0


# -- report ------------------------------------------------------------------------


def cmd_report(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    grouping = logio.load_grouping(args.grouping)
    started = time.time()
    annotated_by_student = {}
    records = []
    for path in sorted(Path(args.annotated).glob("*.jsonl")):
        sid = path.stem
        annotated = logio.read_annotated(path)
        annotated_by_student[sid] = annotated
        deliveries = []
        if args.deliveries is not None:
            dpath = Path(args.deliveries) / f"{sid}.jsonl"
            if dpath.exists():
                deliveries = logio.read_deliveries(dpath)
        affect = []
        if args.affect is not None:
            apath = Path(args.affect) / f"{sid}.jsonl"
            if apath.exists():
                affect = logio.read_affect(apath)
        session_end = annotated[-1].base.end if annotated else 0.0
        records.append(
            StudentRecord(
                student_id=sid,
                annotated=annotated,
                deliveries=deliveries,
                affect=affect,
                session_end=session_end,
            )
        )
    outputs = []
    (out_dir / "time_distribution.tsv").write_text(
        time_distribution_table(annotated_by_student, grouping)
    )
    outputs.append("time_distribution.tsv")
    all_deliveries = [d for r in records for d in r.deliveries]
    (out_dir / "delivery_counts.tsv").write_text(
        delivery_table(delivery_counts(all_deliveries, grouping))
    )
    outputs.append("delivery_counts.tsv")
    (out_dir / "impact.tsv").write_text(
        impact_table(scaffold_impact(records, grouping))
    )
    outputs.append("impact.tsv")
    if args.outcomes is not None:
        outcomes = logio.load_outcomes(args.outcomes)
        (out_dir / "outcomes.tsv").write_text(outcomes_table(outcomes, grouping))
        outputs.append("outcomes.tsv")
    _write_manifest(out_dir / "manifest.json", "report", args, outputs, started)
    print(f"wrote {len(outputs)} report tables into {out_dir}")
    return 0


# -- score -------------------------------------------------------------------------


def cmd_score(args) -> int:
    expert = _load_expert(args.expert)
    student = logio.load_map(args.student_map)
    print(f"map score: {map_score(student, expert)}")
    if args.quiz is not None:
        scope = scope_from_str(args.quiz)
        questions = generate_quiz(expert, scope)
        result = grade_quiz(student, questions, scope=scope)
        print(f"quiz ({args.quiz}): {result.score:.1f}% over {len(result.items)} questions")
        for i, item in enumerate(result.items, start=1):
            q = item.question
            mark = "correct" if item.grade is Grade.CORRECT else "incorrect"
            print(f"  {i}. if {q.source} increases, {q.target}? "
                  f"answered {item.answer.value}, {mark}")
    return 0


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapcoach",
        description="Causal-map scaffolding toolkit: simulate, replay, mine, report.",
    )
    parser.add_argument("--version", action="version", version=f"mapcoach {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic cohort")
    p.add_argument("--high", type=int, default=1, help="students in the High group")
    p.add_argument("--low", type=int, default=1, help="students in the Low group")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--budget", type=float, default=1500.0, help="session seconds per student")
    p.add_argument("--expert", type=Path, default=None,
                   help="expert map file (default: bundled pack)")
    p.add_argument("--profiles", type=Path, default=None,
                   help="JSON profiles file defining 'high' and 'low'")
    p.add_argument("--no-engine", action="store_true",
                   help="simulate without the scaffold engine in the loop")
    p.add_argument("--out", type=Path, required=True)
    _engine_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay", help="annotate logs and re-run the engine offline")
    p.add_argument("--events", type=Path, required=True, help="directory of event .jsonl logs")
    p.add_argument("--expert", type=Path, default=None)
    p.add_argument("--coherence-lookback", type=float, default=None,
                   help="coherence lookback in seconds (default: whole session)")
    p.add_argument("--out", type=Path, required=True)
    _engine_flags(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("mine", help="differential sequence mining between groups")
    p.add_argument("--annotated", type=Path, required=True)
    p.add_argument("--grouping", type=Path, required=True)
    p.add_argument("--max-gap", type=int, default=1)
    p.add_argument("--s-threshold", type=float, default=0.5)
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("report", help="emit analysis tables")
    p.add_argument("--annotated", type=Path, required=True)
    p.add_argument("--deliveries", type=Path, default=None)
    p.add_argument("--affect", type=Path, default=None)
    p.add_argument("--grouping", type=Path, required=True)
    p.add_argument("--outcomes", type=Path, default=None)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("score", help="score a student map (and optionally a quiz)")
    p.add_argument("--student-map", type=Path, required=True)
    p.add_argument("--expert", type=Path, default=None)
    p.add_argument("--quiz", type=str, default=None,
                   help="'everything' or 'section:<id>' to also grade a quiz")
    p.set_defaults(func=cmd_score)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.monotonic()
    try:
        return args.func(args)
    except (CliError, FormatError, MapError, EmptyQuiz, ReplayError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
