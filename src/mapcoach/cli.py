"""Command-line entry point wiring the whole pipeline.

Subcommands:
  simulate   generate a synthetic cohort (event/affect/delivery logs)
  replay     annotate recorded event logs and re-run the scaffold engine
  mine       differential sequence mining between the two groups
  report     time-distribution, delivery-count, impact, and outcome tables
  score      one-shot map scoring / quiz grading for a map file

Every writing command runs inside one output stage, `_write_outputs`.
The stage checks where the command writes before it reads any input; the
command (`cmd_simulate`, `cmd_replay`, `cmd_mine`, `cmd_report`) reads and
checks its input and computes every result, and returns its files as
writers with the line to print; only then does the stage write them, and
last a manifest recording the arguments, seed, version, wall-clock time and
the files written.  So a command that ends in an `error:` line has written
nothing.  Outputs other than the manifest are byte-stable for identical
inputs and seeds.  A rerun into the same place replaces the files that the
earlier run's manifest lists; another command's manifest there is an error.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from . import __version__, logio
from .analytics import OutcomeRecord, StudentRecord, scaffold_impact
from .annotate import EmptySession, SessionAnnotator, collapse, time_distribution
from .causal import Grade, generate_quiz, grade_quiz, map_score
from .engine import EngineConfig, ScaffoldKind, delivery_counts
from .logio import load_trees, scope_from_str
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
    settings = ({} if args.engine_config is None
                else logio.load_document(args.engine_config, logio.engine_settings_from_document))
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


def _student_logs(directory: Path | None, read) -> dict[str, list]:
    """Student -> records, read by `read` from each log in `directory`,
    named <student>.jsonl, in name order; {} when the option is unset. No
    directory there, or a record of another student than its file names, is
    a ValueError naming the path."""
    if directory is None:
        return {}
    if not directory.is_dir():
        problem = "not a directory" if directory.exists() else "no such directory"
        raise ValueError(f"{directory}: {problem}")
    logs = {}
    for path in sorted(directory.glob("*.jsonl")):
        records = logs[path.stem] = read(path)
        for n, record in enumerate(records, start=1):
            if record.student_id != path.stem:
                raise ValueError(f"{path}: record {n} is for student {record.student_id!r}, "
                                 f"not {path.stem!r} as the file name says")
    return logs


def _write_outputs(args: argparse.Namespace) -> int:
    """The one output stage, which runs each writing command. It checks
    where the command writes: `--out` with `manifest.json`, or for `mine`
    the directory of `--out` with `<stem>.manifest.json`. Only then does it
    call `args.compute(args)` for `(files, message)`, where `files` maps
    each name, relative to that directory, to a writer of its path. It
    makes every parent directory of `files`, calls each writer, writes last
    the manifest, whose `outputs` are the names in `files`, and prints
    `message`.

    A rerun replaces the earlier run: each file that the manifest already
    there lists, and this run did not write, is removed before the new
    manifest is written; no file it does not list is. Before it computes,
    the stage raises a ValueError naming the path if that manifest, or
    `mine`'s `--out`, is a directory or lies below a file, or if that
    manifest is another command's or lists a name outside the directory;
    before its first write, if a file it writes or removes is a directory or
    lies below a file."""
    started, t0 = time.time(), time.monotonic()
    mine = args.command == "mine"
    directory = args.out.parent if mine else args.out
    manifest = directory / (f"{args.out.stem}.manifest.json" if mine else "manifest.json")
    for path in (manifest, args.out) if mine else (manifest,):
        _check_output_path(path)
    listed = (logio.load_document(manifest, partial(_listed_outputs, args.command))
              if manifest.exists() else set())
    files, message = args.compute(args)
    stale = listed - set(map(Path, files))
    for name in (*files, *stale):
        _check_output_path(directory / name)
    for parent in {directory, *((directory / name).parent for name in files)}:
        parent.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(directory / name)
    for path in stale:
        (directory / path).unlink(missing_ok=True)
    record = {
        "tool": "mapcoach",
        "version": __version__,
        "command": args.command,
        "args": {k: str(v) for k, v in vars(args).items() if k not in ("func", "compute")},
        "seed": vars(args).get("seed"),
        "started_utc": datetime.fromtimestamp(started, timezone.utc).isoformat(),
        "wall_seconds": round(time.monotonic() - t0, 3),
        "outputs": sorted(files),
    }
    manifest.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(message)
    return 0


def _check_output_path(path: Path):
    """A ValueError naming the path if `path` is a directory, or if its
    nearest existing ancestor is not."""
    if path.is_dir():
        raise ValueError(f"{path}: is a directory")
    existing = next(parent for parent in path.parents if parent.exists())
    if not existing.is_dir():
        raise ValueError(f"{existing}: not a directory")


def _listed_outputs(command: str, manifest) -> set[Path]:
    """The output paths, relative to its directory, in a manifest that
    `command` wrote. Another command's manifest, or an output that is not a
    relative name without `..`, is a ValueError."""
    if type(manifest) is not dict:
        raise ValueError(f"expected a JSON object, got {type(manifest).__name__}")
    if manifest.get("command") != command:
        raise ValueError(f"records a run of {manifest.get('command')!r}; "
                         f"{command} replaces only its own runs")
    outputs = manifest.get("outputs")
    if type(outputs) is not list:
        raise ValueError(f"outputs must be a list, got {type(outputs).__name__}")
    paths = set()
    for name in outputs:
        path = Path(name) if type(name) is str else None
        if path is None or not path.parts or path.is_absolute() or ".." in path.parts:
            raise ValueError(f"output {name!r} is not a relative name without '..'")
        paths.add(path)
    return paths


def _load_expert(path) -> "ExpertMap":
    if path is None:
        return default_expert_map()
    return logio.load_expert_map(path)


# -- simulate -------------------------------------------------------------------


def cmd_simulate(args) -> tuple[dict, str]:
    expert = _load_expert(args.expert)
    config = _engine_config(args) if not args.no_engine else None
    profiles = (None if args.profiles is None
                else logio.load_document(args.profiles, logio.profiles_from_document))
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
    files = {}
    outcomes = []
    for session in cohort.sessions:
        sid = session.student_id
        files[f"events/{sid}.jsonl"] = partial(logio.write_events, session.events)
        files[f"affect/{sid}.jsonl"] = partial(logio.write_affect, sid, session.affect)
        files[f"deliveries/{sid}.jsonl"] = partial(logio.write_deliveries, session.deliveries)
        outcomes.append(_draw_outcome(sid, cohort.grouping[sid], args.seed))
    files["grouping.json"] = partial(logio.write_grouping, cohort.grouping)
    files["expert-map.json"] = partial(logio.save_map, expert.map)
    files["outcomes.jsonl"] = partial(logio.write_outcomes, outcomes)
    return files, f"simulated {len(cohort.sessions)} students into {args.out}"


def _draw_outcome(student_id: str, group: str, cohort_seed: int) -> OutcomeRecord:
    """Pre/post test points for exercising the outcome analytics; drawn from
    per-group normals, not from simulated behavior."""
    rng = random.Random(derive_seed(cohort_seed, student_id + ":outcome"))
    max_score = 23.0
    pre_mean, gain_mean = (4.2, 0.33) if group == "High" else (3.3, 0.10)
    pre = round(min(max_score - 1.0, max(0.0, rng.gauss(pre_mean, 1.9))), 2)
    gain = min(1.0, max(-0.3, rng.gauss(gain_mean, 0.15)))
    post = round(min(max_score, max(0.0, pre + gain * (max_score - pre))), 2)
    return OutcomeRecord(student_id, pre, post, max_score)


# -- replay ---------------------------------------------------------------------


def cmd_replay(args) -> tuple[dict, str]:
    expert = _load_expert(args.expert)
    config = _engine_config(args)
    trees = load_trees(args.trees) if args.trees is not None else None
    # the annotator checks the lookback; built here, before any output, it
    # rejects a bad value for an events directory without logs too
    SessionAnnotator(expert, coherence_lookback=args.coherence_lookback)
    logs = _student_logs(args.events, logio.read_events)
    files = {}
    for sid, events in logs.items():
        try:
            result = replay_events(sid, events, expert, config,
                                   coherence_lookback=args.coherence_lookback, trees=trees)
        except ValueError as exc:
            raise ValueError(f"{args.events / f'{sid}.jsonl'}: student {sid}: {exc}") from exc
        files[f"annotated/{sid}.jsonl"] = partial(logio.write_annotated, result.annotated)
        files[f"deliveries/{sid}.jsonl"] = partial(logio.write_deliveries, result.deliveries)
    if not logs:
        print(f"warning: no event logs in {args.events}", file=sys.stderr)
    return files, f"replayed {len(logs)} event logs into {args.out}"


# -- mine ------------------------------------------------------------------------


def cmd_mine(args) -> tuple[dict, str]:
    grouping = logio.load_grouping(args.grouping)
    groups: dict[str, list[TokenSequence]] = {}
    for sid, annotated in _student_logs(args.annotated, logio.read_annotated).items():
        if sid in grouping:
            tokens = tuple(t.label for t in collapse(annotated))
            if tokens:
                groups.setdefault(grouping[sid], []).append(TokenSequence(sid, tokens))
    names = sorted(groups)
    if len(names) != 2:
        raise ValueError(f"need exactly 2 groups in {args.grouping}, found {names}")
    label_a, label_b = ("High", "Low") if set(names) == {"High", "Low"} else tuple(names)
    patterns = mine(
        groups[label_a],
        groups[label_b],
        max_gap=args.max_gap,
        s_threshold=args.s_threshold,
        max_len=args.max_len,
    )
    table = dsm_table(patterns, label_a=label_a, label_b=label_b)
    return ({args.out.name: partial(Path.write_text, data=table)},
            f"wrote {len(patterns)} patterns to {args.out}")


# -- report ------------------------------------------------------------------------


def cmd_report(args) -> tuple[dict, str]:
    grouping = logio.load_grouping(args.grouping)
    annotated_by_student = _student_logs(args.annotated, logio.read_annotated)
    for sid, annotated in annotated_by_student.items():
        if sid in grouping:
            try:
                time_distribution(annotated)
            except EmptySession as exc:
                raise ValueError(f"{args.annotated / f'{sid}.jsonl'}: {exc}") from exc
    deliveries = _student_logs(args.deliveries, logio.read_deliveries)
    affect = _student_logs(args.affect, logio.read_affect)
    records = [
        StudentRecord(
            student_id=sid,
            annotated=annotated,
            deliveries=deliveries.get(sid, []),
            affect=affect.get(sid, []),
            session_end=annotated[-1].base.end if annotated else 0.0,
        )
        for sid, annotated in annotated_by_student.items()
    ]
    tables = {
        "time_distribution.tsv": time_distribution_table(annotated_by_student, grouping),
        "delivery_counts.tsv": delivery_table(
            delivery_counts([d for r in records for d in r.deliveries], grouping)),
        "impact.tsv": impact_table(scaffold_impact(records, grouping)),
    }
    if args.outcomes is not None:
        tables["outcomes.tsv"] = outcomes_table(logio.load_outcomes(args.outcomes), grouping)
    return ({name: partial(Path.write_text, data=table) for name, table in tables.items()},
            f"wrote {len(tables)} report tables into {args.out}")


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


# argparse's message for an int or float option value that does not convert
_NOT_A_NUMBER = re.compile(r"argument \S+: invalid (int|float) value: .*")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises a ValueError for an int or float option
    value that does not convert, so main reports it as an `error:` line and
    exit 1 like other bad input; other usage errors print the usage and
    exit 2."""

    def error(self, message):
        if _NOT_A_NUMBER.fullmatch(message):
            raise ValueError(message)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.set_defaults(func=_write_outputs, compute=cmd_simulate)

    p = sub.add_parser("replay", help="annotate logs and re-run the engine offline")
    p.add_argument("--events", type=Path, required=True, help="directory of event .jsonl logs")
    p.add_argument("--expert", type=Path, default=None)
    p.add_argument("--coherence-lookback", type=float, default=None,
                   help="coherence lookback in seconds (default: whole session)")
    p.add_argument("--out", type=Path, required=True)
    _engine_flags(p)
    p.set_defaults(func=_write_outputs, compute=cmd_replay)

    p = sub.add_parser("mine", help="differential sequence mining between groups")
    p.add_argument("--annotated", type=Path, required=True)
    p.add_argument("--grouping", type=Path, required=True)
    p.add_argument("--max-gap", type=int, default=1)
    p.add_argument("--s-threshold", type=float, default=0.5)
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_write_outputs, compute=cmd_mine)

    p = sub.add_parser("report", help="emit analysis tables")
    p.add_argument("--annotated", type=Path, required=True)
    p.add_argument("--deliveries", type=Path, default=None)
    p.add_argument("--affect", type=Path, default=None)
    p.add_argument("--grouping", type=Path, required=True)
    p.add_argument("--outcomes", type=Path, default=None)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_write_outputs, compute=cmd_report)

    p = sub.add_parser("score", help="score a student map (and optionally a quiz)")
    p.add_argument("--student-map", type=Path, required=True)
    p.add_argument("--expert", type=Path, default=None)
    p.add_argument("--quiz", type=str, default=None,
                   help="'everything' or 'section:<id>' to also grade a quiz")
    p.set_defaults(func=cmd_score)
    return parser


# a negative number that argparse, reading only -5 and -.5 as numbers, takes for an option
_NEGATIVE_FLOAT = re.compile(r"-(inf(inity)?|nan|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)", re.I)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with each negative float value, such as -inf or -1e3, attached
    to the option before it (--budget=-inf)."""
    attached = []
    for arg in argv:
        previous = attached[-1] if attached else ""
        if previous.startswith("--") and "=" not in previous and _NEGATIVE_FLOAT.fullmatch(arg):
            attached[-1] = f"{previous}={arg}"
        else:
            attached.append(arg)
    return attached


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            _attach_negative_values(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
