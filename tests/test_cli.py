import ast
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile
import time
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mapcoach
import oracles
from mapcoach import cli, logio
from mapcoach.analytics import Emotion
from mapcoach.annotate import ActionEvent, ActionKind, MapEdit, MapEditAction
from mapcoach.causal import CausalLink, PathExplosion, QuizScope, Sign
from mapcoach.cli import main
from mapcoach.engine import EngineConfig
from mapcoach.pack import default_expert_map
from mapcoach.pipeline import SessionStep
from mapcoach.simulate import simulate_cohort
from mapcoach.verify import verify_session


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "--high", 2, "--low", 2, "--seed", 7,
                "--budget", 600, "--out", out]) == 0
    return out


class TestSimulate:
    def test_writes_expected_files(self, sim_dir):
        assert sorted(p.name for p in (sim_dir / "events").glob("*.jsonl")) == [
            "high-000.jsonl", "high-001.jsonl", "low-000.jsonl", "low-001.jsonl",
        ]
        assert (sim_dir / "grouping.json").exists()
        assert (sim_dir / "expert-map.json").exists()
        assert (sim_dir / "outcomes.jsonl").exists()
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7

    def test_rerun_is_byte_identical(self, sim_dir, tmp_path):
        again = tmp_path / "again"
        assert run(["simulate", "--high", 2, "--low", 2, "--seed", 7,
                    "--budget", 600, "--out", again]) == 0
        for sub in ("events", "affect", "deliveries"):
            for path in sorted((sim_dir / sub).glob("*.jsonl")):
                other = again / sub / path.name
                assert other.read_bytes() == path.read_bytes()

    def test_manifest_stamps_the_start_of_the_command(self, tmp_path, monkeypatch):
        def slow_simulation(*args, **kwargs):
            time.sleep(0.5)
            return simulate_cohort(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate_cohort", slow_simulation)
        before = time.time()
        out = tmp_path / "sim"
        assert run(["simulate", "--high", 1, "--low", 1, "--budget", 60, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        started = datetime.fromisoformat(manifest["started_utc"]).timestamp()
        assert before - 0.01 <= started < before + 0.25

    @pytest.mark.parametrize("budget", ["inf", "nan", "0", "-60"])
    def test_budget_must_be_finite_and_positive(self, tmp_path, budget):
        proc = run_subprocess(["simulate", "--budget", budget, "--out", tmp_path / "sim"],
                              timeout=60)
        assert_error_line(proc, "duration_budget must be finite and positive")

    def test_malformed_expert_map_fails_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "mapcoach-map/1",\n "concepts": [}\n')
        code = run(["simulate", "--high", 1, "--low", 1, "--expert", bad,
                    "--out", tmp_path / "x"])
        assert code != 0
        assert "line 2" in capsys.readouterr().err


class TestReplay:
    def test_replay_reproduces_simulated_deliveries(self, sim_dir, tmp_path):
        out = tmp_path / "replay"
        assert run(["replay", "--events", sim_dir / "events",
                    "--expert", sim_dir / "expert-map.json", "--out", out]) == 0
        for path in sorted((sim_dir / "deliveries").glob("*.jsonl")):
            replayed = out / "deliveries" / path.name
            assert replayed.read_bytes() == path.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(expert=oracles.expert_maps(), seed=st.integers(0, 10**6))
    def test_on_generated_expert_maps_replay_reproduces_simulated_deliveries(self, expert, seed):
        # a directory per example: one tmp_path is shared by every example
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            logio.save_map(expert.map, tmp / "expert.json")
            sim, out = tmp / "sim", tmp / "replay"
            assert run(["simulate", "--high", 1, "--low", 1, "--budget", 600, "--seed", seed,
                        "--expert", tmp / "expert.json", "--out", sim]) == 0
            assert run(["replay", "--events", sim / "events",
                        "--expert", sim / "expert-map.json", "--out", out]) == 0
            simulated = sorted((sim / "deliveries").glob("*.jsonl"))
            assert {p.name: p.read_bytes() for p in simulated} == {
                p.name: p.read_bytes() for p in (out / "deliveries").glob("*.jsonl")}
            read_back = logio.load_expert_map(sim / "expert-map.json")
            for path in simulated:
                annotated = logio.read_annotated(out / "annotated" / path.name)
                deliveries = logio.read_deliveries(path)
                assert verify_session(annotated, deliveries, read_back, EngineConfig()) == []

    @pytest.mark.parametrize(
        "lookback, logs",
        [("nan", "simulated"), ("-5", "simulated"), ("nan", "none"), ("-5", "none")],
        ids=["nan", "-5", "nan-no-logs", "-5-no-logs"],
    )
    def test_bad_coherence_lookback_is_an_error(self, request, tmp_path, lookback, logs):
        if logs == "simulated":
            events = request.getfixturevalue("sim_dir") / "events"
        else:
            events = tmp_path / "none"
            events.mkdir()
        proc = run_subprocess(["replay", "--events", events,
                               "--coherence-lookback", lookback, "--out", tmp_path / "out"])
        assert_error_line(proc, "coherence lookback must be >= 0")
        assert not (tmp_path / "out").exists()

    def test_infinite_coherence_lookback_is_the_whole_session(self, sim_dir, tmp_path):
        for name, extra in (("whole", []), ("inf", ["--coherence-lookback", "inf"])):
            assert run(["replay", "--events", sim_dir / "events",
                        "--out", tmp_path / name, *extra]) == 0
        for path in sorted((tmp_path / "whole" / "annotated").glob("*.jsonl")):
            assert (tmp_path / "inf" / "annotated" / path.name).read_bytes() == path.read_bytes()

    def test_empty_directory_warns_but_succeeds(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run(["replay", "--events", empty, "--out", tmp_path / "out"]) == 0
        assert "no event logs" in capsys.readouterr().err

    def test_out_of_order_log_fails_naming_file(self, tmp_path, capsys):
        events_dir = tmp_path / "events"
        events_dir.mkdir()
        bad = events_dir / "s1.jsonl"
        bad.write_text(
            '{"student": "s1", "t": 10.0, "duration": 5.0, "kind": "read", "page": "p"}\n'
            '{"student": "s1", "t": 2.0, "duration": 5.0, "kind": "read", "page": "p"}\n'
        )
        code = run(["replay", "--events", events_dir, "--out", tmp_path / "out"])
        assert code != 0
        assert "s1" in capsys.readouterr().err


class TestMineAndReport:
    def test_pipeline_outputs(self, sim_dir, tmp_path):
        replay_out = tmp_path / "replay"
        assert run(["replay", "--events", sim_dir / "events",
                    "--expert", sim_dir / "expert-map.json", "--out", replay_out]) == 0
        dsm = tmp_path / "dsm.tsv"
        assert run(["mine", "--annotated", replay_out / "annotated",
                    "--grouping", sim_dir / "grouping.json", "--out", dsm]) == 0
        table = dsm.read_text()
        assert table.startswith("pattern\t")
        assert "Cohen's f = d / 2" in table

        report_out = tmp_path / "report"
        assert run(["report", "--annotated", replay_out / "annotated",
                    "--deliveries", replay_out / "deliveries",
                    "--affect", sim_dir / "affect",
                    "--grouping", sim_dir / "grouping.json",
                    "--outcomes", sim_dir / "outcomes.jsonl",
                    "--out", report_out]) == 0
        for name in ("time_distribution.tsv", "delivery_counts.tsv", "impact.tsv", "outcomes.tsv"):
            assert (report_out / name).exists(), name

    def test_missing_grouping_fails(self, sim_dir, tmp_path):
        code = run(["mine", "--annotated", sim_dir / "events",
                    "--grouping", tmp_path / "missing.json", "--out", tmp_path / "dsm.tsv"])
        assert code != 0


@pytest.mark.parametrize(
    "argv",
    [["replay", "--events", "{missing}"],
     ["mine", "--annotated", "{missing}", "--grouping", "{grouping}"],
     ["report", "--annotated", "{missing}", "--grouping", "{grouping}"],
     ["report", "--annotated", "{empty}", "--deliveries", "{missing}", "--grouping", "{grouping}"],
     ["report", "--annotated", "{empty}", "--affect", "{missing}", "--grouping", "{grouping}"]],
    ids=["replay-events", "mine-annotated", "report-annotated", "report-deliveries",
         "report-affect"],
)
def test_missing_input_directory_is_an_error_line(tmp_path, capsys, argv):
    missing, empty, grouping, out = (tmp_path / name for name in
                                     ("missing", "empty", "grouping.json", "out"))
    empty.mkdir()
    grouping.write_text('{"s1": "High"}')
    argv = [arg.format(missing=missing, empty=empty, grouping=grouping) for arg in argv]
    assert run([*argv, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {missing}: no such directory\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, bad, problem",
    [(["simulate", "--expert", "{dir}", "--out", "{out}"], "{dir}", "is a directory"),
     (["simulate", "--profiles", "{dir}", "--out", "{out}"], "{dir}", "is a directory"),
     (["simulate", "--trees", "{dir}", "--out", "{out}"], "{dir}", "is a directory"),
     (["simulate", "--engine-config", "{dir}", "--out", "{out}"], "{dir}", "is a directory"),
     (["replay", "--events", "{logs}", "--out", "{out}"], "{logs}/x.jsonl", "is a directory"),
     (["mine", "--annotated", "{empty}", "--grouping", "{dir}", "--out", "{out}/dsm.tsv"],
      "{dir}", "is a directory"),
     (["report", "--annotated", "{empty}", "--grouping", "{dir}", "--out", "{out}"],
      "{dir}", "is a directory"),
     (["report", "--annotated", "{empty}", "--grouping", "{grouping}", "--outcomes", "{dir}",
       "--out", "{out}"], "{dir}", "is a directory"),
     (["score", "--student-map", "{dir}"], "{dir}", "is a directory"),
     (["replay", "--events", "{file}", "--out", "{out}"], "{file}", "not a directory"),
     (["mine", "--annotated", "{file}", "--grouping", "{grouping}", "--out", "{out}/dsm.tsv"],
      "{file}", "not a directory"),
     (["report", "--annotated", "{file}", "--grouping", "{grouping}", "--out", "{out}"],
      "{file}", "not a directory"),
     (["report", "--annotated", "{empty}", "--deliveries", "{file}", "--grouping", "{grouping}",
       "--out", "{out}"], "{file}", "not a directory"),
     (["report", "--annotated", "{empty}", "--affect", "{file}", "--grouping", "{grouping}",
       "--out", "{out}"], "{file}", "not a directory")],
    ids=["simulate-expert", "simulate-profiles", "simulate-trees", "simulate-engine-config",
         "replay-events-log", "mine-grouping", "report-grouping", "report-outcomes",
         "score-student-map", "replay-events", "mine-annotated", "report-annotated",
         "report-deliveries", "report-affect"],
)
def test_wrong_kind_of_path_is_an_error_line(tmp_path, capsys, argv, bad, problem):
    """A directory where a file is expected, or a file where a directory
    is, is one error line naming the path, and nothing is written."""
    names = {name: tmp_path / name for name in
             ("dir", "logs", "empty", "file", "grouping", "out")}
    for name in ("dir", "logs/x.jsonl", "empty"):
        (tmp_path / name).mkdir(parents=True)
    names["file"].write_text("{}")
    names["grouping"].write_text('{"s1": "High"}')
    before = sorted(tmp_path.rglob("*"))
    assert run([arg.format(**names) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: {bad.format(**names)}: {problem}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_every_mapcoach_exception_is_a_value_error():
    """`main` reports bad input by catching ValueError and OSError, so each
    exception class a mapcoach module defines must be a ValueError."""
    defined = {}
    for info in pkgutil.iter_modules(mapcoach.__path__):
        module = importlib.import_module(f"mapcoach.{info.name}")
        defined.update((f"{module.__name__}.{name}", cls) for name, cls in vars(module).items()
                       if isinstance(cls, type) and issubclass(cls, BaseException)
                       and cls.__module__ == module.__name__)
    assert "mapcoach.logio.FormatError" in defined and len(defined) >= 18, sorted(defined)
    assert [name for name, cls in sorted(defined.items()) if not issubclass(cls, ValueError)] == []


def run_subprocess(argv, timeout=None):
    """Run the CLI in a fresh interpreter, so a traceback reaches stderr; a
    run past `timeout` seconds is killed and raises TimeoutExpired."""
    src = str(Path(mapcoach.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "mapcoach.cli", *map(str, argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=timeout,
    )


def assert_error_line(proc, *names):
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    for name in names:
        assert name in proc.stderr


def run_on_annotated(command, tmp_path, annotated_text, grouping_text='{"s1": "High"}',
                     extra=()):
    """`mine` or `report` in a subprocess on one student's annotated log."""
    annotated = tmp_path / "annotated"
    annotated.mkdir()
    (annotated / "s1.jsonl").write_text(annotated_text)
    grouping = tmp_path / "grouping.json"
    grouping.write_text(grouping_text)
    return run_subprocess([
        command, "--annotated", annotated, "--grouping", grouping,
        "--out", tmp_path / ("dsm.tsv" if command == "mine" else "report"), *extra,
    ])


class TestBadAnnotatedRecord:
    RECORD = {"student": "s1", "t": 0.0, "duration": 5.0, "kind": "read", "page": "p",
              "effectiveness": "neutral", "long": False, "score": 0}

    @pytest.mark.parametrize("command", ["mine", "report"])
    def test_missing_process_is_an_error_line_not_a_traceback(self, command, tmp_path):
        proc = run_on_annotated(command, tmp_path, json.dumps(self.RECORD) + "\n")
        assert_error_line(proc, "s1.jsonl")

    def test_line_that_is_not_an_object_names_file_and_line(self, tmp_path):
        record = dict(self.RECORD, process="IA")
        proc = run_on_annotated("mine", tmp_path, json.dumps(record) + "\n\n[1, 2]\n")
        assert_error_line(proc, "s1.jsonl", "line 3")

    def test_grouping_that_is_not_an_object_is_an_error_line(self, tmp_path):
        record = dict(self.RECORD, process="IA")
        proc = run_on_annotated("mine", tmp_path, json.dumps(record) + "\n", grouping_text='["s1"]')
        assert_error_line(proc, "grouping.json")


class TestBadOutcomes:
    @pytest.mark.parametrize(
        "record, message",
        [
            ({"student": "s1", "pre": 1, "max": 23}, "missing field 'post'"),
            ({"student": "s1", "pre": "x", "post": 3, "max": 23}, "field 'pre' cannot be str"),
            ({"student": "s1", "pre": 23, "post": 23, "max": 23},
             "need finite scores with pre < max"),
            ({"student": "s1", "pre": True, "post": 3, "max": 23}, "field 'pre' cannot be bool"),
            ({"student": "s1", "pre": 1, "post": "7", "max": 23}, "field 'post' cannot be str"),
        ],
        ids=["missing-post", "pre-not-a-number", "pre-at-max", "pre-is-bool", "post-is-string"],
    )
    def test_bad_record_is_an_error_line_naming_the_file(self, tmp_path, record, message):
        outcomes = tmp_path / "outcomes.jsonl"
        outcomes.write_text(json.dumps(record) + "\n")
        annotated = json.dumps(dict(TestBadAnnotatedRecord.RECORD, process="IA")) + "\n"
        proc = run_on_annotated("report", tmp_path, annotated, extra=["--outcomes", outcomes])
        assert_error_line(proc, f"error: {outcomes}: ", message)
        assert not (tmp_path / "report").exists()


class TestEngineConfigFile:
    def test_explicit_flag_overrides_the_file(self, sim_dir, tmp_path):
        config = tmp_path / "engine.json"
        config.write_text('{"min_inter_scaffold_seconds": 15}')
        replay = ["replay", "--events", sim_dir / "events",
                  "--expert", sim_dir / "expert-map.json", "--engine-config", config]

        def deliveries(out):
            return {p.name: p.read_bytes() for p in sorted((out / "deliveries").glob("*.jsonl"))}

        # the simulation ran at the default 60 s, which the file alone changes
        assert run([*replay, "--out", tmp_path / "file"]) == 0
        assert deliveries(tmp_path / "file") != deliveries(sim_dir)
        proc = run_subprocess([*replay, "--min-inter-scaffold", 60, "--out", tmp_path / "flag"])
        assert proc.returncode == 0, proc.stderr
        assert deliveries(tmp_path / "flag") == deliveries(sim_dir)

    @pytest.mark.parametrize(
        "text",
        ["[1, 2]", '{"enc3_every": "3"}', '{"enc3_every": 0}', '{"long_threshold": NaN}',
         '{"hint1_window_seconds": Infinity}', '{"long_threshold": 1%s}' % ("0" * 400)],
        ids=["not-an-object", "wrong-type", "out-of-range", "nan", "infinite", "huge-integer"],
    )
    def test_bad_file_is_an_error_line_naming_it(self, tmp_path, text):
        config = tmp_path / "engine.json"
        config.write_text(text)
        proc = run_subprocess(["replay", "--events", tmp_path, "--engine-config", config,
                               "--out", tmp_path / "out"])
        assert_error_line(proc)
        assert proc.stderr.startswith(f"error: {config}: ")

    def test_out_of_range_flag_does_not_name_the_file(self, tmp_path):
        config = tmp_path / "engine.json"
        config.write_text('{"enc3_every": 2}')
        proc = run_subprocess(["replay", "--events", tmp_path, "--engine-config", config,
                               "--enc3-every", 0, "--out", tmp_path / "out"])
        assert_error_line(proc)
        assert proc.stderr == "error: enc3_every must be >= 1\n"


    @pytest.mark.parametrize("flag", ["--long-threshold", "--min-inter-scaffold"])
    def test_non_finite_flag_is_an_error_line(self, tmp_path, flag):
        proc = run_subprocess(["replay", "--events", tmp_path, flag, "nan",
                               "--out", tmp_path / "out"])
        assert_error_line(proc, "must be finite")


class TestNegativeFloatValues:
    """A negative float argparse does not read as a number, such as -inf, is
    still the option's value, so a bad one is an error line, not usage."""

    @pytest.fixture()
    def two_groups(self, tmp_path):
        annotated = tmp_path / "annotated"
        annotated.mkdir()
        for student in ("s1", "s2"):
            record = dict(TestBadAnnotatedRecord.RECORD, process="IA", student=student)
            (annotated / f"{student}.jsonl").write_text(json.dumps(record) + "\n")
        (tmp_path / "grouping.json").write_text('{"s1": "High", "s2": "Low"}')
        return tmp_path

    @pytest.mark.parametrize(
        "argv, message",
        [(["simulate", "--budget", "-inf"], "duration_budget must be finite and positive, got -inf"),
         (["simulate", "--budget", "-1e3"], "duration_budget must be finite and positive, got -1000.0"),
         (["replay", "--events", "{tmp}", "--coherence-lookback", "-inf"],
          "coherence lookback must be >= 0 seconds, got -inf"),
         (["replay", "--events", "{tmp}", "--long-threshold", "-inf"],
          "long_threshold must be finite"),
         (["replay", "--events", "{tmp}", "--min-inter-scaffold", "-inf"],
          "min_inter_scaffold_seconds must be finite"),
         (["replay", "--events", "{tmp}", "--hint1-window-seconds", "-inf"],
          "hint1_window_seconds must be finite"),
         (["mine", "--annotated", "{tmp}/annotated", "--grouping", "{tmp}/grouping.json",
           "--s-threshold", "-inf"], "s_threshold must be in (0, 1]")],
        ids=["budget", "budget-exponent", "coherence-lookback", "long-threshold",
             "min-inter-scaffold", "hint1-window-seconds", "s-threshold"],
    )
    def test_is_an_error_line(self, two_groups, capsys, argv, message):
        argv = [a.format(tmp=two_groups) for a in argv] + ["--out", two_groups / "out"]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (two_groups / "out").exists()

    def test_without_an_option_it_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["score", "-inf", "--student-map", "map.json"])
        assert err.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestOptionValueTypes:
    """An int or float option value that does not convert is an error line
    and exit 1, before any output; other usage errors keep argparse's usage
    block and exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [(["simulate", "--high", "1.5"], "argument --high: invalid int value: '1.5'"),
         (["simulate", "--budget", "abc"], "argument --budget: invalid float value: 'abc'"),
         (["replay", "--events", "{tmp}", "--enc3-every", "x"],
          "argument --enc3-every: invalid int value: 'x'"),
         (["replay", "--events", "{tmp}", "--coherence-lookback", "soon"],
          "argument --coherence-lookback: invalid float value: 'soon'"),
         (["mine", "--annotated", "{tmp}", "--grouping", "{tmp}/g.json", "--max-len", "4.0"],
          "argument --max-len: invalid int value: '4.0'"),
         (["mine", "--annotated", "{tmp}", "--grouping", "{tmp}/g.json", "--s-threshold", "-"],
          "argument --s-threshold: invalid float value: '-'")],
        ids=["simulate-int", "simulate-float", "replay-int", "replay-float", "mine-int",
             "mine-float"],
    )
    def test_is_an_error_line(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run([a.format(tmp=tmp_path) for a in argv] + ["--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["nosuch", "--out", "o"], ["simulate", "--out", "o", "--budget"]],
        ids=["unknown-subcommand", "option-without-a-value"],
    )
    def test_other_usage_errors_exit_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestNoLoggedTime:
    """`report` on an annotated log with no logged time, as replay writes for
    an empty events log, is an error line naming the file."""

    @pytest.mark.parametrize(
        "text",
        ["", json.dumps(dict(TestBadAnnotatedRecord.RECORD, process="IA", duration=0.0)) + "\n"],
        ids=["empty", "zero-durations"],
    )
    def test_is_an_error_line_naming_the_file(self, tmp_path, text):
        proc = run_on_annotated("report", tmp_path, text)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {tmp_path / 'annotated' / 's1.jsonl'}: no logged time in session\n"

    def test_outside_the_grouping_it_is_skipped(self, tmp_path):
        proc = run_on_annotated("report", tmp_path, "", grouping_text="{}")
        assert proc.returncode == 0, proc.stderr


class TestRecordStudentMatchesFile:
    EVENT = {"student": "s2", "t": 0.0, "duration": 5.0, "kind": "read", "page": "p"}

    def test_replay_rejects_another_students_events(self, tmp_path):
        events = tmp_path / "events"
        events.mkdir()
        (events / "s1.jsonl").write_text(json.dumps(self.EVENT) + "\n")
        proc = run_subprocess(["replay", "--events", events, "--out", tmp_path / "out"])
        assert_error_line(proc, "s1.jsonl", "'s2'")
        assert proc.stderr.startswith(f"error: {events / 's1.jsonl'}: ")

    @pytest.mark.parametrize("command", ["mine", "report"])
    def test_another_students_annotated_log(self, command, tmp_path):
        record = dict(TestBadAnnotatedRecord.RECORD, process="IA", student="s2")
        proc = run_on_annotated(command, tmp_path, json.dumps(record) + "\n")
        assert_error_line(proc, "s1.jsonl", "'s2'")

    def test_report_rejects_another_students_deliveries(self, sim_dir, tmp_path):
        replayed = tmp_path / "replay"
        assert run(["replay", "--events", sim_dir / "events",
                    "--expert", sim_dir / "expert-map.json", "--out", replayed]) == 0
        logs = sorted((replayed / "deliveries").glob("*.jsonl"))
        donor = next(p for p in logs if p.read_text())
        victim = next(p for p in logs if p != donor)
        victim.write_text(donor.read_text())
        proc = run_subprocess([
            "report", "--annotated", replayed / "annotated",
            "--deliveries", replayed / "deliveries",
            "--grouping", sim_dir / "grouping.json", "--out", tmp_path / "report",
        ])
        assert_error_line(proc, str(victim), repr(donor.stem))

    def test_report_rejects_another_students_affect(self, sim_dir, tmp_path):
        replayed = tmp_path / "replay"
        assert run(["replay", "--events", sim_dir / "events",
                    "--expert", sim_dir / "expert-map.json", "--out", replayed]) == 0
        affect = sim_dir / "affect"
        victim = affect / "low-000.jsonl"
        victim.write_bytes((affect / "high-000.jsonl").read_bytes())
        proc = run_subprocess([
            "report", "--annotated", replayed / "annotated", "--affect", affect,
            "--grouping", sim_dir / "grouping.json", "--out", tmp_path / "report",
        ])
        assert_error_line(proc)
        assert proc.stderr.startswith(f"error: {victim}: record 1 is for student 'high-000'")


class TestBadEventRecord:
    @pytest.mark.parametrize(
        "field, value",
        [("t", "nan"), ("t", "inf"), ("t", 10 ** 400), ("duration", -5), ("duration", "nan")],
        ids=["nan-time", "infinite-time", "huge-integer-time", "negative-duration",
             "nan-duration"],
    )
    def test_replay_fails_naming_the_file(self, tmp_path, field, value):
        events = tmp_path / "events"
        events.mkdir()
        record = {"student": "s1", "t": 0.0, "duration": 5.0, "kind": "read", "page": "p"}
        (events / "s1.jsonl").write_text(json.dumps(dict(record, **{field: value})) + "\n")
        proc = run_subprocess(["replay", "--events", events, "--out", tmp_path / "out"])
        assert_error_line(proc, "s1.jsonl")
        assert not list((tmp_path / "out").rglob("*.jsonl"))


class TestQuizScopeInEvents:
    @pytest.fixture()
    def cohort(self, tmp_path):
        """A 1+1 cohort, with the path and lines of an events log holding a
        quiz and the index of its first quiz record."""
        out = tmp_path / "sim"
        assert run(["simulate", "--high", 1, "--low", 1, "--seed", 3,
                    "--budget", 600, "--out", out]) == 0
        for path in sorted((out / "events").glob("*.jsonl")):
            lines = path.read_text().splitlines()
            for i, line in enumerate(lines):
                if json.loads(line)["kind"] == "take_quiz":
                    return out, path, lines, i
        pytest.fail("the cohort took no quiz")

    def replay_with_scope(self, cohort, scope):
        out, path, lines, i = cohort
        record = dict(json.loads(lines[i]), scope=scope)
        path.write_text("\n".join([*lines[:i], json.dumps(record), *lines[i + 1:]]) + "\n")
        return run_subprocess(["replay", "--events", out / "events",
                               "--expert", out / "expert-map.json", "--out", out / "replay"])

    def test_non_string_scope_is_an_error_line(self, cohort):
        proc = self.replay_with_scope(cohort, 3)
        assert_error_line(proc, str(cohort[1]), "bad quiz scope 3")

    def test_unknown_section_names_file_student_and_section(self, cohort):
        proc = self.replay_with_scope(cohort, "section:nowhere")
        path = cohort[1]
        assert_error_line(proc)
        assert proc.stderr == (
            f"error: {path}: student {path.stem}: unknown quiz section 'nowhere'\n"
        )


def rewrite_log(path, change, *, kind=None, every=False):
    """Apply change(record) to the first record of a JSON-lines log (the
    first of that kind, if given) or to every record."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    targets = [record for record in records if kind is None or record["kind"] == kind]
    assert targets, f"{path} has no record to change"
    for record in targets if every else targets[:1]:
        change(record)
    path.write_text("".join(json.dumps(record) + "\n" for record in records))


@pytest.fixture()
def cohort_copy(small_cohort, tmp_path):
    """A writable copy of the small replayed cohort."""
    work = tmp_path / "sim"
    shutil.copytree(small_cohort, work)
    return work


class TestEventPayloadTypes:
    @pytest.mark.parametrize(
        "kind, field, value, message",
        [("quiz_expl", "question", {"a": [1]}, "field 'question' cannot be dict"),
         ("quiz_expl", "question", True, "field 'question' cannot be bool"),
         ("quiz_expl", "question", "1", "field 'question' cannot be str"),
         ("make_notes", "note", [1, 2], "field 'note' cannot be list"),
         ("make_notes", "note", 3, "field 'note' cannot be int")],
        ids=["object-question", "bool-question", "string-question", "list-note", "number-note"],
    )
    def test_replay_fails_naming_file_and_field(self, cohort_copy, kind, field, value, message):
        path = cohort_copy / "events" / "high-000.jsonl"
        rewrite_log(path, lambda record: record.update({field: value}), kind=kind)
        proc = run_subprocess(["replay", "--events", cohort_copy / "events",
                               "--expert", cohort_copy / "expert-map.json",
                               "--out", cohort_copy / "replay"])
        assert_error_line(proc)
        assert proc.stderr == f"error: {path}: {message}\n"


class TestAffectAndDeliveryRecords:
    def report(self, work):
        return run_subprocess([
            "report", "--annotated", work / "annotated", "--deliveries", work / "deliveries",
            "--affect", work / "affect", "--grouping", work / "grouping.json",
            "--out", work / "report",
        ])

    @pytest.mark.parametrize(
        "change, message",
        [(lambda r: r.update(likelihoods=[1]), "field 'likelihoods' cannot be list"),
         (lambda r: r.update(likelihoods=None), "field 'likelihoods' cannot be NoneType"),
         (lambda r: r["likelihoods"].pop("boredom"), "likelihoods miss boredom"),
         (lambda r: r["likelihoods"].update(confusion=1.5),
          "likelihood 'confusion' must be in [0, 1], got 1.5"),
         (lambda r: r["likelihoods"].update(confusion=True), "field 'confusion' cannot be bool"),
         (lambda r: r["likelihoods"].update(confusion=float("nan")),
          "likelihood 'confusion' must be in [0, 1], got nan"),
         (lambda r: r.update(t="0"), "field 't' cannot be str"),
         (lambda r: r.update(t=float("inf")), "field 't' must be finite, got inf")],
        ids=["list-likelihoods", "null-likelihoods", "missing-emotion", "likelihood-above-one",
             "bool-likelihood", "nan-likelihood", "string-time", "infinite-time"],
    )
    def test_bad_affect_record_is_an_error_line(self, cohort_copy, change, message):
        path = cohort_copy / "affect" / "low-000.jsonl"
        rewrite_log(path, change)
        proc = self.report(cohort_copy)
        assert_error_line(proc)
        assert proc.stderr == f"error: {path}: {message}\n"

    def test_nan_string_confusion_everywhere_is_an_error_line(self, cohort_copy):
        for path in sorted((cohort_copy / "affect").glob("*.jsonl")):
            rewrite_log(path, lambda r: r["likelihoods"].update(confusion="nan"), every=True)
        proc = self.report(cohort_copy)
        assert_error_line(proc, "field 'confusion' cannot be str")
        assert not (cohort_copy / "report" / "impact.tsv").exists()

    @pytest.mark.parametrize(
        "value, message",
        [("nan", "field 't' cannot be str"), (float("nan"), "field 't' must be finite, got nan"),
         (True, "field 't' cannot be bool")],
        ids=["nan-string", "nan", "bool"],
    )
    def test_bad_delivery_time_is_an_error_line(self, cohort_copy, value, message):
        path = cohort_copy / "deliveries" / "high-000.jsonl"
        rewrite_log(path, lambda r: r.update(t=value))
        proc = self.report(cohort_copy)
        assert_error_line(proc)
        assert proc.stderr == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "hints, message",
        [({"colour": "red"}, "TargetHints.__init__() got an unexpected keyword argument 'colour'"),
         (["link"], "mapcoach.engine.TargetHints() argument after ** must be a mapping, not list")],
        ids=["unknown-key", "not-an-object"],
    )
    def test_bad_delivery_hints_are_an_error_line(self, cohort_copy, hints, message):
        path = cohort_copy / "deliveries" / "high-000.jsonl"
        rewrite_log(path, lambda r: r.update(hints=hints))
        proc = self.report(cohort_copy)
        assert_error_line(proc)
        assert proc.stderr == f"error: {path}: {message}\n"


class TestBadInputWritesNothing:
    """`replay`, `mine` and `report` read and check every student's input,
    and replay every events log, before they write: a bad log of the second
    of two students is an error line naming it, and nothing under --out."""

    COMMANDS = {
        "replay": (["replay", "--events", "{work}/events", "--expert", "{work}/expert-map.json",
                    "--out", "{work}/out"], "out"),
        "mine": (["mine", "--annotated", "{work}/annotated", "--grouping",
                  "{work}/grouping.json", "--out", "{work}/tables/dsm.tsv"], "tables"),
        "report": (["report", "--annotated", "{work}/annotated",
                    "--deliveries", "{work}/deliveries", "--affect", "{work}/affect",
                    "--grouping", "{work}/grouping.json", "--outcomes", "{work}/outcomes.jsonl",
                    "--out", "{work}/report"], "report"),
    }
    BAD_ANNOTATED = dict(TestBadAnnotatedRecord.RECORD, student="low-000", process="XX")

    @pytest.mark.parametrize(
        "command, log, record, message",
        [("replay", "events", {"student": "low-000", "t": "x", "duration": 5.0,
                                "kind": "read", "page": "p"}, "field 't' cannot be str"),
         ("replay", "events", {"student": "low-000", "t": 1e6, "duration": 5.0,
                               "kind": "map_edit", "edit": {"action": "delete_link",
                                                            "source": "a", "target": "b"}},
          "student low-000: event "),
         ("mine", "annotated", BAD_ANNOTATED, "'XX' is not a valid Process"),
         ("report", "annotated", BAD_ANNOTATED, "'XX' is not a valid Process"),
         ("report", "deliveries", [1], "expected a JSON object, got list"),
         ("report", "affect", {"student": "low-000", "t": 1e6, "likelihoods": []},
          "field 'likelihoods' cannot be list")],
        ids=["replay-string-time", "replay-missing-link", "mine-annotated", "report-annotated",
             "report-deliveries", "report-affect"],
    )
    def test_is_an_error_line_and_no_output(self, cohort_copy, command, log, record, message):
        bad = cohort_copy / log / "low-000.jsonl"
        assert sorted(p.name for p in bad.parent.glob("*.jsonl")) == ["high-000.jsonl", bad.name]
        bad.write_text(bad.read_text() + json.dumps(record) + "\n")
        argv, out = self.COMMANDS[command]
        proc = run_subprocess([arg.format(work=cohort_copy) for arg in argv])
        assert_error_line(proc, str(bad), message)
        assert proc.stderr.count("\n") == 1
        assert not (cohort_copy / out).exists()


class TestPathExplosionInAQuiz:
    """A student map holding a 10-clique of expert concepts makes grading
    a quiz on it raise PathExplosion. A quiz is graded only when it is
    read, so it ends `replay` only when a rule reads it."""

    def events(self, tmp_path, last_read):
        """One student's events directory: the clique, a short read, a quiz
        and a read of last_read seconds."""
        expert = default_expert_map()
        clique = expert.map.sorted_concepts()[:10]
        page = expert.map.sorted_links()[0].source_page
        edits = [MapEdit(MapEditAction.ADD_CONCEPT, concept=c) for c in clique] + [
            MapEdit(MapEditAction.ADD_LINK, link=CausalLink(u.id, v.id, Sign.INCREASE))
            for u in clique for v in clique if u is not v
        ]
        steps = [(ActionKind.MAP_EDIT, 2.0, {"edit": edit}) for edit in edits] + [
            (ActionKind.READ, 5.0, {"page": page}),
            (ActionKind.TAKE_QUIZ, 10.0, {"quiz_scope": QuizScope.everything()}),
            (ActionKind.READ, last_read, {"page": page}),
        ]
        events, t = [], 0.0
        for kind, duration, payload in steps:
            events.append(ActionEvent("s1", t, kind, duration, **payload))
            t += duration
        directory = tmp_path / "events"
        directory.mkdir()
        logio.write_events(events, directory / "s1.jsonl")
        return directory, events

    def test_a_quiz_no_rule_reads_does_not_end_replay(self, tmp_path, capsys):
        directory, events = self.events(tmp_path, last_read=5.0)
        step = SessionStep(default_expert_map())
        for event in events:
            step.feed(event)
        with pytest.raises(PathExplosion):
            step.last_quiz.answers
        assert run(["replay", "--events", directory, "--out", tmp_path / "out"]) == 0
        assert capsys.readouterr().err == ""

    def test_a_quiz_a_rule_reads_ends_replay_with_an_error_line(self, tmp_path, capsys):
        # a long read after a quiz: the hint6 rule reads the quiz
        directory, _ = self.events(tmp_path, last_read=90.0)
        assert run(["replay", "--events", directory, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {directory / 's1.jsonl'}: student s1: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestOutputPins:
    """Bytes and error lines pinned when the log readers and writers were
    rewritten for speed; a change to either shows here."""

    SHA256 = "55ad69bad6c9bfaa0ab7d1bc9b19604b41e9966978a215bad8619182ec18a5be"
    EVENT = {"student": "s1", "t": 0.0, "duration": 5.0, "kind": "read", "page": "p"}

    def test_simulate_and_replay_write_the_pinned_bytes(self, sim_dir, tmp_path):
        assert run(["replay", "--events", sim_dir / "events",
                    "--expert", sim_dir / "expert-map.json", "--out", tmp_path / "replay"]) == 0
        digest = hashlib.sha256()
        for root in (sim_dir, tmp_path / "replay"):
            for path in sorted(p for p in root.rglob("*")
                               if p.is_file() and p.name != "manifest.json"):
                digest.update(path.relative_to(root).as_posix().encode() + b"\0"
                              + path.read_bytes())
        assert digest.hexdigest() == self.SHA256

    @pytest.mark.parametrize(
        "line, message",
        [("{} {}", "line 2: Extra data"),
         ("[1]", "line 2: expected a JSON object, got list"),
         ('{"student": ', "line 2: Expecting value"),
         (json.dumps(dict(EVENT, kind="jump")), "'jump' is not a valid ActionKind")],
        ids=["two-values", "array", "truncated", "unknown-kind"],
    )
    def test_events_error_lines(self, tmp_path, line, message):
        events = tmp_path / "events"
        events.mkdir()
        path = events / "s1.jsonl"
        path.write_text(json.dumps(self.EVENT) + "\n" + line + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert run(["replay", "--events", events, "--out", tmp_path / "out"]) == 1
        assert err.getvalue() == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("command", ["mine", "report"])
    def test_annotated_error_line(self, tmp_path, command):
        record = dict(TestBadAnnotatedRecord.RECORD, process="XX")
        proc = run_on_annotated(command, tmp_path, json.dumps(record) + "\n")
        path = tmp_path / "annotated" / "s1.jsonl"
        assert proc.stderr == f"error: {path}: 'XX' is not a valid Process\n"


class TestCoherenceLookbackPin:
    """Replay's bytes with a coherence lookback, pinned when coherence was
    still tagged by a second pass over the replayed events; the annotator
    now tags each edit as it feeds and must write the same bytes."""

    SHA256 = "ccab4533d73b1a7f3d9944b34ba37da536dbb809d129800b66bf6ab7e143ea22"

    def test_replay_with_a_lookback_writes_the_pinned_bytes(self, sim_dir, tmp_path):
        # a 120 s lookback tags 7 edits coherent and 27 not, against 25 and
        # 9 over the whole session
        out = tmp_path / "replay"
        assert run(["replay", "--events", sim_dir / "events",
                    "--expert", sim_dir / "expert-map.json", "--out", out,
                    "--coherence-lookback", 120]) == 0
        digest = hashlib.sha256()
        for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"):
            digest.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == self.SHA256


DEEP = "[" * 100_000 + "]" * 100_000


class TestDeeplyNestedJson:
    """JSON nested past the decoder's recursion limit is an error line
    naming the file, not a RecursionError traceback."""

    def test_events_line(self, tmp_path):
        events = tmp_path / "events"
        events.mkdir()
        path = events / "s1.jsonl"
        path.write_text(json.dumps(TestOutputPins.EVENT) + "\n" + DEEP + "\n")
        proc = run_subprocess(["replay", "--events", events, "--out", tmp_path / "out"])
        assert_error_line(proc)
        assert proc.stderr == f"error: {path}: line 2: JSON nested too deeply\n"

    def test_expert_map(self, sim_dir, tmp_path):
        expert = tmp_path / "expert.json"
        expert.write_text(DEEP)
        proc = run_subprocess(["replay", "--events", sim_dir / "events", "--expert", expert,
                               "--out", tmp_path / "out"])
        assert_error_line(proc)
        assert proc.stderr == f"error: {expert}: JSON nested too deeply\n"

    @pytest.mark.parametrize("flag", ["--engine-config", "--profiles", "--trees"])
    def test_simulate_settings_files(self, tmp_path, capsys, flag):
        path = tmp_path / "deep.json"
        path.write_text(DEEP)
        assert run(["simulate", flag, path, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"

    @pytest.mark.parametrize("command", ["mine", "report"])
    def test_grouping(self, tmp_path, command):
        proc = run_on_annotated(command, tmp_path, "", grouping_text=DEEP)
        assert proc.stderr == f"error: {tmp_path / 'grouping.json'}: JSON nested too deeply\n"


def _tree(responses):
    return {"enc1": {"root": "x", "nodes": [{"id": "x", "prompt": "p", "responses": responses}]}}


def _short_read_duration_profiles():
    from mapcoach.logio import profiles_to_document
    from mapcoach.simulate import bundled_profiles

    doc = profiles_to_document(bundled_profiles())
    doc["high"]["read_duration"] = [40]
    return doc


def _profiles_with_a_bool_share():
    from mapcoach.logio import profiles_to_document
    from mapcoach.simulate import bundled_profiles

    doc = profiles_to_document(bundled_profiles())
    doc["high"]["read_effectiveness"] = True
    return doc


def _profiles_without_low():
    from mapcoach.logio import profiles_to_document
    from mapcoach.simulate import bundled_profiles

    doc = profiles_to_document(bundled_profiles())
    del doc["low"]
    return doc


class TestMalformedDocuments:
    """A settings or map file holding valid JSON of the wrong shape is one
    error line naming the file, not a traceback."""

    DOCUMENTS = {
        "array": [1],
        "tree-without-nodes": {"enc1": {"root": "x"}},
        "node-without-exit": _tree([{"text": "again", "goto": "x"}]),
        "goto-missing-node": _tree([{"text": "bye", "exit": True}, {"text": "on", "goto": "y"}]),
        "exit-not-true": _tree([{"text": "bye", "exit": "no", "goto": "x"}]),
        "profile-not-an-object": {"high": 3},
        "number": 3,
        "string": "x",
        "null": None,
        "read-duration-without-spread": _short_read_duration_profiles(),
        "profiles-without-low": _profiles_without_low(),
        "profile-share-a-bool": _profiles_with_a_bool_share(),
    }

    @pytest.mark.parametrize("document", DOCUMENTS.values(), ids=DOCUMENTS.keys())
    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--trees", "{path}", "--out", "{out}"],
         ["simulate", "--profiles", "{path}", "--out", "{out}"],
         ["replay", "--events", "{out}", "--expert", "{path}", "--out", "{out}"],
         ["score", "--student-map", "{path}"]],
        ids=["simulate-trees", "simulate-profiles", "replay-expert", "score-student-map"],
    )
    def test_is_one_error_line_naming_the_file(self, tmp_path, capsys, argv, document):
        path = tmp_path / "document.json"
        path.write_text(json.dumps(document))
        out = tmp_path / "out"
        assert run([a.format(path=path, out=out) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err

    def test_expert_map_without_a_page_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "expert.json"
        path.write_text(json.dumps({"format": "mapcoach-map/1",
                                    "concepts": [{"id": c, "name": c, "section": "s"}
                                                 for c in ("a", "b")],
                                    "links": [{"source": "a", "target": "b", "sign": "increase"}]}))
        assert run(["replay", "--events", tmp_path, "--expert", path,
                    "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == f"error: {path}: expert link a +-> b has no source page\n"

    def test_expert_concept_section_must_be_a_string(self, tmp_path):
        doc = logio.map_to_document(default_expert_map().map)
        doc["concepts"][0]["section"] = ["cold"]
        path = tmp_path / "expert.json"
        path.write_text(json.dumps(doc))
        proc = run_subprocess(["simulate", "--expert", path, "--out", tmp_path / "out"])
        assert_error_line(proc)
        assert proc.stderr == f"error: {path}: concept field 'section' cannot be list\n"

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--expert", "{path}", "--out", "{out}"],
         ["simulate", "--trees", "{path}", "--out", "{out}"],
         ["simulate", "--profiles", "{path}", "--out", "{out}"],
         ["simulate", "--engine-config", "{path}", "--out", "{out}"],
         ["mine", "--annotated", "{out}", "--grouping", "{path}", "--out", "{out}/dsm.tsv"]],
        ids=["expert", "trees", "profiles", "engine-config", "grouping"],
    )
    def test_decode_error_names_file_and_line(self, tmp_path, capsys, argv):
        path = tmp_path / "document.json"
        path.write_text("x")
        out = tmp_path / "out"
        assert run([a.format(path=path, out=out) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {path}: line 1: Expecting value\n"


def _chain_tree(n, cycle):
    """An enc1 tree of n nodes, each with an exit and a goto to the next;
    with `cycle` the last one leads back to the root."""
    nodes = []
    for i in range(n):
        responses = [{"text": "bye", "exit": True}]
        if i + 1 < n or cycle:
            responses.append({"text": "on", "goto": f"n{(i + 1) % n}"})
        nodes.append({"id": f"n{i}", "prompt": "p", "responses": responses})
    return {"enc1": {"root": "n0", "nodes": nodes}}


class TestDeepTrees:
    """A tree deeper than the interpreter's recursion limit is checked like
    any other: a long chain is accepted, a long cycle is one error line."""

    def test_a_long_chain_is_accepted(self, tmp_path):
        path = tmp_path / "trees.json"
        path.write_text(json.dumps(_chain_tree(3000, cycle=False)))
        out = tmp_path / "sim"
        proc = run_subprocess(["simulate", "--high", 1, "--low", 1, "--budget", 300,
                               "--trees", path, "--out", out], timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (out / "events" / "high-000.jsonl").exists()

    def test_a_long_cycle_is_one_error_line(self, sim_dir, tmp_path):
        path = tmp_path / "trees.json"
        path.write_text(json.dumps(_chain_tree(1200, cycle=True)))
        out = tmp_path / "out"
        proc = run_subprocess(["replay", "--events", sim_dir / "events", "--trees", path,
                               "--out", out], timeout=120)
        assert_error_line(proc)
        assert proc.stderr == f"error: {path}: cycle through node 'n0'\n"
        assert not out.exists()


def _expl_folded_into_read(mix):
    mix = dict(mix, read=mix["read"] + mix["quiz_expl"])
    del mix["quiz_expl"]
    return mix


class TestIncompleteProfiles:
    """A profile whose activity mix or affect baseline lacks a member is one
    error line naming the file and the missing members, not a traceback
    once the simulation reaches them."""

    CASES = {
        "no-affect-baseline": (
            "high", "affect_baseline", lambda baseline: {},
            "affect_baseline lacks engaged_concentration, boredom, delight, confusion, "
            "frustration",
        ),
        "missing-emotion": (
            "low", "affect_baseline",
            lambda baseline: {k: v for k, v in baseline.items() if k != "confusion"},
            "affect_baseline lacks confusion",
        ),
        "missing-activity-kind": (
            "high", "activity_mix", _expl_folded_into_read, "activity_mix lacks quiz_expl",
        ),
    }

    @pytest.mark.parametrize("name, field, change, message", CASES.values(), ids=CASES.keys())
    def test_is_one_error_line_naming_the_missing_members(
        self, tmp_path, capsys, name, field, change, message
    ):
        from mapcoach.logio import profiles_to_document
        from mapcoach.simulate import bundled_profiles

        doc = profiles_to_document(bundled_profiles())
        doc[name][field] = change(doc[name][field])
        if field == "activity_mix":
            assert sum(doc[name][field].values()) == pytest.approx(1.0)
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(doc))
        assert run(["simulate", "--profiles", path, "--budget", 300,
                    "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()


class TestWrongJsonTypes:
    EVENT = {"student": "s1", "t": 0.0, "duration": 5.0, "kind": "read", "page": "p"}

    @pytest.mark.parametrize(
        "field, value",
        [("t", "0"), ("t", True), ("t", None), ("duration", "5"), ("duration", False)],
        ids=["string-time", "bool-time", "null-time", "string-duration", "bool-duration"],
    )
    def test_event_time_and_duration_must_be_numbers(self, tmp_path, field, value):
        events = tmp_path / "events"
        events.mkdir()
        (events / "s1.jsonl").write_text(json.dumps(dict(self.EVENT, **{field: value})) + "\n")
        proc = run_subprocess(["replay", "--events", events, "--out", tmp_path / "out"])
        assert_error_line(proc, "s1.jsonl", repr(field))

    @pytest.mark.parametrize("command", ["mine", "report"])
    @pytest.mark.parametrize(
        "field, value",
        [("score", "x"), ("score", None), ("score", True), ("score", 1.5),
         ("long", "yes"), ("long", 0), ("coherent", "no"), ("coherent", None)],
        ids=["string-score", "null-score", "bool-score", "float-score",
             "string-long", "number-long", "string-coherent", "null-coherent"],
    )
    def test_annotated_fields_must_have_their_types(self, tmp_path, command, field, value):
        record = dict(TestBadAnnotatedRecord.RECORD, process="IA", **{field: value})
        proc = run_on_annotated(command, tmp_path, json.dumps(record) + "\n")
        assert_error_line(proc, "s1.jsonl", repr(field))

    def test_valid_types_still_read(self, tmp_path):
        record = dict(TestBadAnnotatedRecord.RECORD, process="IA", t=0, duration=5,
                      coherent=True)
        proc = run_on_annotated("report", tmp_path, json.dumps(record) + "\n")
        assert proc.returncode == 0, proc.stderr


class _Drop:
    def __repr__(self):
        return "<drop the field>"


DROP = _Drop()
# Each log's mutable fields: a top-level name, or a (name, key) pair one
# level into an object or list.
LOG_FIELDS = {
    "events": ("student", "t", "duration", "kind", "page", "note", "edit", "scope", "question"),
    "affect": ("student", "t", "likelihoods", *(("likelihoods", e.value) for e in Emotion)),
    "deliveries": ("student", "kind", "agent", "t", "rule", "prev_index", "cur_index",
                   "prev_t", "cur_t", "detail", "hints", "transcript",
                   *(("hints", key) for key in ("link", "source", "target", "concept", "page")),
                   ("transcript", 0), ("transcript", 1)),
}
LOG_FIELDS["annotated"] = (*LOG_FIELDS["events"],
                           "process", "effectiveness", "long", "score", "coherent")
READERS = {"events": ("replay",), "annotated": ("mine", "report"),
           "affect": ("report",), "deliveries": ("report",)}


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def breaks_a_checked_type(log, field, value):
    """Whether the mutation leaves a field whose JSON type or range the
    readers check missing or wrong."""
    if log in ("affect", "deliveries"):
        if field == "t":
            return value is DROP or not is_number(value) or math.isnan(value)
        if log == "affect" and field == "likelihoods":
            return True  # no mutation leaves an object of the five emotions
        if log == "affect" and isinstance(field, tuple):  # one emotion's likelihood
            return not (is_number(value) and 0 <= value <= 1)
        return False
    if value is DROP:
        return field in ("t", "duration", "score", "long", "scope")
    if field in ("t", "duration"):
        return not is_number(value) or math.isnan(value)
    if field == "score":
        return not is_number(value) or not isinstance(value, int)
    if field in ("long", "coherent"):
        return not isinstance(value, bool)
    if field == "scope":
        return not isinstance(value, str)
    if field == "note":
        return value is not None and not isinstance(value, str)
    if field == "question":
        return value is not None and not (is_number(value) and isinstance(value, int))
    return False


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    """A simulated 1+1 cohort with its replayed, annotated logs."""
    root = tmp_path_factory.mktemp("small")
    assert run(["simulate", "--high", 1, "--low", 1, "--seed", 3,
                "--budget", 600, "--out", root / "sim"]) == 0
    assert run(["replay", "--events", root / "sim" / "events",
                "--expert", root / "sim" / "expert-map.json", "--out", root / "replay"]) == 0
    (root / "replay" / "annotated").rename(root / "sim" / "annotated")
    return root / "sim"


def field_slot(record, field):
    """The object or list that holds a top-level field, or one a level in,
    and the field's key there; None if the record has no such field."""
    container, key = (record, field) if isinstance(field, str) else (record.get(field[0]), field[1])
    if isinstance(container, dict) and key in container:
        return container, key
    if isinstance(container, list) and isinstance(key, int) and key < len(container):
        return container, key
    return None


def assert_no_nan_in_tables(out):
    for table in Path(out).glob("*.tsv"):
        assert not re.search(r"\bnan\b", table.read_text(), re.IGNORECASE), table.name


@settings(max_examples=100, deadline=None)
@given(
    target=st.sampled_from([(log, field) for log in sorted(LOG_FIELDS)
                            for field in LOG_FIELDS[log]]),
    pick=st.integers(0, 10_000),
    value=st.sampled_from([DROP, "x", 3, -2.5, True, None, [1], {"a": 1}, float("nan")]),
)
@example(target=("events", "scope"), pick=0, value=3)
@example(target=("annotated", "score"), pick=0, value="x")
@example(target=("annotated", "long"), pick=0, value=None)
@example(target=("annotated", "coherent"), pick=0, value=[1])
@example(target=("events", "t"), pick=0, value=True)
@example(target=("events", "question"), pick=0, value={"a": 1})
@example(target=("affect", ("likelihoods", "confusion")), pick=0, value="x")
@example(target=("affect", "likelihoods"), pick=0, value=[1])
@example(target=("deliveries", "t"), pick=0, value=float("nan"))
@example(target=("deliveries", ("transcript", 0)), pick=0, value=3)
def test_mutated_log_record_is_read_or_an_error_line(small_cohort, target, pick, value):
    """One field of one record of an events, annotated, affect or delivery
    log is dropped or given a value of another JSON type, at the top level
    or one level into an object or list; replay, mine and report each end in
    0 or 1, never raise and never write NaN into a table, and the commands
    that read the log fail with an error line when the mutation breaks a
    type or range the readers check."""
    log, field = target
    records = [
        (path, i, record)
        for path in sorted((small_cohort / log).glob("*.jsonl"))
        for i, record in enumerate(map(json.loads, path.read_text().splitlines()))
        if field_slot(record, field)
    ]
    assume(records)
    path, i, record = records[pick % len(records)]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "sim"
        shutil.copytree(small_cohort, work)
        container, key = field_slot(record, field)
        if value is DROP:
            del container[key]
        else:
            container[key] = value
        mutated = work / log / path.name
        lines = mutated.read_text().splitlines()
        lines[i] = json.dumps(record)
        mutated.write_text("\n".join(lines) + "\n")
        commands = {
            "replay": ["replay", "--events", work / "events",
                       "--expert", work / "expert-map.json", "--out", work / "out"],
            "mine": ["mine", "--annotated", work / "annotated",
                     "--grouping", work / "grouping.json", "--out", work / "dsm.tsv"],
            "report": ["report", "--annotated", work / "annotated",
                       "--deliveries", work / "deliveries", "--affect", work / "affect",
                       "--grouping", work / "grouping.json", "--out", work / "report"],
        }
        for name, argv in commands.items():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1), (name, err.getvalue())
            if name in READERS[log] and breaks_a_checked_type(log, field, value):
                assert code == 1, name
                assert err.getvalue().startswith("error: "), name
        assert_no_nan_in_tables(work / "report")
        assert_no_nan_in_tables(work)


LINK_KEYS = ("source", "target", "sign", "marking", "page")
# Each edit action's mutable fields, as a path from the edit.
EDIT_FIELDS = {
    "add_concept": (("action",), ("concept",), *(("concept", key) for key in
                                                 ("id", "name", "section"))),
    "delete_concept": (("action",), ("concept_id",)),
    "add_link": (("action",), ("link",), *(("link", key) for key in LINK_KEYS)),
    "delete_link": (("action",), ("source",), ("target",)),
    "modify_link": (("action",), ("old",), ("new",),
                    *((side, key) for side in ("old", "new") for key in LINK_KEYS)),
    "mark_link": (("action",), ("source",), ("target",), ("marking",)),
}


def breaks_an_edit_field(path, value):
    """Whether the mutation leaves an edit field the readers check missing
    or of the wrong type; no sampled value names an enum member."""
    if path[-1] == "page":  # a link's page: optional, a string or null
        return not (value is DROP or value is None or isinstance(value, str))
    if path[-1] == "marking" and len(path) == 2:  # a link's marking: optional
        return value is not DROP
    if path[-1] in ("id", "name", "section", "concept_id", "source", "target"):
        return not isinstance(value, str)
    return True  # action, sign, a mark edit's marking, a concept or link object


def edit_slot(edit, path, drop):
    """The object in an edit that holds the field at `path`, and the field's
    key there; None if there is no such object, or nothing to drop."""
    container = edit
    for key in path[:-1]:
        container = container.get(key)
        if not isinstance(container, dict):
            return None
    if drop and path[-1] not in container:
        return None
    return container, path[-1]


@pytest.fixture(scope="module")
def edit_cohort(small_cohort, tmp_path_factory):
    """small_cohort with a delete_concept edit, which the simulator never
    makes, appended to each events log, and the logs replayed again."""
    root = tmp_path_factory.mktemp("edits") / "sim"
    shutil.copytree(small_cohort, root)
    for path in sorted((root / "events").glob("*.jsonl")):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        concept = [r["edit"]["concept"]["id"] for r in records
                   if r["kind"] == "map_edit" and r["edit"]["action"] == "add_concept"][-1]
        last = records[-1]
        records.append({"student": last["student"], "t": last["t"] + last["duration"],
                        "duration": 5.0, "kind": "map_edit",
                        "edit": {"action": "delete_concept", "concept_id": concept}})
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
    shutil.rmtree(root / "annotated")
    assert run(["replay", "--events", root / "events", "--expert", root / "expert-map.json",
                "--out", root.parent / "replay"]) == 0
    (root.parent / "replay" / "annotated").rename(root / "annotated")
    return root


@settings(max_examples=100, deadline=None)
@given(
    target=st.sampled_from([(log, action, path) for log in ("annotated", "events")
                            for action in sorted(EDIT_FIELDS) for path in EDIT_FIELDS[action]]),
    pick=st.integers(0, 10_000),
    value=st.sampled_from([DROP, "x", 3, -2.5, True, None, [1], {"a": 1}, float("nan")]),
)
@example(target=("events", "delete_link", ("source",)), pick=0, value=[1])
@example(target=("events", "delete_concept", ("concept_id",)), pick=0, value=[1])
@example(target=("events", "delete_concept", ("concept_id",)), pick=0, value={"a": 1})
@example(target=("events", "add_concept", ("concept", "id")), pick=0, value=[1])
@example(target=("events", "add_link", ("link", "source")), pick=0, value={"a": 1})
def test_mutated_edit_field_is_read_or_an_error_line(edit_cohort, target, pick, value):
    """test_mutated_log_record_is_read_or_an_error_line one level further
    in: a field of the edit of one map_edit record of an events or annotated
    log, or of the concept or a link in it, is dropped or given a value of
    another JSON type. replay, mine and report each end in 0, or in 1 with
    exactly one error line, never raise and never write NaN into a table,
    and the commands that read the log fail when the mutation breaks a
    field the readers check."""
    log, action, path = target
    records = [
        (log_path, i, record)
        for log_path in sorted((edit_cohort / log).glob("*.jsonl"))
        for i, record in enumerate(map(json.loads, log_path.read_text().splitlines()))
        if record["kind"] == "map_edit" and record["edit"]["action"] == action
        and edit_slot(record["edit"], path, value is DROP)
    ]
    assume(records)
    log_path, i, record = records[pick % len(records)]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "sim"
        shutil.copytree(edit_cohort, work)
        container, key = edit_slot(record["edit"], path, value is DROP)
        if value is DROP:
            del container[key]
        else:
            container[key] = value
        mutated = work / log / log_path.name
        lines = mutated.read_text().splitlines()
        lines[i] = json.dumps(record)
        mutated.write_text("\n".join(lines) + "\n")
        commands = {
            "replay": ["replay", "--events", work / "events",
                       "--expert", work / "expert-map.json", "--out", work / "out"],
            "mine": ["mine", "--annotated", work / "annotated",
                     "--grouping", work / "grouping.json", "--out", work / "dsm.tsv"],
            "report": ["report", "--annotated", work / "annotated",
                       "--deliveries", work / "deliveries", "--affect", work / "affect",
                       "--grouping", work / "grouping.json", "--out", work / "report"],
        }
        for name, argv in commands.items():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1), (name, err.getvalue())
            if code == 1:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            if name in READERS[log] and breaks_an_edit_field(path, value):
                assert code == 1, name
        assert_no_nan_in_tables(work / "report")
        assert_no_nan_in_tables(work)


class TestScore:
    def test_scores_bundled_map(self, tmp_path, capsys):
        expert = default_expert_map()
        student_path = tmp_path / "student.json"
        logio.save_map(expert.map, student_path)
        assert run(["score", "--student-map", student_path]) == 0
        out = capsys.readouterr().out
        assert "map score: 15" in out

    def test_quiz_grading_output(self, tmp_path, capsys):
        expert = default_expert_map()
        student_path = tmp_path / "student.json"
        logio.save_map(expert.map, student_path)
        assert run(["score", "--student-map", student_path, "--quiz", "everything"]) == 0
        out = capsys.readouterr().out
        assert "100.0%" in out

    def test_unknown_flag_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["score", "--nonsense"])
        assert err.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestConfigSurfaces:
    def test_simulate_with_profiles_and_trees_files(self, tmp_path, capsys):
        import json as _json

        from mapcoach.engine import default_trees
        from mapcoach.logio import profiles_to_document, trees_to_document
        from mapcoach.simulate import bundled_profiles

        profiles_path = tmp_path / "profiles.json"
        profiles_path.write_text(
            _json.dumps(profiles_to_document(bundled_profiles()), indent=2)
        )
        trees_path = tmp_path / "trees.json"
        trees_path.write_text(_json.dumps(trees_to_document(default_trees())))
        out = tmp_path / "sim"
        assert run(["simulate", "--high", 1, "--low", 1, "--seed", 3,
                    "--budget", 500, "--profiles", profiles_path,
                    "--trees", trees_path, "--out", out]) == 0
        assert (out / "events" / "high-000.jsonl").exists()

    def test_engine_config_file_with_flag_override(self, tmp_path):
        import json as _json

        config_path = tmp_path / "engine.json"
        config_path.write_text(_json.dumps({"long_threshold": 10.0, "enc3_every": 2}))
        out = tmp_path / "sim"
        assert run(["simulate", "--high", 1, "--low", 1, "--seed", 3,
                    "--budget", 500, "--engine-config", config_path,
                    "--enc3-every", 5, "--out", out]) == 0
        manifest = _json.loads((out / "manifest.json").read_text())
        assert manifest["args"]["enc3_every"] == "5"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["--version"])
        assert err.value.code == 0
        assert "mapcoach" in capsys.readouterr().out


class TestRunRecords:
    def test_mine_writes_a_manifest_alongside_its_table(self, sim_dir, tmp_path):
        replay_out = tmp_path / "replay"
        assert run(["replay", "--events", sim_dir / "events",
                    "--expert", sim_dir / "expert-map.json", "--out", replay_out]) == 0
        dsm = tmp_path / "tables" / "dsm.tsv"
        assert run(["mine", "--annotated", replay_out / "annotated",
                    "--grouping", sim_dir / "grouping.json", "--out", dsm]) == 0
        manifest = json.loads((tmp_path / "tables" / "dsm.manifest.json").read_text())
        assert manifest["command"] == "mine"
        assert manifest["outputs"] == ["dsm.tsv"]

    def test_commands_do_not_mutate_inputs(self, sim_dir, tmp_path):
        def snapshot(root):
            return {
                p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        before = snapshot(sim_dir)
        replay_out = tmp_path / "replay"
        assert run(["replay", "--events", sim_dir / "events",
                    "--expert", sim_dir / "expert-map.json", "--out", replay_out]) == 0
        assert run(["mine", "--annotated", replay_out / "annotated",
                    "--grouping", sim_dir / "grouping.json",
                    "--out", tmp_path / "dsm.tsv"]) == 0
        assert run(["report", "--annotated", replay_out / "annotated",
                    "--deliveries", replay_out / "deliveries",
                    "--affect", sim_dir / "affect",
                    "--grouping", sim_dir / "grouping.json",
                    "--outcomes", sim_dir / "outcomes.jsonl",
                    "--out", tmp_path / "report"]) == 0
        assert snapshot(sim_dir) == before


def output_files(root):
    """Relative name -> bytes of every file under root, manifests included."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestRerun:
    """A rerun into the same --out replaces the files its manifest lists;
    another command's manifest, or a manifest listing a name outside its
    directory, is an error line before any write."""

    def simulate(self, out, n):
        assert run(["simulate", "--high", n, "--low", n, "--seed", 7, "--budget", 300,
                    "--out", out]) == 0

    def replay(self, sim, out):
        assert run(["replay", "--events", sim / "events", "--out", out]) == 0

    @pytest.mark.parametrize("command", ["simulate", "replay"])
    def test_a_smaller_rerun_leaves_only_its_own_files(self, tmp_path, command):
        def write(out, n):
            if command == "simulate":
                self.simulate(out, n)
            else:
                self.simulate(tmp_path / f"sim-{n}", n)
                self.replay(tmp_path / f"sim-{n}", out)

        write(tmp_path / "out", 2)
        write(tmp_path / "out", 1)
        write(tmp_path / "fresh", 1)
        files = output_files(tmp_path / "out")
        manifest = json.loads(files.pop("manifest.json"))
        assert sorted(files) == manifest["outputs"]
        fresh = output_files(tmp_path / "fresh")
        del fresh["manifest.json"]
        assert files == fresh

    @pytest.mark.parametrize("command", ["simulate", "replay"])
    def test_a_failed_rerun_leaves_the_earlier_run(self, tmp_path, capsys, command):
        out, bad = tmp_path / "out", tmp_path / "bad"
        self.simulate(tmp_path / "sim", 1)
        if command == "simulate":
            self.simulate(out, 2)
            bad.write_text('{"enc3_every": 0}')
            argv = ["simulate", "--engine-config", bad, "--out", out]
        else:
            self.replay(tmp_path / "sim", out)
            shutil.copytree(tmp_path / "sim" / "events", bad)
            rewrite_log(bad / "low-000.jsonl", lambda record: record.update(t="x"))
            argv = ["replay", "--events", bad, "--out", out]
        before = output_files(out)
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}")
        assert output_files(out) == before

    @pytest.mark.parametrize(
        "argv",
        [["replay", "--events", "{work}/events"],
         ["report", "--annotated", "{work}/annotated", "--grouping", "{work}/grouping.json"]],
        ids=["replay", "report"],
    )
    def test_another_commands_directory_is_an_error_line(self, cohort_copy, capsys, argv):
        before = output_files(cohort_copy)
        assert run([*(arg.format(work=cohort_copy) for arg in argv), "--out", cohort_copy]) == 1
        assert capsys.readouterr().err == (
            f"error: {cohort_copy / 'manifest.json'}: records a run of 'simulate'; "
            f"{argv[0]} replaces only its own runs\n")
        assert output_files(cohort_copy) == before

    @pytest.mark.parametrize(
        "document, message",
        [({"command": "mine", "outputs": ["../outside"]},
          "output '../outside' is not a relative name without '..'"),
         ({"command": "mine", "outputs": ["tables/../../outside"]},
          "output 'tables/../../outside' is not a relative name without '..'"),
         ({"command": "mine", "outputs": ["/outside"]},
          "output '/outside' is not a relative name without '..'"),
         ({"command": "mine", "outputs": [""]}, "output '' is not a relative name without '..'"),
         ({"command": "mine", "outputs": [3]}, "output 3 is not a relative name without '..'"),
         ({"command": "mine", "outputs": "dsm.tsv"}, "outputs must be a list, got str"),
         ({"command": "mine"}, "outputs must be a list, got NoneType"),
         ({"outputs": []}, "records a run of None; mine replaces only its own runs"),
         ([1], "expected a JSON object, got list")],
        ids=["parent", "parent-inside", "absolute", "empty", "number", "string", "no-outputs",
             "no-command", "array"],
    )
    def test_a_bad_manifest_is_an_error_line(self, small_cohort, tmp_path, capsys,
                                             document, message):
        outside, tables = tmp_path / "outside", tmp_path / "tables"
        outside.write_text("kept")
        tables.mkdir()
        manifest = tables / "dsm.manifest.json"
        manifest.write_text(json.dumps(document))
        before = output_files(tmp_path)
        assert run(["mine", "--annotated", small_cohort / "annotated",
                    "--grouping", small_cohort / "grouping.json", "--out", tables / "dsm.tsv"]) == 1
        assert capsys.readouterr().err == f"error: {manifest}: {message}\n"
        assert output_files(tmp_path) == before

    def test_a_listed_file_that_is_now_a_directory_stops_the_rerun(self, tmp_path, capsys):
        out = tmp_path / "out"
        self.simulate(out, 2)
        taken = out / "events" / "high-001.jsonl"
        taken.unlink()
        taken.mkdir()
        before = tree(out)
        capsys.readouterr()
        assert run(["simulate", "--high", 1, "--low", 1, "--seed", 7, "--budget", 300,
                    "--out", out]) == 1
        assert capsys.readouterr() == ("", f"error: {taken}: is a directory\n")
        assert tree(out) == before

    def test_a_rerun_removes_only_what_the_manifest_lists(self, small_cohort, tmp_path):
        tables = tmp_path / "tables"
        tables.mkdir()
        for name in ("old.tsv", "mine.txt", "dsm.tsv"):
            (tables / name).write_text(name)
        (tables / "dsm.manifest.json").write_text(
            json.dumps({"command": "mine", "outputs": ["./old.tsv", "gone.tsv", "dsm.tsv"]}))
        assert run(["mine", "--annotated", small_cohort / "annotated",
                    "--grouping", small_cohort / "grouping.json", "--out", tables / "dsm.tsv"]) == 0
        assert sorted(output_files(tables)) == ["dsm.manifest.json", "dsm.tsv", "mine.txt"]
        assert (tables / "dsm.tsv").read_text().startswith("pattern\t")


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--expert", "{path}", "--out", "{out}"],
     ["simulate", "--trees", "{path}", "--out", "{out}"],
     ["simulate", "--profiles", "{path}", "--out", "{out}"],
     ["simulate", "--engine-config", "{path}", "--out", "{out}"],
     ["replay", "--events", "{empty}", "--expert", "{path}", "--out", "{out}"],
     ["mine", "--annotated", "{empty}", "--grouping", "{path}", "--out", "{out}/dsm.tsv"],
     ["report", "--annotated", "{empty}", "--grouping", "{path}", "--out", "{out}"],
     ["score", "--student-map", "{path}"]],
    ids=["simulate-expert", "simulate-trees", "simulate-profiles", "simulate-engine-config",
         "replay-expert", "mine-grouping", "report-grouping", "score-student-map"],
)
def test_a_document_that_is_not_utf8_is_an_error_line_naming_it(tmp_path, capsys, argv):
    path, empty, out = tmp_path / "document.json", tmp_path / "empty", tmp_path / "out"
    path.write_bytes(b"\xff\xfe{}")
    empty.mkdir()
    assert run([arg.format(path=path, empty=empty, out=out) for arg in argv]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, out",
    [(["simulate", "--high", 1, "--low", 1, "--budget", 60], "{file}"),
     (["simulate", "--high", 1, "--low", 1, "--budget", 60], "{file}/sim"),
     (["replay", "--events", "{cohort}/events"], "{file}"),
     (["mine", "--annotated", "{cohort}/annotated", "--grouping", "{cohort}/grouping.json"],
      "{file}/dsm.tsv"),
     (["report", "--annotated", "{cohort}/annotated", "--grouping", "{cohort}/grouping.json"],
      "{file}")],
    ids=["simulate", "simulate-below-a-file", "replay", "mine", "report"],
)
def test_an_out_that_is_a_file_is_an_error_line(small_cohort, tmp_path, capsys, argv, out):
    file = tmp_path / "file"
    file.write_text("kept")
    names = {"file": file, "cohort": small_cohort}
    argv = [str(arg).format(**names) for arg in argv]
    assert run([*argv, "--out", out.format(**names)]) == 1
    assert capsys.readouterr().err == f"error: {file}: not a directory\n"
    assert sorted(tmp_path.iterdir()) == [file] and file.read_text() == "kept"


def test_a_file_where_an_output_directory_goes_stops_before_any_write(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "affect").write_text("kept")
    assert run(["simulate", "--high", 1, "--low", 1, "--budget", 60, "--out", out]) == 1
    assert [path for path in out.rglob("*") if path.is_file()] == [out / "affect"]


def tree(root):
    """Relative name -> bytes of every file under root, None for a directory."""
    return {path.relative_to(root).as_posix(): path.read_bytes() if path.is_file() else None
            for path in sorted(root.rglob("*"))}


@pytest.mark.parametrize(
    "argv, taken, kind, problem",
    [(["mine", "--annotated", "{cohort}/annotated", "--grouping", "{cohort}/grouping.json",
       "--out", "{out}/dsm.tsv"], "dsm.tsv", "directory", "is a directory"),
     (["simulate", "--high", 1, "--low", 1, "--budget", 60, "--out", "{out}"], "affect",
      "file", "not a directory"),
     (["replay", "--events", "{cohort}/events", "--out", "{out}"], "manifest.json",
      "directory", "is a directory"),
     (["replay", "--events", "{cohort}/events", "--out", "{out}"], "annotated/low-000.jsonl",
      "directory", "is a directory")],
    ids=["mine-out", "simulate-subdirectory", "replay-manifest", "replay-log"],
)
def test_an_output_path_of_the_wrong_kind_is_an_error_line(small_cohort, tmp_path, capsys,
                                                            argv, taken, kind, problem):
    out = tmp_path / "out"
    path = out / taken
    if kind == "directory":
        path.mkdir(parents=True)
    else:
        out.mkdir()
        path.write_text("kept")
    before = tree(tmp_path)
    assert run([str(arg).format(cohort=small_cohort, out=out) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {problem}\n")
    assert tree(tmp_path) == before


@pytest.mark.parametrize(
    "argv, message",
    [(["simulate", "--high", 40, "--low", 40, "--out", "{file}"], "{file}: not a directory"),
     (["replay", "--events", "{cohort}/events", "--out", "{cohort}"],
      "{cohort}/manifest.json: records a run of 'simulate'; replay replaces only its own runs"),
     (["mine", "--annotated", "{cohort}/annotated", "--grouping", "{cohort}/grouping.json",
       "--out", "{cohort}/annotated"], "{cohort}/annotated: is a directory"),
     (["report", "--annotated", "{cohort}/annotated", "--grouping", "{cohort}/grouping.json",
       "--out", "{file}/report"], "{file}: not a directory")],
    ids=["simulate-into-a-file", "replay-into-a-simulate-directory", "mine-into-a-directory",
         "report-below-a-file"],
)
def test_a_bad_output_place_stops_the_command_before_it_computes(
        cohort_copy, tmp_path, capsys, monkeypatch, argv, message):
    def computed(*args, **kwargs):
        raise AssertionError("computed before checking where it writes")

    for name in ("simulate_cohort", "replay_events", "mine", "scaffold_impact"):
        monkeypatch.setattr(cli, name, computed)
    file = tmp_path / "file"
    file.write_text("kept")
    names = {"file": file, "cohort": cohort_copy}
    before = tree(tmp_path)
    assert run([str(arg).format(**names) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(**names)}\n")
    assert tree(tmp_path) == before


_NODE = {"id": "a", "prompt": "p", "responses": [{"text": "t", "exit": True}]}
_MINE = ["mine", "--annotated", "{cohort}/annotated"]


@pytest.mark.parametrize(
    "argv, document, message",
    [(["simulate", "--engine-config", "{doc}"], {"foo": 1}, "{doc}: unknown engine setting 'foo'"),
     (["simulate", "--hint1-window-events", 0], None, "hint1 follow-up windows must be positive"),
     (["simulate", "--long-threshold", 0], None, "long_threshold must be positive"),
     ([*_MINE, "--grouping", "{doc}"], {"high-000": "High"},
      "need exactly 2 groups in {doc}, found ['High']"),
     ([*_MINE, "--grouping", "{cohort}/grouping.json", "--max-len", 1], None,
      "max_len must be >= 2"),
     ([*_MINE, "--grouping", "{doc}"], [],
      "{doc}: expected a JSON object of student id to group name"),
     (["simulate", "--expert", "{doc}"],
      {"format": logio.MAP_FORMAT, "links": [],
       "concepts": [{"id": "a", "name": "A", "section": "s"}] * 2},
      "{doc}: duplicate concept id 'a'"),
     (["simulate", "--trees", "{doc}"], {"enc1": {"root": "a", "nodes": [_NODE, _NODE]}},
      "{doc}: duplicate node id 'a'"),
     (["simulate", "--trees", "{doc}"], {"enc1": {"root": "b", "nodes": [_NODE]}},
      "{doc}: root 'b' not among nodes")],
    ids=["unknown-engine-setting", "hint1-window-events", "long-threshold", "one-group",
         "max-len", "grouping-array", "duplicate-concept", "duplicate-node", "missing-root"],
)
def test_a_bad_setting_or_document_is_one_error_line(small_cohort, tmp_path, capsys,
                                                     argv, document, message):
    doc, out = tmp_path / "document.json", tmp_path / "out"
    if document is not None:
        doc.write_text(json.dumps(document))
    names = {"doc": doc, "cohort": small_cohort}
    out_name = out / "dsm.tsv" if argv[0] == "mine" else out
    assert run([*(str(arg).format(**names) for arg in argv), "--out", out_name]) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(**names)}\n")
    assert not out.exists()


def test_only_the_output_stage_writes():
    """Every file and directory the commands make goes through
    `_write_outputs`, so each manifest lists what its run wrote."""
    writers = set()
    for top in ast.parse(Path(cli.__file__).read_text()).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            owner = getattr(getattr(node.func, "value", None), "id", None)
            if (name in ("mkdir", "write_text", "write_bytes", "unlink", "open")
                    or owner in (None, "logio") and (name.startswith("write_")
                                                     or name == "save_map")):
                writers.add(getattr(top, "name", "<module>"))
    assert writers == {"_write_outputs"}


class TestMineOutOfAnotherRun:
    """`mine` writes beside other runs' files but not over one of them or
    over its `--grouping` input; the stage refuses such an `--out` before
    mine computes."""

    @pytest.fixture
    def runs(self, tmp_path):
        assert run(["simulate", "--high", 2, "--low", 2, "--seed", 7, "--budget", 300,
                    "--out", tmp_path / "sim"]) == 0
        assert run(["replay", "--events", tmp_path / "sim" / "events",
                    "--out", tmp_path / "rep"]) == 0
        shutil.copy(tmp_path / "sim" / "grouping.json", tmp_path / "grouping.json")
        return tmp_path

    def mine(self, runs, grouping, out):
        return run(["mine", "--annotated", runs / "rep" / "annotated",
                    "--grouping", grouping, "--out", out])

    def test_its_grouping_input_is_an_error_line_and_report_still_reads_it(self, runs, capsys):
        grouping = runs / "sim" / "grouping.json"
        before = tree(runs)
        capsys.readouterr()
        assert self.mine(runs, grouping, grouping) == 1
        assert capsys.readouterr() == ("", f"error: {grouping}: is the --grouping input\n")
        assert tree(runs) == before
        assert run(["report", "--annotated", runs / "rep" / "annotated", "--grouping", grouping,
                    "--out", runs / "report"]) == 0

    @pytest.mark.parametrize(
        "out, manifest",
        [("sim/grouping.json", "sim/manifest.json"),
         ("rep/annotated/low-000.jsonl", "rep/manifest.json"),
         ("rep/deliveries/high-001.jsonl", "rep/manifest.json")],
        ids=["simulate-grouping", "replay-annotated", "replay-deliveries"],
    )
    def test_a_file_of_another_run_is_an_error_line(self, runs, capsys, monkeypatch,
                                                   out, manifest):
        def computed(*args, **kwargs):
            raise AssertionError("computed before checking where it writes")

        monkeypatch.setattr(cli, "mine", computed)
        before = tree(runs)
        capsys.readouterr()
        assert self.mine(runs, runs / "grouping.json", runs / out) == 1
        assert capsys.readouterr() == (
            "", f"error: {runs / out}: belongs to the run that {runs / manifest} records\n")
        assert tree(runs) == before

    @pytest.mark.parametrize("out", ["sim/manifest.json", "sim/dsm.manifest.json",
                                     "tables/manifest.json"])
    def test_a_manifest_name_is_an_error_line(self, runs, capsys, out):
        assert self.mine(runs, runs / "grouping.json", runs / "sim" / "dsm.tsv") == 0
        before = tree(runs)
        capsys.readouterr()
        assert self.mine(runs, runs / "grouping.json", runs / out) == 1
        assert capsys.readouterr() == ("", f"error: {runs / out}: is named like a manifest\n")
        assert tree(runs) == before

    def test_beside_another_run_and_over_its_own_table_it_writes(self, runs):
        table = runs / "sim" / "dsm.tsv"
        for _ in range(2):
            assert self.mine(runs, runs / "sim" / "grouping.json", table) == 0
        assert table.read_text().startswith("pattern\t")
        manifest = json.loads((runs / "sim" / "dsm.manifest.json").read_text())
        assert manifest["outputs"] == ["dsm.tsv"]

    def test_a_manifest_json_of_another_tool_lists_nothing(self, runs):
        (runs / "manifest.json").write_text('{"outputs": ["tables/dsm.tsv"]}')
        assert self.mine(runs, runs / "grouping.json", runs / "tables" / "dsm.tsv") == 0
