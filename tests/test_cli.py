import contextlib
import io
import json
import math
import os
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
from mapcoach import cli, logio
from mapcoach.cli import main
from mapcoach.pack import default_expert_map
from mapcoach.simulate import simulate_cohort


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


def run_subprocess(argv):
    """Run the CLI in a fresh interpreter, so a traceback reaches stderr."""
    src = str(Path(mapcoach.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "mapcoach.cli", *map(str, argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
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
        "record",
        [
            {"student": "s1", "pre": 1, "max": 23},
            {"student": "s1", "pre": "x", "post": 3, "max": 23},
            {"student": "s1", "pre": 23, "post": 23, "max": 23},
        ],
        ids=["missing-post", "pre-not-a-number", "pre-at-max"],
    )
    def test_bad_record_is_an_error_line_naming_the_file(self, tmp_path, record):
        outcomes = tmp_path / "outcomes.jsonl"
        outcomes.write_text(json.dumps(record) + "\n")
        annotated = json.dumps(dict(TestBadAnnotatedRecord.RECORD, process="IA")) + "\n"
        proc = run_on_annotated("report", tmp_path, annotated, extra=["--outcomes", outcomes])
        assert_error_line(proc, "outcomes.jsonl")


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
         '{"hint1_window_seconds": Infinity}'],
        ids=["not-an-object", "wrong-type", "out-of-range", "nan", "infinite"],
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
        [("t", "nan"), ("t", "inf"), ("duration", -5), ("duration", "nan")],
        ids=["nan-time", "infinite-time", "negative-duration", "nan-duration"],
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
LOG_FIELDS = {
    "events": ("student", "t", "duration", "kind", "page", "note", "edit", "scope", "question"),
}
LOG_FIELDS["annotated"] = (*LOG_FIELDS["events"],
                           "process", "effectiveness", "long", "score", "coherent")


def breaks_a_checked_type(field, value):
    """Whether the mutation leaves a field whose JSON type the readers check
    missing or of the wrong type."""
    if value is DROP:
        return field in ("t", "duration", "score", "long", "scope")
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if field in ("t", "duration"):
        return not number or math.isnan(value)
    if field == "score":
        return not number or not isinstance(value, int)
    if field in ("long", "coherent"):
        return not isinstance(value, bool)
    if field == "scope":
        return not isinstance(value, str)
    return False


@pytest.fixture(scope="module")
def fuzz_cohort(tmp_path_factory):
    """A simulated 1+1 cohort with its replayed, annotated logs."""
    root = tmp_path_factory.mktemp("fuzz")
    assert run(["simulate", "--high", 1, "--low", 1, "--seed", 3,
                "--budget", 600, "--out", root / "sim"]) == 0
    assert run(["replay", "--events", root / "sim" / "events",
                "--expert", root / "sim" / "expert-map.json", "--out", root / "replay"]) == 0
    (root / "replay" / "annotated").rename(root / "sim" / "annotated")
    return root / "sim"


@settings(max_examples=60, deadline=None)
@given(
    log=st.sampled_from(sorted(LOG_FIELDS)),
    field=st.sampled_from(LOG_FIELDS["annotated"]),
    pick=st.integers(0, 10_000),
    value=st.sampled_from([DROP, "x", 3, -2.5, True, None, [1], {"a": 1}, float("nan")]),
)
@example(log="events", field="scope", pick=0, value=3)
@example(log="annotated", field="score", pick=0, value="x")
@example(log="annotated", field="long", pick=0, value=None)
@example(log="annotated", field="coherent", pick=0, value=[1])
@example(log="events", field="t", pick=0, value=True)
def test_mutated_log_record_is_read_or_an_error_line(fuzz_cohort, log, field, pick, value):
    """One field of one record of an events or annotated log is dropped or
    given a value of another JSON type; replay, mine and report each end in
    0 or 1, never raise, and fail with an error line when the mutation breaks
    a type the readers check."""
    records = [
        (path, i, record)
        for path in sorted((fuzz_cohort / log).glob("*.jsonl"))
        for i, record in enumerate(map(json.loads, path.read_text().splitlines()))
        if field in record
    ]
    assume(records)
    path, i, record = records[pick % len(records)]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "sim"
        shutil.copytree(fuzz_cohort, work)
        if value is DROP:
            del record[field]
        else:
            record[field] = value
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
        readers = ("replay",) if log == "events" else ("mine", "report")
        for name, argv in commands.items():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1), (name, err.getvalue())
            if name in readers and breaks_a_checked_type(field, value):
                assert code == 1, name
                assert err.getvalue().startswith("error: "), name


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

        from mapcoach.engine import default_trees, save_trees
        from mapcoach.simulate import bundled_profiles, profiles_to_document

        profiles_path = tmp_path / "profiles.json"
        profiles_path.write_text(
            _json.dumps(profiles_to_document(bundled_profiles()), indent=2)
        )
        trees_path = tmp_path / "trees.json"
        save_trees(default_trees(), trees_path)
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
