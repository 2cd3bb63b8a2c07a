import json
import os
import subprocess
import sys
import time
from datetime import datetime
from pathlib import Path

import pytest

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
        "text", ["[1, 2]", '{"enc3_every": "3"}'], ids=["not-an-object", "wrong-type"]
    )
    def test_bad_file_is_an_error_line_naming_it(self, tmp_path, text):
        config = tmp_path / "engine.json"
        config.write_text(text)
        proc = run_subprocess(["replay", "--events", tmp_path, "--engine-config", config,
                               "--out", tmp_path / "out"])
        assert_error_line(proc)
        assert proc.stderr.startswith(f"error: {config}: ")


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
