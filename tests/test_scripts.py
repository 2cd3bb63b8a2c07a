"""Smoke tests for the scripts under scripts/: each runs in a fresh
interpreter on a small cohort and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import mapcoach

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv, cwd):
    src = str(Path(mapcoach.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, argv)],
        capture_output=True, text=True, cwd=cwd, env={**os.environ, "PYTHONPATH": src},
    )


def test_run_pipeline_writes_the_dsm_and_report_tables(tmp_path):
    out = tmp_path / "pipeline"
    proc = run_script("run_pipeline.py", "--high", 2, "--low", 2, "--budget", 600,
                      "--out", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (out / "dsm.tsv").read_text().startswith("pattern\t")
    for name in ("time_distribution.tsv", "delivery_counts.tsv", "impact.tsv", "outcomes.tsv"):
        assert (out / "report" / name).exists(), name


def test_calibration_check_prints_both_groups(tmp_path):
    proc = run_script("calibration_check.py", "--students", 3, "--seed", 1, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "High (n=3)" in proc.stdout and "Low (n=3)" in proc.stdout
