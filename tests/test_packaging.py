"""The package runs on the standard library alone: importing every module
loads nothing from outside it, and pyproject.toml declares no dependency."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mapcoach

ROOT = Path(__file__).resolve().parents[1]

IMPORT_ALL = """
import importlib, pkgutil, sys
before = set(sys.modules)
import mapcoach
for module in pkgutil.iter_modules(mapcoach.__path__):
    importlib.import_module("mapcoach." + module.name)
print("\\n".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_every_module_imports_only_the_standard_library():
    src = str(Path(mapcoach.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    loaded = set(proc.stdout.split())
    assert "mapcoach" in loaded
    assert sorted(loaded - {"mapcoach"} - sys.stdlib_module_names) == []


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
