"""The package runs on the standard library alone: importing every module
loads nothing from outside it, and pyproject.toml declares no dependency.
Every function the benchmark traces by name exists."""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

import mapcoach
from mapcoach import logio

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


def project_dependencies(text: str) -> list:
    """The `dependencies` of a pyproject's [project] table, read with tomllib
    where the standard library has it (Python 3.11 on)."""
    try:
        import tomllib
    except ImportError:
        return _dependencies_without_tomllib(text)
    return tomllib.loads(text)["project"].get("dependencies", [])


def _dependencies_without_tomllib(text: str) -> list:
    """The [project] table's `dependencies` array of strings, for Python
    3.10; an array it cannot read fails the check."""
    table = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert table is not None, "pyproject.toml has no [project] table"
    entry = re.search(r"^dependencies\s*=\s*(\[.*?\])", table.group(1), re.M | re.S)
    return [] if entry is None else ast.literal_eval(entry.group(1))


def test_pyproject_declares_no_dependencies():
    assert project_dependencies((ROOT / "pyproject.toml").read_text()) == []


def test_dependencies_are_read_without_tomllib(monkeypatch):
    monkeypatch.setitem(sys.modules, "tomllib", None)
    text = (ROOT / "pyproject.toml").read_text()
    assert project_dependencies(text) == []
    assert "\ndependencies = []\n" in text
    declared = text.replace("\ndependencies = []\n", '\ndependencies = [\n  "numpy>=1.24",\n]\n')
    assert project_dependencies(declared) == ["numpy>=1.24"]
    assert project_dependencies(text.replace("\ndependencies = []\n", "\n")) == []


def test_every_name_the_benchmark_traces_exists():
    """bench/tracing.py wraps mapcoach functions by module and attribute
    name; each must still resolve, so a rename under src/ fails here too.
    It takes a logio call's request id, the student, from the log path's
    argument by position; a signature that moves `path` fails here too."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def resolves(module_name, attr):
        try:
            return callable(reduce(getattr, attr.split("."), importlib.import_module(module_name)))
        except (ImportError, AttributeError):
            return False

    targets = [(module_name, attr) for module_name, attr, *_ in tracing.TARGETS]
    assert len(targets) >= 20 and all(m.startswith("mapcoach.") for m, _ in targets)
    assert [f"{m}.{a}" for m, a in targets if not resolves(m, a)] == []

    def request_id(attr, request_of):
        parameters = inspect.signature(getattr(logio, attr)).parameters
        args = [Path("d/s1.jsonl") if name == "path" else None for name in parameters]
        try:
            return request_of(args, {})
        except (IndexError, TypeError) as exc:
            return repr(exc)

    ids = {attr: request_id(attr, request_of)
           for module_name, attr, _, request_of, _ in tracing.TARGETS
           if module_name == "mapcoach.logio" and request_of is not None}
    assert len(ids) >= 10
    assert {attr: got for attr, got in ids.items() if got != "s1"} == {}
