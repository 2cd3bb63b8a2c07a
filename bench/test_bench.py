"""Quick tests of the benchmark itself, at a tiny cohort size.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from hostspeed import REF_S, HostSpeed
from tracing import NO_PARENT, Tracer, installed, layer_metrics, self_times

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--trace", str(trace), "--size", "2"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    details, result = out.stdout.splitlines()[-2:]
    return json.loads(details), json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    _, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: v["unit"] for name, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_two_runs_give_equal_digests():
    first, _ = run_bench("cohort-pipeline", 0, seed=5)
    second, _ = run_bench("cohort-pipeline", 0, seed=5)
    assert first["digest"] is not None
    assert first["digest"] == second["digest"]


def test_self_time_on_nested_spans():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping: union 5)
    # and c [8, 12] (clipped to the root: 2); a has child d [2, 3].
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [NO_PARENT, 0, 0, 0, 1]
    assert self_times(starts, ends, parents) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_speed_factor_uses_the_samples_inside_the_interval():
    speed = HostSpeed()
    speed.at.extend([1.0, 2.0, 3.0, 4.0, 9.0])
    speed.took.extend([4 * REF_S, 2 * REF_S, 2 * REF_S, 1 * REF_S, 8 * REF_S])
    assert speed.factor(1.5, 4.5) == pytest.approx(0.5)  # median of 2, 2, 1
    assert speed.factor(7.0, 8.0) == pytest.approx(0.125)  # none inside: nearest, at 9
    empty = HostSpeed()
    assert empty.factor(0.0, 1.0) > 0 and len(empty.took) == 1  # no samples: one is taken


def test_tracer_records_nesting_and_restores_the_program():
    sys.path.insert(0, str(BENCH.parent / "src"))
    from mapcoach import annotate, causal
    from mapcoach.pack import default_expert_map

    original = causal.map_score
    expert = default_expert_map()
    tr = Tracer()
    with installed(tr):
        assert annotate.map_score is not original
        with tr.span("bench.outer", request="s-1"):
            causal.map_score(expert.map, expert)
    assert causal.map_score is original and annotate.map_score is original
    assert [tr.names[i] for i in tr.name] == ["bench.outer", "causal.map_score"]
    assert list(tr.parent) == [NO_PARENT, 0]
    assert tr.requests[tr.request[1]] == "s-1"
    metrics = layer_metrics(tr)
    assert metrics["causal.map_score.calls"] == 1
    assert 0 < metrics["causal.map_score.self_s"] <= tr.end[1] - tr.start[1]
