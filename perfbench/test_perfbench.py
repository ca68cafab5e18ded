"""Tests of the benchmark itself (tiny simulated durations)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.bench import benchmark
from perfbench.measure import layer_metrics, run_rep
from perfbench.spec import END_TO_END, GATED, PER_LAYER
from perfbench.tracing import LAYERS, SpanTracer
from perfbench.workloads import WORKLOADS
from repro.sim.kernel import Simulator

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
TINY = 3.0


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(name, trace):
    result = benchmark(name, SEED, seconds=0.0, trace=trace, duration=TINY)
    assert result["correct"], result["report"]
    assert result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS[name].build(SEED, TINY))
    expected = [m.name for m in PER_LAYER] if trace else list(GATED)
    assert list(result["metrics"]) == expected
    report = "\n".join(result["report"])
    names = [m.name for m in (PER_LAYER if trace else END_TO_END)]
    for metric in names:
        assert f"  {metric} = " in report


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def untraced_and_traced(request):
    """One untraced rep taking per-job records and one traced rep of a
    workload, on the same cells."""
    workload = WORKLOADS[request.param]
    cells = workload.build(SEED, TINY)
    return run_rep(workload, cells, record=True), run_rep(workload, cells, traced=True)


def test_tracing_only_observes(untraced_and_traced):
    untraced, traced = untraced_and_traced
    assert [r.digest for r in traced.runs] == [r.digest for r in untraced.runs]
    assert [r.counters for r in traced.runs] == [r.counters for r in untraced.runs]
    assert Simulator.__dict__["schedule_at"].__name__ == "schedule_at"


def test_self_times_add_up_to_traced_wall_time(untraced_and_traced):
    untraced, traced = untraced_and_traced
    metrics = layer_metrics(traced, untraced)
    self_times = [metrics[f"{layer}.self_s"] for layer in LAYERS]
    assert all(t >= 0.0 for t in self_times)
    wall = metrics["trace.wall_s"]
    assert sum(self_times) + metrics["unattributed_s"] == pytest.approx(wall)
    # The spans cover nearly all of the wall time.
    assert 0.0 <= metrics["unattributed_s"] < 0.05 * wall


def test_span_tree_matches_self_times(tmp_path):
    workload = WORKLOADS["dist_lossy"]
    spans = tmp_path / "spans.jsonl"
    with spans.open("w") as out:
        rep = run_rep(workload, workload.build(SEED, TINY)[:1], traced=True, spans_out=out)
    (record,) = [json.loads(line) for line in spans.read_text().splitlines()]
    roots = sum(
        end - start
        for start, end, parent in zip(record["start"], record["end"], record["parent"])
        if parent == -1
    )
    assert sum(rep.tracer.layer_self_s().values()) == pytest.approx(roots)
    assert any(job >= 0 for job in record["job"])


def test_unknown_callbacks_are_billed_to_other():
    tracer = SpanTracer()
    sim = Simulator()
    fired = []
    with tracer.installed():
        sim.schedule_at(1.0, fired.append, "x")
        sim.run()
    assert fired == ["x"]
    assert tracer.layer_self_s()["other"] > 0.0
    assert tracer.count("sim.run") == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_builds_equal_scenarios(name):
    build = WORKLOADS[name].build
    first = [cell.scenario.to_json_str() for cell in build(SEED, None)]
    again = [cell.scenario.to_json_str() for cell in build(SEED, None)]
    other = [cell.scenario.to_json_str() for cell in build(SEED + 1, None)]
    assert first == again
    assert first != other


def test_benchmark_json_matches_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    units = {m.name: (m.unit, m.better) for m in END_TO_END + PER_LAYER}
    bounds = {m.name: m.bound for m in END_TO_END}
    assert [m["name"] for m in spec["end_to_end"]] == list(GATED)
    assert [m["name"] for m in spec["per_layer"]] == [m.name for m in PER_LAYER]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert (metric["unit"], metric["better"]) == units[metric["name"]]
    for metric in spec["end_to_end"]:
        assert metric["bound"] == bounds[metric["name"]]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dist_lossy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
