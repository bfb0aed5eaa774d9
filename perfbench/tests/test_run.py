"""Smoke and unit tests of the benchmark.

Run from the repository root::

    python -m pytest perfbench/tests -q -m "not slow"   # about two minutes
    python -m pytest perfbench/tests -q                # adds ~5 minutes
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import inputs, run, speed
from perfbench.probe import LayerProbe, LayeredTracer
from perfbench.workloads import WORKLOADS

END_TO_END_UNITS, PER_LAYER_UNITS = run.declared_units()

ROOT = run.ROOT
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def invoke(*args: str, cwd: str = ROOT, timeout: float = 300.0):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def assert_result(result: dict, names) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(names)


# ----------------------------------------------------------------------
# The command line
# ----------------------------------------------------------------------
def test_help_exits_cleanly():
    completed = invoke("--help")
    assert completed.returncode == 0
    assert "--workload" in completed.stdout
    for name in run.WORKLOAD_NAMES:
        assert name in completed.stdout


def test_unknown_workload_is_rejected():
    completed = invoke("--workload", "nope", "--seed", "1", "--seconds", "1")
    assert completed.returncode != 0
    assert "{" not in completed.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    started = time.monotonic()
    completed = invoke(
        "--workload", "corpus-node2vec", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=str(tmp_path), timeout=180.0,
    )
    assert completed.returncode != 0
    assert not any(line.startswith("{") for line in completed.stdout.splitlines())
    assert time.monotonic() - started < 180.0


def test_benchmark_json_names_the_workloads():
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ----------------------------------------------------------------------
# Workload smoke runs (one job or one minimum request stream each)
# ----------------------------------------------------------------------
def test_corpus_traced_smoke():
    result = result_of(
        invoke("--workload", "corpus-node2vec", "--seed", "3", "--seconds", "1", "--trace", "1")
    )
    assert_result(result, PER_LAYER_UNITS)
    metrics = result["metrics"]
    assert metrics["sampling.table_builds"]["value"] == 1.0
    assert metrics["core.trace_record_s"]["value"] > 0
    assert metrics["cluster.bytes"]["value"] == 0


def test_cluster_smoke():
    result = result_of(
        invoke("--workload", "cluster-node2vec", "--seed", "3", "--seconds", "1", "--trace", "0")
    )
    assert_result(result, END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_serve_static_smoke():
    completed = invoke(
        "--workload", "serve-static", "--seed", "3", "--seconds", "1", "--trace", "0"
    )
    result = result_of(completed)
    assert_result(result, END_TO_END_UNITS)
    assert result["attempted"] == 100
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.slow
def test_serve_churn_traced_smoke():
    result = result_of(
        invoke("--workload", "serve-churn", "--seed", "3", "--seconds", "1", "--trace", "1")
    )
    assert_result(result, PER_LAYER_UNITS)
    assert result["metrics"]["dynamic.commit_p50_ms"]["value"] > 0


@pytest.mark.slow
def test_all_runs_every_workload_both_ways():
    completed = invoke("--workload", "all", "--seed", "4", "--seconds", "1", timeout=900.0)
    result = result_of(completed)
    assert result["correct"] is True and result["failed"] == 0
    names = {name.split("/")[0] for name in result["metrics"]}
    assert names == set(run.WORKLOAD_NAMES)
    assert len(result["metrics"]) == len(run.WORKLOAD_NAMES) * (
        len(END_TO_END_UNITS) + len(PER_LAYER_UNITS)
    )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_inputs_repeat_for_a_seed():
    a = inputs.livejournal_edges(5, 0.05, typed=True)
    b = inputs.livejournal_edges(5, 0.05, typed=True)
    assert np.array_equal(a.sources, b.sources)
    assert np.array_equal(a.weights, b.weights)
    first = inputs.request_stream(5, 100, 5.0, a.num_vertices)
    second = inputs.request_stream(5, 100, 5.0, a.num_vertices)
    assert [(s.due, s.kind, s.seed) for s in first] == [
        (s.due, s.kind, s.seed) for s in second
    ]
    assert first[-1].due < 100 / 5.0
    assert sum(s.shards > 1 for s in first) == 20
    assert {(s.kind, s.walkers, s.steps) for s in first if s.shards == 1} == {
        ("deepwalk", 32, 10),
        ("node2vec", 64, 20),
        ("metapath", 32, 10),
    }


def test_live_edge_set_swap_remove():
    live = inputs.LiveEdgeSet(10, np.array([0, 1, 2]), np.array([1, 2, 3]))
    live.remove(0 * 10 + 1)
    assert len(live) == 2 and 1 not in live
    live.add(45)
    live.remove(2 * 10 + 3)
    assert sorted(live._keys) == [12, 45]
    assert all(live._keys[slot] == key for key, slot in live._where.items())


def test_churn_stream_replays_exactly():
    edges = inputs.livejournal_edges(2, 0.05, typed=True)
    batches = inputs.churn_stream(2, edges, 30, 50)
    n = edges.num_vertices
    live = set((edges.sources * n + edges.targets).tolist())
    for batch in batches:
        for kind, u, v in zip(batch.kinds, batch.sources, batch.targets):
            key = int(u) * n + int(v)
            assert u < v
            if kind == inputs.INSERT:
                assert key not in live
                live.add(key)
            else:
                assert key in live
                if kind == inputs.DELETE:
                    live.remove(key)


def test_churn_stream_is_linear_in_updates():
    edges = inputs.livejournal_edges(1, 1.0)
    started = time.perf_counter()
    batches = inputs.churn_stream(1, edges, 200, 100)
    assert time.perf_counter() - started < 5.0
    assert sum(len(b.kinds) for b in batches) > 15_000


# ----------------------------------------------------------------------
# Self-time accounting
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Layer:
    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def outer(self) -> None:
        self.clock.now += 1.0
        self.inner()
        self.clock.now += 2.0

    def inner(self) -> None:
        self.clock.now += 4.0


def test_self_time_subtracts_children_and_uninstall_restores():
    clock = FakeClock()
    probe = LayerProbe(clock)
    original = Layer.inner
    probe.wrap(Layer, "outer", "core.run")
    probe.wrap(Layer, "inner", "sampling.draw", count=lambda *a: 3)
    Layer(clock).outer()
    probe.uninstall()
    assert Layer.inner is original
    run_span, draw = probe.get("core.run"), probe.get("sampling.draw")
    assert (run_span.total, run_span.self_in_run) == (7.0, 3.0)
    assert (draw.total, draw.self_in_run, draw.count) == (4.0, 4.0, 3)


def test_tracer_spans_nest_with_wrapped_layers():
    clock = FakeClock()
    probe = LayerProbe(clock)
    tracer = LayeredTracer(probe)
    with probe.span("core.run"):
        with tracer.span("stage.move", track="engine"):
            clock.now += 2.0
            with probe.span("sampling.draw"):
                clock.now += 5.0
    assert probe.get("core.stage.move").self_in_run == 2.0
    assert probe.get("core.run").total == 7.0
    assert [s.name for s in tracer.spans] == ["stage.move"]


# ----------------------------------------------------------------------
# Reference speed
# ----------------------------------------------------------------------
def test_speed_scale_uses_the_samples_around_an_interval():
    log = speed.SpeedLog()
    log.times = [1.0, 2.0, 3.0]
    log.kernels = [0.004, 0.01, 0.025]
    ref = speed.REFERENCE_KERNEL_S
    assert log.scale_between(2.0, 2.5) == pytest.approx(ref / (0.01 * 0.025) ** 0.5)
    # No sample before the start (or after the end): the nearest one.
    assert log.scale_between(0.5, 0.9) == pytest.approx(ref / (0.004 * 0.004) ** 0.5)
    assert log.scale_between(3.5, 4.0) == pytest.approx(ref / 0.025)


def test_kernel_time_is_positive_and_sampled():
    log = speed.SpeedLog()
    log.sample()
    assert len(log.times) == 1 and 0.0 < log.kernels[0] < 1.0
    assert log.recent_scale() == speed.REFERENCE_KERNEL_S / log.kernels[0]
