"""Golden projection of the stat objects into :class:`MetricsRegistry`.

Pins every instrument the registry projection produces for seeded
runs — local DeepWalk and node2vec, a dynamic-graph walk (epoch and
maintenance counters), a 4-node cluster run under message faults, a
slowdown and a crash (delivery, health and recovery), and hand-filled
service accounting — by name, labels, kind, help, histogram
boundaries and value.  Only the wall-clock ``walk_wall_seconds`` and
``walk_init_seconds`` values are left unpinned.

The recorded golden lives in ``tests/golden_projection.json``.  The
projection is looked up by name so the same file also runs against
package versions that still exposed the per-type ``registry_from_*``
adapters.
"""

import json
import math
from pathlib import Path

import pytest

import repro.obs as obs
from repro.algorithms import DeepWalk, Node2Vec
from repro.cluster import (
    DistributedWalkEngine,
    FaultPlan,
    MessageFaults,
    NodeCrash,
    NodeSlowdown,
)
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.stats import ServiceMetrics
from repro.graph.dynamic import DynamicGraph, generate_churn_batches
from repro.graph.generators import uniform_degree_graph
from repro.obs import Histogram, MetricsRegistry

GOLDEN_PATH = Path(__file__).with_name("golden_projection.json")
WALL_CLOCK = {"walk_wall_seconds", "walk_init_seconds"}
# The one series the declared-field projection no longer emits: the
# zero-valued shed fallback the hand-written service adapter added when
# nothing was shed.
MAY_DISAPPEAR = {("service_shed", (("reason", "none"),))}


def project(*sources) -> MetricsRegistry:
    """Project each stat object into one registry."""
    registry = MetricsRegistry()
    to_registry = getattr(obs, "to_registry", None)
    for source in sources:
        if to_registry is not None:
            to_registry(source, registry)
        else:
            adapter = {
                "WalkStats": "registry_from_walk_stats",
                "ClusterStats": "registry_from_cluster_stats",
                "ServiceMetrics": "registry_from_service_metrics",
            }[type(source).__name__]
            getattr(obs, adapter)(source, registry)
    return registry


def records(registry: MetricsRegistry) -> list[dict]:
    """Every instrument as a JSON-ready record, in registry order."""
    out = []
    for inst in registry.instruments():
        record = {
            "name": inst.name,
            "labels": [list(pair) for pair in inst.labels],
            "kind": inst.kind,
            "help": inst.help,
        }
        if isinstance(inst, Histogram):
            record["boundaries"] = list(inst.boundaries)
            record["counts"] = list(inst.counts)
            record["sum"] = inst.sum
        else:
            record["value"] = inst.value
        out.append(record)
    return out


def _graph():
    return uniform_degree_graph(200, 6, seed=2, undirected=True)


def _local(program):
    config = WalkConfig(num_walkers=60, max_steps=12, seed=5)
    return project(WalkEngine(_graph(), program, config).run().stats)


def _dynamic():
    dyn = DynamicGraph(_graph())
    config = WalkConfig(num_walkers=50, max_steps=10, seed=6)
    WalkEngine(dyn, DeepWalk(), config).run()
    for batch in generate_churn_batches(dyn.base, 2, 20, seed=3):
        dyn.commit(batch)
    return project(WalkEngine(dyn, DeepWalk(), config).run().stats)


def _cluster():
    plan = FaultPlan(
        seed=9,
        crashes=(NodeCrash(superstep=3, node=2),),
        default_faults=MessageFaults(drop=0.1, duplicate=0.05, delay=0.1),
        slowdowns=(
            NodeSlowdown(node=1, factor=4.0, start_superstep=1,
                         ramp_supersteps=2),
        ),
    )
    config = WalkConfig(num_walkers=80, max_steps=10, seed=7)
    result = DistributedWalkEngine(
        _graph(), Node2Vec(p=2.0, q=0.5), config, num_nodes=4,
        fault_plan=plan, checkpoint_every=2,
    ).run()
    return project(result.stats, result.cluster)


def _service():
    metrics = ServiceMetrics()
    metrics.submitted = 11
    metrics.admitted = 9
    metrics.served = 6
    metrics.failed = 1
    metrics.degraded = 2
    metrics.deadline_hits = 1
    metrics.distributed_runs = 3
    metrics.updates_applied = 40
    metrics.queue_depth_peak = 5
    for reason in ("queue_full", "queue_full", "deadline", "circuit_open"):
        metrics.record_shed(reason)
    for seconds in (0.0004, 0.003, 0.02, 0.02, 0.3, 12.0):
        metrics.record_latency(seconds)
    return project(metrics)


SCENARIOS = {
    "local/DeepWalk": lambda: _local(DeepWalk()),
    "local/node2vec": lambda: _local(Node2Vec(p=2.0, q=0.5)),
    "dynamic/DeepWalk": _dynamic,
    "cluster/node2vec-faults": _cluster,
    "service/hand-filled": _service,
    "service/empty": lambda: project(ServiceMetrics()),
}


def _key(record: dict) -> tuple:
    return record["name"], tuple(tuple(pair) for pair in record["labels"])


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_scenario_has_a_golden(golden):
    assert set(golden) == set(SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_projection_matches_golden(scenario, golden):
    actual = {_key(r): r for r in records(SCENARIOS[scenario]())}
    expected = {_key(r): r for r in golden[scenario]}
    missing = set(expected) - set(actual)
    for key in missing:
        assert key in MAY_DISAPPEAR and expected[key]["value"] == 0, key
    assert set(actual) <= set(expected), set(actual) - set(expected)
    for key, want in expected.items():
        if key in missing:
            continue
        got = dict(actual[key])
        want = dict(want)
        if want["name"] in WALL_CLOCK:
            assert math.isfinite(got.pop("value"))
            del want["value"]
        for field in ("value", "sum"):
            if field in want:
                assert got.pop(field) == pytest.approx(
                    want.pop(field), rel=1e-12, abs=1e-15
                ), key
        assert got == want, key
