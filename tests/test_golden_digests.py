"""Golden determinism digests: the walk, event for event, is pinned.

Every case runs one seeded workload under the determinism sanitizer's
tracer (:mod:`repro.lint.sanitizer`), which folds every RNG draw,
walker move/kill and — on the distributed engines — every message
batch into a rolling hash.  The expected values below were recorded
before the engine was reduced to its single staged step path (walker
mode, the ``auto`` sampler policy and the kernel-choice options were
removed); they must keep matching exactly, so any change to the RNG
stream, the move/kill batching or the message protocol of any engine
shows up here.

Beside the hash, each case pins the deterministic counters the hash
does not see (scattered broadcast messages are counted but not traced)
and, for the cluster engines, the simulated seconds.

Regenerate (only when a change is *meant* to alter the walks) with::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    PPR,
    DeepWalk,
    MetaPathWalk,
    Node2Vec,
    RandomWalkWithRestart,
)
from repro.baselines import (
    FullScanWalkEngine,
    GeminiWalkEngine,
    TypedMetaPathWalkEngine,
)
from repro.cluster import DistributedWalkEngine
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.graph.builder import from_arrays
from repro.graph.generators import truncated_power_law_graph
from repro.graph.hetero import assign_random_edge_types
from repro.lint.sanitizer import DeterminismTracer

from tests.helpers import without_batch_hooks

SCHEMES = [[0, 1, 2], [2, 3]]


def weighted_graph():
    """Skewed-degree undirected graph with seeded edge weights."""
    base = truncated_power_law_graph(160, 2.0, 2, 40, seed=1, undirected=True)
    sources = np.repeat(
        np.arange(base.num_vertices, dtype=np.int64), base.out_degrees()
    )
    keep = sources < base.targets
    rng = np.random.default_rng(4)
    weights = rng.uniform(0.5, 3.0, int(keep.sum()))
    return from_arrays(
        base.num_vertices,
        sources[keep],
        base.targets[keep],
        weights=weights,
        undirected=True,
    )


def typed_graph():
    return assign_random_edge_types(weighted_graph(), 4, seed=2)


# name -> (program factory, graph factory, config overrides)
ALGORITHMS = {
    "DeepWalk": (DeepWalk, weighted_graph, {}),
    "PPR": (
        PPR, weighted_graph,
        {"max_steps": None, "termination_probability": 0.15},
    ),
    "node2vec": (lambda: Node2Vec(p=2.0, q=0.5), weighted_graph, {}),
    "Meta-path": (lambda: MetaPathWalk(SCHEMES), typed_graph, {}),
    "RWR": (lambda: RandomWalkWithRestart(0.2), weighted_graph, {}),
}


def build(case: str, seed: int):
    """A fresh engine for ``case`` (``"<engine>/<algorithm>"``)."""
    engine_kind, name = case.split("/")
    make_program, make_graph, overrides = ALGORITHMS[name]
    settings = dict(num_walkers=100, max_steps=12, seed=seed)
    settings.update(overrides)
    config = WalkConfig(**settings)
    graph = make_graph()
    if engine_kind == "local":
        return WalkEngine(graph, make_program(), config)
    if engine_kind == "scalar":
        return WalkEngine(graph, without_batch_hooks(make_program()), config)
    if engine_kind == "cluster4":
        return DistributedWalkEngine(graph, make_program(), config, num_nodes=4)
    if engine_kind == "fullscan":
        return FullScanWalkEngine(graph, make_program(), config)
    if engine_kind == "typed":
        return TypedMetaPathWalkEngine(graph, make_program(), config)
    if engine_kind == "gemini4":
        return GeminiWalkEngine(graph, make_program(), config, num_nodes=4)
    raise ValueError(case)


def fingerprint(case: str, seed: int) -> tuple:
    """(rolling hash, events, steps, trials, Pd evaluations, full-scan
    evaluations, messages, simulated seconds) of one traced run."""
    engine = build(case, seed)
    tracer = DeterminismTracer()
    engine.attach_tracer(tracer)
    result = engine.run()
    stats = result.stats
    cluster = getattr(result, "cluster", None)
    return (
        tracer.rolling_hash(),
        tracer.num_events,
        stats.total_steps,
        stats.counters.trials,
        stats.counters.pd_evaluations,
        stats.full_scan_evaluations,
        cluster.network.total_messages() if cluster is not None else 0,
        float(cluster.simulated_seconds) if cluster is not None else 0.0,
    )


SEEDS = (1, 2)
CASES = (
    [f"local/{name}" for name in ALGORITHMS]
    + [f"cluster4/{name}" for name in ALGORITHMS]
    + [f"scalar/{name}" for name in ("DeepWalk", "node2vec", "Meta-path")]
    + [f"fullscan/{name}" for name in ("DeepWalk", "node2vec", "Meta-path")]
    + ["typed/Meta-path"]
    + ["gemini4/DeepWalk", "gemini4/node2vec"]
)

GOLDEN: dict[tuple[str, int], tuple] = {
    ('local/DeepWalk', 1): ('dbb85bc5bd9f85c2fe5a6e45cfe9a560', 49, 1200, 1200, 0, 0, 0, 0.0),
    ('local/DeepWalk', 2): ('cc4c966e230ca76bd9fb9d7a867e437a', 49, 1200, 1200, 0, 0, 0, 0.0),
    ('local/PPR', 1): ('1b070e9477de3a2a3ffb3d3dc8ef5b2e', 171, 510, 510, 0, 0, 0, 0.0),
    ('local/PPR', 2): ('c97baaf826a4f094fa47acd7b1d9a354', 108, 488, 488, 0, 0, 0, 0.0),
    ('local/node2vec', 1): ('189c3455d5d625d1bf2aebfd2d7e2606', 107, 1200, 1513, 1118, 0, 0, 0.0),
    ('local/node2vec', 2): ('c067fd49991678464c80d15945051294', 88, 1200, 1467, 1102, 0, 0, 0.0),
    ('local/Meta-path', 1): ('c2a51b36252f139975bb46eaf5a6b960', 227, 787, 8466, 8466, 522, 0, 0.0),
    ('local/Meta-path', 2): ('fce0730947ae456fd4fbd93bacdf7064', 204, 780, 8258, 8258, 555, 0, 0.0),
    ('local/RWR', 1): ('fcff940371c6e1d027d12b7ff4429ec9', 73, 1200, 965, 0, 0, 0, 0.0),
    ('local/RWR', 2): ('071c5ef71c90de3bb63183d90b0c32ed', 73, 1200, 946, 0, 0, 0, 0.0),
    ('cluster4/DeepWalk', 1): ('7756b2158b5b56930d1719a9600401bc', 61, 1200, 1200, 0, 0, 883, 0.0003919300000000001),
    ('cluster4/DeepWalk', 2): ('59e77edff34be3857518a9d8c67b1c5f', 61, 1200, 1200, 0, 0, 880, 0.00039068999999999996),
    ('cluster4/PPR', 1): ('d723c9921117efbdd56e86660cdec54f', 201, 510, 510, 0, 0, 378, 0.0005349899999999999),
    ('cluster4/PPR', 2): ('e2006b0e3b137dc95ee2588f1f981674', 126, 488, 488, 0, 0, 359, 0.00035907999999999996),
    ('cluster4/node2vec', 1): ('1ad3bde8450feeb9521225684886394f', 177, 1200, 1513, 1118, 0, 2113, 0.0008681299999999999),
    ('cluster4/node2vec', 2): ('8dd8000815af919b6b867190db9a0e0a', 146, 1200, 1467, 1102, 0, 2157, 0.00081802),
    ('cluster4/Meta-path', 1): ('8572df43405cfac66bd3e23fe8a95c35', 264, 787, 8466, 8466, 522, 600, 0.0010720900000000002),
    ('cluster4/Meta-path', 2): ('5a8548bb9475c7edb024be44db60af39', 237, 780, 8258, 8258, 555, 585, 0.00107662),
    ('cluster4/RWR', 1): ('65876dcf2af026226b30e47dbc6e2a4a', 97, 1200, 965, 0, 0, 818, 0.00039646000000000006),
    ('cluster4/RWR', 2): ('fa6fbc117bab3646caf66add85c88c67', 97, 1200, 946, 0, 0, 842, 0.00039335999999999993),
    ('scalar/DeepWalk', 1): ('41914a6e87f72b5cca709bed776d4c46', 4813, 1200, 1200, 0, 0, 0, 0.0),
    ('scalar/DeepWalk', 2): ('3f41ba280ec3cee0bb9829f2e2656dae', 4813, 1200, 1200, 0, 0, 0, 0.0),
    ('scalar/node2vec', 1): ('c18b2d01abcf97dcf3738411b2d70778', 5795, 1200, 1441, 1081, 0, 0, 0.0),
    ('scalar/node2vec', 2): ('abc00314b7759d8bc7273e7d51816c79', 5809, 1200, 1445, 1074, 0, 0, 0.0),
    ('scalar/Meta-path', 1): ('caff13341fd982015a2cf7db561211a2', 31310, 747, 7765, 7765, 602, 0, 0.0),
    ('scalar/Meta-path', 2): ('65517c9d201a37150c9183cdba59a654', 32600, 757, 8087, 8087, 529, 0, 0.0),
    ('fullscan/DeepWalk', 1): ('703d7e770055de753e85382cf5f4f7a2', 37, 1200, 1200, 0, 0, 0, 0.0),
    ('fullscan/DeepWalk', 2): ('c91c791935ced379ef4b395ac4e55760', 37, 1200, 1200, 0, 0, 0, 0.0),
    ('fullscan/node2vec', 1): ('2370e1e28a268bf0247f9f01221bb33f', 25, 1200, 1200, 17202, 0, 0, 0.0),
    ('fullscan/node2vec', 2): ('20ece4658dac727a314e437b33db13d1', 25, 1200, 1200, 17086, 0, 0, 0.0),
    ('fullscan/Meta-path', 1): ('cc4c159b7e5043f07fc540433a736809', 37, 749, 812, 11814, 0, 0, 0.0),
    ('fullscan/Meta-path', 2): ('0dbeafe9ed6065882bd4e19b7c72454f', 37, 715, 785, 11365, 0, 0, 0.0),
    ('typed/Meta-path', 1): ('78ba8979b9467904bf7b50e6cc4ea7dc', 49, 779, 841, 0, 0, 0, 0.0),
    ('typed/Meta-path', 2): ('0d2e4fe44617d7129be173ec8d428720', 49, 721, 788, 0, 0, 0, 0.0),
    ('gemini4/DeepWalk', 1): ('588450a8c3676bef96c995d32f85e5ad', 73, 1200, 2400, 0, 0, 5168, 0.0009427499999999999),
    ('gemini4/DeepWalk', 2): ('d57e042fcb247261b52aa07d48c150b4', 73, 1200, 2400, 0, 0, 5198, 0.000949),
    ('gemini4/node2vec', 1): ('faf80df794d952f89b24cdd1388e4260', 61, 1200, 1200, 17202, 0, 12018, 0.0021873500000000002),
    ('gemini4/node2vec', 2): ('6edd47adbcf4165d2b0673513622c1f0', 61, 1200, 1200, 17086, 0, 12092, 0.0021446499999999997),
}


@pytest.mark.parametrize(
    "case,seed", sorted(GOLDEN), ids=[f"{c}@{s}" for c, s in sorted(GOLDEN)]
)
def test_golden_digest(case, seed):
    assert fingerprint(case, seed) == GOLDEN[(case, seed)]


def test_every_case_has_a_golden():
    assert set(GOLDEN) == {(case, seed) for case in CASES for seed in SEEDS}


if __name__ == "__main__":
    for case in CASES:
        for seed in SEEDS:
            print(f"    ({case!r}, {seed}): {fingerprint(case, seed)!r},")
