"""Seeded inputs for the benchmark workloads.

Everything the program receives is generated here from the workload
seed: edge arrays for the graph stand-ins, the serve request stream
with its Poisson arrival times, and the churn update stream.  The
program only ever sees the generated arrays, so two commits run on
identical inputs for the same seed.

The graph generators mirror the shapes of the repository's dataset
stand-ins (truncated power-law degrees; Twitter adds celebrity hubs)
but live here so a change to the program cannot change the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NUM_EDGE_TYPES = 5
WEIGHT_LOW, WEIGHT_HIGH = 1.0, 5.0


@dataclass(frozen=True)
class EdgeInputs:
    """Logical undirected edges (no self loops, no parallel edges)."""

    num_vertices: int
    sources: np.ndarray
    targets: np.ndarray
    weights: np.ndarray | None = None
    edge_types: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        return int(self.sources.size)


def _power_law_degrees(
    rng: np.random.Generator, size: int, exponent: float, low: int, high: int
) -> np.ndarray:
    """Inverse-CDF draws, one per stratum of [0, 1) in seeded order: the
    degree histogram is nearly the same for every seed, which vertex
    gets which degree is not."""
    power = 1.0 - exponent
    lo, hi = float(low) ** power, float(high + 1) ** power
    strata = (np.arange(size) + rng.random(size)) / size
    values = (lo + rng.permutation(strata) * (hi - lo)) ** (1.0 / power)
    return np.clip(values.astype(np.int64), low, high)


def _with_ring(
    num_vertices: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Add the ring ``v -- v+1``: every vertex gets degree >= 2, so no
    walk on the unmodified graph ends early at a dead end."""
    ring = np.arange(num_vertices, dtype=np.int64)
    return (
        np.concatenate([sources, ring]),
        np.concatenate([targets, (ring + 1) % num_vertices]),
    )


def _canonical_unique(
    num_vertices: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop self loops and parallel edges; orient as ``min -> max``."""
    keep = sources != targets
    low = np.minimum(sources[keep], targets[keep])
    high = np.maximum(sources[keep], targets[keep])
    keys = np.unique(low * num_vertices + high)
    return keys // num_vertices, keys % num_vertices


def _decorate(
    rng: np.random.Generator,
    num_vertices: int,
    sources: np.ndarray,
    targets: np.ndarray,
    weighted: bool,
    typed: bool,
) -> EdgeInputs:
    weights = (
        rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=sources.size)
        if weighted
        else None
    )
    edge_types = (
        rng.integers(0, NUM_EDGE_TYPES, size=sources.size, dtype=np.int32)
        if typed
        else None
    )
    return EdgeInputs(num_vertices, sources, targets, weights, edge_types)


def livejournal_edges(
    seed: int, scale: float, weighted: bool = True, typed: bool = False
) -> EdgeInputs:
    """LiveJournal stand-in: mild power-law skew, minimum degree 3."""
    rng = np.random.default_rng([seed, 0x11])
    n = int(round(12_000 * scale))
    degrees = _power_law_degrees(rng, n, 2.1, 3, max(12, int(300 * scale**0.5)))
    sources = np.repeat(np.arange(n, dtype=np.int64), degrees)
    targets = rng.integers(0, n, size=sources.size, dtype=np.int64)
    sources, targets = _canonical_unique(
        n, *_with_ring(n, sources, targets)
    )
    return _decorate(rng, n, sources, targets, weighted, typed)


def twitter_edges(seed: int, scale: float) -> EdgeInputs:
    """Twitter stand-in: power law plus hubs adjacent to half the graph."""
    rng = np.random.default_rng([seed, 0x13])
    n = int(round(16_000 * scale))
    degrees = _power_law_degrees(rng, n, 2.2, 2, max(40, n // 64))
    sources = np.repeat(np.arange(n, dtype=np.int64), degrees)
    targets = rng.integers(0, n, size=sources.size, dtype=np.int64)
    plain = n - max(2, n // 2000)
    hub_sources = np.repeat(np.arange(plain, n, dtype=np.int64), n // 2)
    hub_targets = rng.integers(0, plain, size=hub_sources.size, dtype=np.int64)
    sources, targets = _canonical_unique(
        n,
        *_with_ring(
            n,
            np.concatenate([sources, hub_sources]),
            np.concatenate([targets, hub_targets]),
        ),
    )
    return _decorate(rng, n, sources, targets, weighted=False, typed=False)


# ----------------------------------------------------------------------
# Fault plan for the cluster workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DegradedPlanSpec:
    """One slowed node and one lossy link, drawn from the seed."""

    slow_node: int
    slow_factor: float
    link: tuple[int, int]
    drop: float
    delay: float
    plan_seed: int


def degraded_plan_spec(seed: int, num_nodes: int) -> DegradedPlanSpec:
    rng = np.random.default_rng([seed, 0xFA])
    slow, a, b = (int(v) for v in rng.choice(num_nodes, size=3, replace=False))
    return DegradedPlanSpec(
        slow_node=slow,
        slow_factor=float(rng.uniform(2.5, 3.5)),
        link=(min(a, b), max(a, b)),
        drop=0.1,
        delay=0.05,
        plan_seed=int(rng.integers(1 << 30)),
    )


# ----------------------------------------------------------------------
# Serve request stream
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RequestSpec:
    """One request of the serve mix, due ``due`` seconds after start
    (reference seconds: the stream is paced by ``speed.ReferenceClock``)."""

    index: int
    due: float
    kind: str  # "deepwalk" | "node2vec" | "metapath"
    walkers: int
    steps: int
    shards: int
    seed: int
    starts: np.ndarray


# The request classes of ``repro serve``'s synthetic mix (cli.py,
# ``_synthetic_request``), with its shares and sizes.  The program of a
# class is changed where the benchmark needs one the CLI mix lacks:
# light uniform walks are DeepWalk (uniform over edge weights), the heavy
# DeepWalk corpus job is split over two shard processes, and the
# deadline-tight class becomes the Meta-path class, without the 1 ms
# deadline that would fail by design.
#   (kind, shards, walkers, steps, share)
MIX = (
    ("deepwalk", 1, 32, 10, 0.60),  # "light"
    ("deepwalk", 2, 256, 40, 0.20),  # "heavy"
    ("node2vec", 1, 64, 20, 0.10),  # "node2vec"
    ("metapath", 1, 32, 10, 0.10),  # "tight"
)
SMALL_KINDS = ("deepwalk", "node2vec", "metapath")


def request_stream(
    seed: int, count: int, rate: float, num_vertices: int
) -> list[RequestSpec]:
    """Open-loop Poisson arrivals at ``rate`` per second.

    Given ``count`` arrivals in ``count / rate`` seconds, Poisson
    arrival times are sorted uniform draws; fixing the count and the
    span keeps the offered load equal across seeds.  The class counts
    are fixed too (``MIX``), in seeded order: mostly small DeepWalk,
    node2vec and Meta-path requests, and a fifth larger DeepWalk
    requests split over two worker processes.
    """
    rng = np.random.default_rng([seed, 0x5E])
    dues = np.sort(rng.uniform(0.0, count / rate, size=count))
    classes = []
    for kind, shards, walkers, steps, share in MIX:
        classes += [(kind, shards, walkers, steps)] * int(round(share * count))
    classes = (classes + [MIX[0][:4]] * count)[:count]
    order = rng.permutation(count)
    specs = []
    for index, due in enumerate(dues):
        kind, shards, walkers, steps = classes[int(order[index])]
        specs.append(
            RequestSpec(
                index=index,
                due=float(due),
                kind=kind,
                walkers=walkers,
                steps=steps,
                shards=shards,
                seed=int(rng.integers(1 << 30)),
                starts=rng.integers(0, num_vertices, size=walkers, dtype=np.int64),
            )
        )
    return specs


def warmup_requests(seed: int, num_vertices: int) -> list[RequestSpec]:
    """One small request per program kind, served before timing."""
    rng = np.random.default_rng([seed, 0x3A])
    sizes = {
        kind: (walkers, steps)
        for kind, shards, walkers, steps, _ in MIX
        if shards == 1
    }
    specs = []
    for i, kind in enumerate(SMALL_KINDS):
        walkers, steps = sizes[kind]
        specs.append(
            RequestSpec(
                index=-1 - i,
                due=0.0,
                kind=kind,
                walkers=walkers,
                steps=steps,
                shards=1,
                seed=int(rng.integers(1 << 30)),
                starts=rng.integers(0, num_vertices, size=walkers, dtype=np.int64),
            )
        )
    return specs


def metapath_schemes(seed: int) -> list[list[int]]:
    """10 cyclic schemes of length 5 over the 5 edge types (paper 7.1)."""
    rng = np.random.default_rng([seed, 0x3C])
    return rng.integers(0, NUM_EDGE_TYPES, size=(10, 5)).tolist()


# ----------------------------------------------------------------------
# Churn update stream
# ----------------------------------------------------------------------
INSERT, DELETE, REWEIGHT = "insert", "delete", "reweight"


@dataclass(frozen=True)
class ChurnBatch:
    kinds: list[str]
    sources: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    edge_types: np.ndarray


class LiveEdgeSet:
    """The evolving logical edge set, indexable with O(1) swap-remove.

    Keys are ``min * n + max``; ``_keys[i]`` is the i-th live edge and
    ``_where[key]`` its slot, so a uniformly random existing edge is one
    index draw and removing it swaps the last slot into its place.
    """

    def __init__(self, num_vertices: int, sources, targets) -> None:
        self.n = num_vertices
        self._keys = (
            np.asarray(sources, np.int64) * num_vertices
            + np.asarray(targets, np.int64)
        ).tolist()
        self._where = {key: i for i, key in enumerate(self._keys)}

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: int) -> bool:
        return key in self._where

    def add(self, key: int) -> None:
        self._where[key] = len(self._keys)
        self._keys.append(key)

    def pick(self, rng: np.random.Generator) -> int:
        return self._keys[int(rng.integers(len(self._keys)))]

    def remove(self, key: int) -> None:
        slot = self._where.pop(key)
        last = self._keys.pop()
        if slot < len(self._keys):
            self._keys[slot] = last
            self._where[last] = slot


def churn_stream(
    seed: int, edges: EdgeInputs, num_batches: int, batch_size: int
) -> list[ChurnBatch]:
    """Inserts (40%), deletes (30%) and reweights (30%) in O(updates).

    Deletes and reweights always hit a live edge; inserts never create
    a self loop or a parallel edge.
    """
    rng = np.random.default_rng([seed, 0xC4])
    n = edges.num_vertices
    live = LiveEdgeSet(n, edges.sources, edges.targets)
    batches = []
    for _ in range(num_batches):
        kinds, sources, targets = [], [], []
        for _ in range(batch_size):
            action = rng.random()
            if action < 0.4:
                u, v = (int(x) for x in rng.integers(0, n, size=2))
                key = min(u, v) * n + max(u, v)
                if u == v or key in live:
                    continue
                live.add(key)
                kind = INSERT
            else:
                key = live.pick(rng)
                kind = DELETE if action < 0.7 else REWEIGHT
                if kind == DELETE:
                    live.remove(key)
            kinds.append(kind)
            sources.append(key // n)
            targets.append(key % n)
        size = len(kinds)
        batches.append(
            ChurnBatch(
                kinds=kinds,
                sources=np.asarray(sources, dtype=np.int64),
                targets=np.asarray(targets, dtype=np.int64),
                weights=rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=size),
                edge_types=rng.integers(
                    0, NUM_EDGE_TYPES, size=size, dtype=np.int32
                ),
            )
        )
    return batches
