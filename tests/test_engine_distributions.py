"""Exactness tests: engine per-step laws vs direct enumeration.

The paper's central claim is that rejection sampling is *exact*: the
engine's next-vertex law at every step equals the normalised
``Ps * Pd`` law, even with outlier folding and pre-acceptance enabled.
These tests pin that on small graphs where the laws can be enumerated.
"""

import numpy as np
import pytest

from repro.algorithms import Node2Vec
from repro.baselines import FullScanWalkEngine, PrecomputedNode2Vec
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.graph.builder import assign_random_weights
from repro.graph.generators import uniform_degree_graph

from tests.helpers import (
    assert_matches_distribution,
    diamond_graph,
    exact_node2vec_law,
    without_batch_hooks,
)

NUM_WALKERS = 12_000


def second_step_law(graph, program, start, seed=0, num_walkers=NUM_WALKERS, **engine_kwargs):
    """Empirical (prev, final) distribution after exactly two steps."""
    config = WalkConfig(
        num_walkers=num_walkers,
        max_steps=2,
        record_paths=True,
        seed=seed,
        start_vertices=np.full(num_walkers, start, dtype=np.int64),
    )
    result = WalkEngine(graph, program, config, **engine_kwargs).run()
    return [path for path in result.paths if len(path) == 3]


def exact_two_step_law(graph, p, q, biased, start):
    """Exact joint law over (middle, final) pairs, flattened."""
    first = exact_node2vec_law(graph, start, -1, p, q, biased)
    joint = np.zeros((graph.num_vertices, graph.num_vertices))
    for middle in range(graph.num_vertices):
        if first[middle] == 0:
            continue
        second = exact_node2vec_law(graph, middle, start, p, q, biased)
        joint[middle] = first[middle] * second
    return joint.ravel()


class TestNode2VecExactness:
    @pytest.mark.parametrize("p,q", [(2.0, 0.5), (0.5, 2.0), (1.0, 4.0)])
    def test_two_step_law_unbiased(self, p, q):
        graph = diamond_graph()
        paths = second_step_law(
            graph, Node2Vec(p=p, q=q, biased=False), start=0
        )
        samples = [int(path[1]) * 4 + int(path[2]) for path in paths]
        assert_matches_distribution(
            samples, exact_two_step_law(graph, p, q, False, 0)
        )

    def test_two_step_law_biased(self):
        graph = diamond_graph(weights=True)
        paths = second_step_law(
            graph, Node2Vec(p=0.5, q=2.0, biased=True), start=0
        )
        samples = [int(path[1]) * 4 + int(path[2]) for path in paths]
        assert_matches_distribution(
            samples, exact_two_step_law(graph, 0.5, 2.0, True, 0)
        )

    def test_folding_matches_unfolded(self):
        """Outlier folding changes cost, never the law."""
        graph = diamond_graph()
        laws = {}
        for fold in (True, False):
            paths = second_step_law(
                graph,
                Node2Vec(p=0.25, q=4.0, biased=False, fold_outlier=fold),
                start=1,
                seed=fold,
            )
            samples = [int(path[1]) * 4 + int(path[2]) for path in paths]
            laws[fold] = np.bincount(samples, minlength=16)
        exact = exact_two_step_law(graph, 0.25, 4.0, False, 1)
        assert_matches_distribution(
            np.repeat(np.arange(16), laws[True]), exact
        )
        assert_matches_distribution(
            np.repeat(np.arange(16), laws[False]), exact
        )

    def test_lower_bound_disabled_same_law(self):
        graph = diamond_graph()
        paths = second_step_law(
            graph,
            Node2Vec(p=2.0, q=0.5, biased=False),
            start=0,
            use_lower_bound=False,
        )
        samples = [int(path[1]) * 4 + int(path[2]) for path in paths]
        assert_matches_distribution(
            samples, exact_two_step_law(graph, 2.0, 0.5, False, 0)
        )

    def test_scalar_reference_path_same_law(self):
        graph = diamond_graph()
        paths = second_step_law(
            graph,
            without_batch_hooks(Node2Vec(p=0.5, q=2.0, biased=False)),
            start=0,
            num_walkers=4000,
        )
        samples = [int(path[1]) * 4 + int(path[2]) for path in paths]
        assert_matches_distribution(
            samples, exact_two_step_law(graph, 0.5, 2.0, False, 0)
        )


class TestAgainstOracles:
    def test_rejection_matches_full_scan(self):
        """Two independent exact implementations agree."""
        graph = uniform_degree_graph(40, 5, seed=3, undirected=True)
        program_args = dict(p=0.5, q=2.0, biased=False)
        histograms = {}
        for engine_cls in (WalkEngine, FullScanWalkEngine):
            config = WalkConfig(
                num_walkers=8000,
                max_steps=3,
                record_paths=True,
                seed=9,
                start_vertices=np.zeros(8000, dtype=np.int64),
            )
            result = engine_cls(graph, Node2Vec(**program_args), config).run()
            finals = [int(path[-1]) for path in result.paths]
            histograms[engine_cls.__name__] = np.bincount(finals, minlength=40)
        a = histograms["WalkEngine"] / 8000
        b = histograms["FullScanWalkEngine"] / 8000
        assert np.abs(a - b).max() < 0.03

    def test_rejection_matches_precomputed_oracle(self):
        """Engine's one-step conditional law equals the precomputed
        per-(prev, cur) alias tables' law."""
        graph = assign_random_weights(
            uniform_degree_graph(25, 4, seed=5, undirected=True), seed=6
        )
        p, q = 0.5, 2.0
        oracle = PrecomputedNode2Vec(graph, p=p, q=q, biased=True)
        rng = np.random.default_rng(7)

        current = 0
        previous = int(graph.neighbors(0)[0])
        oracle_samples = [
            oracle.sample(current, previous, rng) for _ in range(NUM_WALKERS)
        ]
        law = exact_node2vec_law(graph, current, previous, p, q, True)
        assert_matches_distribution(oracle_samples, law)
