"""Tests for the non-backtracking walk program."""

import numpy as np
import pytest

from repro.algorithms import NonBacktrackingWalk
from repro.cluster import DistributedWalkEngine, MessageKind
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.graph.builder import from_edges
from repro.graph.generators import ring_graph, uniform_degree_graph

from tests.helpers import without_batch_hooks


@pytest.fixture
def graph():
    return uniform_degree_graph(120, 5, seed=0, undirected=True)


class TestBehaviour:
    def test_never_backtracks(self, graph):
        config = WalkConfig(num_walkers=300, max_steps=20, record_paths=True, seed=1)
        result = WalkEngine(graph, NonBacktrackingWalk(), config).run()
        for path in result.paths:
            for position in range(2, len(path)):
                assert path[position] != path[position - 2]

    def test_scalar_path_agrees(self, graph):
        config = WalkConfig(num_walkers=50, max_steps=10, record_paths=True, seed=2)
        result = WalkEngine(
            graph, without_batch_hooks(NonBacktrackingWalk()), config
        ).run()
        for path in result.paths:
            for position in range(2, len(path)):
                assert path[position] != path[position - 2]

    def test_degree_one_dead_end(self):
        # 0 - 1 only: after moving 0 -> 1, the walker has nowhere to go.
        graph = from_edges(2, [(0, 1)], undirected=True)
        config = WalkConfig(
            num_walkers=1,
            max_steps=10,
            record_paths=True,
            start_vertices=np.array([0]),
        )
        result = WalkEngine(graph, NonBacktrackingWalk(), config).run()
        assert result.paths[0].tolist() == [0, 1]
        assert result.stats.termination.by_dead_end == 1

    def test_unbiased_flag(self, graph):
        program = NonBacktrackingWalk(biased=False)
        static = program.edge_static_comp(graph)
        np.testing.assert_array_equal(static, np.ones(graph.num_edges))
        assert NonBacktrackingWalk(biased=True).edge_static_comp(graph) is None

    def test_ring_walk_is_deterministic_direction(self):
        """On an undirected cycle, a non-backtracking walker can only
        keep going the way it started."""
        graph = ring_graph(8, undirected=True)
        config = WalkConfig(
            num_walkers=100,
            max_steps=8,
            record_paths=True,
            seed=3,
            start_vertices=np.zeros(100, dtype=np.int64),
        )
        result = WalkEngine(graph, NonBacktrackingWalk(), config).run()
        for path in result.paths:
            first_step = (int(path[1]) - int(path[0])) % 8
            for source, target in zip(path[1:-1], path[2:]):
                assert (int(target) - int(source)) % 8 == first_step


class TestDistributed:
    def test_no_state_queries_needed(self, graph):
        """Second-order order but locally-resolvable Pd: the engine
        must not send any walker-to-vertex queries."""
        config = WalkConfig(num_walkers=60, max_steps=10, seed=4)
        result = DistributedWalkEngine(
            graph, NonBacktrackingWalk(), config, num_nodes=4
        ).run()
        assert (
            result.cluster.network.total_messages(MessageKind.STATE_QUERY) == 0
        )
        assert result.stats.total_steps == 600
