"""Tests for the Gemini-adapted baseline engine."""

import numpy as np
import pytest

from repro.algorithms import DeepWalk, Node2Vec, UniformWalk
from repro.baselines import GeminiWalkEngine
from repro.cluster import DistributedWalkEngine, MessageKind
from repro.core.config import WalkConfig
from repro.graph.dynamic import DynamicGraph, EdgeUpdate
from repro.graph.generators import uniform_degree_graph

from tests.helpers import diamond_graph


@pytest.fixture
def graph():
    return uniform_degree_graph(200, 6, seed=0, undirected=True)


class TestExecution:
    def test_walks_complete_and_valid(self, graph):
        config = WalkConfig(num_walkers=40, max_steps=10, record_paths=True)
        result = GeminiWalkEngine(graph, DeepWalk(), config, num_nodes=4).run()
        assert all(len(path) == 11 for path in result.paths)
        for path in result.paths:
            for source, target in zip(path[:-1], path[1:]):
                assert graph.has_edge(int(source), int(target))

    def test_dynamic_graph_and_snapshot_inputs(self, graph):
        """A DynamicGraph or EpochSnapshot walks its pinned epoch."""
        dyn = DynamicGraph(graph)
        dyn.commit([EdgeUpdate("insert", 0, 199)])
        snapshot = dyn.snapshot()
        config = WalkConfig(num_walkers=40, max_steps=8, seed=3,
                            record_paths=True)
        reference = GeminiWalkEngine(
            snapshot.graph, DeepWalk(), config, num_nodes=4
        ).run()
        for source in (dyn, snapshot):
            result = GeminiWalkEngine(
                source, DeepWalk(), config, num_nodes=4
            ).run()
            assert result.stats.graph_epoch == 1
            assert result.stats.total_steps == reference.stats.total_steps
            for path, expected in zip(result.paths, reference.paths):
                np.testing.assert_array_equal(path, expected)

    def test_distribution_matches_knightking(self):
        """Two-phase sampling draws from the same law."""
        graph = diamond_graph(weights=True)
        config = WalkConfig(
            num_walkers=10_000,
            max_steps=1,
            record_paths=True,
            seed=1,
            start_vertices=np.full(10_000, 1, dtype=np.int64),
        )
        gemini = GeminiWalkEngine(graph, DeepWalk(), config, num_nodes=2).run()
        knightking = DistributedWalkEngine(
            graph, DeepWalk(), config, num_nodes=2
        ).run()
        a = np.bincount([int(p[-1]) for p in gemini.paths], minlength=4)
        b = np.bincount([int(p[-1]) for p in knightking.paths], minlength=4)
        assert np.abs(a / 10_000 - b / 10_000).max() < 0.03

    def test_dynamic_walk_distribution(self):
        graph = diamond_graph()
        config = WalkConfig(
            num_walkers=8000,
            max_steps=2,
            record_paths=True,
            seed=2,
            start_vertices=np.zeros(8000, dtype=np.int64),
        )
        program = Node2Vec(p=0.5, q=2.0, biased=False)
        gemini = GeminiWalkEngine(graph, program, config, num_nodes=2).run()
        local = DistributedWalkEngine(graph, program, config, num_nodes=2).run()
        a = np.bincount([int(p[-1]) for p in gemini.paths], minlength=4)
        b = np.bincount([int(p[-1]) for p in local.paths], minlength=4)
        assert np.abs(a / 8000 - b / 8000).max() < 0.03


class TestCostStructure:
    def test_dynamic_scans_every_edge(self, graph):
        config = WalkConfig(num_walkers=30, max_steps=10)
        result = GeminiWalkEngine(
            graph, Node2Vec(p=2, q=0.5, biased=False), config, num_nodes=4
        ).run()
        # Full scans: evaluations/step near the (visit-weighted) degree.
        assert result.stats.pd_evaluations_per_step > 10

    def test_static_needs_no_pd(self, graph):
        config = WalkConfig(num_walkers=30, max_steps=10)
        result = GeminiWalkEngine(graph, DeepWalk(), config, num_nodes=4).run()
        assert result.stats.counters.pd_evaluations == 0

    def test_mirror_broadcast_messages(self, graph):
        config = WalkConfig(num_walkers=30, max_steps=10)
        gemini = GeminiWalkEngine(graph, DeepWalk(), config, num_nodes=4).run()
        knightking = DistributedWalkEngine(
            graph, DeepWalk(), config, num_nodes=4
        ).run()
        # Gemini's broadcasts and two-phase hops send far more messages
        # for the same walk.
        assert (
            gemini.cluster.network.total_messages()
            > 2 * knightking.cluster.network.total_messages()
        )

    def test_slower_than_knightking_on_dynamic(self, graph):
        config = WalkConfig(num_walkers=60, max_steps=10, seed=3)
        program_args = dict(p=2.0, q=0.5, biased=False)
        gemini = GeminiWalkEngine(
            graph, Node2Vec(**program_args), config, num_nodes=4
        ).run()
        knightking = DistributedWalkEngine(
            graph, Node2Vec(**program_args), config, num_nodes=4
        ).run()
        assert (
            gemini.cluster.simulated_seconds
            > 2 * knightking.cluster.simulated_seconds
        )

    def test_static_gap_smaller_than_dynamic_gap(self, graph):
        """The paper's key contrast: one order of magnitude for static
        walks, explosive for dynamic ones."""
        config = WalkConfig(num_walkers=60, max_steps=10, seed=4)

        def speedup(program_factory):
            gemini = GeminiWalkEngine(
                graph, program_factory(), config, num_nodes=4
            ).run()
            knightking = DistributedWalkEngine(
                graph, program_factory(), config, num_nodes=4
            ).run()
            return (
                gemini.cluster.simulated_seconds
                / knightking.cluster.simulated_seconds
            )

        static_gap = speedup(DeepWalk)
        dynamic_gap = speedup(lambda: Node2Vec(p=2, q=0.5, biased=False))
        assert dynamic_gap > static_gap

    def test_uniform_walk_supported(self, graph):
        config = WalkConfig(num_walkers=20, max_steps=5)
        result = GeminiWalkEngine(graph, UniformWalk(), config, num_nodes=2).run()
        assert result.stats.total_steps == 100

    def test_metapath_dead_ends_handled(self):
        """Gemini's full scan finds zero eligible mass and terminates
        the walk, like the other engines."""
        from repro.algorithms import MetaPathWalk
        from repro.graph.hetero import assign_random_edge_types

        graph = assign_random_edge_types(
            uniform_degree_graph(40, 3, seed=5), 1, seed=6
        )
        program = MetaPathWalk([[3]])  # type 3 never exists
        config = WalkConfig(num_walkers=10, max_steps=5, record_paths=True)
        result = GeminiWalkEngine(graph, program, config, num_nodes=2).run()
        assert result.stats.termination.by_dead_end == 10
        assert all(len(path) == 1 for path in result.paths)

    def test_per_node_scan_attribution(self, graph):
        """Dynamic scan work is attributed to the nodes hosting the
        edges (Gemini's mirrors), summing to the global counter."""
        config = WalkConfig(num_walkers=40, max_steps=8, seed=7)
        engine = GeminiWalkEngine(
            graph, Node2Vec(p=2, q=0.5, biased=False), config, num_nodes=4
        )
        result = engine.run()
        assert int(result.cluster.pd_evaluations_per_node.sum()) == (
            result.stats.counters.pd_evaluations
        )


class TestGeminiRoundForEveryProgram:
    def test_metapath_runs_gemini_two_phase_round(self, monkeypatch):
        """Meta-path is step-paced and dynamic: Gemini must still run
        its own full-scan two-phase round, not KnightKing's rejection
        kernels — so its Pd bill is the full scan's, and its simulated
        time differs from the KnightKing engine's."""
        from repro.algorithms import MetaPathWalk
        from repro.baselines import FullScanWalkEngine
        from repro.graph.hetero import assign_random_edge_types

        graph = assign_random_edge_types(
            uniform_degree_graph(200, 6, seed=0, undirected=True), 4, seed=1
        )
        schemes = [[0, 1, 2], [2, 3]]
        config = WalkConfig(num_walkers=80, max_steps=10, seed=5)

        rounds = []
        gemini_round = GeminiWalkEngine._sample_round

        def counting_round(self, ctx):
            rounds.append(ctx.size)
            return gemini_round(self, ctx)

        monkeypatch.setattr(GeminiWalkEngine, "_sample_round", counting_round)
        gemini = GeminiWalkEngine(
            graph, MetaPathWalk(schemes), config, num_nodes=4
        ).run()
        knightking = DistributedWalkEngine(
            graph, MetaPathWalk(schemes), config, num_nodes=4
        ).run()
        full_scan = FullScanWalkEngine(graph, MetaPathWalk(schemes), config).run()

        assert rounds and sum(rounds) > 0
        assert (
            gemini.stats.pd_evaluations_per_step
            != knightking.stats.pd_evaluations_per_step
        )
        assert (
            gemini.cluster.simulated_seconds
            != knightking.cluster.simulated_seconds
        )
        # Every step scans every out-edge: the full-scan baseline's bill.
        assert (
            gemini.stats.counters.pd_evaluations
            == full_scan.stats.counters.pd_evaluations
        )
        assert gemini.stats.full_scan_evaluations == 0
