"""Integration tests for the distributed walk engine."""

import numpy as np
import pytest

from repro.algorithms import DeepWalk, MetaPathWalk, Node2Vec, PPR, UniformWalk
from repro.cluster import (
    CostModel,
    DistributedWalkEngine,
    MessageKind,
    ThreadPolicy,
)
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.program import WalkerProgram
from repro.errors import ProgramError
from repro.graph.generators import uniform_degree_graph
from repro.graph.hetero import assign_random_edge_types

from tests.helpers import diamond_graph, exact_node2vec_law


@pytest.fixture
def graph():
    return uniform_degree_graph(160, 6, seed=0, undirected=True)


class TestExecution:
    def test_walks_complete(self, graph):
        config = WalkConfig(num_walkers=50, max_steps=12, record_paths=True)
        result = DistributedWalkEngine(
            graph, UniformWalk(), config, num_nodes=4
        ).run()
        assert all(len(path) == 13 for path in result.paths)
        for path in result.paths:
            for source, target in zip(path[:-1], path[1:]):
                assert graph.has_edge(int(source), int(target))

    def test_supersteps_equal_iterations(self, graph):
        config = WalkConfig(num_walkers=30, max_steps=5)
        result = DistributedWalkEngine(
            graph, UniformWalk(), config, num_nodes=4
        ).run()
        assert result.cluster.num_supersteps == result.stats.iterations
        assert result.cluster.simulated_seconds == pytest.approx(
            sum(result.cluster.superstep_times)
        )

    def test_single_node_no_remote_messages(self, graph):
        config = WalkConfig(num_walkers=30, max_steps=5)
        result = DistributedWalkEngine(
            graph, Node2Vec(p=2, q=0.5, biased=False), config, num_nodes=1
        ).run()
        assert result.cluster.network.total_messages() == 0
        # Local deliveries still happen (and are charged in the model).
        assert result.cluster.network.local_deliveries() > 0

    def test_scalar_only_dynamic_program_rejected_at_construction(self, graph):
        """A dynamic program with only scalar hooks walks locally; the
        cluster engine refuses it before running instead of failing in
        its first distributed round."""

        class ScalarDynamic(WalkerProgram):
            dynamic = True

            def edge_dynamic_comp(self, graph, walker, edge_index, answer=None):
                return 0.5 if walker.current % 2 else 1.0

            def dynamic_upper_bound(self, graph, vertex):
                return 1.0

            def dynamic_lower_bound(self, graph, vertex):
                return 0.5

        config = WalkConfig(num_walkers=10, max_steps=4, seed=1)
        local = WalkEngine(graph, ScalarDynamic(), config).run()
        assert local.stats.total_steps == 40
        with pytest.raises(ProgramError, match="batch_dynamic_comp"):
            DistributedWalkEngine(graph, ScalarDynamic(), config, num_nodes=2)

    def test_distribution_matches_local_engine(self):
        graph = diamond_graph()
        config = WalkConfig(
            num_walkers=10_000,
            max_steps=2,
            record_paths=True,
            seed=8,
            start_vertices=np.zeros(10_000, dtype=np.int64),
        )
        program = Node2Vec(p=0.5, q=2.0, biased=False)
        distributed = DistributedWalkEngine(
            graph, program, config, num_nodes=3
        ).run()
        local = WalkEngine(graph, program, config).run()
        dist_hist = np.bincount(
            [int(p[-1]) for p in distributed.paths if len(p) == 3], minlength=4
        )
        local_hist = np.bincount(
            [int(p[-1]) for p in local.paths if len(p) == 3], minlength=4
        )
        total = dist_hist.sum()
        assert np.abs(dist_hist / total - local_hist / local_hist.sum()).max() < 0.03


class TestMessageAccounting:
    def test_static_walk_sends_no_queries(self, graph):
        config = WalkConfig(num_walkers=40, max_steps=10)
        result = DistributedWalkEngine(
            graph, DeepWalk(), config, num_nodes=4
        ).run()
        network = result.cluster.network
        assert network.total_messages(MessageKind.STATE_QUERY) == 0
        assert network.total_messages(MessageKind.QUERY_RESPONSE) == 0
        assert network.total_messages(MessageKind.WALKER_MIGRATE) > 0

    def test_first_order_dynamic_sends_no_queries(self, graph):
        typed = assign_random_edge_types(graph, 3, seed=1)
        config = WalkConfig(num_walkers=40, max_steps=8)
        result = DistributedWalkEngine(
            typed, MetaPathWalk([[0, 1, 2]]), config, num_nodes=4
        ).run()
        assert result.cluster.network.total_messages(MessageKind.STATE_QUERY) == 0

    def test_second_order_sends_query_pairs(self, graph):
        config = WalkConfig(num_walkers=40, max_steps=10)
        result = DistributedWalkEngine(
            graph, Node2Vec(p=2, q=0.5, biased=False), config, num_nodes=4
        ).run()
        network = result.cluster.network
        queries = network.total_messages(MessageKind.STATE_QUERY)
        responses = network.total_messages(MessageKind.QUERY_RESPONSE)
        assert queries > 0
        assert queries == responses

    def test_lower_bound_cuts_queries(self, graph):
        """Pre-acceptance saves remote state queries (paper section 4.2)."""
        config = WalkConfig(num_walkers=60, max_steps=10, seed=2)
        program_args = dict(p=2.0, q=0.5, biased=False)
        with_lb = DistributedWalkEngine(
            graph, Node2Vec(**program_args), config, num_nodes=4
        ).run()
        without_lb = DistributedWalkEngine(
            graph,
            Node2Vec(**program_args),
            config,
            num_nodes=4,
            use_lower_bound=False,
        ).run()
        assert with_lb.cluster.network.total_messages(
            MessageKind.STATE_QUERY
        ) < without_lb.cluster.network.total_messages(MessageKind.STATE_QUERY)

    def test_migrations_match_ownership_changes(self):
        graph = diamond_graph()
        config = WalkConfig(
            num_walkers=500, max_steps=3, record_paths=True, seed=3
        )
        engine = DistributedWalkEngine(graph, UniformWalk(), config, num_nodes=2)
        result = engine.run()
        crossings = 0
        for path in result.paths:
            owners = engine.partition.owners(path)
            crossings += int(np.count_nonzero(owners[:-1] != owners[1:]))
        assert (
            result.cluster.network.total_messages(MessageKind.WALKER_MIGRATE)
            == crossings
        )


class TestSchedulingAndCost:
    def test_light_mode_reduces_simulated_time_on_long_tail(self, graph):
        config = WalkConfig(
            num_walkers=graph.num_vertices,
            max_steps=None,
            termination_probability=0.15,
            seed=4,
        )
        times = {}
        for light in (False, True):
            engine = DistributedWalkEngine(
                graph,
                PPR(),
                config,
                num_nodes=4,
                thread_policy=ThreadPolicy(light_mode=light, threshold=20),
            )
            result = engine.run()
            times[light] = result.cluster.simulated_seconds
        assert times[True] < times[False]

    def test_light_mode_counter(self, graph):
        config = WalkConfig(num_walkers=10, max_steps=3)
        result = DistributedWalkEngine(
            graph,
            UniformWalk(),
            config,
            num_nodes=2,
            thread_policy=ThreadPolicy(threshold=1000),
        ).run()
        assert result.cluster.light_mode_node_supersteps > 0

    def test_custom_cost_model_scales_time(self, graph):
        config = WalkConfig(num_walkers=30, max_steps=5, seed=5)
        cheap = DistributedWalkEngine(
            graph,
            UniformWalk(),
            config,
            num_nodes=2,
            cost_model=CostModel(),
        ).run()
        expensive = DistributedWalkEngine(
            graph,
            UniformWalk(),
            config,
            num_nodes=2,
            cost_model=CostModel(
                trial_cost=8e-5, message_cost=5e-4, thread_overhead=4e-3
            ),
        ).run()
        assert (
            expensive.cluster.simulated_seconds
            > 100 * cheap.cluster.simulated_seconds
        )

    def test_per_node_load_accounting(self, graph):
        config = WalkConfig(num_walkers=graph.num_vertices, max_steps=10, seed=6)
        result = DistributedWalkEngine(
            graph, Node2Vec(p=2, q=0.5, biased=False), config, num_nodes=4
        ).run()
        cluster = result.cluster
        # Per-node trial totals sum to the global counter.
        assert int(cluster.trials_per_node.sum()) == result.stats.counters.trials
        assert (
            int(cluster.pd_evaluations_per_node.sum())
            == result.stats.counters.pd_evaluations
            + result.stats.full_scan_evaluations
        )
        # Walker-supersteps sum equals the per-iteration active series.
        assert int(cluster.walker_supersteps_per_node.sum()) == sum(
            result.stats.active_per_iteration
        )
        # Uniform-ish graph, |V| walkers: load is reasonably balanced.
        assert cluster.compute_balance() < 1.5

    def test_more_nodes_spread_work(self):
        big = uniform_degree_graph(2000, 8, seed=6, undirected=True)
        config = WalkConfig(num_walkers=2000, max_steps=20, seed=7)
        times = {}
        for nodes in (1, 8):
            result = DistributedWalkEngine(
                big,
                Node2Vec(p=2, q=0.5, biased=False),
                config,
                num_nodes=nodes,
                thread_policy=ThreadPolicy(light_mode=False),
            ).run()
            times[nodes] = result.cluster.simulated_seconds
        assert times[8] < times[1]
