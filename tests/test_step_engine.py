"""Staged step loop: partial results and zero-mass guard lanes.

The Gather -> Move -> Update loop (``repro.core.stepper``) is the only
sampling path of every engine; its walks are pinned event for event by
``tests/test_golden_digests.py``.  These tests cover what the digests
do not: paused and cancelled runs return well-formed partials, and the
zero-mass guard resolves the right lane when walker ids arrive
unsorted.
"""

import numpy as np
import pytest

from repro.algorithms import DeepWalk, Node2Vec
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine, ZERO_MASS_GUARD_TRIALS
from repro.graph.generators import uniform_degree_graph
from repro.service import CancelToken


def plain_graph():
    return uniform_degree_graph(150, 6, seed=1, undirected=True)


PROGRAMS = {
    "deepwalk": DeepWalk,
    "node2vec": lambda: Node2Vec(p=2.0, q=0.5, biased=False),
}


def run_program(name, seed=9, **run_kwargs):
    config = WalkConfig(
        num_walkers=120, max_steps=12, record_paths=True, seed=seed
    )
    return WalkEngine(plain_graph(), PROGRAMS[name](), config).run(
        **run_kwargs
    )


class TestPartialResults:
    @pytest.mark.parametrize("name", ["deepwalk", "node2vec"])
    def test_pause_yields_identical_partials(self, name):
        """A paused run is replayable and its paths are prefixes of the
        complete run's (pausing consumes no randomness)."""
        first = run_program(name, max_iterations=4)
        second = run_program(name, max_iterations=4)
        complete = run_program(name)
        assert first.status == second.status == "paused"
        assert complete.status == "complete"
        for a, b, full in zip(first.paths, second.paths, complete.paths):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, full[: a.size])
        assert first.stats.total_steps == second.stats.total_steps
        assert first.stats.total_steps < complete.stats.total_steps

    def test_cancel_token_stops_step_engine(self):
        token = CancelToken()
        token.cancel()
        result = run_program("deepwalk", cancel=token)
        assert result.status == "cancelled"
        # Partial results stay well-formed: one recorded start vertex
        # per walker, zero steps executed.
        assert result.stats.total_steps == 0
        assert len(result.paths) == result.walkers.num_walkers


class TestGuardLanes:
    def test_commit_round_guards_unsorted_lanes(self):
        """`_commit_round` must guard by *lane*, not by sorted id.

        Lane 0 holds walker 1 (accepted) and lane 1 holds walker 0
        (rejected, streak at the threshold): only walker 0 may be
        guard-killed.
        """
        from repro.graph.builder import from_edges
        from tests.test_multi_trial import StuckAtZero as StuckProgram

        graph = from_edges(2, [(0, 1), (1, 0)])
        engine = WalkEngine(
            graph, StuckProgram(), WalkConfig(num_walkers=2, seed=3)
        )
        engine.walkers.current[:] = [0, 1]
        engine._rejection_streak[:] = ZERO_MASS_GUARD_TRIALS - 1
        walker_ids = np.array([1, 0], dtype=np.int64)
        accepted = np.array([True, False])
        edges = np.zeros(2, dtype=np.int64)
        edges[0] = graph.edge_range(1)[0]  # walker 1 takes edge 1->0
        moved = engine._commit_round(walker_ids, accepted, edges)
        assert moved.all()
        assert bool(engine.walkers.alive[1])
        assert not bool(engine.walkers.alive[0])
        assert engine.stats.termination.by_dead_end == 1

    def test_step_mode_guard_resolves_dead_end(self):
        from repro.graph.builder import from_edges
        from tests.test_multi_trial import StuckAtZero as StuckProgram

        graph = from_edges(2, [(0, 1), (1, 0)])
        engine = WalkEngine(
            graph, StuckProgram(),
            WalkConfig(num_walkers=1, max_steps=10, seed=5),
        )
        engine.walkers.current[:] = [0]
        result = engine.run()
        assert result.stats.termination.by_dead_end == 1
