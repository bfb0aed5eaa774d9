"""Unit tests for walk path recording."""

import numpy as np
import pytest

from repro.algorithms import DeepWalk
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.trace import PathRecorder
from repro.graph.generators import uniform_degree_graph


class TestPathRecorder:
    def test_no_moves(self):
        recorder = PathRecorder(np.array([4, 7]))
        paths = recorder.paths()
        assert [p.tolist() for p in paths] == [[4], [7]]

    def test_single_walker_sequence(self):
        recorder = PathRecorder(np.array([0]))
        for vertex in (1, 2, 3):
            recorder.record_moves(np.array([0]), np.array([vertex]))
        assert recorder.paths()[0].tolist() == [0, 1, 2, 3]

    def test_interleaved_walkers(self):
        recorder = PathRecorder(np.array([0, 10]))
        recorder.record_moves(np.array([0, 1]), np.array([1, 11]))
        recorder.record_moves(np.array([1]), np.array([12]))  # only walker 1
        recorder.record_moves(np.array([0, 1]), np.array([2, 13]))
        paths = recorder.paths()
        assert paths[0].tolist() == [0, 1, 2]
        assert paths[1].tolist() == [10, 11, 12, 13]

    def test_empty_batches_ignored(self):
        recorder = PathRecorder(np.array([5]))
        recorder.record_moves(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert recorder.paths()[0].tolist() == [5]

    def test_as_corpus(self):
        recorder = PathRecorder(np.array([1, 2]))
        recorder.record_moves(np.array([0]), np.array([3]))
        assert recorder.as_corpus() == [[1, 3], [2]]

    def test_inputs_copied(self):
        """Mutating the caller's arrays must not corrupt recordings."""
        recorder = PathRecorder(np.array([0]))
        walker_ids = np.array([0])
        vertices = np.array([5])
        recorder.record_moves(walker_ids, vertices)
        vertices[0] = 99
        assert recorder.paths()[0].tolist() == [0, 5]


class TestEngineModePathEquivalence:
    """Path recording through the staged engine: ragged walk lengths
    reconstruct exactly, and the streaming recorder writes the same
    sequences the in-memory recorder keeps."""

    @pytest.fixture(scope="class")
    def graph(self):
        return uniform_degree_graph(250, 6, seed=3, undirected=True)

    def _run(self, graph, program, **overrides):
        settings = dict(
            num_walkers=60, max_steps=15, seed=11, record_paths=True
        )
        settings.update(overrides)
        return WalkEngine(graph, program, WalkConfig(**settings)).run()

    def test_step_mode_with_termination_probability(self, graph):
        # Early termination exercises the recorder's ragged-length
        # reconstruction (walkers finish at different iterations).
        result = self._run(graph, DeepWalk(), termination_probability=0.15)
        lengths = {len(p) for p in result.paths}
        assert len(lengths) > 1, "expected ragged path lengths"
        for path, steps in zip(result.paths, result.walk_lengths):
            assert len(path) == steps + 1
            for source, target in zip(path[:-1], path[1:]):
                assert graph.has_edge(int(source), int(target))

    def test_step_mode_streaming_recorder_matches_in_memory(
        self, graph, tmp_path
    ):
        corpus = tmp_path / "walks.txt"
        config = WalkConfig(
            num_walkers=40,
            max_steps=10,
            seed=19,
            stream_paths_to=str(corpus),
        )
        WalkEngine(graph, DeepWalk(), config).run()
        streamed = sorted(
            tuple(int(v) for v in line.split())
            for line in corpus.read_text().splitlines()
        )
        recorded = sorted(
            tuple(p.tolist())
            for p in self._run(
                graph, DeepWalk(), num_walkers=40, max_steps=10, seed=19
            ).paths
        )
        assert streamed == recorded
