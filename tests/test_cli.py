"""Tests for the command-line interface."""

import argparse
import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis import load_corpus
from repro.cli import build_parser, main
from repro.graph.generators import uniform_degree_graph
from repro.graph.io import save_edge_list


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_walk_defaults(self):
        args = build_parser().parse_args(
            ["walk", "--dataset", "livejournal"]
        )
        assert args.algorithm == "deepwalk"
        assert args.length == 80
        assert args.nodes == 0

    def test_graph_source_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["info", "--dataset", "twitter", "--edge-list", "x.txt"]
            )


def _subcommands():
    parser = build_parser()
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return sorted(action.choices)


class TestHelp:
    @pytest.mark.parametrize("command", _subcommands())
    def test_subcommand_help(self, command, capsys):
        # argparse %-formats help text, so a stray "%" in any help
        # string raises instead of printing.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_run_perf_help(self):
        script = (
            pathlib.Path(__file__).resolve().parents[1]
            / "benchmarks"
            / "run_perf.py"
        )
        completed = subprocess.run(
            [sys.executable, str(script), "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert "usage:" in completed.stdout


class TestInfo:
    def test_dataset_info(self, capsys):
        code = main(["info", "--dataset", "livejournal", "--scale", "0.1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "degree mean" in output
        assert "p99" in output

    def test_edge_list_info(self, capsys, tmp_path):
        graph = uniform_degree_graph(30, 3, seed=0)
        path = tmp_path / "graph.txt"
        save_edge_list(graph, path)
        assert main(["info", "--edge-list", str(path)]) == 0
        assert "|V|=30" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["info", "--edge-list", "/nonexistent/file"]) == 1
        assert "error" in capsys.readouterr().err


class TestWalk:
    def test_local_walk(self, capsys):
        code = main(
            [
                "walk",
                "--dataset",
                "livejournal",
                "--scale",
                "0.1",
                "--algorithm",
                "uniform",
                "--walkers",
                "50",
                "--length",
                "5",
            ]
        )
        assert code == 0
        assert "steps=250" in capsys.readouterr().out

    def test_distributed_walk(self, capsys):
        code = main(
            [
                "walk",
                "--dataset",
                "twitter",
                "--scale",
                "0.1",
                "--algorithm",
                "node2vec",
                "--walkers",
                "40",
                "--length",
                "5",
                "--nodes",
                "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "supersteps" in output
        assert "messages" in output

    @pytest.mark.parametrize("algorithm", ["ppr", "metapath", "rwr", "deepwalk"])
    def test_all_algorithms_run(self, capsys, algorithm):
        code = main(
            [
                "walk",
                "--dataset",
                "livejournal",
                "--scale",
                "0.1",
                "--algorithm",
                algorithm,
                "--walkers",
                "30",
                "--length",
                "5",
            ]
        )
        assert code == 0

    def test_corpus_output(self, capsys, tmp_path):
        corpus_path = tmp_path / "walks.txt"
        code = main(
            [
                "walk",
                "--dataset",
                "livejournal",
                "--scale",
                "0.1",
                "--algorithm",
                "deepwalk",
                "--walkers",
                "20",
                "--length",
                "6",
                "--output",
                str(corpus_path),
            ]
        )
        assert code == 0
        walks = load_corpus(corpus_path)
        assert len(walks) == 20
        assert all(len(walk) == 7 for walk in walks)


def _prometheus_totals(path) -> dict[str, float]:
    """Sample values of a Prometheus text export, summed over labels."""
    totals: dict[str, float] = {}
    for line in pathlib.Path(path).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            name = series.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + float(value)
    return totals


class TestObservabilityExports:
    """The CLI's metric and trace exports, end to end."""

    def test_distributed_walk_exports(self, capsys, tmp_path):
        metrics, trace = tmp_path / "walk.prom", tmp_path / "walk.json"
        code = main(
            [
                "walk", "--dataset", "livejournal", "--scale", "0.05",
                "--walkers", "20", "--length", "5", "--nodes", "4",
                "--emit-metrics", str(metrics), "--emit-trace", str(trace),
            ]
        )
        assert code == 0
        steps = int(re.search(r"steps=(\d+)", capsys.readouterr().out)[1])
        totals = _prometheus_totals(metrics)
        assert totals["walk_steps_total"] == steps == 100
        assert totals["cluster_nodes"] == 4
        assert json.loads(trace.read_text(encoding="utf-8"))["traceEvents"]

    def test_serve_exports_balanced_accounting(self, capsys, tmp_path):
        metrics = tmp_path / "serve.prom"
        code = main(
            [
                "serve", "--dataset", "livejournal", "--scale", "0.02",
                "--requests", "24", "--emit-metrics", str(metrics),
            ]
        )
        assert code == 0
        assert "exact=True" in capsys.readouterr().out
        totals = _prometheus_totals(metrics)
        assert totals["service_submitted_total"] == 24
        assert totals["service_submitted_total"] == (
            totals["service_served_total"]
            + totals.get("service_shed_total", 0.0)
            + totals["service_failed_total"]
        )

    def test_sanitize_runs(self, capsys):
        code = main(
            [
                "sanitize", "--dataset", "livejournal", "--scale", "0.02",
                "--walkers", "10", "--length", "4",
            ]
        )
        assert code == 0
        assert "deterministic" in capsys.readouterr().out


class TestBench:
    def test_memory_experiment(self, capsys):
        assert main(["bench", "memory"]) == 0
        output = capsys.readouterr().out
        assert "970 TB" in output or "TB" in output

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "table99"])
