#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus-node2vec --seed 1 \\
        --seconds 50 --trace 0

``--workload all`` runs every workload with ``--trace 0`` and then
``--trace 1``, each in a fresh process, prints their reports, and
exits non-zero if any run failed or any correctness check failed.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` adds traced passes (layer wrappers plus the program's
``repro.obs`` tracer) alternated with untraced ones, prints a per-layer
self-time table, and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

The program is imported from ``src/`` next to this directory; if it is
missing the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

WORKLOAD_NAMES = (
    "corpus-node2vec",
    "cluster-node2vec",
    "serve-static",
    "serve-churn",
)


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """Name -> unit of the end-to-end and per-layer metrics, as
    ``BENCHMARK.json`` declares them."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="KnightKing reproduction benchmark: one workload, "
        "timed end to end (trace 0) or per layer (trace 1).",
    )
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="measurement budget; batch workloads repeat jobs until it "
        "is spent, serve workloads send seconds x rate requests "
        "(at least 100)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> bool:
    """Put the checkout's ``src`` first on the path and import it."""
    sys.path[:0] = [ROOT, SRC]
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import repro from {SRC}: {error}", file=sys.stderr)
        return False
    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        print(f"perfbench: repro imported from {origin}, not {SRC}", file=sys.stderr)
        return False
    return True


def format_metrics(title: str, metrics: dict, units: dict) -> str:
    lines = [title]
    for name, value in metrics.items():
        lines.append(f"  {name:<34}{value:>18.6g} {units[name]}")
    return "\n".join(lines)


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            completed = subprocess.run(
                [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ],
                capture_output=True,
                text=True,
            )
            sys.stdout.write(completed.stdout)
            sys.stderr.write(completed.stderr)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines or not lines[-1].startswith("{"):
                print(f"perfbench: {name} --trace {trace} produced no result")
                ok = False
                continue
            result = json.loads(lines[-1])
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0 if ok and summary["correct"] and not summary["failed"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so services close, workers are
    # joined and the scratch directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    # One process, at most two busy threads: keep numpy single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not import_program():
        return 2
    from perfbench.workloads import WORKLOADS

    end_to_end_units, per_layer_units = declared_units()
    try:
        out = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), ROOT)
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(
        format_metrics(
            "end-to-end (tracing off):",
            {**out.end_to_end, **{k: v for k, (v, _) in out.extra.items()}},
            {**end_to_end_units, **{k: u for k, (_, u) in out.extra.items()}},
        )
    )
    failed = out.errors + len(out.check_failures)
    print(
        f"  {'error_rate':<34}{failed / max(out.attempted, 1):>18.6g} "
        f"ratio ({failed} of {out.attempted})"
    )
    print("deterministic counters: " + json.dumps(out.counters, sort_keys=True))
    for line in out.report:
        print(line)
    unknown = set(out.end_to_end) - set(end_to_end_units)
    unknown |= set(out.per_layer) - set(per_layer_units)
    if unknown:
        print(f"perfbench: undeclared metrics {sorted(unknown)}", file=sys.stderr)
        return 1
    if args.trace:
        # A workload that does not reach a layer reports 0 for it.
        chosen = {name: out.per_layer.get(name, 0.0) for name in per_layer_units}
        print(format_metrics("per-layer (traced run):", chosen, per_layer_units))
        units = per_layer_units
    else:
        chosen, units = out.end_to_end, end_to_end_units
        if set(chosen) != set(units):
            print(f"perfbench: metrics {sorted(chosen)} != {sorted(units)}", file=sys.stderr)
            return 1
    for failure in out.check_failures:
        print(f"CHECK FAILED: {failure}")
    if not all(math.isfinite(value) for value in chosen.values()):
        print("perfbench: a metric is not finite", file=sys.stderr)
        return 1
    result = {
        "correct": not out.check_failures,
        "attempted": int(out.attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(chosen[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
