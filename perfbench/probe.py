"""Layer timing from outside the program.

:class:`LayerProbe` wraps public entry points of each layer (and the
two private layer boundaries that have no public function:
``DistributedWalkEngine._superstep`` and ``WalkService._run_engines``)
for the traced run only, and uninstalls the wrappers afterwards so the
untraced runs execute the program unmodified.

Every wrapped call pushes a frame on a per-thread stack.  On exit the
call's duration is added to its parent's child time, so a layer's *self
time* is its span minus the time its wrapped children covered.  Spans
the program's own :class:`repro.obs.Tracer` measures (``engine.run``,
``superstep`` and the ``stage.*`` spans) join the same stack through
:class:`LayeredTracer`, so ``stage.move`` self time is what is left
after candidate draws, Pd evaluation, commits and path recording.

Frames below a *run root* (a walk's ``run()`` or a served request's
engine execution) are booked to the run; everything else (graph build,
engine construction outside the service, commits) is booked outside.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs import Tracer

SHARD_SELF_METRIC = "perfbench_shard_self_seconds"
SHARD_CALLS_METRIC = "perfbench_shard_calls"
SHARD_COUNT_METRIC = "perfbench_shard_work"

HOP_SAMPLE_EVERY = 64

# Span names whose frames make everything below them part of a run.
RUN_ROOTS = frozenset({"core.run", "cluster.run", "service.run_engines"})


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_in_run: float = 0.0
    self_outside: float = 0.0
    count: int = 0
    durations: list[float] = field(default_factory=list)

    @property
    def self_time(self) -> float:
        return self.self_in_run + self.self_outside


class LayerProbe:
    """Per-span-name call counts, total time and self time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        # Self times measured inside forked shard workers (see
        # _wrap_shard_runner); concurrent with the parent's wall time.
        self.shard_stats: dict[str, SpanStats] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._keep_durations: set[str] = set()
        self._pid = os.getpid()
        # A forked shard worker inherits the wrappers; it must not wait
        # on a lock some other parent thread held at fork time.
        os.register_at_fork(after_in_child=self._reset_lock)

    def _reset_lock(self) -> None:
        self._lock = threading.Lock()

    def snapshot(self) -> dict[str, tuple[int, float, int]]:
        with self._lock:
            return {
                name: (entry.calls, entry.self_time, entry.count)
                for name, entry in self.stats.items()
            }

    # -- stack ----------------------------------------------------------
    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        in_run = name in RUN_ROOTS or bool(stack and stack[-1][2])
        frame = [self.clock(), 0.0, in_run]
        stack.append(frame)
        return frame

    def exit(self, name: str, frame: list, count: int = 0) -> None:
        duration = self.clock() - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += duration
        own = duration - frame[1]
        with self._lock:
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = SpanStats()
            entry.calls += 1
            entry.total += duration
            entry.count += count
            if frame[2]:
                entry.self_in_run += own
            else:
                entry.self_outside += own
            if name in self._keep_durations:
                entry.durations.append(duration)

    @contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(name, frame)

    # -- wrapping -------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Callable[..., int] | None = None,
        keep_durations: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper until uninstall.

        ``count(*args, **kwargs)`` adds a work count per call (for
        example the number of candidates a ``sample_batch`` drew).
        """
        # A class's own attribute, not an inherited one: uninstall must
        # restore exactly what was there.
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        probe = self
        if keep_durations:
            self._keep_durations.add(name)

        def wrapper(*args, **kwargs):
            frame = probe.enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                probe.exit(name, frame, count(*args, **kwargs) if count else 0)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- queries --------------------------------------------------------
    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def self_time(self, *names: str) -> float:
        return sum(self.get(name).self_time for name in names)

    def add_shard_stats(self, registry) -> None:
        """Fold the shard-side self times a worker shipped back."""
        for inst in registry.instruments():
            if inst.name != SHARD_SELF_METRIC:
                continue
            span = dict(inst.labels)["span"]
            calls = int(registry.value(SHARD_CALLS_METRIC, span=span))
            count = int(registry.value(SHARD_COUNT_METRIC, span=span))
            entry = self.shard_stats.setdefault(span, SpanStats())
            entry.calls += calls
            entry.count += count
            entry.self_outside += inst.value
            entry.total += inst.value

    def total(self, *names: str) -> float:
        return sum(self.get(name).total for name in names)

    def count(self, *names: str) -> int:
        return sum(self.get(name).count for name in names)


class LayeredTracer(Tracer):
    """The program's tracer, with measured spans mirrored into a probe.

    Spans are still recorded by :class:`Tracer` exactly as usual; each
    measured ``span()`` additionally opens a probe frame named
    ``core.<span name>`` so self times nest with the wrapped layers.
    Per-walker hop spans are kept for one walker id in
    ``HOP_SAMPLE_EVERY``, as a production trace would sample them.
    """

    def __init__(self, probe: LayerProbe) -> None:
        super().__init__(clock=probe.clock, sample_every=HOP_SAMPLE_EVERY)
        self._probe = probe

    @contextmanager
    def span(self, name: str, **kwargs):
        probe_name = f"core.{name}"
        frame = self._probe.enter(probe_name)
        try:
            with super().span(name, **kwargs) as handle:
                yield handle
        finally:
            self._probe.exit(probe_name, frame)


def _first_len(_self, vertices, *args, **kwargs) -> int:
    return len(vertices)


def install_layers(probe: LayerProbe) -> None:
    """Wrap the entry points of every layer the benchmark attributes."""
    from repro.cluster import engine as cluster_engine
    from repro.cluster.network import Network
    from repro.core import engine as core_engine
    from repro.core.trace import PathRecorder, StreamingPathRecorder
    from repro.core.walker import WalkerSet
    from repro.graph import builder
    from repro.graph.dynamic import DynamicGraph, EpochSnapshot
    from repro import parallel
    from repro.algorithms import MetaPathWalk, Node2Vec
    from repro.sampling.alias import VertexAliasTables
    from repro.sampling.its import VertexITSTables
    from repro.service import service as service_module

    wrap = probe.wrap
    wrap(builder, "from_arrays", "graph.build")
    for tables in (VertexAliasTables, VertexITSTables):
        wrap(tables, "__init__", "sampling.table_build", count=lambda *a, **k: 1)
        wrap(tables, "sample_batch", "sampling.draw", count=_first_len)
    for program in (Node2Vec, MetaPathWalk):
        for method in (
            "batch_dynamic_comp",
            "batch_dynamic_with_answers",
            "batch_outliers",
        ):
            if method in program.__dict__:
                wrap(program, method, "algorithms.pd")
    wrap(core_engine.WalkEngine, "__init__", "core.engine_init")
    wrap(core_engine.WalkEngine, "run", "core.run")
    wrap(WalkerSet, "move", "core.commit")
    for recorder in (PathRecorder, StreamingPathRecorder):
        wrap(recorder, "record_moves", "core.trace_record")
    wrap(StreamingPathRecorder, "flush_finished", "core.trace_flush")
    wrap(PathRecorder, "paths", "core.paths")
    engine_cls = cluster_engine.DistributedWalkEngine
    wrap(engine_cls, "__init__", "cluster.engine_init")
    wrap(cluster_engine, "partition_graph", "cluster.partition")
    wrap(engine_cls, "run", "cluster.run")
    wrap(engine_cls, "_superstep", "cluster.superstep", keep_durations=True)
    wrap(Network, "record_batch", "cluster.network")
    wrap(DynamicGraph, "commit", "dynamic.commit", keep_durations=True)
    wrap(DynamicGraph, "snapshot", "dynamic.snapshot")
    wrap(EpochSnapshot, "tables", "dynamic.table_maintain")
    wrap(EpochSnapshot, "bounds_for", "dynamic.bounds_maintain")
    wrap(service_module.WalkService, "submit", "service.submit")
    wrap(service_module.WalkService, "_run_engines", "service.run_engines")
    wrap(parallel, "run_parallel_walk", "parallel.run")
    _wrap_shard_runner(probe, parallel)


def _wrap_shard_runner(probe: LayerProbe, parallel) -> None:
    """Ship a forked shard's probe measurements back to the parent.

    The shard runner returns a per-shard metric delta that the program
    already merges into ``ParallelWalkResult.metrics``; the wrapper adds
    the shard's self time per span to that delta.
    """
    original = parallel._run_shard

    def run_shard(args):
        before = probe.snapshot()
        output = original(args)
        if os.getpid() == probe._pid:
            return output  # ran in-process; already in probe.stats
        delta = output[4]
        for name, (calls, own, count) in probe.snapshot().items():
            calls0, own0, count0 = before.get(name, (0, 0.0, 0))
            if calls == calls0:
                continue
            delta.counter(SHARD_SELF_METRIC, span=name).inc(own - own0)
            delta.counter(SHARD_CALLS_METRIC, span=name).inc(calls - calls0)
            delta.counter(SHARD_COUNT_METRIC, span=name).inc(count - count0)
        return output

    run_shard.__wrapped__ = original
    parallel._run_shard = run_shard
    probe._patches.append((parallel, "_run_shard", original))


LAYERS = (
    "graph",
    "sampling",
    "algorithms",
    "core",
    "cluster",
    "dynamic",
    "service",
    "parallel",
)


def layer_table(probe: LayerProbe, reference_s: float, label: str) -> str:
    """Self time per span and layer, next to call and work counts.

    ``reference_s`` is the time the in-run self times should add up to
    (the traced ``run()`` wall time, or the summed request run time).
    """
    lines = [
        f"per-layer self time ({label}); in-run total should match "
        f"{reference_s:.4f}s",
        f"  {'span':<28}{'calls':>9}{'total_s':>11}{'self_run_s':>12}"
        f"{'self_out_s':>12}{'count':>12}",
    ]
    in_run = 0.0
    for layer in LAYERS:
        names = sorted(n for n in probe.stats if n.split(".")[0] == layer)
        if not names:
            continue
        layer_run = layer_out = 0.0
        for name in names:
            entry = probe.stats[name]
            layer_run += entry.self_in_run
            layer_out += entry.self_outside
            lines.append(
                f"  {name:<28}{entry.calls:>9}{entry.total:>11.4f}"
                f"{entry.self_in_run:>12.4f}{entry.self_outside:>12.4f}"
                f"{entry.count:>12}"
            )
        in_run += layer_run
        lines.append(
            f"  {'= ' + layer:<28}{'':>9}{'':>11}{layer_run:>12.4f}"
            f"{layer_out:>12.4f}"
        )
    lines.append(
        f"  in-run self times sum to {in_run:.4f}s "
        f"({in_run / reference_s:.1%} of {reference_s:.4f}s)"
        if reference_s > 0
        else f"  in-run self times sum to {in_run:.4f}s"
    )
    return "\n".join(lines)
