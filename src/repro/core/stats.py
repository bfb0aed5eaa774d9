"""Execution statistics.

The paper's evaluation reports two kinds of quantities: wall-clock run
time, and machine-independent work counts (transition-probability
evaluations per step, Table 1 / Table 5 / Figure 6; active walkers per
iteration, Figure 5).  :class:`WalkStats` collects both for every
engine in this repository, so benchmarks can print either.

Each stat field that is exported declares its registry metrics in its
``field(metadata=...)`` through :func:`stat` and :func:`metric`.  The
declarations are plain data: :func:`repro.obs.to_registry` projects
them, and :meth:`ServiceMetrics.merge` folds each field by its kind.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from repro.sampling.incremental import MaintenanceStats
from repro.sampling.rejection import SamplingCounters

__all__ = [
    "WalkStats",
    "TerminationBreakdown",
    "ServiceMetrics",
    "ACTIVE_WALKER_BUCKETS",
    "metric",
    "stat",
]

# Histogram boundaries of walk_active_walkers (powers of ten).
ACTIVE_WALKER_BUCKETS: tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


def metric(
    name: str, help: str, kind: str = "counter", **spec: Any
) -> dict[str, Any]:
    """One registry metric exported by a stat field.

    ``kind`` is ``"counter"``, ``"gauge"`` or ``"histogram"``.  ``spec``
    may add ``attr`` (the attribute, or zero-argument method, of an
    object-valued field to read), ``labels`` (fixed labels), ``index``
    (the label naming each position of a list or key of a dict) and
    ``boundaries`` (histogram buckets; the registry default otherwise).
    """
    return {"name": name, "help": help, "kind": kind, **spec}


def stat(
    *metrics: dict[str, Any],
    kind: str | None = None,
    default: Any = 0,
    factory: Any = None,
) -> Any:
    """A stat dataclass field declaring the metrics it exports.

    ``kind`` is how the field's own value folds when two stat objects
    merge (counter adds, gauge takes the max, histogram list extends, a
    counter dict adds per key); it defaults to the first metric's kind.
    ``default=dataclasses.MISSING`` makes the field required.
    """
    metadata = {"kind": kind or metrics[0]["kind"], "metrics": metrics}
    if factory is not None:
        return field(default_factory=factory, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class TerminationBreakdown:
    """Why walkers ended their walks."""

    by_step_limit: int = 0
    by_probability: int = 0
    by_dead_end: int = 0

    @property
    def total(self) -> int:
        return self.by_step_limit + self.by_probability + self.by_dead_end


@dataclass
class WalkStats:
    """Counters accumulated over one walk execution.

    Attributes
    ----------
    counters:
        sampling work counters (trials, Pd evaluations, pre-accepts).
    total_steps:
        number of successful walker moves across all walkers — the
        denominator of the paper's "edges/step" metric.
    iterations:
        engine iterations (supersteps) executed.
    active_per_iteration:
        number of active walkers entering each iteration — the series
        Figure 5 plots to show random walk's "longer and thinner" tail.
    full_scan_evaluations:
        Pd evaluations spent in zero-mass-detection scans (kept
        separate so the rejection numbers stay comparable to the
        paper's, but included in the per-step totals).
    wall_time_seconds:
        wall-clock of the walk loop (excludes graph loading, matching
        the paper's methodology; includes sampling-structure and
        walker initialization).
    """

    counters: SamplingCounters = stat(
        metric("walk_sampling_trials", "rejection-sampling trials",
               attr="trials"),
        metric("walk_pd_evaluations", "dynamic-component evaluations",
               attr="pd_evaluations"),
        metric("walk_pre_accepts", "lower-bound pre-accepted trials",
               attr="pre_accepts"),
        factory=SamplingCounters,
    )
    termination: TerminationBreakdown = stat(
        *(
            metric("walk_terminations", "walker terminations by cause",
                   attr=f"by_{reason}", labels={"reason": reason})
            for reason in ("step_limit", "probability", "dead_end")
        ),
        factory=TerminationBreakdown,
    )
    total_steps: int = stat(metric("walk_steps", "successful walker moves"))
    teleports: int = stat(metric("walk_teleports", "teleport moves"))
    iterations: int = stat(
        metric("walk_iterations", "engine supersteps executed")
    )
    active_per_iteration: list[int] = stat(
        metric("walk_active_walkers",
               "active walkers entering each superstep (paper Fig. 5)",
               "histogram", boundaries=ACTIVE_WALKER_BUCKETS),
        factory=list,
    )
    full_scan_evaluations: int = stat(
        metric("walk_full_scan_evaluations",
               "Pd evaluations spent in zero-mass scans")
    )
    messages_sent: int = stat(
        metric("walk_messages_sent", "walker/query messages sent")
    )
    wall_time_seconds: float = stat(
        metric("walk_wall_seconds", "wall-clock seconds in the walk loop"),
        default=0.0,
    )
    init_time_seconds: float = stat(
        metric("walk_init_seconds", "sampler/walker initialisation seconds"),
        default=0.0,
    )
    # Dynamic-graph runs: the snapshot epoch the walk pinned, and the
    # owning DynamicGraph's incremental sampler-maintenance counters
    # (verification probes, mismatches, full-rebuild fallbacks).
    graph_epoch: int | None = stat(
        metric("walk_graph_epoch", "pinned dynamic-graph epoch", "gauge"),
        default=None,
    )
    maintenance: MaintenanceStats | None = stat(
        metric("walk_sampler_epochs_maintained",
               "epochs whose tables were produced incrementally",
               attr="epochs_maintained"),
        metric("walk_sampler_full_rebuilds",
               "sampler table builds that ran from scratch",
               attr="full_rebuilds"),
        default=None,
    )

    @property
    def pd_evaluations_per_step(self) -> float:
        """The paper's headline "edges/step" metric: dynamic transition
        probabilities computed per successful walker move."""
        if self.total_steps == 0:
            return 0.0
        return (
            self.counters.pd_evaluations + self.full_scan_evaluations
        ) / self.total_steps

    @property
    def trials_per_step(self) -> float:
        """Average rejection-sampling trials per move (paper Eq. 3)."""
        if self.total_steps == 0:
            return 0.0
        return self.counters.trials / self.total_steps

    def summary(self) -> str:
        return (
            f"steps={self.total_steps} iterations={self.iterations} "
            f"pd_evals/step={self.pd_evaluations_per_step:.3f} "
            f"trials/step={self.trials_per_step:.3f} "
            f"wall={self.wall_time_seconds:.3f}s"
        )


# Unique identity per ServiceMetrics instance so merges are
# idempotent.  The pid prefix keeps ids collision-free when deltas are
# built inside SupervisedPool worker processes (each child restarts
# the counter at 1).
_SOURCE_COUNTER = itertools.count(1)
_MERGE_LOCK = threading.Lock()


def _next_metrics_source() -> str:
    return f"{os.getpid()}-{next(_SOURCE_COUNTER)}"


@dataclass
class ServiceMetrics:
    """Accounting of the overload-robust serving layer.

    The invariant the soak tests pin: every submitted request resolves
    into exactly one of ``served`` / ``shed`` / ``failed``, so after a
    drain ``submitted == served + shed + failed`` holds *exactly* —
    requests are never double-counted or silently dropped.  ``served``
    includes deadline-exceeded responses (they carry a well-formed
    partial result); ``deadline_hits`` counts them separately.

    Attributes
    ----------
    submitted / admitted:
        requests offered to the service / accepted into the queue.
    served:
        requests that ran to a result (complete or deadline-partial).
    shed_reasons:
        requests rejected by admission control, evicted by a shedding
        policy, or refused by the open circuit breaker, by cause; the
        read-only ``shed`` is their sum.
    failed:
        requests whose execution raised.
    degraded:
        served requests that ran with a degraded configuration.
    deadline_hits:
        served requests that returned a deadline-exceeded partial.
    queue_depth_peak:
        high watermark of the admission queue.
    latencies_seconds:
        submit-to-response latency per resolved request, the source of
        the p50/p99 figures.
    """

    submitted: int = stat(metric("service_submitted", "requests offered"))
    admitted: int = stat(metric("service_admitted", "requests queued"))
    served: int = stat(metric("service_served", "requests answered"))
    failed: int = stat(metric("service_failed", "requests that raised"))
    degraded: int = stat(
        metric("service_degraded", "requests served degraded")
    )
    deadline_hits: int = stat(
        metric("service_deadline_hits",
               "served with a deadline-exceeded partial")
    )
    queue_depth_peak: int = stat(
        metric("service_queue_depth_peak", "admission-queue high watermark",
               "gauge")
    )
    # Distributed requests (cluster-simulator executions) and their
    # straggler-tolerance activity, aggregated across requests.  Fields
    # with ``stat(kind=...)`` alone are merged but not exported.
    distributed_runs: int = stat(
        metric("service_distributed_runs",
               "requests executed on the cluster simulator")
    )
    straggler_suspicions: int = stat(kind="counter")
    walkers_rebalanced: int = stat(kind="counter")
    speculative_wins: int = stat(kind="counter")
    # Dynamic-graph update stream committed through apply_updates.
    updates_applied: int = stat(
        metric("service_updates_applied", "dynamic-graph updates committed")
    )
    epochs_committed: int = stat(kind="counter")
    shed_reasons: dict[str, int] = stat(
        metric("service_shed", "requests shed by cause", index="reason"),
        factory=dict,
    )
    latencies_seconds: list[float] = stat(
        metric("service_request_latency_seconds",
               "submit-to-response latency", "histogram"),
        factory=list,
    )
    # Merge identity: every instance is a unique source; an aggregate
    # remembers which sources it has absorbed so re-delivering the same
    # shard delta (SupervisedPool retries, duplicated result messages)
    # cannot double-count.
    source_id: str = field(default_factory=_next_metrics_source)
    merged_sources: set[str] = field(default_factory=set)

    @property
    def shed(self) -> int:
        return sum(self.shed_reasons.values())

    @property
    def resolved(self) -> int:
        return self.served + self.shed + self.failed

    def merge(self, other: "ServiceMetrics") -> bool:
        """Fold ``other`` into this aggregate, exactly once.

        Idempotent and thread-safe: every :class:`ServiceMetrics`
        carries a unique ``source_id``, and an aggregate refuses a
        source it has absorbed before *or whose own absorbed set
        overlaps anything this aggregate already counted* — so a shard
        delta re-delivered after a SupervisedPool retry, the same
        snapshot merged concurrently from two threads, and a relayed
        aggregate that re-packages an already-counted shard all count
        once (the overlapping relay is refused whole; merge topology
        should be a tree, with each delta shipped to exactly one
        aggregate).  Returns ``True`` if ``other`` was absorbed,
        ``False`` if it was a duplicate.  Each field folds by its
        declared kind, the rules :meth:`MetricsRegistry.merge` applies
        to the projected series.
        """
        if other is self:
            return False
        with _MERGE_LOCK:
            if (
                other.source_id == self.source_id
                or other.source_id in self.merged_sources
                or self.source_id in other.merged_sources
                or not self.merged_sources.isdisjoint(other.merged_sources)
            ):
                return False
            self.merged_sources.add(other.source_id)
            self.merged_sources |= other.merged_sources
            for stat_field in fields(self):
                kind = stat_field.metadata.get("kind")
                if kind is None:
                    continue
                name = stat_field.name
                mine, theirs = getattr(self, name), getattr(other, name)
                if kind == "histogram":
                    mine.extend(theirs)
                elif kind == "gauge":
                    setattr(self, name, max(mine, theirs))
                elif isinstance(mine, dict):
                    for key, count in theirs.items():
                        mine[key] = mine.get(key, 0) + count
                else:
                    setattr(self, name, mine + theirs)
        return True

    def record_shed(self, reason: str) -> None:
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1

    def record_latency(self, seconds: float) -> None:
        self.latencies_seconds.append(seconds)

    def latency_percentile(self, percentile: float) -> float:
        """Latency at the given percentile (0 with no samples)."""
        if not self.latencies_seconds:
            return 0.0
        return float(np.percentile(self.latencies_seconds, percentile))

    @property
    def p50_latency(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(99.0)

    def accounting_balanced(self, pending: int = 0) -> bool:
        """The exact conservation law, with ``pending`` still in
        flight (0 after a drain)."""
        return self.submitted == self.resolved + pending

    def report(self) -> str:
        shed_detail = (
            " (" + ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.shed_reasons.items())
            ) + ")"
            if self.shed_reasons
            else ""
        )
        report = (
            f"service: submitted={self.submitted} admitted={self.admitted} "
            f"served={self.served} shed={self.shed}{shed_detail} "
            f"failed={self.failed}\n"
            f"service: degraded={self.degraded} "
            f"deadline_hits={self.deadline_hits} "
            f"queue_peak={self.queue_depth_peak}\n"
            f"service: latency p50={self.p50_latency * 1000.0:.2f}ms "
            f"p99={self.p99_latency * 1000.0:.2f}ms"
        )
        if self.distributed_runs:
            report += (
                f"\nservice: distributed_runs={self.distributed_runs} "
                f"straggler_suspicions={self.straggler_suspicions} "
                f"walkers_rebalanced={self.walkers_rebalanced} "
                f"speculative_wins={self.speculative_wins}"
            )
        if self.epochs_committed:
            report += (
                f"\nservice: updates_applied={self.updates_applied} "
                f"epochs_committed={self.epochs_committed}"
            )
        return report
