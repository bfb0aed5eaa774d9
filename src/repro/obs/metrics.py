"""Typed metrics registry: counters, gauges, histograms.

The registry is the single funnel for every number the repo already
counts (``WalkStats``, ``ServiceMetrics``, ``ClusterStats``, projected
by :func:`to_registry` from the metrics their fields declare) and for
new instrumentation.  Three properties drive the design:

* **Mergeable across processes.**  SupervisedPool workers build a
  registry in the child and ship it back for :meth:`MetricsRegistry.merge`
  in the parent, so every instrument is a plain picklable dataclass and
  merge is associative/commutative (counters add, gauges take the max
  observed, histograms add bucket-wise).
* **Fixed bucket boundaries.**  Histograms declare their boundaries at
  creation; merging two histograms with different boundaries is an
  error rather than a silent re-bucketing, so cross-shard percentile
  math stays exact.
* **Deterministic.**  Nothing here reads a clock or draws randomness —
  the registry only aggregates numbers handed to it, so attaching one
  to a simulated cluster run cannot perturb replay (see RK206).
"""

from __future__ import annotations

import bisect
import dataclasses
import re
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..errors import ObsError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "to_registry",
]

# Default histogram boundaries (request latencies, seconds).  A metric
# family keeps one set of boundaries for every producer, so shard-local
# histograms always merge exactly.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ObsError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """Monotonically non-decreasing count."""

    name: str
    labels: LabelKey = ()
    help: str = ""
    value: float = 0.0

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObsError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def merge_from(self, other: "Counter") -> None:
        self.value += other.value


@dataclass
class Gauge:
    """Point-in-time value.  Merging keeps the maximum, which is the
    right fold for the gauges we ship across shards (queue depth peak,
    walker high-water marks); use a counter for anything additive."""

    name: str
    labels: LabelKey = ()
    help: str = ""
    value: float = 0.0

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = float(value)

    def merge_from(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)


@dataclass
class Histogram:
    """Fixed-boundary histogram (cumulative-bucket export, Prometheus
    style).  ``counts`` has ``len(boundaries) + 1`` slots; the last is
    the overflow (+Inf) bucket."""

    name: str
    labels: LabelKey = ()
    help: str = ""
    boundaries: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    counts: list[int] = field(default_factory=list)
    sum: float = 0.0

    kind = "histogram"

    def __post_init__(self) -> None:
        bounds = tuple(float(b) for b in self.boundaries)
        if not bounds:
            raise ObsError(f"histogram {self.name} needs >= 1 boundary")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ObsError(
                f"histogram {self.name} boundaries must be strictly "
                f"increasing, got {bounds}"
            )
        self.boundaries = bounds
        if not self.counts:
            self.counts = [0] * (len(bounds) + 1)
        elif len(self.counts) != len(bounds) + 1:
            raise ObsError(
                f"histogram {self.name} has {len(self.counts)} counts "
                f"for {len(bounds)} boundaries"
            )

    @property
    def count(self) -> int:
        return sum(self.counts)

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.sum += value

    def merge_from(self, other: "Histogram") -> None:
        if other.boundaries != self.boundaries:
            raise ObsError(
                f"histogram {self.name} bucket mismatch: "
                f"{self.boundaries} vs {other.boundaries}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum


Instrument = Counter | Gauge | Histogram


@dataclass
class MetricsRegistry:
    """Keyed store of instruments.

    Instruments are keyed by ``(name, sorted label items)``; asking for
    the same key twice returns the same object, asking with a different
    instrument kind (or histogram boundaries) raises :class:`ObsError`.
    """

    _metrics: dict[tuple[str, LabelKey], Instrument] = field(
        default_factory=dict
    )

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        boundaries: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = (self._check_name(name), _label_key(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ObsError(
                    f"metric {name} already registered as {existing.kind}"
                )
            if existing.boundaries != tuple(float(b) for b in boundaries):
                raise ObsError(
                    f"histogram {name} re-registered with different "
                    f"boundaries"
                )
            return existing
        hist = Histogram(
            name=name, labels=key[1], help=help, boundaries=boundaries
        )
        self._metrics[key] = hist
        return hist

    def _check_name(self, name: str) -> str:
        if not _NAME_RE.match(name):
            raise ObsError(f"invalid metric name {name!r}")
        return name

    def _get(self, cls, name: str, help: str, labels: dict[str, str]):
        key = (self._check_name(name), _label_key(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ObsError(
                    f"metric {name} already registered as {existing.kind}"
                )
            return existing
        inst = cls(name=name, labels=key[1], help=help)
        self._metrics[key] = inst
        return inst

    def instruments(self) -> Iterator[Instrument]:
        """All instruments in deterministic (name, labels) order."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def get(self, name: str, **labels: str) -> Instrument | None:
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, **labels: str) -> float:
        """Convenience: scalar value of a counter/gauge (0.0 if absent)."""
        inst = self.get(name, **labels)
        if inst is None:
            return 0.0
        if isinstance(inst, Histogram):
            return float(inst.count)
        return inst.value

    def __len__(self) -> int:
        return len(self._metrics)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (counters add, gauges max,
        histograms add bucket-wise).  Returns ``self`` for chaining."""
        for key, inst in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                # Copy so later merges never mutate the source registry.
                if isinstance(inst, Histogram):
                    mine = Histogram(
                        name=inst.name,
                        labels=inst.labels,
                        help=inst.help,
                        boundaries=inst.boundaries,
                    )
                else:
                    mine = type(inst)(
                        name=inst.name, labels=inst.labels, help=inst.help
                    )
                self._metrics[key] = mine
            if type(mine) is not type(inst):
                raise ObsError(
                    f"merge kind mismatch for {inst.name}: "
                    f"{mine.kind} vs {inst.kind}"
                )
            mine.merge_from(inst)
        return self


def to_registry(
    stats: Any, registry: MetricsRegistry | None = None, **labels: str
) -> MetricsRegistry:
    """Project a stat dataclass (``WalkStats``, ``ClusterStats``,
    ``ServiceMetrics``) into a registry.

    Each field exports the metrics declared in its
    ``field(metadata={"metrics": ...})`` (see :func:`repro.core.stats.metric`);
    a ``None`` field exports nothing.  ``attr`` reads an attribute of the
    field's object, calling it if it is a method.  A histogram observes
    every entry of a list; a counter or gauge with an ``index`` label
    exports one series per list position or dict key, and without one a
    list counts its entries.  ``labels`` go on every series, so sources
    labelled apart (per shard, per request) merge without colliding.
    """
    reg = registry if registry is not None else MetricsRegistry()
    for stat_field in dataclasses.fields(stats):
        value = getattr(stats, stat_field.name)
        if value is None:
            continue
        for spec in stat_field.metadata.get("metrics", ()):
            _project(reg, spec, value, {**labels, **spec.get("labels", {})})
    return reg


def _project(
    reg: MetricsRegistry, spec: dict, value: Any, labels: dict[str, str]
) -> None:
    name, help_text, kind = spec["name"], spec["help"], spec["kind"]
    if "attr" in spec:
        value = getattr(value, spec["attr"])
        if callable(value):
            value = value()
    if kind == "histogram":
        hist = reg.histogram(
            name,
            help_text,
            spec.get("boundaries", DEFAULT_LATENCY_BUCKETS),
            **labels,
        )
        for entry in value:
            hist.observe(float(entry))
        return
    if "index" in spec:
        entries = value.items() if isinstance(value, dict) else enumerate(value)
        series = [({**labels, spec["index"]: str(k)}, v) for k, v in entries]
    else:
        series = [(labels, len(value) if isinstance(value, list) else value)]
    for series_labels, amount in series:
        if kind == "gauge":
            reg.gauge(name, help_text, **series_labels).set(amount)
        else:
            reg.counter(name, help_text, **series_labels).inc(float(amount))
