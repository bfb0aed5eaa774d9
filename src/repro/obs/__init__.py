"""Deterministic-safe observability: metrics registry, span tracer,
and exporters.  :func:`to_registry` projects the stat objects
(``WalkStats``, ``ClusterStats``, ``ServiceMetrics``) through the
metrics their fields declare.

Design rules (docs/INTERNALS.md section 16):

* **Clock injection.**  :class:`Tracer` never owns time — local
  engines inject ``perf_counter``; the cluster simulator passes its
  simulated seconds through :meth:`Tracer.record_span` and performs no
  clock reads at all (lint rules RK201/RK206/RK210 enforce this).
* **Observation only.**  Nothing in this package draws randomness or
  feeds back into engine control flow, so attaching a tracer cannot
  change a walk and simulated traces replay bit-identically.
* **Hard off-switch.**  Engines hold no tracer by default and guard
  every emission with a single attribute check; the perf harness
  certifies the disabled path at <3% steps/sec overhead.
"""

from .exporters import (
    to_chrome_trace,
    to_json_lines,
    to_prometheus_text,
    write_chrome_trace,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    to_registry,
)
from .tracer import Span, Tracer, default_clock

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "default_clock",
    "to_chrome_trace",
    "to_json_lines",
    "to_prometheus_text",
    "to_registry",
    "write_chrome_trace",
]
