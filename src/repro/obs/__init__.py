"""Observability: tracing, metrics, events, health and audit for MARS.

After PRs 1–5 the system could serve, shard, replicate and rebalance —
silently.  This package is the instrumentation layer every subsystem
reports through:

* :mod:`repro.obs.timer` — the one wall-clock helper (``obs.timer()``)
  behind every duration the system records, so spans, ``elapsed_seconds``
  fields and benchmark deltas agree;
* :mod:`repro.obs.trace` — the one execution tree per request
  (:class:`Tracer`, :class:`Span`, the ambient :func:`current_span`),
  free when disabled, whose span view is the :class:`Trace` and whose
  operator view is the :class:`~repro.profile.QueryProfile`, plus the
  sampled :class:`TraceBuffer` ring of completed traces and the
  :func:`phase_breakdown` per-phase latency attribution;
* :mod:`repro.obs.metrics` — the thread-safe :class:`MetricsRegistry`
  (counters, gauges, fixed-bucket histograms with p50/p95/p99) with
  Prometheus-text and JSON exposition;
* :mod:`repro.obs.events` — the structured :class:`EventLog` of state
  transitions (replica fencing, failover, clone replacement, statistics
  refresh, rebalance stages), LSN-stamped;
* :mod:`repro.obs.feedback` — the :class:`CostFeedback` recorder of
  estimated-vs-actual cardinality and cost per query fingerprint, the
  report adaptive statistics re-collection consumes;
* :mod:`repro.obs.health` — the :class:`HealthCheck` registry rolling
  named probes up into one ``healthy | degraded | unhealthy`` verdict;
* :mod:`repro.obs.slo` — per-query rolling latency objectives with
  error-budget burn (:class:`SLOTracker`);
* :mod:`repro.obs.audit` — the durable, rotated JSONL :class:`AuditLog`
  of every acknowledged publish/update;
* :mod:`repro.obs.request` — the :class:`RequestRecord` a served
  request is described by, once; every sink above shows a projection;
* :mod:`repro.obs.ring` — the one 1-in-N sampler + bounded ring
  (:class:`SampledRing`) under the trace, profile and slow-query buffers;
* :mod:`repro.obs.http` — the :class:`AdminServer` scrape surface
  (``/metrics``, ``/stats``, ``/health``, ``/ready``, ``/events``,
  ``/traces/recent``), imported on first use: ``http.server`` and
  ``ssl`` load only in a process that asks for an admin port.

The :class:`~repro.serve.PublishingService` wires all of these together;
see ``docs/OBSERVABILITY.md`` for the span taxonomy, metric names, event
schema and operational endpoints.
"""

from .audit import AuditError, AuditLog, AuditStats
from .events import (
    COMPILE_TRUNCATED,
    Event,
    EventLog,
    LOG_CHECKPOINT,
    LOG_RECOVERED,
    PLAN_CORRUPT,
    PLAN_LOADED,
    PLAN_STALE,
    POOL_CLONE_REPLACED,
    REBALANCE_COPY,
    REBALANCE_CUTOVER,
    REBALANCE_REPLAY,
    REBALANCE_STAGE,
    REPLICA_FAILOVER,
    REPLICA_FENCED,
    REPLICA_REPAIRED,
    SLOW_QUERY,
    STATISTICS_REFRESH,
)
from .feedback import CostFeedback, FingerprintFeedback, Q_ERROR_CAP, q_error
from .health import (
    DEGRADED,
    HEALTHY,
    STATUS_VALUES,
    UNHEALTHY,
    CheckResult,
    HealthCheck,
    HealthReport,
    worst_status,
)
from .request import RequestRecord
from .ring import SampledRing
from .metrics import (
    ALLOWED_UNIT_SUFFIXES,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    validate_metric_name,
)
from .slo import SLOReport, SLOTracker
from .timer import Timer, now, timer
from .trace import (
    NULL_SPAN,
    NULL_TRACE,
    PUBLISH_PHASES,
    Span,
    Trace,
    TraceBuffer,
    Tracer,
    current_span,
    operator_root,
    phase_breakdown,
)

#: Names served from :mod:`repro.obs.http` when first asked for.
_HTTP_NAMES = ("AdminServer", "METRICS_CONTENT_TYPE")


def __getattr__(name):
    if name in _HTTP_NAMES:
        from . import http

        return getattr(http, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALLOWED_UNIT_SUFFIXES",
    "AdminServer",
    "AuditError",
    "AuditLog",
    "AuditStats",
    "COMPILE_TRUNCATED",
    "CheckResult",
    "Counter",
    "CostFeedback",
    "DEFAULT_LATENCY_BUCKETS",
    "DEGRADED",
    "Event",
    "EventLog",
    "FingerprintFeedback",
    "Gauge",
    "HEALTHY",
    "HealthCheck",
    "HealthReport",
    "Histogram",
    "LOG_CHECKPOINT",
    "LOG_RECOVERED",
    "PLAN_CORRUPT",
    "PLAN_LOADED",
    "PLAN_STALE",
    "Q_ERROR_CAP",
    "METRICS_CONTENT_TYPE",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACE",
    "POOL_CLONE_REPLACED",
    "PUBLISH_PHASES",
    "REBALANCE_COPY",
    "REBALANCE_CUTOVER",
    "REBALANCE_REPLAY",
    "REBALANCE_STAGE",
    "REPLICA_FAILOVER",
    "REPLICA_FENCED",
    "REPLICA_REPAIRED",
    "RequestRecord",
    "SLOW_QUERY",
    "SLOReport",
    "SLOTracker",
    "STATISTICS_REFRESH",
    "STATUS_VALUES",
    "SampledRing",
    "Span",
    "Timer",
    "Trace",
    "TraceBuffer",
    "Tracer",
    "UNHEALTHY",
    "current_span",
    "now",
    "operator_root",
    "phase_breakdown",
    "q_error",
    "timer",
    "validate_metric_name",
    "worst_status",
]
