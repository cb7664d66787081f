"""Repo-wide observability core: metrics, event logs and span tracing.

Three primitives shared by every layer of the reproduction stack:

* :mod:`repro.obs.metrics` — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` families in a :class:`MetricsRegistry` with a
  Prometheus text exposition and a process-global default registry;
* :mod:`repro.obs.events` — an append-only, schema-versioned JSONL event
  log with crash-safe appends (:class:`EventLog`, :func:`emit_event`);
* :mod:`repro.obs.spans` — ``with span("sweep.task", task_index=…)`` timing
  blocks recording wall/CPU histograms, near-zero cost when disabled.

:class:`MetricsExporter` (:mod:`repro.obs.http`) serves ``/metrics`` and
``/healthz`` from a background thread for synchronous processes, and
:mod:`repro.obs.status` turns a scrape into the ``repro-ldp status``
dashboard.
"""

from .events import (
    SCHEMA_VERSION,
    EventLog,
    emit_event,
    get_default_event_log,
    iter_events,
    read_events,
    set_default_event_log,
)
from .http import MetricsExporter
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from .spans import configure_tracing, span, tracing_enabled

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "default_registry",
    "set_default_registry",
    "EventLog",
    "SCHEMA_VERSION",
    "emit_event",
    "get_default_event_log",
    "set_default_event_log",
    "iter_events",
    "read_events",
    "MetricsExporter",
    "span",
    "configure_tracing",
    "tracing_enabled",
]
