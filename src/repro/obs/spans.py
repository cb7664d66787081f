"""Lightweight span tracing: timed ``with`` blocks feeding histograms.

``with span("sweep.task", task_index=3): ...`` measures the block's wall and
CPU time and records them into two histograms of the default registry —
``repro_span_seconds{span="sweep.task"}`` and
``repro_span_cpu_seconds{span="sweep.task"}`` — plus a ``repro_spans_total``
counter.  When span events are enabled, each completed span additionally
appends a ``span`` record (name, wall/CPU seconds, the call's keyword
fields) to the default event log.

Tracing is **off by default** and the disabled path is near-zero cost: one
module-global bool check and a shared no-op context manager, no allocation,
no clock reads.  That keeps hot simulation loops unaffected until an
operator opts in (``sweep --events`` enables tracing with span events).

Spans never touch any randomness stream, so estimates are bit-identical
with tracing on or off.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from .events import emit_event
from .metrics import MetricsRegistry, default_registry

__all__ = [
    "span",
    "configure_tracing",
    "tracing_enabled",
]

_enabled = False
_span_events = False
_registry: Optional[MetricsRegistry] = None  # None = default_registry()


class _NoopSpan:
    """The shared disabled-path context manager; does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("name", "component", "fields", "_wall0", "_cpu0")

    def __init__(self, name: str, component: str, fields: Dict[str, object]) -> None:
        self.name = name
        self.component = component
        self.fields = fields

    def __enter__(self) -> "_Span":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        registry = _registry if _registry is not None else default_registry()
        label = registry.histogram(
            "repro_span_seconds", "Wall-clock duration of traced spans."
        ).labels(span=self.name)
        label.observe(wall)
        registry.histogram(
            "repro_span_cpu_seconds", "CPU time of traced spans."
        ).labels(span=self.name).observe(cpu)
        registry.counter(
            "repro_spans_total", "Completed traced spans."
        ).labels(span=self.name).inc()
        if _span_events:
            emit_event(
                "span",
                component=self.component,
                span=self.name,
                wall_seconds=round(wall, 6),
                cpu_seconds=round(cpu, 6),
                error=exc_type is not None,
                **self.fields,
            )
        return False


def span(name: str, component: str = "", **fields: object):
    """A context manager timing one named block (no-op while disabled).

    ``fields`` are free-form span attributes; they reach the event log (when
    span events are on) but deliberately **not** the metric labels — label
    cardinality stays bounded by span names alone.
    """
    if not _enabled:
        return _NOOP
    return _Span(name, component, fields)


def configure_tracing(
    enabled: bool = True,
    registry: Optional[MetricsRegistry] = None,
    span_events: bool = False,
) -> Tuple[bool, Optional[MetricsRegistry], bool]:
    """Turn span tracing on or off for this process.

    ``registry=None`` records into the process default registry (resolved
    at span exit, so a later :func:`~repro.obs.metrics.set_default_registry`
    is honored).  ``span_events=True`` additionally mirrors every completed
    span into the default event log.  Returns the previous
    ``(enabled, registry, span_events)``; passing it back restores them.
    """
    global _enabled, _registry, _span_events
    previous = (_enabled, _registry, _span_events)
    _registry = registry
    _span_events = bool(span_events)
    _enabled = bool(enabled)
    return previous


def tracing_enabled() -> bool:
    return _enabled
