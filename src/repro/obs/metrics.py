"""Counters, gauges and histograms with a Prometheus text exposition.

This is the metrics core of the repo-wide observability layer
(:mod:`repro.obs`).  Every long-running surface threads a
:class:`MetricsRegistry` through its components — the live ingestion
service renders one on ``GET /metrics``, and the sweep executor and
simulation engines record into the **process-global default registry**
(:func:`default_registry`) that ``--metrics-port`` exposes over HTTP — all
in the Prometheus text format (version 0.0.4), the same surface every
scrape-based monitoring stack understands, with zero new dependencies.

The model is deliberately small:

* :class:`Counter` — monotonically increasing totals
  (``repro_ingest_reports_accepted_total``);
* :class:`Gauge` — point-in-time values that move both ways
  (``repro_ingest_current_round``);
* :class:`Histogram` — cumulative-bucket latency distributions
  (``repro_ingest_seal_latency_seconds``) with ``_sum``/``_count`` series.

Each instrument supports an optional label set via :meth:`labels`
(``counter.labels(reason="auth").inc()``); the label-less instrument is
itself usable directly.  All mutation goes through one registry lock, so
instruments may be updated from an asyncio handler while a scrape renders
the registry from another thread.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import ParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "set_default_registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets: latencies from 1 ms to 30 s.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integers without a trailing ``.0``."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label(value)}"' for name, value in pairs)
    return "{" + inner + "}"


def _label_key(labels: Dict[str, str]) -> LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ParameterError(f"invalid metric label name {name!r}")
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class _Instrument:
    """Base: one named metric family holding per-label-set samples."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        if not _NAME_RE.match(name):
            raise ParameterError(f"invalid metric name {name!r}")
        self.name = name
        self.help = str(help_text)
        self._lock = lock

    def labels(self, **labels: str) -> "_Instrument":
        """A child bound to one label set; the parent stays usable label-less."""
        raise NotImplementedError

    def render(self) -> List[str]:
        raise NotImplementedError

    def _header(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]


class _Scalar(_Instrument):
    """Shared machinery of counters and gauges: label-keyed float samples."""

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        super().__init__(name, help_text, lock)
        self._values: Dict[LabelKey, float] = {}

    def _add(self, key: LabelKey, amount: float) -> None:
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def _set(self, key: LabelKey, value: float) -> None:
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels: str) -> float:
        """Current sample of one label set (0 when never touched)."""
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def render(self) -> List[str]:
        with self._lock:
            samples = sorted(self._values.items())
        lines = self._header()
        if not samples:
            # An instrument that exists but was never touched still exposes
            # its zero sample, so dashboards see the series from the start.
            samples = [((), 0.0)]
        for key, value in samples:
            lines.append(f"{self.name}{_render_labels(key)} {_format_value(value)}")
        return lines


class Counter(_Scalar):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(
        self, name: str, help_text: str, lock: threading.Lock, key: LabelKey = ()
    ) -> None:
        super().__init__(name, help_text, lock)
        self._key = key

    def labels(self, **labels: str) -> "Counter":
        child = Counter.__new__(Counter)
        child.name, child.help, child._lock = self.name, self.help, self._lock
        child._values = self._values
        child._key = _label_key(labels)
        return child

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ParameterError(
                f"counter {self.name} cannot decrease (amount={amount})"
            )
        self._add(self._key, float(amount))


class Gauge(_Scalar):
    """A point-in-time value that can move both ways."""

    kind = "gauge"

    def __init__(
        self, name: str, help_text: str, lock: threading.Lock, key: LabelKey = ()
    ) -> None:
        super().__init__(name, help_text, lock)
        self._key = key

    def labels(self, **labels: str) -> "Gauge":
        child = Gauge.__new__(Gauge)
        child.name, child.help, child._lock = self.name, self.help, self._lock
        child._values = self._values
        child._key = _label_key(labels)
        return child

    def set(self, value: float) -> None:
        self._set(self._key, value)

    def inc(self, amount: float = 1.0) -> None:
        self._add(self._key, float(amount))

    def dec(self, amount: float = 1.0) -> None:
        self._add(self._key, -float(amount))


class Histogram(_Instrument):
    """Cumulative-bucket distribution with ``_sum`` and ``_count`` series."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        key: LabelKey = (),
    ) -> None:
        super().__init__(name, help_text, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(not math.isfinite(b) for b in bounds):
            raise ParameterError(
                f"histogram {name} needs at least one finite bucket bound"
            )
        if list(bounds) != sorted(set(bounds)):
            raise ParameterError(
                f"histogram {name} bucket bounds must be strictly increasing, "
                f"got {bounds}"
            )
        self._bounds = bounds
        # Per label set: per-bucket counts (+1 slot for +Inf), sum, count.
        self._state: Dict[LabelKey, Tuple[List[int], List[float]]] = {}
        self._key = key

    def labels(self, **labels: str) -> "Histogram":
        child = Histogram.__new__(Histogram)
        child.name, child.help, child._lock = self.name, self.help, self._lock
        child._bounds, child._state = self._bounds, self._state
        child._key = _label_key(labels)
        return child

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ParameterError(
                f"histogram {self.name} cannot observe non-finite value {value!r}"
            )
        slot = bisect_left(self._bounds, value)
        with self._lock:
            if self._key not in self._state:
                self._state[self._key] = (
                    [0] * (len(self._bounds) + 1), [0.0, 0.0],
                )
            counts, totals = self._state[self._key]
            counts[slot] += 1
            totals[0] += value
            totals[1] += 1.0

    def count(self, **labels: str) -> int:
        """Number of observations of one label set."""
        with self._lock:
            state = self._state.get(_label_key(labels))
            return int(state[1][1]) if state else 0

    def render(self) -> List[str]:
        with self._lock:
            snapshot = {
                key: ([*counts], [*totals])
                for key, (counts, totals) in self._state.items()
            }
        lines = self._header()
        for key in sorted(snapshot):
            counts, (total, n) = snapshot[key]
            cumulative = 0
            for bound, bucket_count in zip(self._bounds, counts):
                cumulative += bucket_count
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(key, (('le', _format_value(bound)),))} "
                    f"{cumulative}"
                )
            cumulative += counts[-1]
            lines.append(
                f"{self.name}_bucket{_render_labels(key, (('le', '+Inf'),))} "
                f"{cumulative}"
            )
            lines.append(f"{self.name}_sum{_render_labels(key)} {_format_value(total)}")
            lines.append(f"{self.name}_count{_render_labels(key)} {int(n)}")
        return lines


class MetricsRegistry:
    """A named collection of instruments with one text exposition.

    ``counter`` / ``gauge`` / ``histogram`` register-or-return: asking for an
    existing name of the same kind returns the registered instrument, so
    independent components can share a series without plumbing references;
    re-registering a name as a *different* kind is a configuration bug and
    raises :class:`~repro.exceptions.ParameterError`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _register(self, cls, name: str, help_text: str, **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ParameterError(
                    f"metric {name!r} is already registered as a "
                    f"{existing.kind}, cannot re-register as {cls.kind}"
                )
            return existing
        instrument = cls(name, help_text, threading.Lock(), **kwargs)
        with self._lock:
            return self._instruments.setdefault(name, instrument)

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help_text, buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        with self._lock:
            instruments = [self._instruments[name] for name in sorted(self._instruments)]
        lines: List[str] = []
        for instrument in instruments:
            lines.extend(instrument.render())
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- #
# Process-global default registry
# --------------------------------------------------------------------- #
# Instrumented components (sweep executor, simulation engines) record into
# this registry unless handed one explicitly, so a ``--metrics-port``
# exporter started anywhere in the process sees every series.  Worker
# subprocesses get their own module state (and therefore their own
# registry); only the parent's registry is scraped.
_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-global registry shared by every instrumented component."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one.

    Mainly a test hook: installing a fresh registry isolates counter
    assertions from whatever earlier code recorded.
    """
    global _default_registry
    if not isinstance(registry, MetricsRegistry):
        raise ParameterError(
            f"default registry must be a MetricsRegistry, got {type(registry).__name__}"
        )
    with _default_lock:
        previous, _default_registry = _default_registry, registry
    return previous
