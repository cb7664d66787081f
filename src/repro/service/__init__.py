"""Server-side collection service layer.

:class:`~repro.service.session.CollectorSession` is the streaming,
service-style entry point of the library: where the batch harnesses of
:mod:`repro.simulation` drive a whole dataset through an engine, a session
accepts report batches incrementally — out of round order, from many
producers — exposes running debiased estimates per round, and can
checkpoint / restore its server-side state.

On top of the session sits the *live ingestion service*
(:mod:`repro.service.ingest`): an asyncio HTTP/1.1 front door
(:mod:`repro.service.http`) with batched report submission, each batch
folded before its ``202``, and HMAC authentication; a
:class:`~repro.service.clock.RoundClock` that owns round windowing (seal on
quorum or explicit advance; reports for a sealed round are dropped and
counted); a Prometheus-text
:class:`~repro.obs.metrics.MetricsRegistry` (from the repo-wide
observability core, :mod:`repro.obs`); and the seeded async load generator
of :mod:`repro.service.loadgen`.

Submodules are imported lazily (PEP 562) so that dependency-light pieces —
in particular :mod:`repro.service.clock` — can be loaded without pulling in
the protocol registry or the asyncio stack.
"""

from importlib import import_module
from typing import TYPE_CHECKING

_EXPORTS = {
    # streaming session façade
    "CollectorSession": ".session",
    # round windowing
    "RoundClock": ".clock",
    "SealEvent": ".clock",
    # metrics surface (lives in repro.obs.metrics; re-exported here)
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    # HTTP layer
    "AsyncHttpServer": ".http",
    "HttpClient": ".http",
    "HttpError": ".http",
    "HttpRequest": ".http",
    "HttpResponse": ".http",
    # live ingestion service
    "IngestServer": ".ingest",
    "decode_reports": ".ingest",
    "encode_reports": ".ingest",
    "wire_reports_supported": ".ingest",
    # load generation
    "LoadgenResult": ".loadgen",
    "generate_round_reports": ".loadgen",
    "run_loadgen": ".loadgen",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from .clock import RoundClock, SealEvent
    from .http import AsyncHttpServer, HttpClient, HttpError, HttpRequest, HttpResponse
    from .ingest import IngestServer, decode_reports, encode_reports, wire_reports_supported
    from .loadgen import LoadgenResult, generate_round_reports, run_loadgen
    from ..obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
    from .session import CollectorSession


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
