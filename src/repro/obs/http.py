"""A threaded ``/metrics`` + ``/healthz`` exporter for synchronous processes.

The ingestion service is already an asyncio program and serves its registry
on its own front door; sweeps are synchronous.
:class:`MetricsExporter` gives them the same scrape surface by running an
:class:`~repro.service.http.AsyncHttpServer` on a private event loop inside
a daemon thread:

* ``GET /metrics``  — the registry in Prometheus text format,
* ``GET /healthz``  — ``{"status": "ok", "uptime_seconds": …}``,

everything else answers 404.  ``start()`` returns the bound address (port 0
picks an ephemeral port), ``close()`` tears the loop down; both are safe to
call from the main thread while the work loop runs.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Optional, Tuple

from ..exceptions import ReproError
from .metrics import MetricsRegistry, default_registry

__all__ = ["MetricsExporter"]


class MetricsExporter:
    """Serves one registry's exposition from a background thread."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry if registry is not None else default_registry()
        self._host = host
        self._port = int(port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._address: Optional[Tuple[str, int]] = None
        self._started_at = 0.0
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise ReproError("the metrics exporter is not started")
        return self._address

    async def _handle(self, request):
        from ..service.http import HttpResponse  # runtime import: http builds on obs

        if request.method != "GET":
            return HttpResponse.error(405, "only GET is supported")
        if request.path == "/metrics":
            self.registry.counter(
                "repro_metrics_scrapes_total", "Scrapes answered on /metrics."
            ).inc()
            return HttpResponse.text(self.registry.render())
        if request.path == "/healthz":
            return HttpResponse.json(
                {
                    "status": "ok",
                    "uptime_seconds": round(time.monotonic() - self._started_at, 3),
                }
            )
        return HttpResponse.error(404, f"unknown path {request.path!r}")

    def start(self) -> Tuple[str, int]:
        """Start serving; returns the bound ``(host, port)``."""
        from ..service.http import AsyncHttpServer

        if self._thread is not None:
            raise ReproError("the metrics exporter is already started")
        ready = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            server = AsyncHttpServer(
                self._handle, self._host, self._port, metrics=self.registry
            )
            try:
                self._address = loop.run_until_complete(server.start())
            except BaseException as error:  # bind failure: surface in start()
                self._startup_error = error
                ready.set()
                loop.close()
                return
            self._started_at = time.monotonic()
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(server.close())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-metrics-exporter", daemon=True
        )
        self._thread.start()
        ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise ReproError(
                f"cannot serve metrics on {self._host}:{self._port}: "
                f"{self._startup_error}"
            )
        return self.address

    def close(self) -> None:
        """Stop serving and join the exporter thread (idempotent)."""
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "MetricsExporter":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
