"""The live ingestion service: an async HTTP front door over a session.

This module ties the service layer together into one deployable unit —
``repro-ldp ingest`` — that accepts longitudinal LDP reports *live* instead
of from a dataset file:

* an :class:`~repro.service.http.AsyncHttpServer` front door exposing

  ========================  ======  =========================================
  ``/v1/reports``           POST    submit a batch of reports or counts
  ``/v1/estimate/<t>``      GET     live debiased estimate of round ``t``
  ``/v1/rounds``            GET     horizon / window / late-traffic status
  ``/v1/rounds/advance``    POST    seal the open window explicitly
  ``/healthz``              GET     liveness probe
  ``/metrics``              GET     Prometheus text exposition
  ========================  ======  =========================================

* a :class:`~repro.service.clock.RoundClock` that owns round windowing
  (a round seals on quorum or explicit advance; reports for a sealed round
  are dropped and counted),
* optional HMAC-SHA256 submission authentication with the
  :mod:`repro.service.auth` envelope (the secret is named by
  ``--auth-key-env``),
* with a checkpoint path, a background task that writes the session and
  its clock into one atomic ``.npz`` every
  ``checkpoint_interval_seconds`` when they changed, and a graceful
  stop-and-checkpoint on SIGTERM.

Each submission is validated, folded to support counts, routed through the
clock and added to the session *in its HTTP handler*: malformed batches
fail with ``400``, and a ``202`` is written only once the batch is in the
session, so every later checkpoint contains it.  Once :meth:`IngestServer
.stop` has begun, submissions answer ``503`` and fold nothing.  Support
counts are integer-valued floats, so folding per batch is bit-identical to
feeding the raw reports straight into a batch
:class:`~repro.service.session.CollectorSession` in any order or grouping.

Report wire format (``encode_reports`` / ``decode_reports``): plain JSON
per protocol family — integers for L-GRR, 0/1 arrays for the unary-encoding
family, ``{"buckets": [...], "bits": [...]}`` objects for dBitFlipPM.
LOLOHA reports carry the client's hash function and are deliberately *not*
wire-serializable; LOLOHA producers submit pre-aggregated counts (the
``counts`` mode, which every protocol supports).

Validation contract (anything else answers ``400``; JSON booleans, floats
and strings are never integers): L-UE bits are the integers 0/1, ``k`` per
report; L-GRR reports are integers in ``[0, k)``; dBitFlipPM reports carry
exactly ``d`` distinct integer buckets in ``[0, b)`` with integer bits 0/1;
counts are JSON numbers with integer values in ``[0, n_reports]``.  The
server folds the parsed JSON arrays straight to support counts (column sum,
``bincount``, bit-weighted ``bincount``) without building report objects;
the result equals ``protocol.support_counts`` over the reports exactly.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from itertools import chain
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import AggregationError, ParameterError, ReproError
from ..longitudinal.base import LongitudinalProtocol
from ..longitudinal.dbitflip import DBitFlipPM, DBitFlipReport
from ..longitudinal.l_grr import LGRR
from ..longitudinal.l_ue import LongitudinalUnaryEncoding
from ..specs import IngestSpec
from .auth import AuthenticationError, authenticator_from_env
from .clock import RoundClock, SealEvent
from .http import AsyncHttpServer, HttpError, HttpRequest, HttpResponse
from ..obs.metrics import MetricsRegistry
from .session import CollectorSession

__all__ = [
    "IngestServer",
    "encode_reports",
    "decode_reports",
    "wire_reports_supported",
]


# ---------------------------------------------------------------------- #
# Report wire codec
# ---------------------------------------------------------------------- #
def wire_reports_supported(protocol: LongitudinalProtocol) -> bool:
    """Whether this protocol's client reports are JSON-serializable.

    LOLOHA reports embed the client's hash function object; those producers
    use the ``counts`` submission mode instead.
    """
    return isinstance(protocol, (LGRR, LongitudinalUnaryEncoding, DBitFlipPM))


def encode_reports(
    protocol: LongitudinalProtocol, reports: Sequence
) -> List[object]:
    """Encode client reports as plain JSON values for ``POST /v1/reports``."""
    if isinstance(protocol, LGRR):
        return [int(report) for report in reports]
    if isinstance(protocol, LongitudinalUnaryEncoding):
        return [[int(bit) for bit in report] for report in reports]
    if isinstance(protocol, DBitFlipPM):
        return [
            {
                "buckets": [int(b) for b in report.sampled_buckets],
                "bits": [int(b) for b in report.bits],
            }
            for report in reports
        ]
    raise ParameterError(
        f"protocol {protocol.name!r} reports are not wire-serializable "
        f"(they carry the client's hash function); submit pre-aggregated "
        f"support counts instead (the 'counts' mode)"
    )


class _Malformed(Exception):
    """A wire batch breaks the validation contract (internal to the codec)."""


def _wire_matrix(rows: object, width: int, high: int, what: str) -> np.ndarray:
    """Validate ``rows`` into an ``(len(rows), width)`` integer matrix.

    ``rows`` must be a list of ``width``-long JSON arrays whose elements are
    all JSON integers (``int``, never ``bool``, ``float`` or ``str``) in
    ``[0, high)``.  The type check and the conversion are each one C-level
    pass over the parsed JSON, with no Python-level loop per element.
    """
    if (
        not isinstance(rows, list)
        or set(map(type, rows)) != {list}
        or set(map(len, rows)) != {width}
    ):
        raise _Malformed(f"each report must carry an array of {width} {what}")
    stray = set(map(type, chain.from_iterable(rows))) - {int}
    if stray:
        names = ", ".join(sorted(kind.__name__ for kind in stray))
        raise _Malformed(f"{what} must be JSON integers, got {names}")
    try:
        if high <= 256:
            # bytes() packs a row of small ints in one call, about twice as
            # fast as np.array; it raises ValueError outside [0, 256).
            matrix = np.frombuffer(b"".join(map(bytes, rows)), dtype=np.uint8)
            matrix = matrix.reshape(len(rows), width)
        else:
            matrix = np.array(rows, dtype=np.int64)
    except (ValueError, OverflowError):
        matrix = None
    if matrix is None or (matrix < 0).any() or (matrix >= high).any():
        raise _Malformed(f"{what} must lie in [0, {high})")
    return matrix


def _wire_arrays(
    protocol: LongitudinalProtocol, payload: object
) -> Tuple[np.ndarray, ...]:
    """Validate a ``reports`` payload into its family's arrays.

    L-GRR gives ``(values,)`` of shape ``(n,)``; the L-UE family gives
    ``(bits,)`` of shape ``(n, k)``; dBitFlipPM gives ``(buckets, bits)``,
    each of shape ``(n, d)``.  Any breach of the wire contract raises
    :class:`~repro.exceptions.ParameterError`.
    """
    if not isinstance(payload, list) or not payload:
        raise ParameterError("reports must be a non-empty JSON array")
    try:
        if isinstance(protocol, LGRR):
            # The batch is one row of n report values.
            values = _wire_matrix([payload], len(payload), protocol.k, "reports")
            return (values[0],)
        if isinstance(protocol, LongitudinalUnaryEncoding):
            return (_wire_matrix(payload, protocol.k, 2, "bits"),)
        if isinstance(protocol, DBitFlipPM):
            if set(map(type, payload)) != {dict}:
                raise _Malformed("each report must be a {'buckets', 'bits'} object")
            try:
                bucket_rows = [report["buckets"] for report in payload]
                bit_rows = [report["bits"] for report in payload]
            except KeyError as error:
                raise _Malformed(f"report lacks {error}") from None
            buckets = _wire_matrix(bucket_rows, protocol.d, protocol.b, "buckets")
            if (np.diff(np.sort(buckets, axis=1), axis=1) == 0).any():
                raise _Malformed("a report's buckets must be distinct")
            return buckets, _wire_matrix(bit_rows, protocol.d, 2, "bits")
    except _Malformed as error:
        raise ParameterError(
            f"malformed wire report for protocol {protocol.name!r}: {error}"
        ) from None
    raise ParameterError(
        f"protocol {protocol.name!r} does not accept wire reports; submit "
        f"pre-aggregated support counts instead (the 'counts' mode)"
    )


def _fold_wire_reports(
    protocol: LongitudinalProtocol, payload: object
) -> Tuple[np.ndarray, int]:
    """Validate and fold a ``reports`` payload to ``(support_counts, n)``.

    Folds the validated arrays directly, without building report objects;
    the counts equal ``protocol.support_counts`` over the decoded reports
    exactly (integer-valued float64).
    """
    arrays = _wire_arrays(protocol, payload)
    if isinstance(protocol, LGRR):
        counts = np.bincount(arrays[0], minlength=protocol.k)
    elif isinstance(protocol, DBitFlipPM):
        buckets, bits = arrays
        counts = np.bincount(
            buckets.ravel(), weights=bits.ravel(), minlength=protocol.b
        )
    else:
        counts = arrays[0].sum(axis=0)
    return counts.astype(np.float64), len(payload)


def decode_reports(protocol: LongitudinalProtocol, payload: object) -> List:
    """Decode a ``POST /v1/reports`` JSON array back into protocol reports.

    Validates exactly as the server does: L-GRR reports are integers in
    ``[0, k)``, L-UE reports ``k``-long arrays of integer bits 0/1 (decoded
    as read-only ``uint8`` rows, the clients' own dtype), and dBitFlipPM
    reports ``d`` distinct integer buckets in ``[0, b)`` with integer bits
    0/1.  Anything else raises :class:`~repro.exceptions.ParameterError`.
    """
    arrays = _wire_arrays(protocol, payload)
    if isinstance(protocol, LGRR):
        return arrays[0].tolist()
    if isinstance(protocol, DBitFlipPM):
        buckets, bits = (array.tolist() for array in arrays)
        return [
            DBitFlipReport(sampled_buckets=tuple(row), bits=tuple(flips))
            for row, flips in zip(buckets, bits)
        ]
    return list(arrays[0])


class CheckpointError(ReproError):
    """The final checkpoint of a stopping ingest server could not be written."""


class IngestServer:
    """The live collection endpoint described by an :class:`IngestSpec`.

    Parameters
    ----------
    spec:
        Declarative service configuration (protocol, horizon, quorum,
        authentication).
    checkpoint_path:
        Optional checkpoint path: one ``.npz`` holding the session and its
        round clock.  When it exists the server *restores* both from it and
        continues the horizon in the same round window; while running it
        checkpoints atomically every ``spec.checkpoint_interval_seconds``
        if anything changed, and once more on shutdown.
    metrics:
        Registry to expose on ``/metrics``; a private one is created when
        omitted (pass one to share series with an embedding process).
    """

    def __init__(
        self,
        spec: IngestSpec,
        *,
        checkpoint_path: Optional[Union[str, Path]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not isinstance(spec, IngestSpec):
            raise ParameterError(
                f"spec must be an IngestSpec, got {type(spec).__name__}"
            )
        self.spec = spec
        self._authenticator = authenticator_from_env(spec.auth_key_env)
        self._checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        m = self.metrics
        self._m_accepted = m.counter(
            "repro_ingest_reports_accepted_total",
            "Reports folded into the collector session",
        )
        self._m_batches = m.counter(
            "repro_ingest_batches_total", "Report/count batches folded"
        )
        self._m_rejected = m.counter(
            "repro_ingest_rejected_total",
            "Submissions rejected before aggregation, by reason",
        )
        self._m_late = m.counter(
            "repro_ingest_reports_late_total",
            "Reports dropped because their round had sealed",
        )
        self._m_sealed = m.counter(
            "repro_ingest_rounds_sealed_total", "Round windows sealed, by reason"
        )
        self._m_seal_latency = m.histogram(
            "repro_ingest_seal_latency_seconds",
            "Wall-clock seconds each sealed window was open",
        )
        self._m_estimate_age = m.gauge(
            "repro_ingest_estimate_age_seconds",
            "Seconds since the served round estimate last changed",
        )
        self._m_current_round = m.gauge(
            "repro_ingest_current_round", "The open round window"
        )
        self._m_http = m.counter(
            "repro_http_requests_total", "HTTP requests served, by route and status"
        )
        self._m_checkpoints = m.counter(
            "repro_ingest_checkpoints_total", "Session+clock checkpoints written"
        )
        self._m_checkpoint_failures = m.counter(
            "repro_ingest_checkpoint_failures_total",
            "Session+clock checkpoint writes that raised an OSError",
        )

        self.session, self.clock = self._build_state()
        self.session.attach_clock(self.clock)
        self._m_current_round.set(self.clock.current_round)

        self._http: Optional[AsyncHttpServer] = None
        self._checkpoint_task: Optional[asyncio.Task] = None
        self._fold_times: Dict[int, float] = {}
        self._dirty = False
        self._stopped = False

    # ------------------------------------------------------------------ #
    # State construction / restore
    # ------------------------------------------------------------------ #
    def _build_state(self) -> Tuple[CollectorSession, RoundClock]:
        path = self._checkpoint_path
        if path is None or not path.exists():
            return (
                CollectorSession(self.spec.protocol, self.spec.n_rounds),
                self._fresh_clock(),
            )
        session = CollectorSession.restore(path)
        if session.spec.to_dict() != self.spec.protocol.to_dict():
            raise ParameterError(
                f"checkpoint {path} was recorded for protocol spec "
                f"{session.spec.to_dict()}, which does not match this "
                f"service's protocol {self.spec.protocol.to_dict()}"
            )
        if session.n_rounds != self.spec.n_rounds:
            raise ParameterError(
                f"checkpoint horizon ({session.n_rounds} rounds) does not "
                f"match the spec horizon ({self.spec.n_rounds} rounds)"
            )
        if session.clock is None:
            # Restarting the clock at round 0 would reopen sealed rounds and
            # count a resent batch twice.
            raise ParameterError(
                f"checkpoint {path} carries no round-clock state; an ingest "
                f"server cannot resume from a clock-less session checkpoint"
            )
        if session.clock.quorum != self.spec.quorum:
            raise ParameterError(
                f"checkpoint {path} was recorded with another round-clock "
                f"quorum than this service's spec: quorum "
                f"{session.clock.quorum!r} (checkpoint) != "
                f"{self.spec.quorum!r} (spec)"
            )
        session.clock.on_seal = self._on_seal
        return session, session.clock

    def _fresh_clock(self) -> RoundClock:
        return RoundClock(
            self.spec.n_rounds, quorum=self.spec.quorum, on_seal=self._on_seal
        )

    def _on_seal(self, event: SealEvent) -> None:
        self._m_sealed.labels(reason=event.reason).inc()
        self._m_seal_latency.observe(max(event.duration, 0.0))
        self._m_current_round.set(self.clock.current_round)
        self._dirty = True

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> Tuple[str, int]:
        """Bind the front door and, with a checkpoint path, start the
        periodic checkpoint task."""
        self._http = AsyncHttpServer(
            self._handle, host=self.spec.host, port=self.spec.port
        )
        address = await self._http.start()
        if self._checkpoint_path is not None:
            self._checkpoint_task = asyncio.ensure_future(self._checkpoint_loop())
        return address

    @property
    def address(self) -> Tuple[str, int]:
        if self._http is None:
            raise ParameterError("the ingest server is not started")
        return self._http.address

    async def stop(self) -> None:
        """Graceful shutdown: refuse new traffic, then checkpoint.

        From the moment this is called, submissions and explicit advances
        answer ``503`` (also on kept-alive connections), so every batch
        answered ``202`` is in the final session + clock checkpoint.  The
        open window is *not* sealed: a restarted server resumes exactly
        where this one stopped.  A final checkpoint that cannot be written
        raises :class:`CheckpointError` naming the path.
        """
        if self._stopped:
            return
        self._stopped = True
        try:
            if self._http is not None:
                await self._http.close()
            if self._checkpoint_task is not None:
                self._checkpoint_task.cancel()
                try:
                    await self._checkpoint_task
                except asyncio.CancelledError:
                    pass
        finally:
            try:
                self.checkpoint(force=True)
            except OSError as error:
                self._m_checkpoint_failures.inc()
                raise CheckpointError(
                    f"cannot write the final checkpoint {self._checkpoint_path}: {error}"
                ) from error

    async def run(
        self,
        *,
        run_seconds: Optional[float] = None,
        install_signal_handlers: bool = True,
        ready: Optional[Callable[[Tuple[str, int]], None]] = None,
    ) -> Tuple[str, int]:
        """Serve until SIGTERM/SIGINT (or ``run_seconds``), then stop.

        This is the ``repro-ldp ingest`` entry point: it owns the whole
        lifecycle and always exits through :meth:`stop` (final checkpoint),
        including on signals.
        """
        address = await self.start()
        if ready is not None:
            ready(address)
        stop_event = asyncio.Event()
        loop = asyncio.get_event_loop()
        installed: List[signal.Signals] = []
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, stop_event.set)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-unix platforms / nested loops
        try:
            if run_seconds is None:
                await stop_event.wait()
            else:
                try:
                    await asyncio.wait_for(stop_event.wait(), run_seconds)
                except asyncio.TimeoutError:
                    pass
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.stop()
        return address

    # ------------------------------------------------------------------ #
    # Checkpoints
    # ------------------------------------------------------------------ #
    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.spec.checkpoint_interval_seconds)
            try:
                self.checkpoint()
            except OSError:
                # The state stays dirty, so the next tick (and stop())
                # retries the write; the server keeps serving meanwhile.
                self._m_checkpoint_failures.inc()

    def checkpoint(self, force: bool = False) -> bool:
        """Write the session + clock checkpoint (one atomic ``.npz``).

        Does nothing without a checkpoint path; unless ``force`` is set
        (shutdown), also nothing while the state is unchanged since the
        last write.
        """
        if self._checkpoint_path is None or not (force or self._dirty):
            return False
        self.session.checkpoint(self._checkpoint_path)
        self._m_checkpoints.inc()
        self._dirty = False
        return True

    # ------------------------------------------------------------------ #
    # HTTP routing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _route_label(path: str) -> str:
        if path.startswith("/v1/estimate/"):
            return "/v1/estimate"
        if path in ("/healthz", "/metrics", "/v1/rounds", "/v1/rounds/advance", "/v1/reports"):
            return path
        return "other"

    async def _handle(self, request: HttpRequest) -> HttpResponse:
        route = self._route_label(request.path)
        try:
            response = await self._dispatch(request)
        except HttpError as error:
            self._m_http.labels(route=route, status=str(error.status)).inc()
            raise
        self._m_http.labels(route=route, status=str(response.status)).inc()
        return response

    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        method, path = request.method, request.path
        if path == "/healthz":
            self._require_method(method, "GET")
            return HttpResponse.json(
                {
                    "status": "ok",
                    "name": self.spec.name,
                    "protocol": self.session.protocol.name,
                    "current_round": self.clock.current_round,
                    "finished": self.clock.finished,
                }
            )
        if path == "/metrics":
            self._require_method(method, "GET")
            return HttpResponse.text(self.metrics.render())
        if path == "/v1/rounds":
            self._require_method(method, "GET")
            return HttpResponse.json(self._rounds_payload())
        if path == "/v1/rounds/advance":
            self._require_method(method, "POST")
            self._require_running()
            try:
                event = self.clock.advance("explicit")
            except ParameterError as error:
                raise HttpError(400, str(error)) from None
            return HttpResponse.json(
                {
                    "sealed_round": event.round_index,
                    "reason": event.reason,
                    "n_reports": event.n_reports,
                    "current_round": self.clock.current_round,
                }
            )
        if path == "/v1/reports":
            self._require_method(method, "POST")
            return self._submit(request)
        if path.startswith("/v1/estimate/"):
            self._require_method(method, "GET")
            return self._estimate(path[len("/v1/estimate/") :])
        raise HttpError(404, f"no such endpoint: {path}")

    @staticmethod
    def _require_method(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(405, f"use {expected} for this endpoint, not {method}")

    def _require_running(self) -> None:
        # After stop() has begun nothing may change the session or clock:
        # the final checkpoint must hold every state a client was told of.
        if self._stopped:
            raise HttpError(503, "the ingest server is shutting down")

    def _rounds_payload(self) -> Dict[str, object]:
        return {
            "name": self.spec.name,
            "protocol": self.session.protocol.name,
            "n_rounds": self.spec.n_rounds,
            "current_round": self.clock.current_round,
            "finished": self.clock.finished,
            "window_reports": self.clock.window_reports,
            "reports_per_round": self.session.reports_per_round.tolist(),
            "late_dropped": self.clock.late_dropped,
            "early_reports": self.clock.early_reports,
            "seals": [
                {
                    "round_index": event.round_index,
                    "reason": event.reason,
                    "n_reports": event.n_reports,
                    "duration": event.duration,
                }
                for event in self.clock.seals
            ],
        }

    def _estimate(self, tail: str) -> HttpResponse:
        try:
            round_index = int(tail)
        except ValueError:
            raise HttpError(400, f"round index must be an integer, got {tail!r}") from None
        try:
            estimate = self.session.estimate(round_index)
        except ParameterError as error:
            raise HttpError(400, str(error)) from None
        except AggregationError as error:
            raise HttpError(404, str(error)) from None
        age: Optional[float] = None
        folded_at = self._fold_times.get(round_index)
        if folded_at is not None:
            age = max(time.monotonic() - folded_at, 0.0)
            self._m_estimate_age.labels(round=str(round_index)).set(age)
        return HttpResponse.json(
            {
                "round": round_index,
                "n_reports": estimate.n_reports,
                "frequencies": estimate.frequencies.tolist(),
                "sealed": self.clock.is_sealed(round_index),
                "age_seconds": age,
            }
        )

    # ------------------------------------------------------------------ #
    # Submission path
    # ------------------------------------------------------------------ #
    def _reject(self, reason: str, status: int, message: str) -> HttpError:
        self._m_rejected.labels(reason=reason).inc()
        return HttpError(status, message)

    def _submit(self, request: HttpRequest) -> HttpResponse:
        self._require_running()
        body = request.body
        if self._authenticator is not None:
            try:
                body = self._authenticator.verify(body)
            except AuthenticationError as error:
                raise self._reject("auth", 401, str(error))
        try:
            payload = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise self._reject(
                "malformed", 400, f"submission body is not valid JSON: {error}"
            )
        if not isinstance(payload, dict) or "round" not in payload:
            raise self._reject(
                "malformed", 400, "a submission is an object with a 'round' field"
            )
        try:
            round_index = self.session._check_round(payload["round"])
            counts, n_reports = self._decode_submission(payload)
        except ParameterError as error:
            raise self._reject("malformed", 400, str(error))

        if self.session.submit_counts(round_index, counts, n_reports) is None:
            self._m_late.labels(policy="drop").inc(n_reports)
        else:
            self._m_accepted.inc(n_reports)
            self._m_batches.inc()
            self._fold_times[round_index] = time.monotonic()
        self._dirty = True
        return HttpResponse.json(
            {"status": "folded", "round": round_index, "n_reports": n_reports},
            status=202,
        )

    def _decode_submission(self, payload: Dict) -> Tuple[np.ndarray, int]:
        """Fold one submission to ``(support_counts, n_reports)`` or raise."""
        m = self.session.protocol.estimation_domain_size
        has_reports = "reports" in payload
        has_counts = "counts" in payload
        if has_reports == has_counts:
            raise ParameterError(
                "a submission carries exactly one of 'reports' or 'counts'"
            )
        if has_reports:
            return _fold_wire_reports(self.session.protocol, payload["reports"])
        n_reports = payload.get("n_reports")
        if (
            isinstance(n_reports, bool)
            or not isinstance(n_reports, int)
            or n_reports < 1
        ):
            raise ParameterError(
                f"a counts submission needs an integer n_reports >= 1, "
                f"got {n_reports!r}"
            )
        raw = payload["counts"]
        if not isinstance(raw, list) or not set(map(type, raw)) <= {int, float}:
            raise ParameterError("counts must be a JSON array of numbers")
        bounds = (
            f"every count must be an integer in [0, {n_reports}] for "
            f"{n_reports} reports"
        )
        try:
            counts = np.array(raw, dtype=np.float64)
        except OverflowError:  # an integer beyond float64
            raise ParameterError(bounds) from None
        if counts.shape != (m,):
            raise ParameterError(
                f"expected counts of shape ({m},), got {counts.shape}"
            )
        # Each report adds at most 1 to any count; NaN fails every test.
        if not (
            (counts >= 0) & (counts <= n_reports) & (counts == np.floor(counts))
        ).all():
            raise ParameterError(bounds)
        return counts, n_reports

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IngestServer(name={self.spec.name!r}, "
            f"protocol={self.session.protocol.name!r}, "
            f"round={self.clock.current_round}/{self.spec.n_rounds})"
        )

