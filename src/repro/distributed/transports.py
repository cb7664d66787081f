"""Transport abstraction for shipping shard tasks and summaries.

A transport moves opaque byte payloads (see :mod:`repro.distributed.codec`)
between one *coordinator* and any number of *workers*.  The two roles have
separate interfaces:

* :class:`Transport` — the coordinator side: publish task payloads, poll for
  summary payloads, and reclaim tasks whose worker lease expired (the
  crashed-worker recovery hook).
* :class:`WorkerEndpoint` — the worker side: claim one task at a time and
  hand back its summary.  ``transport.worker()`` builds an endpoint wired to
  the same queue; remote workers construct their endpoint directly from the
  shared spool directory.

Delivery is **at-least-once**: a lease that expires while the worker is
merely slow leads to the same shard being executed twice, and both summaries
may arrive.  Shard execution is deterministic (the task carries its own seed)
and the :class:`~repro.distributed.coordinator.Coordinator` deduplicates by
shard id, so duplicate delivery is harmless by construction.

:class:`InProcessTransport` is the in-memory reference implementation used by
tests and single-process runs; the cross-process file-spool implementation
lives in :mod:`repro.distributed.file_queue`.
"""

from __future__ import annotations

import abc
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .codec import TransportError

__all__ = [
    "TaskEnvelope",
    "SummaryEnvelope",
    "Transport",
    "WorkerEndpoint",
    "InProcessTransport",
]


@dataclass(frozen=True)
class TaskEnvelope:
    """One task payload in flight, addressed by its shard id."""

    shard_id: int
    payload: bytes


@dataclass(frozen=True)
class SummaryEnvelope:
    """One summary payload in flight, addressed by its shard id."""

    shard_id: int
    payload: bytes


class WorkerEndpoint(abc.ABC):
    """Worker-side half of a transport: claim tasks, return summaries."""

    @abc.abstractmethod
    def claim(self, timeout: float = 0.0) -> Optional[TaskEnvelope]:
        """Claim one pending task, waiting up to ``timeout`` seconds.

        Returns ``None`` when nothing became available in time.  Claiming
        starts the task's lease; a claimed task that is neither completed nor
        reclaimed is considered lost with its worker.
        """

    @abc.abstractmethod
    def complete(self, shard_id: int, payload: bytes) -> None:
        """Deliver the summary payload of a claimed task."""

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release worker-side resources (idempotent)."""

    def __enter__(self) -> "WorkerEndpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Transport(abc.ABC):
    """Coordinator-side half of a transport."""

    @abc.abstractmethod
    def publish(self, envelope: TaskEnvelope) -> None:
        """Make one task available for workers to claim."""

    @abc.abstractmethod
    def poll_summary(self, timeout: float = 0.0) -> Optional[SummaryEnvelope]:
        """Receive the next summary, waiting up to ``timeout`` seconds."""

    @abc.abstractmethod
    def reclaim_expired(self, lease_timeout: float) -> List[int]:
        """Requeue claimed tasks whose lease is older than ``lease_timeout``.

        Returns the shard ids that were made claimable again.  At-least-once
        semantics: the original worker may still finish and deliver a
        duplicate summary, which the coordinator deduplicates.
        """

    @abc.abstractmethod
    def worker(self) -> WorkerEndpoint:
        """Build a worker endpoint attached to this transport's queue."""

    def missing_tasks(self, shard_ids: Sequence[int]) -> List[int]:
        """Of ``shard_ids``, the shards this transport has *lost track of*.

        A lost shard is neither pending, nor claimed/outstanding, nor already
        summarized — the state a file-queue shard reaches when its task file
        vanishes (deleted by an operator, or destroyed by a worker that
        rejected a tampered payload).  The coordinator republishes its
        authentic copy of every lost shard.  Transports whose tasks cannot
        vanish (in-memory queues) keep the default: nothing is ever lost, so
        nothing is republished.
        """
        return []

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release coordinator-side resources (idempotent)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InProcessTransport(Transport):
    """In-memory transport: queues guarded by one lock, shared by reference.

    The reference implementation of the transport contract — used by unit
    tests and by ``simulate_protocol_sharded(transport=...)`` when workers
    run as threads of the coordinator process.  Payloads still round-trip
    through the byte codec, so the in-process path exercises exactly the
    serialization used across hosts.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: Deque[TaskEnvelope] = deque()
        self._claimed: Dict[int, Tuple[TaskEnvelope, float]] = {}
        self._summaries: Deque[SummaryEnvelope] = deque()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Coordinator side
    # ------------------------------------------------------------------ #
    def publish(self, envelope: TaskEnvelope) -> None:
        with self._lock:
            if self._closed:
                raise TransportError("transport is closed")
            self._pending.append(envelope)

    def poll_summary(self, timeout: float = 0.0) -> Optional[SummaryEnvelope]:
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            with self._lock:
                if self._summaries:
                    return self._summaries.popleft()
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.001)

    def reclaim_expired(self, lease_timeout: float) -> List[int]:
        now = time.monotonic()
        reclaimed: List[int] = []
        with self._lock:
            for shard_id, (envelope, claimed_at) in list(self._claimed.items()):
                if now - claimed_at >= lease_timeout:
                    del self._claimed[shard_id]
                    self._pending.append(envelope)
                    reclaimed.append(shard_id)
        return reclaimed

    def worker(self) -> "_InProcessWorker":
        return _InProcessWorker(self)

    def close(self) -> None:
        with self._lock:
            self._closed = True

    # ------------------------------------------------------------------ #
    # Worker side (driven through _InProcessWorker)
    # ------------------------------------------------------------------ #
    def _claim(self, timeout: float) -> Optional[TaskEnvelope]:
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            with self._lock:
                if self._closed:
                    return None
                if self._pending:
                    envelope = self._pending.popleft()
                    self._claimed[envelope.shard_id] = (envelope, time.monotonic())
                    return envelope
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.001)

    def _complete(self, shard_id: int, payload: bytes) -> None:
        with self._lock:
            self._claimed.pop(shard_id, None)
            self._summaries.append(SummaryEnvelope(shard_id=shard_id, payload=payload))


class _InProcessWorker(WorkerEndpoint):
    def __init__(self, transport: InProcessTransport) -> None:
        self._transport = transport

    def claim(self, timeout: float = 0.0) -> Optional[TaskEnvelope]:
        return self._transport._claim(timeout)

    def complete(self, shard_id: int, payload: bytes) -> None:
        self._transport._complete(shard_id, payload)
