"""Distributed collection: transports, coordinator and workers.

This package decouples *what* a sharded simulation computes (the
:class:`~repro.simulation.runner.ShardTask` /
:class:`~repro.simulation.sinks.ShardSummary` contract of the simulation
layer) from *where* it runs.  A :class:`Transport` moves JSON task payloads
and ``.npz`` summary payloads — never pickled code — between one
:class:`Coordinator` and any number of workers:

=========================  ====================================================
:class:`InProcessTransport`  in-memory queues; tests and worker threads
:class:`FileQueueTransport`  spool directory with atomic claim-by-rename;
                             crash-safe across worker processes on one host
                             or, through a shared filesystem, on many hosts
=========================  ====================================================

The coordinator detects dead workers through lease timeouts, requeues their
shards, deduplicates double-delivered summaries by shard id and streams
accepted summaries into a :class:`~repro.service.session.CollectorSession`
as they arrive; because every shard's randomness is derived from the root
seed alone, the final estimates are bit-identical to the serial path no
matter how the work was distributed, weighted, crashed or retried.

For untrusted media, the file queue accepts a
:class:`PayloadAuthenticator` (shared HMAC-SHA256 secret, resolved from an
environment variable via :func:`authenticator_from_env`): tampered or
unsigned payloads are rejected and counted, never absorbed or executed.

The ``repro-ldp serve`` / ``repro-ldp work`` CLI subcommands wire these
pieces into long-running processes; ``simulate_protocol_sharded(transport=...)``
uses them inline.
"""

from .auth import AuthenticationError, PayloadAuthenticator, authenticator_from_env
from .codec import (
    DatasetRef,
    TransportError,
    decode_summary,
    decode_task,
    encode_summary,
    encode_task,
)
from .coordinator import Coordinator, CoordinatorTimeout
from .file_queue import FileQueueTransport, FileQueueWorker
from .transports import (
    InProcessTransport,
    SummaryEnvelope,
    TaskEnvelope,
    Transport,
    WorkerEndpoint,
)
from .worker import LocalWorkerPool, local_worker_threads, run_worker

__all__ = [
    "AuthenticationError",
    "Coordinator",
    "CoordinatorTimeout",
    "DatasetRef",
    "PayloadAuthenticator",
    "authenticator_from_env",
    "FileQueueTransport",
    "FileQueueWorker",
    "InProcessTransport",
    "LocalWorkerPool",
    "SummaryEnvelope",
    "TaskEnvelope",
    "Transport",
    "TransportError",
    "WorkerEndpoint",
    "decode_summary",
    "decode_task",
    "encode_summary",
    "encode_task",
    "local_worker_threads",
    "run_worker",
]
