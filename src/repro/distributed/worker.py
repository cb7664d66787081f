"""Remote aggregator workers: the execution side of the distributed queue.

:func:`run_worker` is the worker loop used both by in-process worker threads
(``simulate_protocol_sharded(transport=..., n_workers=N)``) and by the
``repro-ldp work`` CLI process.  It repeatedly claims a task payload, decodes
it (JSON only — no pickled code), rebuilds the dataset from the embedded
:class:`~repro.distributed.codec.DatasetRef` when one was not handed in
directly, executes the shard with
:func:`repro.simulation.runner.run_shard_task` and delivers the summary.

Because a task carries its own derived seed, a worker is a pure function of
the task payload: any worker, any number of times, produces the identical
summary — the property that makes lease-expiry requeues and duplicate
deliveries harmless.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from ..datasets.base import LongitudinalDataset
from ..obs.events import emit_event
from ..obs.metrics import default_registry
from ..obs.spans import span
from ..simulation.runner import run_shard_task
from .codec import TransportError, decode_task, encode_summary
from .transports import Transport, WorkerEndpoint

__all__ = ["LocalWorkerPool", "run_worker", "local_worker_threads"]


def _worker_failure(stage: str, error: BaseException, **fields: object) -> None:
    """Report a worker failure as a structured, machine-greppable event.

    The record goes to the default event log (when one is installed) *and*
    as one JSON line to stderr, so fleet failures can be grepped out of
    either surface; the caller re-raises, which makes the worker process
    exit nonzero.
    """
    record = {
        "component": "worker",
        "event": "error",
        "stage": stage,
        "error": f"{type(error).__name__}: {error}",
        "traceback": traceback.format_exc(),
    }
    record.update(fields)
    emit_event(
        "error",
        component="worker",
        stage=stage,
        error=record["error"],
        traceback=record["traceback"],
        **fields,
    )
    default_registry().counter(
        "repro_worker_errors_total", "Worker failures, by stage."
    ).labels(stage=stage).inc()
    print(json.dumps(record), file=sys.stderr, flush=True)


def run_worker(
    endpoint: WorkerEndpoint,
    dataset: Optional[LongitudinalDataset] = None,
    max_tasks: Optional[int] = None,
    idle_timeout: Optional[float] = 5.0,
    poll_interval: float = 0.1,
    stop: Optional[threading.Event] = None,
) -> int:
    """Claim-and-execute loop; returns the number of completed shards.

    Parameters
    ----------
    endpoint:
        Worker-side transport endpoint.
    dataset:
        The workload, when already available in this process.  ``None``
        rebuilds (and caches) datasets from each task's
        :class:`~repro.distributed.codec.DatasetRef` — the remote-worker
        path.
    max_tasks:
        Stop after this many completed shards (``None`` = unbounded).
    idle_timeout:
        Exit after this many seconds without claimable work (``None`` =
        wait forever, until ``stop`` is set).
    poll_interval:
        Claim poll granularity.
    stop:
        Cooperative cancellation for worker threads.
    """
    registry = default_registry()
    m_claims = registry.counter(
        "repro_worker_tasks_claimed_total", "Task payloads claimed from the queue."
    )
    m_summaries = registry.counter(
        "repro_worker_summaries_total", "Shard summaries delivered."
    )
    m_cache_hits = registry.counter(
        "repro_worker_dataset_cache_hits_total",
        "Claims served from the per-process dataset-rebuild cache.",
    )
    m_rebuilds = registry.counter(
        "repro_worker_dataset_rebuilds_total",
        "Datasets rebuilt from a task's registry reference.",
    )
    m_idle_seconds = registry.counter(
        "repro_worker_idle_seconds_total",
        "Wall-clock seconds spent waiting for claimable work.",
    )
    m_task_seconds = registry.histogram(
        "repro_worker_task_seconds", "Wall-clock duration of executed shard tasks."
    )
    completed = 0
    cache: Dict[Tuple[str, float, int], LongitudinalDataset] = {}
    idle_since = time.monotonic()
    while max_tasks is None or completed < max_tasks:
        if stop is not None and stop.is_set():
            break
        claim_started = time.monotonic()
        envelope = endpoint.claim(timeout=poll_interval)
        if envelope is None:
            m_idle_seconds.inc(max(0.0, time.monotonic() - claim_started))
            if (
                idle_timeout is not None
                and time.monotonic() - idle_since >= idle_timeout
            ):
                break
            continue
        m_claims.inc()
        try:
            shard_id, task, dataset_ref, plan = decode_task(envelope.payload)
        except Exception as error:
            # Broad on purpose: any decode failure (codec, auth, truncation)
            # is counted and logged with shard context, then re-raised.
            _worker_failure("task_decode", error, shard_id=envelope.shard_id)
            raise
        workload = dataset
        if workload is None:
            if dataset_ref is None:
                try:
                    raise TransportError(
                        f"task for shard {shard_id} carries no dataset reference "
                        f"and this worker was not handed a dataset"
                    )
                except TransportError as error:
                    _worker_failure("dataset_rebuild", error, shard_id=shard_id)
                    raise
            key = dataset_ref.cache_key()
            if key not in cache:
                try:
                    cache[key] = dataset_ref.build()
                except Exception as error:
                    # Broad on purpose: rebuild failures are counted and
                    # logged with shard context, then re-raised.
                    _worker_failure("dataset_rebuild", error, shard_id=shard_id)
                    raise
                m_rebuilds.inc()
            else:
                m_cache_hits.inc()
            workload = cache[key]
        task_started = time.perf_counter()
        with span("shard.run", component="worker", shard_id=shard_id):
            summary = run_shard_task(task, workload)
        task_seconds = time.perf_counter() - task_started
        m_task_seconds.observe(task_seconds)
        # Echo the coordinator's plan fingerprint so stale summaries in a
        # reused queue are recognizable as belonging to another collection.
        endpoint.complete(shard_id, encode_summary(shard_id, summary, plan=plan))
        m_summaries.inc()
        emit_event(
            "task_done",
            component="worker",
            shard_id=shard_id,
            seconds=round(task_seconds, 6),
        )
        completed += 1
        idle_since = time.monotonic()
    return completed


class LocalWorkerPool:
    """Handle to a set of in-process worker threads.

    :meth:`failure_reason` is the liveness hook for
    :meth:`repro.distributed.coordinator.Coordinator.run`: it reports a
    non-``None`` reason as soon as a worker raised or every worker exited
    while the pool is still supposed to be running, so a coordinator does
    not poll an abandoned queue forever.
    """

    def __init__(self, threads: List[threading.Thread], stop: threading.Event) -> None:
        self.threads = threads
        self.errors: List[BaseException] = []
        self._stop = stop

    def failure_reason(self) -> Optional[str]:
        if self.errors:
            return f"local worker failed: {self.errors[0]!r}"
        if (
            self.threads
            and not self._stop.is_set()
            and not any(thread.is_alive() for thread in self.threads)
        ):
            return "every local worker thread exited before the collection completed"
        return None


@contextmanager
def local_worker_threads(
    transport: Transport,
    n_workers: int,
    dataset: Optional[LongitudinalDataset] = None,
) -> Iterator[LocalWorkerPool]:
    """Run ``n_workers`` worker threads against ``transport`` for a block.

    The workers poll until the block exits (they have no idle timeout); on
    exit they are signalled to stop and joined.  A worker exception is
    re-raised in the caller after the block (and is visible earlier through
    :meth:`LocalWorkerPool.failure_reason`).
    """
    stop = threading.Event()
    pool: LocalWorkerPool

    def loop() -> None:
        endpoint = transport.worker()
        try:
            run_worker(
                endpoint,
                dataset=dataset,
                idle_timeout=None,
                poll_interval=0.02,
                stop=stop,
            )
        except BaseException as error:  # surfaced via failure_reason / below
            pool.errors.append(error)
        finally:
            endpoint.close()

    threads = [
        threading.Thread(target=loop, name=f"repro-worker-{i}", daemon=True)
        for i in range(n_workers)
    ]
    pool = LocalWorkerPool(threads, stop)
    for thread in threads:
        thread.start()
    try:
        yield pool
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
    if pool.errors:
        raise pool.errors[0]
