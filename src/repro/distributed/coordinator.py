"""Fault-tolerant shard coordinator.

The :class:`Coordinator` owns one sharded collection: it derives nothing
itself — it is handed the full list of :class:`~repro.simulation.runner.ShardTask`
work units (whose seeds were derived from the root seed in shard order, see
:func:`repro.simulation.runner.make_shard_tasks`) and a
:class:`~repro.distributed.transports.Transport`, publishes every task not
yet summarized, and folds arriving summaries until the collection is
complete.

Correctness invariants, independent of transport, worker count, crashes and
delivery order:

* **Seed derivation** — a shard's randomness depends only on the root seed
  and its shard index, never on which worker runs it or how often.  A shard
  executed twice (lease expiry plus a slow-but-alive worker) produces the
  *identical* summary.
* **Deduplication** — summaries are keyed by shard id; the first delivery
  wins and every later duplicate is counted and dropped, so at-least-once
  transports look exactly-once to the aggregation.
* **Order-independent aggregation** — support counts are integer-valued
  floats, so streaming them into a
  :class:`~repro.service.session.CollectorSession` as they arrive (out of
  order) is exact; the final merge additionally replays summaries in shard
  order, making the end state bit-identical to the serial path including
  the per-user budget vector layout.
* **Crash-safe checkpointing** — after every accepted summary the
  coordinator can atomically rewrite an ``.npz`` checkpoint of all received
  summaries.  A killed collector restores, republishes only the missing
  shards, and finishes bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import time
import zipfile
from hashlib import sha256
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from .._atomicio import atomic_write_bytes
from ..exceptions import ExperimentError
from ..obs.events import emit_event
from ..obs.metrics import default_registry
from ..simulation.runner import ShardTask
from ..simulation.sinks import ShardedSink, ShardSummary
from .codec import DatasetRef, TransportError, decode_summary, encode_task
from .transports import TaskEnvelope, Transport

__all__ = ["Coordinator", "CoordinatorTimeout"]

_CHECKPOINT_FORMAT = 1


class CoordinatorTimeout(ExperimentError):
    """The collection did not complete within the requested wall-clock bound."""


class Coordinator:
    """Drives one sharded collection over a transport until complete.

    Parameters
    ----------
    tasks:
        The shard work units, in shard order (shard id = list index).
    transport:
        Coordinator-side transport endpoint.
    dataset_ref:
        Optional registry recipe shipped inside every task payload so remote
        workers can rebuild the workload themselves.  Omit when workers are
        handed the dataset directly (threads, tests).
    lease_timeout:
        Seconds after which a claimed-but-unfinished shard is requeued.
    poll_interval:
        Summary poll granularity of :meth:`run`.
    session:
        Optional :class:`~repro.service.session.CollectorSession`; every
        accepted summary is streamed into it on arrival, so running
        estimates update while the collection is in flight.
    checkpoint_path:
        Optional ``.npz`` path rewritten atomically after every accepted
        summary; see :meth:`load_checkpoint`.
    """

    def __init__(
        self,
        tasks: Sequence[ShardTask],
        transport: Transport,
        dataset_ref: Optional[DatasetRef] = None,
        lease_timeout: float = 30.0,
        poll_interval: float = 0.05,
        session=None,
        checkpoint_path: Optional[Union[str, Path]] = None,
    ) -> None:
        self.tasks: List[ShardTask] = list(tasks)
        if not self.tasks:
            raise ExperimentError("a coordinator requires at least one shard task")
        self.transport = transport
        self.dataset_ref = dataset_ref
        self.lease_timeout = float(lease_timeout)
        self.poll_interval = float(poll_interval)
        self.session = session
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.summaries: Dict[int, ShardSummary] = {}
        self.duplicates = 0
        self.requeued = 0
        self.foreign = 0
        self.republished = 0
        self._published = False
        self._restoring = False
        # Fingerprint over the canonical task payloads: a checkpoint or a
        # spooled summary written for a different plan (other spec / shards /
        # seeds) must not be silently merged into this one.
        bare_payloads = [
            encode_task(shard_id, task, dataset_ref)
            for shard_id, task in enumerate(self.tasks)
        ]
        digest = sha256()
        for payload in bare_payloads:
            digest.update(payload)
        self.plan_fingerprint = digest.hexdigest()[:16]
        # Published payloads carry the fingerprint; workers echo it in their
        # summaries so stale results in a reused queue are recognizable.
        self._payloads = [
            encode_task(shard_id, task, dataset_ref, plan=self.plan_fingerprint)
            for shard_id, task in enumerate(self.tasks)
        ]
        # The legacy plain-int attributes above stay the programmatic API;
        # these mirror them into the process-global registry so a
        # --metrics-port scrape (and `repro-ldp status`) sees the fleet.
        registry = default_registry()
        self._m_published = registry.counter(
            "repro_coord_tasks_published_total", "Shard tasks published to the transport."
        )
        self._m_summaries = registry.counter(
            "repro_coord_summaries_total", "Shard summaries accepted (first delivery)."
        )
        self._m_duplicates = registry.counter(
            "repro_coord_duplicates_total", "Duplicate shard summaries dropped."
        )
        self._m_requeued = registry.counter(
            "repro_coord_tasks_requeued_total", "Shard tasks requeued after lease expiry."
        )
        self._m_republished = registry.counter(
            "repro_coord_tasks_republished_total",
            "Authentic payloads republished for shards the transport lost.",
        )
        self._m_foreign = registry.counter(
            "repro_coord_foreign_total", "Summaries of another collection plan dropped."
        )
        self._m_checkpoint_seconds = registry.histogram(
            "repro_coord_checkpoint_seconds", "Wall-clock latency of checkpoint writes."
        )
        self._g_shards_total = registry.gauge(
            "repro_coord_shards_total", "Shards in the collection plan."
        )
        self._g_shards_done = registry.gauge(
            "repro_coord_shards_done", "Shards with an accepted summary."
        )
        self._g_shards_pending = registry.gauge(
            "repro_coord_shards_pending", "Shards still awaiting a summary."
        )
        self._g_shards_total.set(self.n_shards)
        self._g_shards_done.set(0)
        self._g_shards_pending.set(self.n_shards)

    # ------------------------------------------------------------------ #
    # Progress
    # ------------------------------------------------------------------ #
    @property
    def n_shards(self) -> int:
        return len(self.tasks)

    @property
    def pending_shards(self) -> List[int]:
        """Shard ids without an accepted summary, in shard order."""
        return [i for i in range(self.n_shards) if i not in self.summaries]

    @property
    def is_complete(self) -> bool:
        return len(self.summaries) == self.n_shards

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def publish_pending(self) -> int:
        """Publish every shard not yet summarized; returns the count."""
        pending = self.pending_shards
        for shard_id in pending:
            self.transport.publish(self._envelope(shard_id))
        self._published = True
        if pending:
            self._m_published.inc(len(pending))
            emit_event(
                "tasks_published",
                component="coordinator",
                plan=self.plan_fingerprint,
                n_shards=len(pending),
            )
        return len(pending)

    def _envelope(self, shard_id: int) -> TaskEnvelope:
        """The authentic task envelope of one shard."""
        return TaskEnvelope(shard_id=shard_id, payload=self._payloads[shard_id])

    def absorb(self, shard_id: int, summary: ShardSummary) -> bool:
        """Accept one summary; returns ``False`` for duplicates.

        The first delivery of a shard id wins; duplicates (requeue races,
        retried workers, coordinator restarts over a persistent queue) are
        counted in :attr:`duplicates` and dropped, which keeps the
        aggregation exactly-once on top of at-least-once transports.
        """
        if not 0 <= shard_id < self.n_shards:
            raise TransportError(
                f"summary for unknown shard {shard_id} "
                f"(plan has {self.n_shards} shards)"
            )
        if shard_id in self.summaries:
            self.duplicates += 1
            self._m_duplicates.inc()
            return False
        expected_users = self.tasks[shard_id].stop - self.tasks[shard_id].start
        if summary.n_users != expected_users:
            raise TransportError(
                f"summary for shard {shard_id} covers {summary.n_users} users, "
                f"expected {expected_users}"
            )
        self.summaries[shard_id] = summary
        self._m_summaries.inc()
        self._g_shards_done.set(len(self.summaries))
        self._g_shards_pending.set(self.n_shards - len(self.summaries))
        if self.session is not None:
            self.session.absorb_summary(summary)
        if not self._restoring and self.checkpoint_path is not None:
            self.checkpoint(self.checkpoint_path)
        return True

    def step(self, timeout: float = 0.0) -> Optional[bool]:
        """Poll once: ``None`` if nothing arrived, else whether it was new."""
        envelope = self.transport.poll_summary(timeout)
        if envelope is None:
            return None
        shard_id, summary, plan = decode_summary(envelope.payload)
        if shard_id != envelope.shard_id:
            raise TransportError(
                f"envelope addressed to shard {envelope.shard_id} carries a "
                f"summary for shard {shard_id}"
            )
        if plan is not None and plan != self.plan_fingerprint:
            # A reused queue can still hold summaries of a *previous*
            # collection (other spec / seed / shard layout); merging one
            # would silently corrupt the estimates.  Drop it and count it.
            self.foreign += 1
            self._m_foreign.inc()
            return False
        return self.absorb(shard_id, summary)

    def drain(self, idle_timeout: float = 0.0) -> int:
        """Absorb summaries until none arrives for ``idle_timeout`` seconds."""
        absorbed = 0
        while not self.is_complete:
            accepted = self.step(idle_timeout)
            if accepted is None:
                break
            absorbed += int(accepted)
        return absorbed

    def run(
        self,
        timeout: Optional[float] = None,
        abort: Optional[Callable[[], Optional[str]]] = None,
    ) -> Dict[int, ShardSummary]:
        """Publish pending shards and poll until the collection completes.

        Requeues expired leases as it goes, and republishes the authentic
        payload of any pending shard the transport has lost track of (a task
        file deleted, or destroyed by a worker after failing payload
        verification — see :meth:`Transport.missing_tasks`); raises
        :class:`CoordinatorTimeout` if ``timeout`` (wall-clock seconds)
        elapses first.  ``abort`` is polled every loop iteration; a
        non-``None`` string aborts the run with that reason (the hook for
        "every local worker died" — see
        :meth:`repro.distributed.worker.LocalWorkerPool.failure_reason` —
        so a coordinator does not poll an abandoned queue forever).
        """
        if not self._published:
            self.publish_pending()
        deadline = time.monotonic() + timeout if timeout is not None else None
        # Reclaim often enough to notice a dead worker well within one lease,
        # but never busier than the poll loop itself.
        reclaim_interval = max(self.poll_interval, self.lease_timeout / 4.0)
        next_reclaim = time.monotonic() + reclaim_interval
        while not self.is_complete:
            self.step(self.poll_interval)
            now = time.monotonic()
            if now >= next_reclaim:
                expired = self.transport.reclaim_expired(self.lease_timeout)
                if expired:
                    self.requeued += len(expired)
                    self._m_requeued.inc(len(expired))
                    emit_event(
                        "lease_requeue",
                        component="coordinator",
                        shards=sorted(int(s) for s in expired),
                        lease_timeout=self.lease_timeout,
                    )
                # A pending shard the transport has lost track of entirely
                # (e.g. a task file destroyed after failing verification)
                # would hang the collection; republish the authentic copy.
                for shard_id in self.transport.missing_tasks(self.pending_shards):
                    self.transport.publish(self._envelope(shard_id))
                    self.republished += 1
                    self._m_republished.inc()
                    emit_event(
                        "task_republished", component="coordinator", shard_id=shard_id
                    )
                next_reclaim = now + reclaim_interval
            if abort is not None and not self.is_complete:
                reason = abort()
                if reason is not None:
                    raise ExperimentError(
                        f"collection aborted with {len(self.pending_shards)} of "
                        f"{self.n_shards} shards missing: {reason}"
                    )
            if deadline is not None and now >= deadline:
                raise CoordinatorTimeout(
                    f"collection incomplete after {timeout}s: "
                    f"{len(self.pending_shards)} of {self.n_shards} shards missing"
                )
        emit_event(
            "collection_complete",
            component="coordinator",
            plan=self.plan_fingerprint,
            n_shards=self.n_shards,
            requeued=self.requeued,
            republished=self.republished,
            duplicates=self.duplicates,
            foreign=self.foreign,
        )
        return dict(self.summaries)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def ordered_summaries(self) -> List[ShardSummary]:
        """All summaries in shard order; raises while incomplete."""
        if not self.is_complete:
            raise ExperimentError(
                f"collection incomplete: shards {self.pending_shards} missing"
            )
        return [self.summaries[i] for i in range(self.n_shards)]

    def merged_sink(self) -> ShardedSink:
        """Fold the summaries in shard order (bit-identical to serial)."""
        sink = ShardedSink()
        for summary in self.ordered_summaries():
            sink.absorb(summary)
        return sink

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #
    def progress_summary(self) -> Dict[str, object]:
        """Machine-readable progress of the collection, for checkpoints
        and the ``repro-ldp status`` spool fallback."""
        done = len(self.summaries)
        return {
            "n_shards": self.n_shards,
            "done": done,
            "pending": self.n_shards - done,
            "duplicates": self.duplicates,
            "requeued": self.requeued,
            "republished": self.republished,
            "foreign": self.foreign,
            "updated_ts": time.time(),
        }

    def checkpoint(self, path: Union[str, Path]) -> Path:
        """Atomically persist every accepted summary as one ``.npz`` file."""
        started = time.perf_counter()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {
            "format": _CHECKPOINT_FORMAT,
            "plan_fingerprint": self.plan_fingerprint,
            "n_shards": self.n_shards,
            "completed": sorted(self.summaries),
            # Ignored by load_checkpoint; read by `repro-ldp status` when no
            # metrics port is up.
            "progress": self.progress_summary(),
        }
        arrays: Dict[str, np.ndarray] = {"meta": np.array(json.dumps(meta))}
        for shard_id, summary in self.summaries.items():
            arrays[f"counts_{shard_id}"] = summary.support_counts
            arrays[f"distinct_{shard_id}"] = summary.distinct_memoized_per_user
        written = atomic_write_bytes(
            path, lambda handle: np.savez_compressed(handle, **arrays)
        )
        self._m_checkpoint_seconds.observe(time.perf_counter() - started)
        return written

    def load_checkpoint(self, path: Optional[Union[str, Path]] = None) -> int:
        """Restore previously accepted summaries; returns how many.

        Refuses checkpoints written for a different plan (spec, shard count
        or seeds) via the plan fingerprint.  A file that cannot be decoded
        (truncated, bit-flipped, or listing a shard outside the plan) raises
        :class:`~repro.exceptions.ExperimentError` naming the path, and
        nothing is restored.  Restored summaries are streamed into the
        session exactly like live arrivals, so a resumed collection
        continues from identical state.
        """
        path = Path(path) if path is not None else self.checkpoint_path
        if path is None:
            raise ExperimentError("no checkpoint path configured")
        if not path.exists():
            return 0
        summaries = self._read_checkpoint(path)
        restored = 0
        # Suppress the per-summary checkpoint rewrite while restoring — the
        # file already holds exactly this state.
        self._restoring = True
        try:
            for shard_id, summary in summaries.items():
                if self.absorb(shard_id, summary):
                    restored += 1
        finally:
            self._restoring = False
        return restored

    def _read_checkpoint(self, path: Path) -> Dict[int, ShardSummary]:
        """Decode and validate every summary of a checkpoint file."""
        if not zipfile.is_zipfile(path):
            # np.load would blame pickled data for any non-zip file.
            raise ExperimentError(
                f"corrupt coordinator checkpoint {path}: not an .npz archive"
            )
        try:
            # np.load(path) leaves the file open when the archive is corrupt.
            with open(path, "rb") as handle, np.load(
                handle, allow_pickle=False
            ) as archive:
                meta = json.loads(str(archive["meta"][()]))
                if meta.get("format") != _CHECKPOINT_FORMAT:
                    raise ExperimentError(
                        f"checkpoint {path} has unsupported coordinator "
                        f"checkpoint format {meta.get('format')!r}"
                    )
                if meta.get("plan_fingerprint") != self.plan_fingerprint:
                    raise ExperimentError(
                        f"checkpoint {path} belongs to a different collection "
                        f"plan (fingerprint {meta.get('plan_fingerprint')!r} "
                        f"!= {self.plan_fingerprint!r}); refusing to merge it"
                    )
                if int(meta.get("n_shards", -1)) != self.n_shards:
                    raise ExperimentError(
                        f"checkpoint {path} has {meta.get('n_shards')} shards, "
                        f"plan has {self.n_shards}"
                    )
                summaries: Dict[int, ShardSummary] = {}
                for shard_id in meta.get("completed", []):
                    shard_id = int(shard_id)
                    if not 0 <= shard_id < self.n_shards:
                        raise ExperimentError(
                            f"checkpoint {path} lists shard {shard_id}, outside "
                            f"the plan's {self.n_shards} shards"
                        )
                    task = self.tasks[shard_id]
                    summaries[shard_id] = ShardSummary(
                        support_counts=archive[f"counts_{shard_id}"],
                        distinct_memoized_per_user=archive[f"distinct_{shard_id}"],
                        n_users=int(task.stop - task.start),
                    )
        except ExperimentError:
            raise
        except Exception as error:  # zipfile/zlib/EOF/KeyError/ValueError: corrupt
            raise ExperimentError(
                f"corrupt coordinator checkpoint {path}: "
                f"{type(error).__name__}: {error}"
            ) from None
        return summaries
