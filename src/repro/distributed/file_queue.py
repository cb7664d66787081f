"""Crash-safe file-spool transport.

The queue is a directory tree shared between the coordinator and any number
of worker processes (same host, or any shared filesystem)::

    <queue_dir>/
        tasks/      task-<shard>.json      claimable work
        claims/     task-<shard>.json      claimed work (mtime = lease start)
        summaries/  summary-<shard>.npz    completed results
        tmp/                               staging for atomic publishes

Every state transition is a single ``os.replace``/``os.rename`` within the
queue directory, which POSIX guarantees to be atomic:

* **publish** writes the payload to ``tmp/`` and renames it into ``tasks/``
  — a reader never observes a half-written task;
* **claim** renames ``tasks/x`` to ``claims/x`` — exactly one of several
  racing workers wins (the losers see ``FileNotFoundError`` and move on);
* **complete** writes the summary to ``tmp/`` and renames it into
  ``summaries/`` — a worker SIGKILLed mid-write leaves only a stale temp
  file, never a torn summary;
* **reclaim** renames an expired ``claims/x`` back to ``tasks/x``.

A worker killed at *any* instant therefore leaves the queue in one of two
recoverable states: its task still sits in ``claims/`` (requeued after the
lease expires) or its summary already landed in ``summaries/`` (the shard is
simply done).  The lease clock is the claim file's mtime, refreshed by the
claiming worker via :func:`os.utime`.

Scanning is **snapshot-diffed**, not repeated: every rename into (or out
of) a spool directory bumps that directory's own mtime, so both endpoints
stat the directory first and skip the listing entirely while the mtime is
unchanged — the common poll-loop case.  When it has changed, the
coordinator takes one :func:`os.scandir` snapshot of ``summaries/`` (the
``DirEntry`` stat results come for free) and diffs it against the
``(mtime_ns, size)`` signatures it has already delivered or rejected, so a
collection with thousands of spooled summaries no longer re-stats every
file on every 20 ms poll.

With ``auth=`` (a :class:`~repro.distributed.auth.PayloadAuthenticator`)
task files are signed by the coordinator and verified by the claiming
worker, and summary files are signed by the worker and verified by the
coordinator's scan — the defense for queue directories on a filesystem
other parties can write to.  A file that fails verification is rejected and
counted (:attr:`FileQueueTransport.rejected` /
:attr:`FileQueueWorker.rejected`), never executed or absorbed: a bad
summary's shard recovers through the lease-expiry requeue, and a bad task
file is unlinked by the worker and republished from the coordinator's
authentic copy (see :meth:`FileQueueTransport.missing_tasks`).
"""

from __future__ import annotations

import os
import time
import uuid
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..obs.metrics import default_registry
from .auth import AuthenticationError, PayloadAuthenticator
from .codec import TransportError
from .transports import SummaryEnvelope, TaskEnvelope, Transport, WorkerEndpoint

__all__ = ["FileQueueTransport", "FileQueueWorker"]

_TASK_PREFIX = "task-"
_SUMMARY_PREFIX = "summary-"

#: ``(mtime_ns, size)`` of one spooled file version.
_FileSignature = Tuple[int, int]

#: The mtime gates only trust an *unchanged* directory mtime once it is
#: this much older than the wall clock: on filesystems with coarse
#: timestamps (1 s on HFS+, jiffies on older Linux kernels) two renames
#: inside one timestamp tick are indistinguishable, so a recent mtime may
#: still be hiding a change.
_DIR_MTIME_TRUST_NS = 2_000_000_000

#: Unconditional rescan interval: even a trusted-looking mtime (e.g. under
#: NFS clock skew) never suppresses listings for longer than this.
_FORCED_RESCAN_NS = 5_000_000_000


def _skip_scan(cached_mtime_ns: int, dir_mtime_ns: int, last_scan_ns: int) -> bool:
    """Whether an unchanged directory mtime justifies skipping the listing."""
    now_ns = time.time_ns()
    return (
        dir_mtime_ns == cached_mtime_ns
        and now_ns - dir_mtime_ns > _DIR_MTIME_TRUST_NS
        and now_ns - last_scan_ns < _FORCED_RESCAN_NS
    )


def _shard_from_name(name: str, prefix: str, suffix: str) -> Optional[int]:
    if not (name.startswith(prefix) and name.endswith(suffix)):
        return None
    try:
        return int(name[len(prefix) : -len(suffix)])
    except ValueError:
        return None


class _QueueLayout:
    """Shared directory layout helpers for both endpoints."""

    def __init__(self, queue_dir: Union[str, Path]) -> None:
        self.root = Path(queue_dir)
        self.tasks = self.root / "tasks"
        self.claims = self.root / "claims"
        self.summaries = self.root / "summaries"
        self.tmp = self.root / "tmp"
        try:
            for directory in (self.tasks, self.claims, self.summaries, self.tmp):
                directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            # Typically a queue path that names an existing file.
            raise TransportError(
                f"cannot use {self.root} as a queue directory: {error}"
            ) from None

    def task_name(self, shard_id: int) -> str:
        return f"{_TASK_PREFIX}{int(shard_id):06d}.json"

    def summary_name(self, shard_id: int) -> str:
        return f"{_SUMMARY_PREFIX}{int(shard_id):06d}.npz"

    def stage(self, name: str, payload: bytes) -> Path:
        """Write ``payload`` to a unique temp file and return its path."""
        staged = self.tmp / f"{name}.{os.getpid()}.{uuid.uuid4().hex}"
        # repro: allow[IO-ATOMIC] this IS the staging write; publish is a rename
        with staged.open("wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        return staged


class FileQueueTransport(Transport):
    """Coordinator endpoint of the file-spool queue."""

    def __init__(
        self,
        queue_dir: Union[str, Path],
        auth: Optional[PayloadAuthenticator] = None,
    ) -> None:
        self._layout = _QueueLayout(queue_dir)
        self._auth = auth
        #: shard id -> signature of the summary file last delivered.  Keyed
        #: on the file signature, not the shard id alone: a stale summary
        #: from a previous collection in a reused queue dir gets
        #: *overwritten* by the fresh worker result, and the replacement
        #: must be delivered again even though the shard id repeats.
        self._delivered: Dict[int, _FileSignature] = {}
        #: shard id -> signature of a summary file version that failed
        #: verification (counted once, then skipped until the file changes).
        self._rejected_signatures: Dict[int, _FileSignature] = {}
        #: Summary files dropped because their payload failed verification.
        self.rejected = 0
        self._m_rejected = default_registry().counter(
            "repro_transport_rejected_total",
            "Payloads dropped after failing verification, by transport and side.",
        ).labels(transport="file", side="coordinator")
        #: ``summaries/`` directory mtime at the last snapshot; while it is
        #: unchanged (and trustworthy — see :func:`_skip_scan`) no rename has
        #: touched the spool and the scan is skipped.
        self._summaries_dir_mtime_ns = -1
        self._last_summary_scan_ns = 0
        #: Snapshot entries not yet delivered, in shard order.
        self._deliverable: Deque[Tuple[int, str, _FileSignature]] = deque()

    @property
    def queue_dir(self) -> Path:
        return self._layout.root

    def publish(self, envelope: TaskEnvelope) -> None:
        layout = self._layout
        payload = envelope.payload
        if self._auth is not None:
            payload = self._auth.sign(payload)
        staged = layout.stage(layout.task_name(envelope.shard_id), payload)
        os.replace(staged, layout.tasks / layout.task_name(envelope.shard_id))

    def poll_summary(self, timeout: float = 0.0) -> Optional[SummaryEnvelope]:
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            envelope = self._scan_summaries()
            if envelope is not None:
                return envelope
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.02)

    def _scan_summaries(self) -> Optional[SummaryEnvelope]:
        envelope = self._pop_deliverable()
        if envelope is not None:
            return envelope
        layout = self._layout
        try:
            dir_stat = os.stat(layout.summaries)
        except FileNotFoundError:  # pragma: no cover - concurrent cleanup
            return None
        if _skip_scan(
            self._summaries_dir_mtime_ns,
            dir_stat.st_mtime_ns,
            self._last_summary_scan_ns,
        ):
            return None  # no rename has touched the spool since the snapshot
        # Record the mtime read *before* the snapshot: a rename landing while
        # we scan bumps it again, forcing the next poll to re-snapshot, so a
        # file the scan raced past is never lost.
        self._summaries_dir_mtime_ns = dir_stat.st_mtime_ns
        self._last_summary_scan_ns = time.time_ns()
        fresh: List[Tuple[int, str, _FileSignature]] = []
        with os.scandir(layout.summaries) as entries:
            for entry in entries:
                shard_id = _shard_from_name(entry.name, _SUMMARY_PREFIX, ".npz")
                if shard_id is None:
                    continue
                try:
                    stat = entry.stat()
                except FileNotFoundError:  # pragma: no cover - concurrent cleanup
                    continue
                signature = (stat.st_mtime_ns, stat.st_size)
                if self._delivered.get(shard_id) == signature:
                    continue
                if self._rejected_signatures.get(shard_id) == signature:
                    continue
                fresh.append((shard_id, entry.name, signature))
        fresh.sort()
        self._deliverable.extend(fresh)
        return self._pop_deliverable()

    def _pop_deliverable(self) -> Optional[SummaryEnvelope]:
        while self._deliverable:
            shard_id, name, signature = self._deliverable.popleft()
            if self._delivered.get(shard_id) == signature:
                continue
            try:
                payload = (self._layout.summaries / name).read_bytes()
            except FileNotFoundError:  # pragma: no cover - concurrent cleanup
                continue
            if self._auth is not None:
                try:
                    payload = self._auth.verify(payload)
                except AuthenticationError:
                    # Reject and count this file version; the shard recovers
                    # through the lease-expiry requeue / task republish.
                    self.rejected += 1
                    self._m_rejected.inc()
                    self._rejected_signatures[shard_id] = signature
                    continue
            self._delivered[shard_id] = signature
            return SummaryEnvelope(shard_id=shard_id, payload=payload)
        return None

    def reclaim_expired(self, lease_timeout: float) -> List[int]:
        layout = self._layout
        now = time.time()
        reclaimed: List[int] = []
        for name in sorted(os.listdir(layout.claims)):
            shard_id = _shard_from_name(name, _TASK_PREFIX, ".json")
            if shard_id is None:
                continue
            try:
                claim_stat = os.stat(layout.claims / name)
            except FileNotFoundError:
                continue
            try:
                summary_stat = os.stat(
                    layout.summaries / layout.summary_name(shard_id)
                )
            except FileNotFoundError:
                summary_stat = None
            if (
                summary_stat is not None
                and summary_stat.st_mtime_ns >= claim_stat.st_mtime_ns
            ):
                # The claimant delivered (the summary postdates the lease
                # start): the claim is moot, drop it instead of requeueing.
                # An OLDER summary is stale spool content from a previous
                # collection and must not cancel a live claim.
                try:
                    os.unlink(layout.claims / name)
                except FileNotFoundError:
                    pass
                continue
            age = now - claim_stat.st_mtime
            if age < lease_timeout:
                continue
            try:
                os.rename(layout.claims / name, layout.tasks / name)
            except FileNotFoundError:  # pragma: no cover - lost a reclaim race
                continue
            reclaimed.append(shard_id)
        return reclaimed

    def missing_tasks(self, shard_ids: Sequence[int]) -> List[int]:
        """Shards whose task file vanished from the whole spool.

        A task file can disappear without a summary: an operator deleted it,
        or a worker destroyed its claim after the payload failed
        verification.  Such shards would otherwise hang the collection —
        neither claimable, nor leased, nor done — so the coordinator
        republishes its authentic copy of each one.  A summary file whose
        current version failed verification counts as *absent* here: its
        claim is already gone (the worker delivered before the tampering),
        so the republish path is the only way the shard can still recover.
        A shard mid-claim can transiently appear in neither directory; the
        resulting spurious republish at worst produces a duplicate summary,
        which the coordinator deduplicates.
        """
        layout = self._layout
        missing: List[int] = []
        for shard_id in shard_ids:
            task_name = layout.task_name(shard_id)
            if (layout.tasks / task_name).exists():
                continue
            if (layout.claims / task_name).exists():
                continue
            try:
                stat = os.stat(layout.summaries / layout.summary_name(shard_id))
            except FileNotFoundError:
                stat = None
            if stat is not None:
                signature = (stat.st_mtime_ns, stat.st_size)
                if self._rejected_signatures.get(shard_id) != signature:
                    continue  # a (so far) credible summary is on disk
            missing.append(shard_id)
        return missing

    def worker(self) -> "FileQueueWorker":
        return FileQueueWorker(self._layout.root, auth=self._auth)


class FileQueueWorker(WorkerEndpoint):
    """Worker endpoint of the file-spool queue.

    Construct directly with the shared queue directory — worker processes do
    not need (and must not share) the coordinator object.
    """

    def __init__(
        self,
        queue_dir: Union[str, Path],
        auth: Optional[PayloadAuthenticator] = None,
    ) -> None:
        self._layout = _QueueLayout(queue_dir)
        self._auth = auth
        #: ``tasks/`` directory mtime after the last scan that found nothing
        #: claimable; while it is unchanged (and trustworthy — see
        #: :func:`_skip_scan`) the listing is skipped.
        self._idle_tasks_mtime_ns = -1
        self._last_task_scan_ns = 0
        #: Task files destroyed because their payload failed verification.
        self.rejected = 0
        self._m_rejected = default_registry().counter(
            "repro_transport_rejected_total",
            "Payloads dropped after failing verification, by transport and side.",
        ).labels(transport="file", side="worker")

    def claim(self, timeout: float = 0.0) -> Optional[TaskEnvelope]:
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            envelope = self._try_claim()
            if envelope is not None:
                return envelope
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.02)

    def _try_claim(self) -> Optional[TaskEnvelope]:
        layout = self._layout
        try:
            dir_stat = os.stat(layout.tasks)
        except FileNotFoundError:  # pragma: no cover - concurrent cleanup
            return None
        if _skip_scan(
            self._idle_tasks_mtime_ns, dir_stat.st_mtime_ns, self._last_task_scan_ns
        ):
            # No rename has touched tasks/ since the last empty scan, so
            # there is still nothing to claim — skip the listing.
            return None
        self._last_task_scan_ns = time.time_ns()
        for name in sorted(os.listdir(layout.tasks)):
            shard_id = _shard_from_name(name, _TASK_PREFIX, ".json")
            if shard_id is None:
                continue
            claimed_path = layout.claims / name
            try:
                os.rename(layout.tasks / name, claimed_path)
            except FileNotFoundError:
                continue  # another worker won this task's claim race
            try:
                os.utime(claimed_path)  # lease starts now, not at publish time
                payload = claimed_path.read_bytes()
            except FileNotFoundError:
                # Reclaimed from under us before the lease touch / read (the
                # file's pre-claim mtime already exceeded a tiny lease
                # timeout); treat as not claimed.
                continue
            if self._auth is not None:
                try:
                    payload = self._auth.verify(payload)
                except AuthenticationError:
                    # Never execute a tampered task.  Destroy the claim so it
                    # cannot loop through requeues; the coordinator notices
                    # the vanished shard and republishes its authentic copy.
                    self.rejected += 1
                    self._m_rejected.inc()
                    try:
                        os.unlink(claimed_path)
                    except FileNotFoundError:  # pragma: no cover
                        pass
                    continue
            return TaskEnvelope(shard_id=shard_id, payload=payload)
        # The scan came up empty: remember the pre-scan mtime so idle polls
        # stop listing the directory until a rename touches it again.
        self._idle_tasks_mtime_ns = dir_stat.st_mtime_ns
        return None

    def complete(self, shard_id: int, payload: bytes) -> None:
        layout = self._layout
        if self._auth is not None:
            payload = self._auth.sign(payload)
        name = layout.summary_name(shard_id)
        staged = layout.stage(name, payload)
        os.replace(staged, layout.summaries / name)
        try:
            os.unlink(layout.claims / layout.task_name(shard_id))
        except FileNotFoundError:
            pass  # requeued meanwhile, or claimed by a later attempt
