"""Tests for the distributed collection subsystem.

Covers the wire codec, the two transports (in-process and file spool, the
latter with HMAC authentication on and off), payload tampering and weighted
sharding, the fault-tolerant coordinator — worker crash with lease-expiry
requeue, duplicate summary delivery, out-of-order arrival, vanished-task
republish, coordinator checkpoint/restore and corrupt checkpoints — the
``serve``/``work`` CLI with external worker processes, and the end-to-end
bit-identity of
``simulate_protocol_sharded(transport=...)`` against the serial path for a
one-shot (single-round) and a longitudinal workload.
"""

import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.distributed import (
    AuthenticationError,
    Coordinator,
    DatasetRef,
    FileQueueTransport,
    FileQueueWorker,
    InProcessTransport,
    PayloadAuthenticator,
    SummaryEnvelope,
    TaskEnvelope,
    TransportError,
    authenticator_from_env,
    decode_summary,
    decode_task,
    encode_summary,
    encode_task,
    local_worker_threads,
    run_worker,
)
from repro.exceptions import ExperimentError
from repro.service import CollectorSession
from repro.simulation.runner import (
    make_shard_tasks,
    result_from_summaries,
    run_shard_task,
    shard_boundaries,
    simulate_protocol_sharded,
)
from repro.specs import CollectionSpec, ProtocolSpec

LONGITUDINAL_SPEC = ProtocolSpec(name="L-OSUE", eps_inf=2.0, alpha=0.5)
ONESHOT_SPEC = ProtocolSpec(name="L-GRR", eps_inf=1.0, alpha=0.5)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

AUTH_KEY = PayloadAuthenticator(b"transport-test-secret")
OTHER_KEY = PayloadAuthenticator(b"a-different-secret")

#: Transport factories the contract suite runs over: the in-memory queue and
#: the file spool, with and without payload authentication.
TRANSPORT_MODES = {
    "inprocess": lambda path: InProcessTransport(),
    "file": lambda path: FileQueueTransport(path),
    "file-auth": lambda path: FileQueueTransport(path, auth=AUTH_KEY),
}


def _file_transport(tmp_path):
    return FileQueueTransport(tmp_path / "queue")


# --------------------------------------------------------------------- #
# Codec
# --------------------------------------------------------------------- #
class TestCodec:
    def test_task_round_trip(self, tiny_dataset):
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 3, rng=5)
        ref = DatasetRef(name="syn", scale=0.05, seed=7)
        payload = encode_task(1, tasks[1], ref)
        shard_id, decoded, decoded_ref, plan = decode_task(payload)
        assert shard_id == 1
        assert decoded.spec == tasks[1].spec
        assert (decoded.start, decoded.stop) == (tasks[1].start, tasks[1].stop)
        assert decoded.dataset_name == tiny_dataset.name
        assert decoded_ref == ref
        # The reconstructed seed drives a bit-identical stream.
        a = np.random.default_rng(tasks[1].seed).random(8)
        b = np.random.default_rng(decoded.seed).random(8)
        assert np.array_equal(a, b)

    def test_task_without_dataset_ref(self, tiny_dataset):
        task = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 2, rng=5)[0]
        _, _, ref, _ = decode_task(encode_task(0, task))
        assert ref is None

    def test_task_outside_initialized_pool_needs_dataset(self, tiny_dataset):
        task = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 2, rng=5)[0]
        with pytest.raises(ExperimentError, match="no dataset for shard task 'tiny'"):
            run_shard_task(task)

    def test_summary_round_trip(self, tiny_dataset):
        task = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 2, rng=5)[0]
        summary = run_shard_task(task, tiny_dataset)
        shard_id, decoded, _ = decode_summary(encode_summary(0, summary))
        assert shard_id == 0
        assert np.array_equal(decoded.support_counts, summary.support_counts)
        assert np.array_equal(
            decoded.distinct_memoized_per_user, summary.distinct_memoized_per_user
        )
        assert decoded.n_users == summary.n_users

    def test_decode_rejects_garbage(self):
        with pytest.raises(TransportError, match="malformed task"):
            decode_task(b"not json")
        with pytest.raises(TransportError, match="not a shard task"):
            decode_task(b'{"kind": "something-else"}')
        with pytest.raises(TransportError, match="malformed summary"):
            decode_summary(b"not a zip archive")


# --------------------------------------------------------------------- #
# Transport contract (shared behaviours)
# --------------------------------------------------------------------- #
class TestTransportContract:
    @pytest.fixture(params=sorted(TRANSPORT_MODES))
    def endpoints(self, request, tmp_path):
        """One transport plus a matching worker factory, per mode."""
        transport = TRANSPORT_MODES[request.param](tmp_path / "queue")
        yield transport, transport.worker
        transport.close()

    def test_publish_claim_complete_poll(self, endpoints, tiny_dataset):
        transport, make_worker = endpoints
        task = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 2, rng=5)[0]
        payload = encode_task(0, task)
        transport.publish(TaskEnvelope(shard_id=0, payload=payload))
        worker = make_worker()
        try:
            envelope = worker.claim(timeout=5.0)
            assert envelope is not None and envelope.shard_id == 0
            # Auth wrapping is transparent: endpoints hand out bare payloads.
            assert envelope.payload == payload
            summary = run_shard_task(decode_task(envelope.payload)[1], tiny_dataset)
            worker.complete(0, encode_summary(0, summary))
            received = transport.poll_summary(timeout=5.0)
            assert received is not None and received.shard_id == 0
            assert decode_summary(received.payload)[0] == 0
        finally:
            worker.close()

    def test_claim_times_out_when_empty(self, endpoints):
        transport, make_worker = endpoints
        worker = make_worker()
        try:
            assert worker.claim(timeout=0.05) is None
        finally:
            worker.close()

    def test_abandoned_claim_is_reclaimed(self, endpoints, tiny_dataset):
        transport, make_worker = endpoints
        task = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 2, rng=5)[0]
        transport.publish(TaskEnvelope(shard_id=0, payload=encode_task(0, task)))
        doomed = make_worker()
        assert doomed.claim(timeout=5.0) is not None
        # The worker dies without completing; nothing is claimable ...
        second = make_worker()
        try:
            assert second.claim(timeout=0.05) is None
            # ... until the lease expires and the shard is requeued.
            time.sleep(0.05)
            reclaimed = transport.reclaim_expired(lease_timeout=0.01)
            assert reclaimed == [0]
            envelope = second.claim(timeout=5.0)
            assert envelope is not None and envelope.shard_id == 0
        finally:
            doomed.close()
            second.close()

    def test_end_to_end_bit_identity(self, endpoints, tiny_dataset):
        """Every transport mode reproduces the serial estimates bit for bit."""
        transport, make_worker = endpoints
        serial = simulate_protocol_sharded(
            LONGITUDINAL_SPEC, tiny_dataset, n_shards=3, rng=9
        )
        coordinator = Coordinator(
            make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 3, rng=9),
            transport,
            lease_timeout=10.0,
        )
        coordinator.publish_pending()
        worker = make_worker()
        try:
            run_worker(worker, dataset=tiny_dataset, max_tasks=3, idle_timeout=5.0)
        finally:
            worker.close()
        coordinator.drain(idle_timeout=2.0)
        assert coordinator.is_complete
        result = result_from_summaries(
            LONGITUDINAL_SPEC, tiny_dataset, coordinator.ordered_summaries()
        )
        assert np.array_equal(result.estimates, serial.estimates)


# --------------------------------------------------------------------- #
# Payload authentication
# --------------------------------------------------------------------- #
class TestAuthentication:
    def test_sign_verify_round_trip(self):
        payload = b'{"shard": 1}'
        blob = AUTH_KEY.sign(payload)
        assert blob != payload
        assert AUTH_KEY.verify(blob) == payload

    def test_every_flipped_byte_is_rejected(self):
        """Tampering with any byte of a signed frame — magic, tag or payload
        — must fail verification."""
        blob = AUTH_KEY.sign(b"payload-bytes")
        for position in range(len(blob)):
            tampered = bytearray(blob)
            tampered[position] ^= 0x01
            with pytest.raises(AuthenticationError):
                AUTH_KEY.verify(bytes(tampered))

    def test_unsigned_and_wrong_key_rejected(self):
        with pytest.raises(AuthenticationError, match="not signed"):
            AUTH_KEY.verify(b'{"kind": "repro-shard-task"}')
        with pytest.raises(AuthenticationError, match="does not verify"):
            AUTH_KEY.verify(OTHER_KEY.sign(b"payload"))

    def test_authenticator_from_env(self, monkeypatch):
        assert authenticator_from_env(None) is None
        monkeypatch.delenv("REPRO_TEST_AUTH_KEY", raising=False)
        with pytest.raises(TransportError, match="is not set"):
            authenticator_from_env("REPRO_TEST_AUTH_KEY")
        monkeypatch.setenv("REPRO_TEST_AUTH_KEY", "sekrit")
        auth = authenticator_from_env("REPRO_TEST_AUTH_KEY")
        assert auth.verify(auth.sign(b"x")) == b"x"

    def test_tampered_summary_file_rejected_and_counted(
        self, queue_dir, tiny_dataset
    ):
        """Flip one byte of a signed summary on disk: the scan rejects it,
        counts it and the collection recovers through a clean redelivery."""
        transport = FileQueueTransport(queue_dir, auth=AUTH_KEY)
        task = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 2, rng=5)[0]
        transport.publish(TaskEnvelope(shard_id=0, payload=encode_task(0, task)))
        worker = transport.worker()
        envelope = worker.claim(timeout=5.0)
        summary = run_shard_task(decode_task(envelope.payload)[1], tiny_dataset)
        worker.complete(0, encode_summary(0, summary))

        summary_path = queue_dir / "summaries" / "summary-000000.npz"
        tampered = bytearray(summary_path.read_bytes())
        tampered[len(tampered) // 2] ^= 0xFF
        summary_path.write_bytes(bytes(tampered))

        assert transport.poll_summary(timeout=0.2) is None
        assert transport.rejected == 1
        # Each bad file version is counted once, not once per poll.
        assert transport.poll_summary(timeout=0.2) is None
        assert transport.rejected == 1

        # An honest worker redelivers; the replacement file verifies.
        worker.complete(0, encode_summary(0, summary))
        received = transport.poll_summary(timeout=5.0)
        assert received is not None and received.shard_id == 0
        assert decode_summary(received.payload)[0] == 0

    def test_tampered_task_file_rejected_and_republished(
        self, queue_dir, tiny_dataset
    ):
        """Flip one byte of a signed task file: the worker refuses to execute
        it, destroys the claim, and the coordinator republishes its authentic
        copy — the run completes bit-identical, nothing crashes."""
        serial = simulate_protocol_sharded(
            LONGITUDINAL_SPEC, tiny_dataset, n_shards=3, rng=9
        )
        transport = FileQueueTransport(queue_dir, auth=AUTH_KEY)
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 3, rng=9)
        coordinator = Coordinator(
            tasks, transport, lease_timeout=0.5, poll_interval=0.02
        )
        coordinator.publish_pending()
        task_path = queue_dir / "tasks" / "task-000001.json"
        tampered = bytearray(task_path.read_bytes())
        tampered[40] ^= 0xFF
        task_path.write_bytes(bytes(tampered))

        with local_worker_threads(transport, 2, dataset=tiny_dataset) as pool:
            coordinator.run(timeout=60.0, abort=pool.failure_reason)
        assert coordinator.republished >= 1
        result = result_from_summaries(
            LONGITUDINAL_SPEC, tiny_dataset, coordinator.ordered_summaries()
        )
        assert np.array_equal(result.estimates, serial.estimates)

    def test_summary_tampered_after_delivery_is_republished(
        self, queue_dir, tiny_dataset
    ):
        """The nastiest tamper timing: the worker already delivered (its
        claim is unlinked) and *then* the spooled summary is corrupted.
        With no claim to lease-expire, only the missing-task republish can
        recover the shard — the run must still complete bit-identical."""
        serial = simulate_protocol_sharded(
            LONGITUDINAL_SPEC, tiny_dataset, n_shards=2, rng=9
        )
        transport = FileQueueTransport(queue_dir, auth=AUTH_KEY)
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 2, rng=9)
        coordinator = Coordinator(
            tasks, transport, lease_timeout=0.5, poll_interval=0.02
        )
        coordinator.publish_pending()
        worker = transport.worker()
        envelope = worker.claim(timeout=5.0)
        summary = run_shard_task(decode_task(envelope.payload)[1], tiny_dataset)
        worker.complete(envelope.shard_id, encode_summary(envelope.shard_id, summary))
        summary_path = (
            queue_dir / "summaries" / f"summary-{envelope.shard_id:06d}.npz"
        )
        tampered = bytearray(summary_path.read_bytes())
        tampered[-1] ^= 0xFF
        summary_path.write_bytes(bytes(tampered))

        with local_worker_threads(transport, 1, dataset=tiny_dataset) as pool:
            coordinator.run(timeout=60.0, abort=pool.failure_reason)
        assert transport.rejected >= 1
        assert coordinator.republished >= 1
        result = result_from_summaries(
            LONGITUDINAL_SPEC, tiny_dataset, coordinator.ordered_summaries()
        )
        assert np.array_equal(result.estimates, serial.estimates)


# --------------------------------------------------------------------- #
# Weighted sharding
# --------------------------------------------------------------------- #
class TestWeightedSharding:
    def test_boundaries_track_weights(self):
        boundaries = shard_boundaries(100, 4, weights=[1.0, 1.0, 1.0, 1.0])
        assert np.array_equal(boundaries, [0, 25, 50, 75, 100])
        boundaries = shard_boundaries(100, 2, weights=[3.0, 1.0])
        assert np.array_equal(boundaries, [0, 75, 100])

    def test_every_shard_keeps_at_least_one_user(self):
        """Extreme weight ratios must not round a shard down to empty."""
        boundaries = shard_boundaries(10, 3, weights=[1e6, 1.0, 1e6])
        assert np.all(np.diff(boundaries) >= 1)
        assert boundaries[0] == 0 and boundaries[-1] == 10
        boundaries = shard_boundaries(5, 5, weights=[1e9, 1.0, 1.0, 1.0, 1e9])
        assert np.array_equal(np.diff(boundaries), [1, 1, 1, 1, 1])

    def test_invalid_weights_rejected(self):
        with pytest.raises(ExperimentError, match="one weight per shard"):
            shard_boundaries(10, 3, weights=[1.0, 2.0])
        with pytest.raises(ExperimentError, match="positive and finite"):
            shard_boundaries(10, 2, weights=[1.0, 0.0])
        with pytest.raises(ExperimentError, match="positive and finite"):
            shard_boundaries(10, 2, weights=[1.0, float("nan")])

    @pytest.mark.parametrize(
        "spec_name", ["longitudinal", "oneshot"], ids=["L-OSUE", "L-GRR-oneshot"]
    )
    @pytest.mark.parametrize("weights", [(3.0, 1.0, 2.0, 0.5), (1.0, 10.0, 1.0, 1.0)])
    def test_weighted_split_bit_identical_to_serial(
        self, spec_name, weights, tmp_path, tiny_dataset, oneshot_dataset
    ):
        """Acceptance: any weight vector, distributed == serial, bit for bit."""
        if spec_name == "longitudinal":
            spec, dataset = LONGITUDINAL_SPEC, tiny_dataset
        else:
            spec, dataset = ONESHOT_SPEC, oneshot_dataset
        serial = simulate_protocol_sharded(
            spec, dataset, n_shards=4, rng=9, weights=weights
        )
        transport = _file_transport(tmp_path)
        try:
            distributed = simulate_protocol_sharded(
                spec, dataset, n_shards=4, rng=9, n_workers=2,
                transport=transport, weights=weights,
            )
        finally:
            transport.close()
        assert np.array_equal(distributed.estimates, serial.estimates)
        assert distributed.mse_avg == serial.mse_avg
        assert distributed.eps_avg == serial.eps_avg


class TestFileQueueDetails:
    @pytest.mark.parametrize("endpoint", [FileQueueTransport, FileQueueWorker])
    def test_queue_dir_naming_a_file_is_refused(self, endpoint, tmp_path):
        not_a_dir = tmp_path / "queue.txt"
        not_a_dir.write_text("a file, not a spool directory")
        with pytest.raises(TransportError, match="cannot use .* as a queue directory"):
            endpoint(not_a_dir)

    def test_concurrent_workers_claim_distinct_tasks(self, tmp_path, tiny_dataset):
        transport = _file_transport(tmp_path)
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 4, rng=5)
        for shard_id, task in enumerate(tasks):
            transport.publish(
                TaskEnvelope(shard_id=shard_id, payload=encode_task(shard_id, task))
            )
        first = FileQueueWorker(tmp_path / "queue")
        second = FileQueueWorker(tmp_path / "queue")
        claimed = {first.claim(0.1).shard_id, second.claim(0.1).shard_id,
                   first.claim(0.1).shard_id, second.claim(0.1).shard_id}
        assert claimed == {0, 1, 2, 3}

    def test_staged_files_are_invisible_to_claims(self, tmp_path, tiny_dataset):
        """A torn (half-written) publish must never be claimable."""
        transport = _file_transport(tmp_path)
        queue_dir = tmp_path / "queue"
        (queue_dir / "tmp" / "task-000000.json.999.deadbeef").write_bytes(b"{half")
        worker = FileQueueWorker(queue_dir)
        assert worker.claim(timeout=0.05) is None

    def test_skip_scan_distrusts_fresh_and_stale_mtimes(self):
        """The mtime gate only skips listings for an unchanged mtime that is
        old enough to be past coarse-timestamp ambiguity, and never for
        longer than the forced-rescan interval."""
        from repro.distributed.file_queue import (
            _DIR_MTIME_TRUST_NS,
            _FORCED_RESCAN_NS,
            _skip_scan,
        )

        now = time.time_ns()
        old = now - 10 * _DIR_MTIME_TRUST_NS
        assert _skip_scan(old, old, now)  # unchanged, old, recently scanned
        assert not _skip_scan(old, old + 1, now)  # the directory changed
        # An unchanged-but-fresh mtime may hide a rename in the same coarse
        # filesystem timestamp tick: scan anyway.
        assert not _skip_scan(now, now, now)
        # Even a trusted-looking mtime never suppresses scans indefinitely.
        assert not _skip_scan(old, old, now - 2 * _FORCED_RESCAN_NS)

    def test_overwritten_summary_is_redelivered(self, queue_dir, tiny_dataset):
        """The snapshot diff keys on (mtime, size): rewriting a summary file
        (fresh result over a stale spool) must deliver the new version."""
        transport = FileQueueTransport(queue_dir)
        task = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 2, rng=5)[0]
        transport.publish(TaskEnvelope(shard_id=0, payload=encode_task(0, task)))
        worker = transport.worker()
        envelope = worker.claim(timeout=5.0)
        summary = run_shard_task(decode_task(envelope.payload)[1], tiny_dataset)
        worker.complete(0, encode_summary(0, summary, plan="old"))
        first = transport.poll_summary(timeout=5.0)
        assert decode_summary(first.payload)[2] == "old"
        # An idle spool polls to nothing (the mtime gate short-circuits)...
        assert transport.poll_summary(timeout=0.1) is None
        # ... until the file is replaced, which must be picked up again.
        worker.complete(0, encode_summary(0, summary, plan="new"))
        second = transport.poll_summary(timeout=5.0)
        assert second is not None and decode_summary(second.payload)[2] == "new"

    def test_missing_tasks_reports_only_vanished_shards(
        self, queue_dir, tiny_dataset
    ):
        """A shard is 'missing' only when it is in none of tasks/, claims/
        or summaries/ — claimed and completed shards are accounted for."""
        transport = FileQueueTransport(queue_dir)
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 3, rng=5)
        for shard_id, task in enumerate(tasks):
            transport.publish(
                TaskEnvelope(shard_id=shard_id, payload=encode_task(shard_id, task))
            )
        assert transport.missing_tasks([0, 1, 2]) == []
        worker = transport.worker()
        claimed = worker.claim(timeout=5.0)  # shard 0 moves to claims/
        assert claimed.shard_id == 0
        (queue_dir / "tasks" / "task-000001.json").unlink()  # shard 1 vanishes
        assert transport.missing_tasks([0, 1, 2]) == [1]
        summary = run_shard_task(decode_task(claimed.payload)[1], tiny_dataset)
        worker.complete(0, encode_summary(0, summary))  # shard 0 completes
        assert transport.missing_tasks([0, 1, 2]) == [1]

    def test_completed_shard_claim_is_dropped_not_requeued(
        self, tmp_path, tiny_dataset
    ):
        """A claim whose summary already landed must not resurrect the task."""
        transport = _file_transport(tmp_path)
        task = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 2, rng=5)[0]
        transport.publish(TaskEnvelope(shard_id=0, payload=encode_task(0, task)))
        worker = transport.worker()
        envelope = worker.claim(timeout=5.0)
        summary = run_shard_task(decode_task(envelope.payload)[1], tiny_dataset)
        payload = encode_summary(0, summary)
        # Simulate "summary delivered but claim file survived" (a crash
        # between the summary rename and the claim unlink).
        (queue_layout := transport._layout).summaries.joinpath(
            queue_layout.summary_name(0)
        ).write_bytes(payload)
        assert transport.reclaim_expired(lease_timeout=0.0) == []
        assert worker.claim(timeout=0.05) is None


# --------------------------------------------------------------------- #
# End-to-end bit-identity over every transport
# --------------------------------------------------------------------- #
class TestBitIdentity:
    @pytest.fixture(params=sorted(TRANSPORT_MODES))
    def make_transport(self, request, tmp_path):
        return lambda: TRANSPORT_MODES[request.param](tmp_path / "queue")

    @pytest.mark.parametrize(
        "spec_name", ["longitudinal", "oneshot"], ids=["L-OSUE", "L-GRR-oneshot"]
    )
    def test_transport_reproduces_serial_estimates(
        self, make_transport, spec_name, tiny_dataset, oneshot_dataset
    ):
        if spec_name == "longitudinal":
            spec, dataset = LONGITUDINAL_SPEC, tiny_dataset
        else:
            spec, dataset = ONESHOT_SPEC, oneshot_dataset
        serial = simulate_protocol_sharded(spec, dataset, n_shards=4, rng=9)
        transport = make_transport()
        try:
            distributed = simulate_protocol_sharded(
                spec, dataset, n_shards=4, rng=9, n_workers=2, transport=transport
            )
        finally:
            transport.close()
        assert np.array_equal(distributed.estimates, serial.estimates)
        assert np.array_equal(
            distributed.distinct_memoized_per_user, serial.distinct_memoized_per_user
        )
        assert distributed.mse_avg == serial.mse_avg
        assert distributed.eps_avg == serial.eps_avg

    def test_transport_requires_spec(self, tiny_dataset):
        from repro.registry import build_protocol

        protocol = build_protocol(LONGITUDINAL_SPEC.at(k=tiny_dataset.k))
        transport = InProcessTransport()
        try:
            with pytest.raises(ExperimentError, match="requires a ProtocolSpec"):
                simulate_protocol_sharded(
                    protocol, tiny_dataset, n_shards=2, rng=9, transport=transport
                )
        finally:
            transport.close()


# --------------------------------------------------------------------- #
# Failure modes
# --------------------------------------------------------------------- #
class TestFailureModes:
    @pytest.mark.parametrize("kind", sorted(TRANSPORT_MODES))
    def test_worker_crash_lease_expiry_requeue(self, kind, tmp_path, tiny_dataset):
        """A claimed-then-abandoned shard is requeued and the final estimates
        are bit-identical to the serial run — on every transport."""
        serial = simulate_protocol_sharded(
            LONGITUDINAL_SPEC, tiny_dataset, n_shards=4, rng=9
        )
        transport = TRANSPORT_MODES[kind](tmp_path / "queue")
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 4, rng=9)
        coordinator = Coordinator(tasks, transport, lease_timeout=0.1)
        coordinator.publish_pending()
        # A worker claims a shard and dies without completing it.
        doomed = transport.worker()
        assert doomed.claim(timeout=5.0) is not None
        with local_worker_threads(transport, 1, dataset=tiny_dataset):
            coordinator.run(timeout=30.0)
        doomed.close()
        transport.close()
        assert coordinator.requeued >= 1
        result = result_from_summaries(
            LONGITUDINAL_SPEC, tiny_dataset, coordinator.ordered_summaries()
        )
        assert np.array_equal(result.estimates, serial.estimates)
        assert result.eps_avg == serial.eps_avg

    def test_duplicate_summary_delivery_is_idempotent(self, tiny_dataset):
        serial = simulate_protocol_sharded(
            LONGITUDINAL_SPEC, tiny_dataset, n_shards=3, rng=9
        )
        transport = InProcessTransport()
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 3, rng=9)
        session = CollectorSession(
            LONGITUDINAL_SPEC.at(k=tiny_dataset.k), n_rounds=tiny_dataset.n_rounds
        )
        coordinator = Coordinator(tasks, transport, session=session)
        coordinator.publish_pending()
        worker = transport.worker()
        for _ in range(3):
            envelope = worker.claim(timeout=1.0)
            _, task, _, plan = decode_task(envelope.payload)
            payload = encode_summary(
                envelope.shard_id, run_shard_task(task, tiny_dataset)
            )
            worker.complete(envelope.shard_id, payload)
            if envelope.shard_id == 1:
                # At-least-once transport: the same summary lands twice.
                transport._summaries.append(
                    SummaryEnvelope(shard_id=1, payload=payload)
                )
        coordinator.run(timeout=30.0)
        transport.close()
        assert coordinator.duplicates == 1
        result = result_from_summaries(
            LONGITUDINAL_SPEC, tiny_dataset, coordinator.ordered_summaries()
        )
        assert np.array_equal(result.estimates, serial.estimates)
        # The streamed session saw each shard exactly once: with the full
        # population credited per round, its estimates equal the batch path.
        assert np.array_equal(
            session.estimates(), serial.estimates
        )

    def test_collector_restart_over_persistent_queue_dedups(
        self, tmp_path, tiny_dataset
    ):
        """A restarted collector re-scans the spool and sees every summary
        again; the checkpoint + shard-id dedup must absorb none twice."""
        serial = simulate_protocol_sharded(
            LONGITUDINAL_SPEC, tiny_dataset, n_shards=3, rng=9
        )
        checkpoint = tmp_path / "coordinator.npz"
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 3, rng=9)

        first = Coordinator(
            tasks, _file_transport(tmp_path), checkpoint_path=checkpoint
        )
        first.publish_pending()
        # Workers spool all three summaries, but the collector "crashes"
        # after absorbing (and checkpointing) only two of them.
        run_worker(
            first.transport.worker(), dataset=tiny_dataset,
            max_tasks=3, idle_timeout=0.5,
        )
        assert first.step(timeout=1.0) is True
        assert first.step(timeout=1.0) is True
        assert not first.is_complete
        first.transport.close()

        # Fresh coordinator over the SAME queue directory: every spooled
        # summary is re-delivered — two are duplicates, one is new.
        second = Coordinator(
            tasks, _file_transport(tmp_path), checkpoint_path=checkpoint
        )
        assert second.load_checkpoint() == 2
        assert second.drain(idle_timeout=0.2) == 1
        second.transport.close()
        assert second.is_complete
        assert second.duplicates == 2
        result = result_from_summaries(
            LONGITUDINAL_SPEC, tiny_dataset, second.ordered_summaries()
        )
        assert np.array_equal(result.estimates, serial.estimates)

    def test_stale_summaries_from_another_collection_are_dropped(
        self, tmp_path, tiny_dataset
    ):
        """Reusing a queue dir must not absorb summaries of a previous
        (different-spec) collection: workers echo the plan fingerprint and
        the coordinator drops foreign summaries."""
        # First collection fills queue/summaries with its results.
        old = Coordinator(
            make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 3, rng=1),
            _file_transport(tmp_path),
        )
        with local_worker_threads(old.transport, 1, dataset=tiny_dataset):
            old.run(timeout=30.0)
        old.transport.close()

        # Second collection, SAME queue dir, different seed (=> different
        # plan, identical shard layout — the dangerous case).
        serial = simulate_protocol_sharded(
            LONGITUDINAL_SPEC, tiny_dataset, n_shards=3, rng=2
        )
        new = Coordinator(
            make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 3, rng=2),
            _file_transport(tmp_path),
            lease_timeout=5.0,
        )
        with local_worker_threads(new.transport, 1, dataset=tiny_dataset):
            new.run(timeout=30.0)
        new.transport.close()
        assert new.foreign == 3  # the old spool re-delivered, all dropped
        result = result_from_summaries(
            LONGITUDINAL_SPEC, tiny_dataset, new.ordered_summaries()
        )
        assert np.array_equal(result.estimates, serial.estimates)

    def test_coordinator_aborts_when_all_local_workers_die(self, tiny_dataset):
        """A dead worker fleet must abort the run, not hang it forever."""
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 2, rng=9)
        transport = InProcessTransport()
        coordinator = Coordinator(tasks, transport, lease_timeout=0.1)

        def poisoned_run_shard(*args, **kwargs):
            raise RuntimeError("worker exploded")

        import repro.distributed.worker as worker_module

        original = worker_module.run_shard_task
        worker_module.run_shard_task = poisoned_run_shard
        try:
            with pytest.raises((ExperimentError, RuntimeError), match="exploded|aborted"):
                with local_worker_threads(transport, 1, dataset=tiny_dataset) as pool:
                    coordinator.run(timeout=30.0, abort=pool.failure_reason)
        finally:
            worker_module.run_shard_task = original
            transport.close()

    def test_out_of_order_arrival(self, tiny_dataset):
        """Summaries absorbed in reverse order still merge bit-identically."""
        serial = simulate_protocol_sharded(
            LONGITUDINAL_SPEC, tiny_dataset, n_shards=4, rng=9
        )
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 4, rng=9)
        transport = InProcessTransport()
        session = CollectorSession(
            LONGITUDINAL_SPEC.at(k=tiny_dataset.k), n_rounds=tiny_dataset.n_rounds
        )
        coordinator = Coordinator(tasks, transport, session=session)
        for shard_id in reversed(range(4)):
            coordinator.absorb(shard_id, run_shard_task(tasks[shard_id], tiny_dataset))
        transport.close()
        result = result_from_summaries(
            LONGITUDINAL_SPEC, tiny_dataset, coordinator.ordered_summaries()
        )
        assert np.array_equal(result.estimates, serial.estimates)
        assert np.array_equal(
            result.distinct_memoized_per_user, serial.distinct_memoized_per_user
        )
        assert np.array_equal(session.estimates(), serial.estimates)

    def test_absorb_rejects_unknown_shard_and_wrong_population(self, tiny_dataset):
        from repro.simulation.sinks import ShardSummary

        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 2, rng=9)
        transport = InProcessTransport()
        coordinator = Coordinator(tasks, transport)
        summary = run_shard_task(tasks[0], tiny_dataset)
        with pytest.raises(TransportError, match="unknown shard"):
            coordinator.absorb(7, summary)
        wrong_population = ShardSummary(
            support_counts=summary.support_counts,
            distinct_memoized_per_user=np.zeros(summary.n_users + 1, dtype=np.int64),
            n_users=summary.n_users + 1,
        )
        with pytest.raises(TransportError, match="users, expected"):
            coordinator.absorb(1, wrong_population)
        transport.close()


# --------------------------------------------------------------------- #
# Coordinator checkpoint / restore
# --------------------------------------------------------------------- #
class TestCoordinatorCheckpoint:
    def test_killed_collector_resumes_bit_identical(self, tmp_path, tiny_dataset):
        serial = simulate_protocol_sharded(
            LONGITUDINAL_SPEC, tiny_dataset, n_shards=4, rng=9
        )
        checkpoint = tmp_path / "coordinator.npz"
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 4, rng=9)

        # First collector: absorbs two shards, checkpoints, then "dies".
        first_transport = InProcessTransport()
        first = Coordinator(
            tasks, first_transport, checkpoint_path=checkpoint, lease_timeout=5.0
        )
        first.publish_pending()
        worker = first_transport.worker()
        run_worker(worker, dataset=tiny_dataset, max_tasks=2, idle_timeout=0.1)
        assert first.drain(idle_timeout=0.2) == 2
        assert checkpoint.exists() and not first.is_complete
        first_transport.close()

        # Second collector: restores, publishes only the missing shards.
        second_transport = InProcessTransport()
        second = Coordinator(
            tasks, second_transport, checkpoint_path=checkpoint, lease_timeout=5.0
        )
        assert second.load_checkpoint() == 2
        assert len(second.pending_shards) == 2
        with local_worker_threads(second_transport, 2, dataset=tiny_dataset):
            second.run(timeout=30.0)
        second_transport.close()

        result = result_from_summaries(
            LONGITUDINAL_SPEC, tiny_dataset, second.ordered_summaries()
        )
        assert np.array_equal(result.estimates, serial.estimates)
        assert np.array_equal(
            result.distinct_memoized_per_user, serial.distinct_memoized_per_user
        )

    def test_checkpoint_of_other_plan_is_refused(self, tmp_path, tiny_dataset):
        checkpoint = tmp_path / "coordinator.npz"
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 4, rng=9)
        transport = InProcessTransport()
        coordinator = Coordinator(tasks, transport, checkpoint_path=checkpoint)
        coordinator.absorb(0, run_shard_task(tasks[0], tiny_dataset))
        transport.close()

        other_tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 4, rng=10)
        other_transport = InProcessTransport()
        other = Coordinator(other_tasks, other_transport, checkpoint_path=checkpoint)
        with pytest.raises(ExperimentError, match="different collection plan"):
            other.load_checkpoint()
        other_transport.close()

    def test_missing_checkpoint_restores_nothing(self, tmp_path, tiny_dataset):
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 2, rng=9)
        transport = InProcessTransport()
        coordinator = Coordinator(
            tasks, transport, checkpoint_path=tmp_path / "absent.npz"
        )
        assert coordinator.load_checkpoint() == 0
        transport.close()


    @staticmethod
    def _full_checkpoint(path, dataset):
        """A checkpoint of a completed 3-shard collection, plus its tasks
        and summaries."""
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, dataset, 3, rng=9)
        transport = InProcessTransport()
        coordinator = Coordinator(tasks, transport, checkpoint_path=path)
        for shard_id, task in enumerate(tasks):
            coordinator.absorb(shard_id, run_shard_task(task, dataset))
        transport.close()
        return tasks, dict(coordinator.summaries)

    @staticmethod
    def _restore(tasks, path):
        """Load ``path`` into a fresh coordinator: ``(coordinator, error)``."""
        coordinator = Coordinator(tasks, InProcessTransport())
        try:
            coordinator.load_checkpoint(path)
        except ExperimentError as error:
            return coordinator, error
        return coordinator, None

    def test_truncated_checkpoint_raises_typed_error(self, tmp_path, tiny_dataset):
        """Every proper prefix of a checkpoint, down to the empty file, is
        refused with an ExperimentError naming the path; nothing restored."""
        checkpoint = tmp_path / "coordinator.npz"
        tasks, _ = self._full_checkpoint(checkpoint, tiny_dataset)
        blob = checkpoint.read_bytes()
        damaged = tmp_path / "truncated.npz"
        for size in range(len(blob)):
            damaged.write_bytes(blob[:size])
            coordinator, error = self._restore(tasks, damaged)
            assert error is not None, f"a {size}-byte prefix was accepted"
            assert str(damaged) in str(error)
            assert coordinator.summaries == {}

    def test_bit_flipped_checkpoint_is_refused_or_restored_exactly(
        self, tmp_path, tiny_dataset
    ):
        """Flip one bit in every byte of a checkpoint in turn: each load
        either raises an ExperimentError naming the path and restores
        nothing, or (a flip in bytes the zip format ignores) restores every
        summary exactly.  Never a raw library error, never altered data."""
        checkpoint = tmp_path / "coordinator.npz"
        tasks, expected = self._full_checkpoint(checkpoint, tiny_dataset)
        blob = checkpoint.read_bytes()
        damaged = tmp_path / "flipped.npz"
        refused = 0
        for position in range(len(blob)):
            flipped = bytearray(blob)
            flipped[position] ^= 0x01
            damaged.write_bytes(bytes(flipped))
            coordinator, error = self._restore(tasks, damaged)
            if error is not None:
                refused += 1
                assert str(damaged) in str(error)
                assert coordinator.summaries == {}
                continue
            assert sorted(coordinator.summaries) == [0, 1, 2]
            for shard_id, summary in expected.items():
                restored = coordinator.summaries[shard_id]
                assert np.array_equal(restored.support_counts, summary.support_counts)
                assert np.array_equal(
                    restored.distinct_memoized_per_user,
                    summary.distinct_memoized_per_user,
                )
        assert refused > len(blob) // 2

    @pytest.mark.parametrize(
        "content",
        [b'{"format": 1, "completed": [0]}', bytes(range(256)) * 4],
        ids=["json", "random-bytes"],
    )
    def test_non_zip_checkpoint_is_named_not_an_npz_archive(
        self, tmp_path, tiny_dataset, content
    ):
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 3, rng=9)
        checkpoint = tmp_path / "coordinator.npz"
        checkpoint.write_bytes(content)
        coordinator, error = self._restore(tasks, checkpoint)
        assert error is not None and "not an .npz archive" in str(error)
        assert str(checkpoint) in str(error)
        assert "pickle" not in str(error)
        assert coordinator.summaries == {}

    @staticmethod
    def _rewrite_meta(path, **changes):
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(str(arrays["meta"][()]))
        meta.update(changes)
        arrays["meta"] = np.array(json.dumps(meta))
        np.savez_compressed(path, **arrays)

    @pytest.mark.parametrize("shard_id", [-1, 3])
    def test_completed_shard_outside_plan_is_refused(
        self, shard_id, tmp_path, tiny_dataset
    ):
        checkpoint = tmp_path / "coordinator.npz"
        tasks, _ = self._full_checkpoint(checkpoint, tiny_dataset)
        self._rewrite_meta(checkpoint, completed=[0, shard_id])
        coordinator, error = self._restore(tasks, checkpoint)
        assert error is not None
        assert f"lists shard {shard_id}, outside the plan's 3 shards" in str(error)
        assert str(checkpoint) in str(error)
        assert coordinator.summaries == {}

    def test_checkpoint_missing_a_listed_shard_restores_nothing(
        self, tmp_path, tiny_dataset
    ):
        """A checkpoint whose meta lists a shard it holds no arrays for is
        corrupt as a whole: no earlier shard is absorbed before the error."""
        checkpoint = tmp_path / "coordinator.npz"
        tasks, _ = self._full_checkpoint(checkpoint, tiny_dataset)
        with np.load(checkpoint, allow_pickle=False) as archive:
            arrays = {
                name: archive[name] for name in archive.files if name != "counts_2"
            }
        np.savez_compressed(checkpoint, **arrays)
        coordinator, error = self._restore(tasks, checkpoint)
        assert error is not None and "corrupt coordinator checkpoint" in str(error)
        assert coordinator.summaries == {}


# --------------------------------------------------------------------- #
# Remote workers rebuild datasets from the registry reference
# --------------------------------------------------------------------- #
class TestDatasetRef:
    def test_worker_rebuilds_dataset_from_ref(self):
        from repro.datasets import make_dataset

        dataset = make_dataset("syn", scale=0.02, rng=21)
        serial = simulate_protocol_sharded(
            LONGITUDINAL_SPEC, dataset, n_shards=3, rng=9
        )
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, dataset, 3, rng=9)
        transport = InProcessTransport()
        ref = DatasetRef(name="syn", scale=0.02, seed=21)
        coordinator = Coordinator(tasks, transport, dataset_ref=ref)
        coordinator.publish_pending()
        # dataset=None: the worker must reconstruct the workload itself.
        run_worker(transport.worker(), dataset=None, max_tasks=3, idle_timeout=0.5)
        coordinator.drain(idle_timeout=0.5)
        transport.close()
        result = result_from_summaries(
            LONGITUDINAL_SPEC, dataset, coordinator.ordered_summaries()
        )
        assert np.array_equal(result.estimates, serial.estimates)

    def test_worker_without_dataset_or_ref_fails_loudly(self, tiny_dataset):
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 2, rng=9)
        transport = InProcessTransport()
        coordinator = Coordinator(tasks, transport)  # no dataset_ref
        coordinator.publish_pending()
        with pytest.raises(TransportError, match="no dataset reference"):
            run_worker(transport.worker(), dataset=None, max_tasks=1, idle_timeout=0.5)
        transport.close()


# --------------------------------------------------------------------- #
# CollectionSpec + serve/work CLI
# --------------------------------------------------------------------- #
class TestCollectionSpec:
    def test_round_trip(self):
        spec = CollectionSpec(
            protocol=ProtocolSpec(name="L-OSUE", eps_inf=2.0, alpha=0.5),
            dataset="syn",
            dataset_scale=0.05,
            n_shards=4,
            seed=99,
            name="demo",
        )
        assert CollectionSpec.from_json(spec.to_json()) == spec

    def test_rejects_template_without_budget(self):
        from repro.exceptions import ParameterError

        with pytest.raises(ParameterError, match="eps_inf"):
            CollectionSpec(protocol=ProtocolSpec(name="L-OSUE"))

    def test_rejects_unknown_fields(self):
        from repro.exceptions import ParameterError

        with pytest.raises(ParameterError, match="unknown collection spec"):
            CollectionSpec.from_dict({"protocol": {"name": "L-OSUE"}, "zap": 1})


def _cli_process(*argv, env=None):
    """Start ``repro-ldp ARGV`` as a separate Python process."""
    process_env = dict(os.environ if env is None else env)
    process_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)]
        + ([process_env["PYTHONPATH"]] if process_env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *map(str, argv)],
        env=process_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _wait_for_spooled_tasks(queue_dir, serve_process=None, timeout=60.0):
    """Block until the collector has published its first task file."""
    deadline = time.monotonic() + timeout
    while not list((queue_dir / "tasks").glob("task-*")):
        if serve_process is not None and serve_process.poll() is not None:
            pytest.fail(f"serve exited early: {serve_process.communicate()}")
        assert time.monotonic() < deadline, "serve never spooled a task"
        time.sleep(0.05)


class TestServeWorkCli:
    def test_serve_with_file_queue_and_cli_worker(
        self, tmp_path, capsys, write_collection_spec, queue_dir
    ):
        """serve + work over a spool dir, estimates bit-identical to serial."""
        from repro.cli import main
        from repro.datasets import make_dataset

        spec, spec_path = write_collection_spec(name="cli-test")
        estimates_path = tmp_path / "estimates.npz"

        worker = threading.Thread(
            target=main,
            args=(
                [
                    "work", "--queue-dir", str(queue_dir),
                    "--max-tasks", "3", "--idle-exit", "10",
                ],
            ),
            daemon=True,
        )
        worker.start()
        code = main(
            [
                "serve",
                "--spec", str(spec_path),
                "--queue-dir", str(queue_dir),
                "--lease-timeout", "10",
                "--save-estimates", str(estimates_path),
                "--timeout", "60",
            ]
        )
        worker.join(timeout=30)
        assert code == 0
        output = capsys.readouterr().out
        assert "collected 3 shards" in output

        dataset = make_dataset("syn", scale=0.02, rng=spec.seed)
        serial = simulate_protocol_sharded(
            spec.protocol, dataset, n_shards=3, rng=spec.seed
        )
        with np.load(estimates_path) as archive:
            assert np.array_equal(archive["estimates"], serial.estimates)
            assert float(archive["mse_avg"]) == serial.mse_avg

    @pytest.mark.parametrize("weights", [None, (2.0, 1.0, 3.0)], ids=["even", "weighted"])
    @pytest.mark.parametrize(
        "protocol",
        [LONGITUDINAL_SPEC, ProtocolSpec(name="L-GRR", eps_inf=1.0, alpha=0.5)],
        ids=["L-OSUE", "L-GRR"],
    )
    def test_serve_and_external_work_processes_bit_identical(
        self, protocol, weights, tmp_path, write_collection_spec, queue_dir
    ):
        """serve and two work processes, each its own interpreter, share
        only the spool directory; the saved estimates equal the serial
        path bit for bit, evenly and unevenly sharded."""
        from repro.datasets import make_dataset

        spec, spec_path = write_collection_spec(
            name="external-test", protocol=protocol, shard_weights=weights
        )
        estimates_path = tmp_path / "estimates.npz"
        serve = _cli_process(
            "serve", "--spec", spec_path, "--queue-dir", queue_dir,
            "--lease-timeout", "30", "--save-estimates", estimates_path,
            "--timeout", "120",
        )
        _wait_for_spooled_tasks(queue_dir, serve)
        workers = [
            _cli_process("work", "--queue-dir", queue_dir, "--idle-exit", "1")
            for _ in range(2)
        ]
        serve_out, serve_err = serve.communicate(timeout=180)
        assert serve.returncode == 0, serve_err
        assert "collected 3 shards" in serve_out
        completed = 0
        for worker in workers:
            out, err = worker.communicate(timeout=60)
            assert worker.returncode == 0, err
            completed += int(re.search(r"(\d+) shards completed", out).group(1))
        assert completed == spec.n_shards

        dataset = make_dataset("syn", scale=0.02, rng=spec.seed)
        serial = simulate_protocol_sharded(
            spec.protocol, dataset, n_shards=3, rng=spec.seed, weights=weights
        )
        with np.load(estimates_path) as archive:
            assert np.array_equal(archive["estimates"], serial.estimates)
            assert np.array_equal(
                archive["distinct_memoized_per_user"],
                serial.distinct_memoized_per_user,
            )
            assert float(archive["mse_avg"]) == serial.mse_avg
            assert float(archive["eps_avg"]) == serial.eps_avg

    def test_serve_checkpoint_restores_completed_collection(
        self, tmp_path, capsys, write_collection_spec, queue_dir
    ):
        """serve --checkpoint rewrites the .npz after every absorbed shard;
        a restarted service restores every summary from it and completes
        without any workers at all."""
        from repro.cli import main

        spec, spec_path = write_collection_spec(name="ckpt-test", n_shards=2)
        checkpoint = tmp_path / "ckpt.npz"
        base = [
            "serve",
            "--spec", str(spec_path),
            "--queue-dir", str(queue_dir),
            "--timeout", "60",
            "--checkpoint", str(checkpoint),
        ]
        assert main(base + ["--local-workers", "2"]) == 0
        assert "collected 2 shards" in capsys.readouterr().out
        assert checkpoint.exists()

        assert main(base + ["--local-workers", "0"]) == 0
        output = capsys.readouterr().out
        assert f"restored 2 shard summaries from {checkpoint}" in output
        assert "collected 2 shards" in output

    def test_authenticated_weighted_serve_rejects_wrong_key_worker(
        self, tmp_path, capsys, monkeypatch, write_collection_spec, queue_dir
    ):
        """An HMAC-authenticated weighted collection: a CLI worker holding
        the wrong key executes nothing, the collector republishes the task
        files it destroyed, and a worker with the right key finishes the
        collection bit-identical to the serial weighted plan."""
        from repro.cli import main
        from repro.datasets import make_dataset

        monkeypatch.setenv("REPRO_COLLECTION_KEY", "cli-shared-secret")
        monkeypatch.setenv("REPRO_WRONG_KEY", "not-the-secret")
        spec, spec_path = write_collection_spec(
            name="auth-test",
            shard_weights=(2.0, 1.0, 3.0),
            auth_key_env="REPRO_COLLECTION_KEY",
        )
        estimates_path = tmp_path / "estimates.npz"
        outcome = {}

        def serve():
            outcome["code"] = main(
                [
                    "serve",
                    "--spec", str(spec_path),
                    "--queue-dir", str(queue_dir),
                    "--lease-timeout", "2",
                    "--save-estimates", str(estimates_path),
                    "--timeout", "60",
                ]
            )

        serve_thread = threading.Thread(target=serve, daemon=True)
        serve_thread.start()
        _wait_for_spooled_tasks(queue_dir)
        intruder = [
            "work", "--queue-dir", str(queue_dir),
            "--auth-key-env", "REPRO_WRONG_KEY", "--idle-exit", "0.5",
        ]
        assert main(intruder) == 0
        honest = [
            "work", "--queue-dir", str(queue_dir),
            "--auth-key-env", "REPRO_COLLECTION_KEY",
            "--max-tasks", "3", "--idle-exit", "30",
        ]
        assert main(honest) == 0
        serve_thread.join(timeout=60.0)
        assert outcome.get("code") == 0
        output = capsys.readouterr().out
        assert "HMAC-authenticated via $REPRO_COLLECTION_KEY" in output
        rejected = re.search(
            r"0 shards completed \((\d+) unverified task payloads rejected\)",
            output,
        )
        assert rejected is not None and int(rejected.group(1)) >= 1
        assert "worker done: 3 shards completed" in output

        dataset = make_dataset("syn", scale=0.02, rng=spec.seed)
        serial = simulate_protocol_sharded(
            spec.protocol, dataset, n_shards=3, rng=spec.seed,
            weights=spec.shard_weights,
        )
        with np.load(estimates_path) as archive:
            assert np.array_equal(archive["estimates"], serial.estimates)

    def test_serve_requires_queue_dir_for_file_transport(
        self, capsys, write_collection_spec
    ):
        from repro.cli import main

        spec, spec_path = write_collection_spec(name="no-queue-dir")
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--spec", str(spec_path)])
        assert excinfo.value.code == 2
        assert "--queue-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "work"])
    def test_queue_dir_naming_a_file_is_an_error(
        self, command, tmp_path, capsys, write_collection_spec
    ):
        from repro.cli import main

        not_a_dir = tmp_path / "queue.txt"
        not_a_dir.write_text("a file, not a spool directory")
        argv = [command, "--queue-dir", str(not_a_dir)]
        if command == "serve":
            argv += ["--spec", str(write_collection_spec()[1])]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot use ")
        assert str(not_a_dir) in err and "Traceback" not in err

    @pytest.mark.parametrize("damage", ["empty", "garbage", "truncated", "directory"])
    def test_corrupt_checkpoint_is_an_error(
        self, damage, tmp_path, capsys, write_collection_spec, queue_dir
    ):
        """serve --checkpoint over an unreadable file answers one error line
        naming the file and exit code 2, never a traceback."""
        from repro.cli import main

        checkpoint = tmp_path / "bad.npz"
        if damage == "empty":
            checkpoint.write_bytes(b"")
        elif damage == "garbage":
            checkpoint.write_bytes(b"not a zip archive at all")
        elif damage == "truncated":
            np.savez_compressed(checkpoint, meta=np.array('{"format": 1}'))
            checkpoint.write_bytes(checkpoint.read_bytes()[:40])
        else:
            checkpoint.mkdir()
        spec, spec_path = write_collection_spec(name="corrupt-checkpoint")
        code = main(
            [
                "serve",
                "--spec", str(spec_path),
                "--queue-dir", str(queue_dir),
                "--checkpoint", str(checkpoint),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt coordinator checkpoint {checkpoint}")
        assert "Traceback" not in err

    def test_status_with_corrupt_checkpoint_is_an_error(
        self, tmp_path, capsys, queue_dir
    ):
        from repro.cli import main

        FileQueueTransport(queue_dir).close()
        checkpoint = tmp_path / "bad.npz"
        checkpoint.write_bytes(b"not a zip archive at all")
        code = main(
            ["status", "--queue-dir", str(queue_dir), "--checkpoint", str(checkpoint)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt coordinator checkpoint {checkpoint}")

    def test_work_with_missing_auth_key_env_fails_cleanly(
        self, capsys, monkeypatch, queue_dir
    ):
        from repro.cli import main

        monkeypatch.delenv("REPRO_MISSING_KEY", raising=False)
        code = main(
            [
                "work",
                "--queue-dir", str(queue_dir),
                "--auth-key-env", "REPRO_MISSING_KEY",
            ]
        )
        assert code == 2
        assert "REPRO_MISSING_KEY" in capsys.readouterr().err
