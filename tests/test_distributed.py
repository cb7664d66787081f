"""Tests for the distributed collection subsystem.

Covers the wire codec, the three transports (in-process, file spool, TCP
broker) across their modes (blocking vs poll claims, HMAC authentication on
and off), payload tampering and capacity-aware weighted sharding, the
fault-tolerant coordinator — worker crash with lease-expiry requeue,
duplicate summary delivery, out-of-order arrival, vanished-task republish,
coordinator checkpoint/restore — and the end-to-end bit-identity of
``simulate_protocol_sharded(transport=...)`` against the serial path for a
one-shot (single-round) and a longitudinal workload.
"""

import threading
import time

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
    SocketTransport,
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

AUTH_KEY = PayloadAuthenticator(b"transport-test-secret")
OTHER_KEY = PayloadAuthenticator(b"a-different-secret")

#: Transport/worker configurations the contract suite runs over: the three
#: media, with and without payload authentication, and both socket claim
#: modes.  Each value is ``(transport factory, worker kwargs)``.
TRANSPORT_MODES = {
    "inprocess": (lambda tmp_path: InProcessTransport(), {}),
    "file": (lambda tmp_path: FileQueueTransport(tmp_path / "queue"), {}),
    "file-auth": (
        lambda tmp_path: FileQueueTransport(tmp_path / "queue", auth=AUTH_KEY),
        {},
    ),
    "socket": (lambda tmp_path: SocketTransport(), {}),
    "socket-poll": (lambda tmp_path: SocketTransport(), {"mode": "poll"}),
    "socket-auth": (lambda tmp_path: SocketTransport(auth=AUTH_KEY), {}),
    "socket-auth-poll": (
        lambda tmp_path: SocketTransport(auth=AUTH_KEY),
        {"mode": "poll"},
    ),
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
        factory, worker_kwargs = TRANSPORT_MODES[request.param]
        transport = factory(tmp_path)
        yield transport, (lambda: transport.worker(**worker_kwargs))
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

    def test_socket_rejects_mismatched_key_and_unsigned_summaries(
        self, tiny_dataset
    ):
        """A worker holding the wrong key cannot feed the broker, and an
        unsigned summary is dropped; the honest fleet still completes."""
        serial = simulate_protocol_sharded(
            LONGITUDINAL_SPEC, tiny_dataset, n_shards=2, rng=9
        )
        transport = SocketTransport(auth=AUTH_KEY)
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 2, rng=9)
        coordinator = Coordinator(
            tasks, transport, lease_timeout=0.5, poll_interval=0.02
        )
        coordinator.publish_pending()

        host, port = transport.address
        from repro.distributed import SocketWorker

        # Wrong key: every task payload fails verification client-side.
        intruder = SocketWorker(host, port, auth=OTHER_KEY, mode="poll")
        assert intruder.claim(timeout=0.3) is None
        assert intruder.rejected >= 1
        # Unsigned summary (auth=None worker sends bare payloads): dropped.
        forged = encode_summary(0, run_shard_task(tasks[0], tiny_dataset))
        unsigned = SocketWorker(host, port, mode="poll")
        unsigned.complete(0, forged)
        intruder.close()

        with local_worker_threads(transport, 1, dataset=tiny_dataset) as pool:
            coordinator.run(timeout=60.0, abort=pool.failure_reason)
        unsigned.close()
        transport.close()
        assert transport.rejected >= 1
        result = result_from_summaries(
            LONGITUDINAL_SPEC, tiny_dataset, coordinator.ordered_summaries()
        )
        assert np.array_equal(result.estimates, serial.estimates)


# --------------------------------------------------------------------- #
# Blocking broker waits
# --------------------------------------------------------------------- #
class TestBlockingBroker:
    def test_idle_blocking_worker_sends_zero_frames(self):
        """After parking, an idle blocking worker sends zero READY frames
        while the queue is empty — however often claim() times out."""
        transport = SocketTransport()
        worker = transport.worker()
        try:
            assert worker.claim(timeout=0.05) is None  # parks: one frame
            parked_frames = worker.claim_frames_sent
            assert parked_frames == 1
            for _ in range(20):
                assert worker.claim(timeout=0.01) is None
            assert worker.claim_frames_sent - parked_frames == 0
        finally:
            worker.close()
            transport.close()

    def test_poll_worker_keeps_sending_frames(self):
        """The --poll compatibility mode still does READY/IDLE round-trips."""
        transport = SocketTransport()
        worker = transport.worker(mode="poll")
        try:
            assert worker.claim(timeout=0.3) is None
            assert worker.claim_frames_sent > 1
        finally:
            worker.close()
            transport.close()

    def test_parked_worker_is_woken_by_publish(self, tiny_dataset):
        """A publish pushes the task to a parked worker immediately."""
        transport = SocketTransport()
        worker = transport.worker()
        try:
            assert worker.claim(timeout=0.05) is None  # park
            task = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 2, rng=5)[0]
            claimed = {}

            def wait_for_task():
                claimed["envelope"] = worker.claim(timeout=10.0)

            thread = threading.Thread(target=wait_for_task)
            thread.start()
            time.sleep(0.05)
            transport.publish(
                TaskEnvelope(shard_id=0, payload=encode_task(0, task))
            )
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            envelope = claimed["envelope"]
            assert envelope is not None and envelope.shard_id == 0
            # The push consumed the original READY: still exactly one frame.
            assert worker.claim_frames_sent == 1
        finally:
            worker.close()
            transport.close()

    def test_parked_worker_is_woken_by_shutdown(self):
        transport = SocketTransport()
        worker = transport.worker()
        assert worker.claim(timeout=0.05) is None  # park
        released = {}

        def wait_for_shutdown():
            released["claim"] = worker.claim(timeout=10.0)

        thread = threading.Thread(target=wait_for_shutdown)
        thread.start()
        time.sleep(0.05)
        transport.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert released["claim"] is None
        assert worker.saw_shutdown
        worker.close()


# --------------------------------------------------------------------- #
# Weighted sharding and capacity hints
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
        self, spec_name, weights, tiny_dataset, oneshot_dataset
    ):
        """Acceptance: any weight vector, distributed == serial, bit for bit."""
        if spec_name == "longitudinal":
            spec, dataset = LONGITUDINAL_SPEC, tiny_dataset
        else:
            spec, dataset = ONESHOT_SPEC, oneshot_dataset
        serial = simulate_protocol_sharded(
            spec, dataset, n_shards=4, rng=9, weights=weights
        )
        transport = SocketTransport()
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

    def test_broker_hands_biggest_shard_to_highest_capacity(self):
        """Capacity hints steer assignment: the fleet's fastest claimant
        receives the most expensive pending shard, others the cheapest."""
        transport = SocketTransport()
        try:
            for shard_id, cost in ((0, 10.0), (1, 30.0), (2, 20.0)):
                transport.publish(
                    TaskEnvelope(shard_id=shard_id, payload=b"x", cost=cost)
                )
            fast = transport.worker(capacity=8)
            slow = transport.worker(capacity=1)
            try:
                assert fast.claim(timeout=5.0).shard_id == 1  # cost 30
                assert slow.claim(timeout=5.0).shard_id == 0  # cost 10
                hints = set(transport.capacity_hints().values())
                assert hints == {8, 1}
                assert fast.claim(timeout=5.0).shard_id == 2  # the remainder
            finally:
                fast.close()
                slow.close()
        finally:
            transport.close()

    def test_heterogeneous_capacity_fleet_bit_identical(self, tiny_dataset):
        """A weighted plan drained by workers of different capacities still
        reproduces the serial estimates (assignment never affects results)."""
        weights = (4.0, 1.0, 1.0, 2.0)
        serial = simulate_protocol_sharded(
            LONGITUDINAL_SPEC, tiny_dataset, n_shards=4, rng=9, weights=weights
        )
        transport = SocketTransport()
        tasks = make_shard_tasks(
            LONGITUDINAL_SPEC, tiny_dataset, 4, rng=9, weights=weights
        )
        coordinator = Coordinator(tasks, transport, lease_timeout=10.0)
        coordinator.publish_pending()
        threads = []
        for capacity in (4, 1):
            endpoint = transport.worker(capacity=capacity)

            def drain(endpoint=endpoint):
                try:
                    run_worker(
                        endpoint, dataset=tiny_dataset,
                        idle_timeout=2.0, poll_interval=0.05,
                    )
                finally:
                    endpoint.close()

            threads.append(threading.Thread(target=drain))
        for thread in threads:
            thread.start()
        coordinator.run(timeout=60.0)
        for thread in threads:
            thread.join(timeout=10.0)
        transport.close()
        result = result_from_summaries(
            LONGITUDINAL_SPEC, tiny_dataset, coordinator.ordered_summaries()
        )
        assert np.array_equal(result.estimates, serial.estimates)


class TestFileQueueDetails:
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
    @pytest.fixture(params=["inprocess", "file", "socket"])
    def make_transport(self, request, tmp_path):
        def factory():
            if request.param == "inprocess":
                return InProcessTransport()
            if request.param == "file":
                return FileQueueTransport(tmp_path / f"queue-{time.monotonic_ns()}")
            return SocketTransport()

        return factory

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
    @pytest.mark.parametrize("kind", ["inprocess", "file", "socket"])
    def test_worker_crash_lease_expiry_requeue(self, kind, tmp_path, tiny_dataset):
        """A claimed-then-abandoned shard is requeued and the final estimates
        are bit-identical to the serial run — on every transport."""
        serial = simulate_protocol_sharded(
            LONGITUDINAL_SPEC, tiny_dataset, n_shards=4, rng=9
        )
        if kind == "inprocess":
            transport = InProcessTransport()
        elif kind == "file":
            transport = _file_transport(tmp_path)
        else:
            transport = SocketTransport()
        tasks = make_shard_tasks(LONGITUDINAL_SPEC, tiny_dataset, 4, rng=9)
        coordinator = Coordinator(tasks, transport, lease_timeout=0.1)
        coordinator.publish_pending()
        # A worker claims a shard and dies without completing it.  (Keep the
        # endpoint open: the socket broker would requeue instantly on
        # disconnect, and this test exercises the lease-timeout path.)
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
                ["work", "--queue-dir", str(queue_dir), "--idle-exit", "10"],
            ),
            daemon=True,
        )
        worker.start()
        code = main(
            [
                "serve",
                "--spec", str(spec_path),
                "--transport", "file",
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

    def test_serve_with_local_workers_and_tcp(
        self, tmp_path, capsys, write_collection_spec
    ):
        from repro.cli import main
        from repro.datasets import make_dataset

        spec, spec_path = write_collection_spec(name="tcp-test", n_shards=2)
        estimates_path = tmp_path / "estimates.npz"
        code = main(
            [
                "serve",
                "--spec", str(spec_path),
                "--transport", "tcp",
                "--bind", "127.0.0.1:0",
                "--local-workers", "2",
                "--save-estimates", str(estimates_path),
                "--timeout", "60",
            ]
        )
        assert code == 0
        assert "broker listening" in capsys.readouterr().out
        dataset = make_dataset("syn", scale=0.02, rng=spec.seed)
        serial = simulate_protocol_sharded(
            spec.protocol, dataset, n_shards=2, rng=spec.seed
        )
        with np.load(estimates_path) as archive:
            assert np.array_equal(archive["estimates"], serial.estimates)

    def test_serve_checkpoint_store_restores_completed_collection(
        self, tmp_path, capsys, write_collection_spec
    ):
        """serve --checkpoint-store appends one row per absorbed shard; a
        restarted service restores every summary from the store and
        completes without any workers at all."""
        from repro.cli import main
        from repro.store import make_backend

        spec, spec_path = write_collection_spec(name="ckpt-store-test", n_shards=2)
        store_dir = tmp_path / "ckpt"
        base = [
            "serve",
            "--spec", str(spec_path),
            "--transport", "tcp",
            "--bind", "127.0.0.1:0",
            "--timeout", "60",
            "--checkpoint-store", str(store_dir),
        ]
        assert main(base + ["--local-workers", "2"]) == 0
        assert "collected 2 shards" in capsys.readouterr().out
        with make_backend("sqlite", store_dir) as store:
            rows = store.load_rows(f"{spec.name}_checkpoint")
        assert sorted(int(row["shard_id"]) for row in rows) == [0, 1]

        assert main(base + ["--local-workers", "0"]) == 0
        output = capsys.readouterr().out
        assert (
            f"restored 2 shard summaries from the sqlite store at {store_dir}"
            in output
        )
        assert "collected 2 shards" in output

    def test_authenticated_tcp_serve_and_work(
        self, tmp_path, capsys, monkeypatch, write_collection_spec
    ):
        """An HMAC-authenticated weighted TCP collection: an external-style
        CLI worker with the matching key drains a broker whose spec names
        the key's environment variable; estimates stay bit-identical."""
        import re

        from repro.cli import main, run_serve, build_parser
        from repro.datasets import make_dataset

        monkeypatch.setenv("REPRO_COLLECTION_KEY", "cli-shared-secret")
        spec, spec_path = write_collection_spec(
            name="auth-tcp-test",
            n_shards=3,
            shard_weights=(2.0, 1.0, 3.0),
            auth_key_env="REPRO_COLLECTION_KEY",
        )
        estimates_path = tmp_path / "estimates.npz"

        # serve in a thread so a CLI worker can connect to the printed port.
        serve_args = build_parser().parse_args(
            [
                "serve",
                "--spec", str(spec_path),
                "--transport", "tcp",
                "--bind", "127.0.0.1:0",
                "--lease-timeout", "10",
                "--save-estimates", str(estimates_path),
                "--timeout", "60",
            ]
        )
        outcome = {}

        def serve():
            outcome["code"] = run_serve(serve_args)

        serve_thread = threading.Thread(target=serve, daemon=True)
        serve_thread.start()
        address = None
        deadline = time.monotonic() + 10.0
        while address is None and time.monotonic() < deadline:
            match = re.search(
                r"broker listening on ([\d.]+:\d+)", capsys.readouterr().out
            )
            if match:
                address = match.group(1)
            else:
                time.sleep(0.05)
        assert address is not None, "broker address was never printed"
        code = main(
            [
                "work",
                "--connect", address,
                "--auth-key-env", "REPRO_COLLECTION_KEY",
                "--capacity", "4",
                "--idle-exit", "5",
            ]
        )
        serve_thread.join(timeout=60.0)
        assert code == 0 and outcome.get("code") == 0

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
        code = main(["serve", "--spec", str(spec_path), "--transport", "file"])
        assert code == 2
        assert "--queue-dir" in capsys.readouterr().err

    def test_work_rejects_tcp_only_flags_with_queue_dir(self, capsys, tmp_path):
        """--capacity / --poll are broker concepts; a file-queue worker must
        refuse them instead of silently ignoring them."""
        from repro.cli import main

        queue = str(tmp_path / "q")
        assert main(["work", "--queue-dir", queue, "--capacity", "2"]) == 2
        assert "--capacity" in capsys.readouterr().err
        assert main(["work", "--queue-dir", queue, "--poll"]) == 2
        assert "--poll" in capsys.readouterr().err

    def test_work_with_missing_auth_key_env_fails_cleanly(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_MISSING_KEY", raising=False)
        code = main(
            [
                "work",
                "--connect", "127.0.0.1:1",
                "--auth-key-env", "REPRO_MISSING_KEY",
            ]
        )
        assert code == 2
        assert "REPRO_MISSING_KEY" in capsys.readouterr().err
