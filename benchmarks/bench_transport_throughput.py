"""Overhead of the distributed transports versus direct shard execution.

The distributed subsystem moves shard tasks/summaries as JSON / ``.npz``
payloads through pluggable transports.  These benchmarks quantify what that
costs on top of the raw shard computation:

* ``test_direct_shard_execution`` — the reference: ``run_shard_task``
  called in-process, no serialization;
* ``test_inprocess_transport_collection`` — full coordinator loop over the
  in-memory transport (codec + queue overhead only);
* ``test_file_queue_transport_collection`` — the same collection through
  the crash-safe spool directory (adds atomic file publishes/claims);
* ``test_authenticated_file_queue_collection`` — the spool collection with
  HMAC-SHA256 payload signing/verification on both endpoints;
* ``test_codec_round_trip`` — pure payload encode/decode cost for one
  shard summary.
"""

import numpy as np
import pytest

from repro.datasets import make_uniform_changing
from repro.distributed import (
    Coordinator,
    FileQueueTransport,
    InProcessTransport,
    PayloadAuthenticator,
    decode_summary,
    encode_summary,
    local_worker_threads,
)
from repro.simulation.runner import make_shard_tasks, run_shard_task
from repro.specs import ProtocolSpec

N_USERS = 2_000
N_ROUNDS = 5
K = 64
N_SHARDS = 4

SPEC = ProtocolSpec(name="L-OSUE", k=K, eps_inf=2.0, eps_1=1.0)


@pytest.fixture(scope="module")
def workload():
    dataset = make_uniform_changing(
        k=K, n_users=N_USERS, n_rounds=N_ROUNDS, change_probability=0.3, rng=0
    )
    tasks = make_shard_tasks(SPEC, dataset, N_SHARDS, rng=1)
    return dataset, tasks


def _collect(transport, tasks, dataset):
    coordinator = Coordinator(tasks, transport, lease_timeout=60.0)
    with local_worker_threads(transport, 1, dataset=dataset):
        coordinator.run(timeout=120.0)
    return coordinator


@pytest.mark.benchmark(group="transport-throughput")
def test_direct_shard_execution(benchmark, workload):
    dataset, tasks = workload

    def run():
        return [run_shard_task(task, dataset) for task in tasks]

    summaries = benchmark(run)
    assert len(summaries) == N_SHARDS
    benchmark.extra_info["n_users"] = N_USERS
    benchmark.extra_info["n_shards"] = N_SHARDS


@pytest.mark.benchmark(group="transport-throughput")
def test_inprocess_transport_collection(benchmark, workload):
    dataset, tasks = workload

    def run():
        transport = InProcessTransport()
        try:
            return _collect(transport, tasks, dataset)
        finally:
            transport.close()

    coordinator = benchmark(run)
    assert coordinator.is_complete


@pytest.mark.benchmark(group="transport-throughput")
def test_file_queue_transport_collection(benchmark, workload, tmp_path_factory):
    dataset, tasks = workload
    counter = iter(range(1_000_000))

    def run():
        queue_dir = tmp_path_factory.mktemp(f"queue{next(counter)}")
        transport = FileQueueTransport(queue_dir)
        try:
            return _collect(transport, tasks, dataset)
        finally:
            transport.close()

    coordinator = benchmark(run)
    assert coordinator.is_complete


@pytest.mark.benchmark(group="transport-throughput")
def test_authenticated_file_queue_collection(benchmark, workload, tmp_path_factory):
    """The spool collection with HMAC signing/verifying every payload."""
    dataset, tasks = workload
    counter = iter(range(1_000_000))
    auth = PayloadAuthenticator(b"benchmark-secret")

    def run():
        queue_dir = tmp_path_factory.mktemp(f"authqueue{next(counter)}")
        transport = FileQueueTransport(queue_dir, auth=auth)
        try:
            return _collect(transport, tasks, dataset)
        finally:
            transport.close()

    coordinator = benchmark(run)
    assert coordinator.is_complete


@pytest.mark.benchmark(group="transport-codec")
def test_codec_round_trip(benchmark, workload):
    dataset, tasks = workload
    summary = run_shard_task(tasks[0], dataset)

    def round_trip():
        return decode_summary(encode_summary(0, summary))

    shard_id, decoded, _ = benchmark(round_trip)
    assert shard_id == 0
    assert np.array_equal(decoded.support_counts, summary.support_counts)
