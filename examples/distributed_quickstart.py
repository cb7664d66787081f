"""Distributed collection quickstart.

Walks through the distributed subsystem (``repro.distributed``) end to end:

1. a sharded simulation routed through the in-memory transport;
2. the same collection over a crash-safe file-spool queue, with a simulated
   worker crash (a claimed-then-abandoned shard) recovered via lease-expiry
   requeue — final estimates bit-identical to the serial path;
3. streaming shard summaries into a :class:`repro.service.CollectorSession`
   as they arrive, out of order, with coordinator checkpointing;
4. an HMAC-authenticated file-queue run over a weighted shard plan: every
   task and summary file is signed with a shared secret from the
   environment, and a worker holding the wrong key executes nothing — the
   task files it rejects are republished and the collection completes
   bit-identical to the serially-run weighted plan.

The CLI equivalent of step 2, with real separate processes, is::

    repro-ldp serve --spec collection.json --queue-dir q/
    repro-ldp work --queue-dir q/      # in as many shells / hosts as you like

and of step 4 (both sides export the same ``REPRO_AUTH_KEY`` secret; the
spec's ``shard_weights`` sizes the shards)::

    repro-ldp serve --spec collection.json --queue-dir /shared/q \\
        --auth-key-env REPRO_AUTH_KEY
    repro-ldp work --queue-dir /shared/q --auth-key-env REPRO_AUTH_KEY

Run from the repository root::

    PYTHONPATH=src python examples/distributed_quickstart.py
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from repro.datasets import make_dataset
from repro.distributed import (
    Coordinator,
    FileQueueTransport,
    FileQueueWorker,
    InProcessTransport,
    authenticator_from_env,
    local_worker_threads,
)
from repro.service import CollectorSession
from repro.simulation.runner import (
    make_shard_tasks,
    result_from_summaries,
    simulate_protocol_sharded,
)
from repro.specs import ProtocolSpec

SPEC = ProtocolSpec(name="L-OSUE", eps_inf=2.0, alpha=0.5)
N_SHARDS = 6
SEED = 20230328


def step_1_in_process(dataset, serial):
    print("== 1. sharded simulation over the in-process transport ==")
    transport = InProcessTransport()
    try:
        result = simulate_protocol_sharded(
            SPEC, dataset, n_shards=N_SHARDS, rng=SEED,
            n_workers=2, transport=transport,
        )
    finally:
        transport.close()
    assert np.array_equal(result.estimates, serial.estimates)
    print(f"   mse_avg={result.mse_avg:.6e}  (bit-identical to serial: True)\n")


def step_2_file_queue_with_crash(dataset, serial, workdir):
    print("== 2. file-spool queue with a crashed worker ==")
    transport = FileQueueTransport(workdir / "queue")
    tasks = make_shard_tasks(SPEC, dataset, N_SHARDS, rng=SEED)
    coordinator = Coordinator(tasks, transport, lease_timeout=0.2)
    coordinator.publish_pending()

    # A doomed worker claims shard 0 and dies without completing it.
    doomed = transport.worker()
    claimed = doomed.claim(timeout=5.0)
    print(f"   worker claimed shard {claimed.shard_id} and 'crashed'")

    # Two healthy worker threads drain the queue; after 0.2 s the abandoned
    # lease expires, the shard is requeued, and a healthy worker redoes it.
    with local_worker_threads(transport, 2, dataset=dataset):
        coordinator.run(timeout=60.0)
    transport.close()
    result = result_from_summaries(SPEC, dataset, coordinator.ordered_summaries())
    assert np.array_equal(result.estimates, serial.estimates)
    print(
        f"   recovered: {coordinator.requeued} shard(s) requeued, "
        f"estimates still bit-identical to serial\n"
    )


def step_3_streaming_session_with_checkpoint(dataset, serial, workdir):
    print("== 3. streaming summaries into a CollectorSession + checkpoint ==")
    session = CollectorSession(SPEC.at(k=dataset.k), n_rounds=dataset.n_rounds)
    transport = InProcessTransport()
    coordinator = Coordinator(
        tasks=make_shard_tasks(SPEC, dataset, N_SHARDS, rng=SEED),
        transport=transport,
        session=session,
        checkpoint_path=workdir / "coordinator.npz",
    )
    with local_worker_threads(transport, 3, dataset=dataset):
        coordinator.run(timeout=60.0)
    transport.close()
    # Summaries arrived in whatever order the workers finished, yet the
    # session's running estimates converged to the batch result exactly.
    assert np.array_equal(session.estimates(), serial.estimates)
    print(
        f"   session complete={session.is_complete}, checkpoint at "
        f"{coordinator.checkpoint_path.name} "
        f"({coordinator.checkpoint_path.stat().st_size} bytes)\n"
    )


def step_4_authenticated_weighted_file_queue(dataset, workdir):
    print("== 4. authenticated file queue, weighted shards ==")
    # The shared secret travels through the environment, never through spec
    # files; a fast host's shard holds twice the users of each slow one.
    os.environ.setdefault("REPRO_QUICKSTART_KEY", "quickstart-shared-secret")
    auth = authenticator_from_env("REPRO_QUICKSTART_KEY")
    weights = (2.0, 1.0, 1.0)
    serial = simulate_protocol_sharded(
        SPEC, dataset, n_shards=3, rng=SEED, weights=weights
    )
    queue_dir = workdir / "auth-queue"
    transport = FileQueueTransport(queue_dir, auth=auth)
    coordinator = Coordinator(
        make_shard_tasks(SPEC, dataset, 3, rng=SEED, weights=weights),
        transport,
        lease_timeout=1.0,
    )
    coordinator.publish_pending()

    # A worker with the WRONG key executes nothing: every task file fails
    # verification, is counted and destroyed; the coordinator notices the
    # vanished shards and republishes its authentic copies.
    os.environ["REPRO_WRONG_KEY"] = "not-the-secret"
    intruder = FileQueueWorker(
        queue_dir, auth=authenticator_from_env("REPRO_WRONG_KEY")
    )
    assert intruder.claim(timeout=0.1) is None
    print(f"   wrong-key worker rejected {intruder.rejected} task payload(s)")

    # Workers holding the right key (threads here; any process that mounts
    # the queue directory in practice) drain the republished tasks.
    with local_worker_threads(transport, 2, dataset=dataset):
        coordinator.run(timeout=60.0)
    transport.close()
    result = result_from_summaries(SPEC, dataset, coordinator.ordered_summaries())
    assert np.array_equal(result.estimates, serial.estimates)
    print(
        f"   {coordinator.n_shards} weighted shards collected over the "
        f"authenticated queue ({coordinator.republished} republished), "
        f"estimates bit-identical to the serially-run weighted plan\n"
    )


def main():
    dataset = make_dataset("syn", scale=0.02, rng=SEED)
    serial = simulate_protocol_sharded(SPEC, dataset, n_shards=N_SHARDS, rng=SEED)
    print(
        f"workload: {dataset.name} (n={dataset.n_users}, k={dataset.k}, "
        f"tau={dataset.n_rounds}), protocol {SPEC.name}, "
        f"{N_SHARDS} shards\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        step_1_in_process(dataset, serial)
        step_2_file_queue_with_crash(dataset, serial, workdir)
        step_3_streaming_session_with_checkpoint(dataset, serial, workdir)
        step_4_authenticated_weighted_file_queue(dataset, workdir)
    print("distributed quickstart OK")


if __name__ == "__main__":
    main()
