"""Live-ingestion benchmarks: HTTP front door, fold and sealing.

The ingestion service accepts report batches over real sockets, folds them
through the streaming :class:`~repro.service.session.CollectorSession` and
seals round windows by quorum — this module measures what that live path
costs relative to the in-process batch fold it wraps.  Two numbers:

* **reports/second end to end** — seeded load generator against a real
  ``IngestServer`` on loopback, in both wire modes (``reports``: raw
  per-user reports; ``counts``: client-side pre-folded support counts);
* **batch-fold baseline** — the same reports submitted straight into a
  ``CollectorSession``, which bounds the achievable service throughput.

Run with ``python -m pytest benchmarks/bench_ingest.py --benchmark-only``.
The paper-sized ingest workload (k = 1335) is ``perfbench`` ``ingest-ue``.

Bit-identity is the correctness anchor (and is CI-enforced in
``tests/test_ingest_service.py``): the live estimates must equal the batch
session's exactly, so the benchmark pair times the *same* float arithmetic
with and without the HTTP/clock machinery around it.
"""

import asyncio
import os

import numpy as np
import pytest

from repro.service import CollectorSession
from repro.service.ingest import IngestServer
from repro.service.loadgen import generate_round_reports, run_loadgen
from repro.registry import build_protocol
from repro.specs import IngestSpec, ProtocolSpec

K = 64
N_USERS = int(os.environ.get("REPRO_BENCH_INGEST_USERS", "400"))
N_ROUNDS = 4
BATCH_SIZE = 50
EPS_INF, EPS_1 = 2.0, 1.0
SEED = 20230328

PROTOCOL = ProtocolSpec(name="L-OSUE", k=K, eps_inf=EPS_INF, eps_1=EPS_1)


def _spec() -> IngestSpec:
    return IngestSpec(
        protocol=PROTOCOL,
        n_rounds=N_ROUNDS,
        name="bench",
        host="127.0.0.1",
        port=0,
        quorum=N_USERS,
    )


async def _live_run(mode: str):
    """One full collection over loopback HTTP; returns (result, server)."""
    server = IngestServer(_spec())
    await server.start()
    host, port = server.address
    result = await run_loadgen(
        PROTOCOL,
        host,
        port,
        n_rounds=N_ROUNDS,
        n_users=N_USERS,
        seed=SEED,
        batch_size=BATCH_SIZE,
        mode=mode,
    )
    await server.stop()
    if result.rejected_batches:
        raise AssertionError(f"benchmark run rejected batches: {result.statuses}")
    return result, server


def _batch_run(reports):
    session = CollectorSession(PROTOCOL, n_rounds=N_ROUNDS)
    for t in range(N_ROUNDS):
        batch = reports[t]
        for start in range(0, len(batch), BATCH_SIZE):
            session.submit_reports(t, batch[start : start + BATCH_SIZE])
    return session


@pytest.fixture(scope="module")
def seeded_reports():
    protocol = build_protocol(PROTOCOL)
    return generate_round_reports(protocol, N_ROUNDS, N_USERS, seed=SEED)


@pytest.mark.benchmark(group="ingest-live")
@pytest.mark.parametrize("mode", ["reports", "counts"])
def test_live_ingest_throughput(benchmark, mode):
    """Full collection through the HTTP front door, per wire mode."""
    result, server = benchmark(lambda: asyncio.run(_live_run(mode)))
    assert result.accepted_reports == N_USERS * N_ROUNDS
    assert len(server.clock.seals) == N_ROUNDS
    benchmark.extra_info.update(
        n_users=N_USERS, n_rounds=N_ROUNDS, k=K, mode=mode
    )


@pytest.mark.benchmark(group="ingest-batch-baseline")
def test_batch_fold_baseline(benchmark, seeded_reports):
    """The same reports folded in-process: the no-network upper bound."""
    session = benchmark(lambda: _batch_run(seeded_reports))
    assert session.total_reports == N_USERS * N_ROUNDS
    benchmark.extra_info.update(n_users=N_USERS, n_rounds=N_ROUNDS, k=K)


def test_live_matches_batch_bit_identical(seeded_reports):
    """Correctness anchor for the benchmark pair: live == batch exactly."""
    _, server = asyncio.run(_live_run("reports"))
    reference = _batch_run(seeded_reports)
    np.testing.assert_array_equal(
        server.session.estimates(), reference.estimates()
    )
