"""Micro-benchmarks of client-side and server-side protocol throughput.

These are not paper artifacts; they measure the cost of one collection round
per protocol (client sanitization + server aggregation) so that regressions in
the vectorized engines are caught and so that Table 1's communication /
complexity discussion can be related to wall-clock numbers.
"""

import itertools

import numpy as np
import pytest

from repro.datasets import LongitudinalDataset
from repro.longitudinal import BiLOLOHA, DBitFlipPM, LGRR, LOSUE, LSUE, OLOLOHA
from repro.simulation import engine_for, simulate_protocol

N_USERS = 2_000
N_USERS_LARGE = 10_000
K = 128


def _protocols():
    eps_inf, eps_1 = 2.0, 1.0
    return {
        "L-GRR": LGRR(K, eps_inf, eps_1),
        "RAPPOR": LSUE(K, eps_inf, eps_1),
        "L-OSUE": LOSUE(K, eps_inf, eps_1),
        "BiLOLOHA": BiLOLOHA(K, eps_inf, eps_1),
        "OLOLOHA": OLOLOHA(K, eps_inf, eps_1),
        "dBitFlipPM(d=1)": DBitFlipPM(K, eps_inf, d=1),
        "dBitFlipPM(d=b)": DBitFlipPM(K, eps_inf, d=K),
    }


@pytest.mark.benchmark(group="round-throughput")
@pytest.mark.parametrize("name", list(_protocols()))
def test_one_collection_round(benchmark, name):
    protocol = _protocols()[name]
    engine = engine_for(protocol, N_USERS, rng=0)
    values = np.random.default_rng(1).integers(0, K, size=N_USERS)
    # Warm up the memoization so the steady-state round cost is measured.
    engine.estimate_round(values, np.random.default_rng(2))

    def one_round():
        return engine.estimate_round(values, np.random.default_rng(3))

    estimate = benchmark(one_round)
    assert estimate.shape[0] in (K, protocol.estimation_domain_size)
    benchmark.extra_info["n_users"] = N_USERS
    benchmark.extra_info["k"] = K


@pytest.mark.benchmark(group="round-throughput-10k")
@pytest.mark.parametrize("name", ["RAPPOR", "L-OSUE", "dBitFlipPM(d=b)", "dBitFlipPM(d=1)"])
def test_one_collection_round_10k_users(benchmark, name):
    """Steady-state round cost on the paper-scale UE / dBitFlip hot paths.

    These are the two protocol families whose seed implementations carried
    per-user Python loops; the kernel/state refactor must keep them at
    multi-million users/second (the acceptance bar for the refactor was a
    >= 3x speedup on the L-UE path at 10k users).
    """
    protocol = _protocols()[name]
    engine = engine_for(protocol, N_USERS_LARGE, rng=0)
    values = np.random.default_rng(1).integers(0, K, size=N_USERS_LARGE)
    engine.estimate_round(values, np.random.default_rng(2))

    def one_round():
        return engine.estimate_round(values, np.random.default_rng(3))

    estimate = benchmark(one_round)
    assert estimate.shape[0] in (K, protocol.estimation_domain_size)
    benchmark.extra_info["n_users"] = N_USERS_LARGE
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["users_per_second"] = N_USERS_LARGE / benchmark.stats["mean"]


@pytest.mark.benchmark(group="round-throughput-10k-changing")
@pytest.mark.parametrize("churn", [0.25, 1.0], ids=["churn25", "churn100"])
@pytest.mark.parametrize("name", ["L-OSUE", "dBitFlipPM(d=b)"])
def test_changing_collection_round_10k_users(benchmark, name, churn):
    """Round cost when a share of the users changes value every round.

    The steady rounds above replay identical values, which the delta-cached
    folds reduce to an empty update.  Here two value vectors alternate, so
    25 % churn times the delta fold and 100 % the full refold.  Both vectors
    are memoized during warm-up, so no fresh rows are drawn.
    """
    protocol = _protocols()[name]
    engine = engine_for(protocol, N_USERS_LARGE, rng=0)
    rng = np.random.default_rng(1)
    values = rng.integers(0, K, size=N_USERS_LARGE)
    movers = rng.permutation(N_USERS_LARGE)[: round(churn * N_USERS_LARGE)]
    moved = values.copy()
    moved[movers] = (moved[movers] + rng.integers(1, K, size=movers.size)) % K
    rounds = itertools.cycle([values, moved])
    for _ in range(2):
        engine.estimate_round(next(rounds), np.random.default_rng(2))

    def one_round():
        return engine.estimate_round(next(rounds), np.random.default_rng(3))

    estimate = benchmark(one_round)
    assert estimate.shape[0] in (K, protocol.estimation_domain_size)
    benchmark.extra_info["n_users"] = N_USERS_LARGE
    benchmark.extra_info["churn"] = churn


@pytest.mark.benchmark(group="simulation-10k-changing")
def test_full_churn_simulation_10k_users(benchmark):
    """A whole L-OSUE simulation in which every user holds a new value every
    round: each (user, value) pair is visited once, so ``simulate_protocol``
    draws every round's memoized ones in aggregate and memoizes no row."""
    n_rounds = 8
    start = np.random.default_rng(1).integers(0, K, size=(N_USERS_LARGE, 1))
    dataset = LongitudinalDataset(
        name="full-churn", values=(start + np.arange(n_rounds)) % K, k=K
    )
    assert dataset.once_visited_mask().all()
    protocol = _protocols()["L-OSUE"]

    result = benchmark(lambda: simulate_protocol(protocol, dataset, rng=3))
    assert (result.distinct_memoized_per_user == n_rounds).all()
    benchmark.extra_info["n_users"] = N_USERS_LARGE
    benchmark.extra_info["n_rounds"] = n_rounds


@pytest.mark.benchmark(group="engine-construction")
@pytest.mark.parametrize("name", ["dBitFlipPM(d=b)", "OLOLOHA"])
def test_engine_construction_10k_users(benchmark, name):
    """Population setup cost (bucket sampling / batch domain hashing).

    Both constructors were per-user Python loops in the seed implementation
    (dBitFlipPM: one ``rng.choice`` per user; LOLOHA: one hash-family sample
    plus full-domain hash per user) and are now single batched draws.
    """
    protocol = _protocols()[name]
    engine = benchmark(lambda: engine_for(protocol, N_USERS_LARGE, rng=0))
    assert engine.n_users == N_USERS_LARGE
    benchmark.extra_info["n_users"] = N_USERS_LARGE


@pytest.mark.benchmark(group="client-report")
@pytest.mark.parametrize("name", ["RAPPOR", "OLOLOHA", "L-GRR"])
def test_single_client_report(benchmark, name):
    protocol = _protocols()[name]
    client = protocol.create_client(rng=0)
    rng = np.random.default_rng(4)

    def one_report():
        return client.report(int(rng.integers(0, K)), rng)

    benchmark(one_report)
