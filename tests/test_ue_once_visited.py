"""Once-visited UE pairs: the aggregated draw, its stream anchors and its gate.

The offline drivers hand the UE engine each round's column of
:meth:`~repro.datasets.LongitudinalDataset.once_visited_mask`.  A user whose
(user, value) pair occurs in that round only never gets a memo row; the
once-visited users' memoized ones are drawn per column as
``Binomial(s_j, p1) + Binomial(s - s_j, q1)``.  That changes the random
stream (stream contract 2), so this module holds:

* the distribution gate that licenses the change: per-column ``memo_ones``
  moments of the aggregated draw against the memo path, and the R-seed mean
  of MSE_avg/V* at high and low churn, serial and pooled;
* the exact invariants: ``eps_avg`` and ``distinct_memoized_per_user`` equal
  a mask-free run;
* sha256 anchors of the new stream for the dense memo, the sparse memo and
  serial shards, with pooled shards equal to serial ones.

Statistics use the no-scipy helpers of ``test_statistical_properties``.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.analysis import approximate_variance_for
from repro.datasets import LongitudinalDataset
from repro.datasets.census import make_db_mt
from repro.datasets.synthetic import make_syn
from repro.longitudinal import LOSUE, RAPPOR
from repro.simulation import (
    engine_for,
    simulate_protocol,
    simulate_protocol_sharded,
)
from repro.simulation.metrics import averaged_longitudinal_privacy_loss, averaged_mse
from repro.simulation.sinks import SupportCountSink
from repro.simulation.state import PackedBitMemo, SparsePackedBitMemo
from repro.specs import ProtocolSpec
from test_statistical_properties import _Z_ALPHA_1E4, chi_square_critical

PROTOCOLS = {"RAPPOR": RAPPOR, "L-OSUE": LOSUE}
EPS_INF, ALPHA = 2.0, 0.5


def digest(estimates: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(estimates).tobytes()).hexdigest()


def mask_free_run(protocol, dataset: LongitudinalDataset, seed: int):
    """``(estimates, distinct)`` of the engine driven round by round without a
    mask, so every pair goes through the memo."""
    engine = engine_for(protocol, dataset.n_users, rng=seed)
    sink = SupportCountSink(dataset.n_rounds, protocol.k, dataset.n_users)
    for t, values_t in enumerate(dataset.iter_rounds()):
        sink.add_round(t, engine.run_round(values_t))
    return sink.estimates(protocol), engine.distinct_memoized_per_user()


# ---------------------------------------------------------------------- #
# Distribution gate
# ---------------------------------------------------------------------- #
class TestOnceVisitedMemoOnesMoments:
    """(a) Where every pair is visited once, the aggregated draw and the memo
    path give per-column ``memo_ones`` with the same mean and variance."""

    @pytest.mark.parametrize("name", list(PROTOCOLS))
    def test_aggregated_and_memo_paths_agree(self, name):
        k, n_users, n_seeds = 12, 240, 400
        protocol = PROTOCOLS[name](k, EPS_INF, ALPHA * EPS_INF)
        params = protocol.chained_parameters
        values = np.random.default_rng(5).integers(0, k, size=n_users)
        values[:3] = 0  # an uneven column next to sparse ones
        by_path = {}
        for path, once in (("aggregated", np.ones(n_users, bool)), ("memo", None)):
            by_path[path] = np.stack([
                engine_for(protocol, n_users, rng=seed)
                ._memoized_column_sums(values, np.random.default_rng(seed), once)
                for seed in range(n_seeds)
            ]).astype(np.float64)

        holding = np.bincount(values, minlength=k)
        mean = holding * params.p1 + (n_users - holding) * params.q1
        variance = (
            holding * params.p1 * (1 - params.p1)
            + (n_users - holding) * params.q1 * (1 - params.q1)
        )
        df = n_seeds - 1
        upper = chi_square_critical(df) / df
        lower = chi_square_critical(df, z=-_Z_ALPHA_1E4) / df
        for path, ones in by_path.items():
            z = (ones.mean(axis=0) - mean) / np.sqrt(variance / n_seeds)
            assert np.abs(z).max() < _Z_ALPHA_1E4, (path, z)
            ratio = ones.var(axis=0, ddof=1) / variance
            assert ((lower < ratio) & (ratio < upper)).all(), (path, ratio)
        gap = by_path["aggregated"].mean(axis=0) - by_path["memo"].mean(axis=0)
        assert np.abs(gap / np.sqrt(2 * variance / n_seeds)).max() < _Z_ALPHA_1E4


#: (shape, dataset) at reduced scale: db_mt's counters churn (~86% of visits
#: once-visited here), syn's sticky values do not (~11%).
CHURN_DATASETS = {
    "high-churn": lambda: make_db_mt(n_users=600, n_rounds=8, rng=0),
    "low-churn": lambda: make_syn(n_users=600, n_rounds=8, k=60, rng=0),
}
N_SEEDS = 8


def skewed_dataset(n_users=600, n_rounds=8, k=60):
    """Geometric values (a quarter of the users at value 0), half the users
    redrawing each round.  Far from uniform, so a memo row that carries no
    signal of the user's value inflates MSE_avg well past V*; at the near
    uniform frequencies of the churn datasets that bias is small beside V*."""
    rng = np.random.default_rng(0)
    values = np.empty((n_users, n_rounds), dtype=np.int64)
    for t in range(n_rounds):
        drawn = np.minimum(rng.geometric(0.25, size=n_users) - 1, k - 1)
        values[:, t] = drawn if t == 0 else np.where(
            rng.random(n_users) < 0.5, drawn, values[:, t - 1]
        )
    return LongitudinalDataset(name="skewed", values=values, k=k)


#: The datasets of every protocol's MSE_avg/V* gate.
GATE_DATASETS = {**CHURN_DATASETS, "skewed": skewed_dataset}


@pytest.fixture(scope="module", params=list(CHURN_DATASETS))
def churn_dataset(request):
    return CHURN_DATASETS[request.param]()


@pytest.fixture(scope="module", params=list(GATE_DATASETS))
def gate_dataset(request):
    return GATE_DATASETS[request.param]()


class TestMseOverVStarGate:
    """(b) The R-seed mean of MSE_avg/V* stays at 1 and at the mask-free
    mean, serially and through pooled shards.

    Memoization correlates rounds, so the spread is taken across seeds: the
    bound is ``z`` seed-standard-errors plus 10% for V*'s approximation.
    The skewed dataset is the one that fails a memo drawing the true column
    at ``q``.
    """

    @staticmethod
    def ratios(protocol_name, dataset, simulate):
        v_star = approximate_variance_for(
            protocol_name, EPS_INF, ALPHA * EPS_INF, dataset.n_users, dataset.k
        )
        return np.array([simulate(seed) / v_star for seed in range(N_SEEDS)])

    @staticmethod
    def assert_bounded(ratios, reference):
        spread = math.sqrt(ratios.var(ddof=1) / ratios.size)
        assert abs(ratios.mean() - 1) < 0.1 + _Z_ALPHA_1E4 * spread, ratios
        reference_spread = math.sqrt(reference.var(ddof=1) / reference.size)
        gap = abs(ratios.mean() - reference.mean())
        assert gap < _Z_ALPHA_1E4 * math.hypot(spread, reference_spread), (ratios, reference)

    @pytest.mark.parametrize("name", list(PROTOCOLS))
    def test_serial_and_pooled_ratios_are_bounded(self, name, gate_dataset):
        dataset = gate_dataset
        protocol = PROTOCOLS[name](dataset.k, EPS_INF, ALPHA * EPS_INF)
        spec = ProtocolSpec(name=name, eps_inf=EPS_INF, alpha=ALPHA)
        truth = dataset.true_frequency_matrix()
        reference = self.ratios(
            name, dataset,
            lambda seed: averaged_mse(mask_free_run(protocol, dataset, seed)[0], truth),
        )
        serial = self.ratios(
            name, dataset,
            lambda seed: simulate_protocol(protocol, dataset, rng=seed).mse_avg,
        )
        pooled = self.ratios(
            name, dataset,
            lambda seed: simulate_protocol_sharded(
                spec, dataset, 2, rng=seed, n_workers=2
            ).mse_avg,
        )
        self.assert_bounded(serial, reference)
        self.assert_bounded(pooled, reference)


class TestExactInvariants:
    """(c) The mask moves no memo key between users: per-user distinct keys,
    and so ``eps_avg``, equal a mask-free run exactly."""

    @pytest.mark.parametrize("name", list(PROTOCOLS))
    def test_distinct_and_eps_avg_equal_a_mask_free_run(self, name, churn_dataset):
        dataset = churn_dataset
        protocol = PROTOCOLS[name](dataset.k, EPS_INF, ALPHA * EPS_INF)
        _, distinct = mask_free_run(protocol, dataset, seed=3)
        assert np.array_equal(distinct, dataset.distinct_values_per_user())
        eps_avg = averaged_longitudinal_privacy_loss(distinct, EPS_INF)
        spec = ProtocolSpec(name=name, eps_inf=EPS_INF, alpha=ALPHA)
        for result in (
            simulate_protocol(protocol, dataset, rng=3),
            simulate_protocol_sharded(protocol, dataset, 3, rng=3),
            simulate_protocol_sharded(spec, dataset, 2, rng=3, n_workers=2),
        ):
            assert np.array_equal(result.distinct_memoized_per_user, distinct)
            assert result.eps_avg == eps_avg


# ---------------------------------------------------------------------- #
# Stream anchors
# ---------------------------------------------------------------------- #
K, N_USERS, N_ROUNDS = 24, 300, 12


def anchor_dataset() -> LongitudinalDataset:
    """Each round every user redraws its value with probability 0.6, so the
    population mixes once-visited and reused pairs."""
    rng = np.random.default_rng(0)
    values = np.empty((N_USERS, N_ROUNDS), dtype=np.int64)
    values[:, 0] = rng.integers(0, K, size=N_USERS)
    for t in range(1, N_ROUNDS):
        movers = rng.random(N_USERS) < 0.6
        values[:, t] = np.where(movers, rng.integers(0, K, size=N_USERS), values[:, t - 1])
    return LongitudinalDataset(name="anchor", values=values, k=K)


#: sha256 of the float64 estimates under stream contract 3, eps_inf=2,
#: alpha=0.5, rng=7.  Dense and sparse memos resolve bit-identically and
#: share the ``simulate_protocol`` digest; ``sharded`` is 3 serial shards.
ESTIMATE_SHA256 = {
    ("RAPPOR", "memo"): "98eb4923c19f21f8f8afe0ce7cf9e0b9975ce5a9458dbd2cf598ef4788ca2f1e",
    ("RAPPOR", "sharded"): "7ce299e84400dcd2aef6e450936c6fa8f9ad5765c2320fcd8a8a71c4e71f4ab5",
    ("L-OSUE", "memo"): "eea071780c97e81cb4ce0ca82a0d9ccc94271b5bc5d5ff8e2df1b37af8a41662",
    ("L-OSUE", "sharded"): "c558bbffea83edffc6a8589efd296aaa1d0fb95e8f85159062b13c9297c920f8",
}


class TestStreamAnchors:
    def test_anchor_dataset_mixes_once_visited_and_reused_pairs(self):
        share = anchor_dataset().once_visited_mask().mean()
        assert 0.2 < share < 0.8

    @pytest.mark.parametrize("memo_class", [PackedBitMemo, SparsePackedBitMemo],
                             ids=["dense", "sparse"])
    @pytest.mark.parametrize("name", list(PROTOCOLS))
    def test_simulate_protocol_matches_anchor(self, name, memo_class):
        result = simulate_protocol(
            PROTOCOLS[name](K, EPS_INF, ALPHA * EPS_INF),
            anchor_dataset(),
            rng=7,
            engine_options={"memo": memo_class(N_USERS, K, K)},
        )
        assert digest(result.estimates) == ESTIMATE_SHA256[(name, "memo")]

    @pytest.mark.parametrize("name", list(PROTOCOLS))
    def test_sharded_matches_anchor_and_pooled_equals_serial(self, name):
        dataset = anchor_dataset()
        spec = ProtocolSpec(name=name, eps_inf=EPS_INF, alpha=ALPHA)
        serial = simulate_protocol_sharded(spec, dataset, 3, rng=7)
        assert digest(serial.estimates) == ESTIMATE_SHA256[(name, "sharded")]
        pooled = simulate_protocol_sharded(spec, dataset, 3, rng=7, n_workers=2)
        assert np.array_equal(pooled.estimates, serial.estimates)
        assert np.array_equal(
            pooled.distinct_memoized_per_user, serial.distinct_memoized_per_user
        )
