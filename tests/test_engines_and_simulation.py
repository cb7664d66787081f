"""Tests for the vectorized population engines and the simulation runner."""

import gc
import weakref

import numpy as np
import pytest

from repro.exceptions import ExperimentError, ParameterError
from repro.longitudinal import BiLOLOHA, DBitFlipPM, LGRR, LOSUE, LSUE, OLOLOHA
from repro.simulation import (
    DBitFlipEngine,
    GRRChainEngine,
    LOLOHAEngine,
    UnaryChainEngine,
    engine_for,
    simulate_protocol,
    simulate_with_clients,
)
from repro.simulation.metrics import averaged_mse
from repro.simulation.sweep import run_sweep
from repro.specs import ProtocolSpec


class TestEngineDispatch:
    def test_engine_for_each_protocol_family(self):
        assert isinstance(engine_for(LGRR(10, 2.0, 1.0), 5), GRRChainEngine)
        assert isinstance(engine_for(LSUE(10, 2.0, 1.0), 5), UnaryChainEngine)
        assert isinstance(engine_for(BiLOLOHA(10, 2.0, 1.0), 5), LOLOHAEngine)
        assert isinstance(engine_for(DBitFlipPM(10, 2.0), 5), DBitFlipEngine)

    def test_engine_type_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            GRRChainEngine(LSUE(10, 2.0, 1.0), 5)
        with pytest.raises(ParameterError):
            LOLOHAEngine(LGRR(10, 2.0, 1.0), 5)

    def test_round_shape_validation(self):
        engine = engine_for(LGRR(10, 2.0, 1.0), 5, rng=0)
        with pytest.raises(ExperimentError):
            engine.run_round(np.zeros(4, dtype=np.int64))
        with pytest.raises(ExperimentError):
            engine.run_round(np.full(5, 10, dtype=np.int64))


class TestEngineMemoization:
    def test_grr_engine_counts_distinct_values(self):
        protocol = LGRR(6, 2.0, 1.0)
        engine = GRRChainEngine(protocol, 4, rng=0)
        rounds = np.asarray(
            [
                [0, 1, 2, 3],
                [0, 1, 2, 3],
                [1, 1, 3, 3],
            ]
        )
        for values in rounds:
            engine.run_round(values)
        assert list(engine.distinct_memoized_per_user()) == [2, 1, 2, 1]

    def test_loloha_engine_budget_bounded_by_g(self):
        protocol = BiLOLOHA(50, 2.0, 1.0)
        engine = LOLOHAEngine(protocol, 20, rng=0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            engine.run_round(rng.integers(0, 50, size=20))
        assert engine.distinct_memoized_per_user().max() <= 2

    def test_ue_engine_counts_distinct_values(self):
        protocol = LOSUE(5, 2.0, 1.0)
        engine = UnaryChainEngine(protocol, 3, rng=0)
        engine.run_round(np.asarray([0, 1, 2]))
        engine.run_round(np.asarray([0, 2, 2]))
        assert list(engine.distinct_memoized_per_user()) == [1, 2, 1]

    def test_dbitflip_engine_budget_bounded(self):
        protocol = DBitFlipPM(40, 2.0, b=10, d=2)
        engine = DBitFlipEngine(protocol, 15, rng=0)
        rng = np.random.default_rng(2)
        for _ in range(12):
            engine.run_round(rng.integers(0, 40, size=15))
        assert engine.distinct_memoized_per_user().max() <= 3

    def test_dbitflip_key_history_opt_in(self):
        protocol = DBitFlipPM(40, 2.0, b=10, d=2)
        engine = DBitFlipEngine(protocol, 15, rng=0, record_key_history=True)
        engine.run_round(np.zeros(15, dtype=np.int64))
        engine.run_round(np.full(15, 39, dtype=np.int64))
        assert len(engine.key_history) == 2
        assert engine.key_history[0].shape == (15,)

    def test_dbitflip_key_history_off_by_default(self):
        """Long-horizon simulations must not accumulate one array per round."""
        protocol = DBitFlipPM(40, 2.0, b=10, d=2)
        engine = DBitFlipEngine(protocol, 15, rng=0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            engine.run_round(rng.integers(0, 40, size=15))
        assert engine.key_history is None


@pytest.mark.parametrize(
    "protocol, options",
    [
        (LGRR(12, 2.0, 1.0), {}),
        (LOSUE(12, 2.0, 1.0), {}),
        (OLOLOHA(12, 2.0, 1.0), {"support_layout": "packed"}),
        (OLOLOHA(12, 2.0, 1.0), {"support_layout": "compare"}),
        (DBitFlipPM(12, 2.0), {}),
    ],
    ids=["grr", "ue", "loloha-packed", "loloha-compare", "dbitflip"],
)
def test_engine_freed_without_cyclic_gc(protocol, options):
    # An engine must not sit in a reference cycle: its memo would otherwise
    # outlive it until the cyclic collector ran, and peak memory across a
    # sweep would depend on when that happened.
    engine = engine_for(protocol, 8, rng=0, **options)
    for t in range(3):
        engine.run_round(np.full(8, t, dtype=np.int64))
    ref = weakref.ref(engine)
    gc.disable()
    try:
        del engine
        assert ref() is None
    finally:
        gc.enable()


class TestAggregatedRounds:
    """The aggregated instantaneous rounds (per-symbol mixing for L-GRR,
    the (memoized symbol, hash bucket) support fold for LOLOHA) must match
    the per-user reference sampling per-value in mean and variance."""

    N_TRIALS = 2_500

    @staticmethod
    def _moments_close(a, b, n_trials):
        # Means within ~6 standard errors, variances within 20% + slack.
        se = np.sqrt((a.var(axis=0) + b.var(axis=0)) / n_trials + 1e-12)
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) < 6 * se + 0.5)
        assert np.allclose(a.var(axis=0), b.var(axis=0), rtol=0.2, atol=3.0)

    def test_grr_chain_round_matches_per_user_reports(self):
        from repro.simulation.kernels import grr_kernel

        protocol = LGRR(6, 2.0, 1.0)
        n_users = 800
        engine = GRRChainEngine(protocol, n_users, rng=0)
        values = np.random.default_rng(1).integers(0, 6, size=n_users)
        engine.run_round(values)  # memoize every (user, value) pair in play
        memoized = engine._state.resolve(values, _fresh_must_not_run)
        params = protocol.chained_parameters
        rng = np.random.default_rng(2)
        aggregated = np.stack(
            [engine.run_round(values, rng) for _ in range(self.N_TRIALS)]
        )
        reference = np.stack(
            [
                np.bincount(grr_kernel(memoized, 6, params.p2, rng), minlength=6)
                for _ in range(self.N_TRIALS)
            ]
        ).astype(np.float64)
        self._moments_close(aggregated, reference, self.N_TRIALS)

    def test_loloha_round_matches_per_user_reports(self):
        from repro.simulation.kernels import grr_kernel, support_from_hashes_kernel

        protocol = OLOLOHA(12, 2.0, 1.0)
        n_users = 600
        engine = LOLOHAEngine(protocol, n_users, rng=0)
        values = np.random.default_rng(3).integers(0, 12, size=n_users)
        engine.run_round(values)  # memoize the hashes in play
        hashed = engine.hashed_domain[np.arange(n_users), values].astype(np.int64)
        memoized = engine._state.resolve(hashed, _fresh_must_not_run)
        params = protocol.chained_parameters
        rng = np.random.default_rng(4)
        aggregated = np.stack(
            [engine.run_round(values, rng) for _ in range(self.N_TRIALS)]
        )
        reference = np.stack(
            [
                support_from_hashes_kernel(
                    engine.hashed_domain,
                    grr_kernel(memoized, protocol.g, params.p2, rng),
                )
                for _ in range(self.N_TRIALS)
            ]
        )
        self._moments_close(aggregated, reference, self.N_TRIALS)

    def test_loloha_packed_and_compare_folds_are_bit_identical(self):
        protocol = OLOLOHA(20, 2.0, 1.0)
        packed = LOLOHAEngine(protocol, 150, rng=7, support_layout="packed")
        compare = LOLOHAEngine(protocol, 150, rng=7, support_layout="compare")
        rng = np.random.default_rng(8)
        for seed in range(5):
            values = rng.integers(0, 20, size=150)
            assert np.array_equal(
                packed.run_round(values, np.random.default_rng(seed)),
                compare.run_round(values, np.random.default_rng(seed)),
            )

    def test_loloha_unknown_support_layout_rejected(self):
        with pytest.raises(ParameterError, match="support layout"):
            LOLOHAEngine(OLOLOHA(10, 2.0, 1.0), 5, rng=0, support_layout="fancy")


def _fresh_must_not_run(users, keys):  # pragma: no cover - must never run
    raise AssertionError("memoization miss on an already-warm engine")


class _CountingGenerator(np.random.Generator):
    """A Generator that tallies how many random variates were drawn."""

    def __init__(self, seed=0):
        super().__init__(np.random.PCG64(seed))
        self.variates = 0

    def _count(self, out):
        self.variates += int(np.size(out))
        return out

    def random(self, *args, **kwargs):
        return self._count(super().random(*args, **kwargs))

    def integers(self, *args, **kwargs):
        return self._count(super().integers(*args, **kwargs))

    def binomial(self, *args, **kwargs):
        return self._count(super().binomial(*args, **kwargs))

    def multinomial(self, *args, **kwargs):
        return self._count(super().multinomial(*args, **kwargs))


class TestRoundRandomnessIndependentOfPopulation:
    """The steady-state round draws O(domain) variates, never O(n_users) —
    the deterministic guard behind the large-domain benchmark."""

    K = 32

    @pytest.mark.parametrize(
        "protocol_factory",
        [
            lambda k: LGRR(k, 3.0, 1.5),
            lambda k: LOSUE(k, 3.0, 1.5),
            lambda k: OLOLOHA(k, 3.0, 1.5),
        ],
        ids=["L-GRR", "L-OSUE", "OLOLOHA"],
    )
    def test_steady_state_draws_do_not_scale_with_users(self, protocol_factory):
        def steady_round_variates(n_users):
            engine = engine_for(protocol_factory(self.K), n_users, rng=0)
            values = np.random.default_rng(1).integers(0, self.K, size=n_users)
            engine.run_round(values)  # memoize every (user, current key) pair
            counter = _CountingGenerator(2)
            engine.run_round(values, counter)  # same keys: zero misses
            return counter.variates

        small, large = steady_round_variates(200), steady_round_variates(2_000)
        assert small == large
        assert small <= 4 * self.K  # O(k) draws, nothing per-user

    @pytest.mark.parametrize("d", [1, K], ids=["d=1", "d=b"])
    def test_dbitflip_steady_round_draws_nothing(self, d):
        # dBitFlipPM has no instantaneous randomization: once every
        # (user, current key) pair is memoized, a round is pure lookup.
        for n_users in (200, 2_000):
            engine = engine_for(DBitFlipPM(self.K, 3.0, d=d), n_users, rng=0)
            values = np.random.default_rng(1).integers(0, self.K, size=n_users)
            engine.run_round(values)
            counter = _CountingGenerator(2)
            engine.run_round(values, counter)
            assert counter.variates == 0


class TestEngineVsClients:
    """The engines must agree statistically with the reference client path."""

    @pytest.mark.parametrize(
        "protocol_factory",
        [
            lambda k: LGRR(k, 3.0, 1.5),
            lambda k: LSUE(k, 3.0, 1.5),
            lambda k: OLOLOHA(k, 3.0, 1.5),
            lambda k: DBitFlipPM(k, 3.0, d=4),
        ],
        ids=["L-GRR", "RAPPOR", "OLOLOHA", "dBitFlipPM"],
    )
    def test_engine_matches_client_path(self, protocol_factory, tiny_dataset):
        """All four protocol families: vectorized path ≈ reference client path."""
        engine_result = simulate_protocol(protocol_factory(tiny_dataset.k), tiny_dataset, rng=0)
        client_result = simulate_with_clients(
            protocol_factory(tiny_dataset.k), tiny_dataset, rng=0
        )
        assert engine_result.estimates.shape == client_result.estimates.shape
        # Same memoization structure (depends only on the value sequences).
        if isinstance(protocol_factory(tiny_dataset.k), (LGRR, LSUE)):
            assert np.array_equal(
                np.sort(engine_result.distinct_memoized_per_user),
                np.sort(client_result.distinct_memoized_per_user),
            )
        # Similar error level (both unbiased with the same variance).
        assert engine_result.mse_avg < 8 * client_result.mse_avg + 0.05
        assert client_result.mse_avg < 8 * engine_result.mse_avg + 0.05
        # Similar realized longitudinal budget.
        assert engine_result.eps_avg == pytest.approx(client_result.eps_avg, rel=0.25)


class TestSimulationRunner:
    def test_result_shapes(self, small_dataset):
        result = simulate_protocol(OLOLOHA(small_dataset.k, 2.0, 1.0), small_dataset, rng=0)
        assert result.estimates.shape == (small_dataset.n_rounds, small_dataset.k)
        assert result.true_frequencies.shape == result.estimates.shape
        assert result.mse_by_round.shape == (small_dataset.n_rounds,)
        assert result.mse_avg == pytest.approx(
            averaged_mse(result.estimates, result.true_frequencies)
        )

    def test_eps_avg_bounded_by_worst_case_for_loloha(self, small_dataset):
        result = simulate_protocol(BiLOLOHA(small_dataset.k, 2.0, 1.0), small_dataset, rng=0)
        assert result.eps_avg <= result.worst_case_budget + 1e-9

    def test_dbitflip_estimates_bucket_histogram(self, small_dataset):
        protocol = DBitFlipPM(small_dataset.k, 2.0, b=6, d=6)
        result = simulate_protocol(protocol, small_dataset, rng=0)
        assert result.estimates.shape == (small_dataset.n_rounds, 6)
        assert np.allclose(result.true_frequencies.sum(axis=1), 1.0)

    def test_domain_mismatch_rejected(self, small_dataset):
        with pytest.raises(ExperimentError):
            simulate_protocol(OLOLOHA(small_dataset.k + 1, 2.0, 1.0), small_dataset, rng=0)

    def test_loloha_more_private_than_rappor_on_changing_data(self, small_dataset):
        rappor = simulate_protocol(LSUE(small_dataset.k, 2.0, 1.0), small_dataset, rng=1)
        loloha = simulate_protocol(BiLOLOHA(small_dataset.k, 2.0, 1.0), small_dataset, rng=1)
        assert loloha.eps_avg < rappor.eps_avg

    def test_reproducible_with_same_seed(self, tiny_dataset):
        a = simulate_protocol(OLOLOHA(tiny_dataset.k, 2.0, 1.0), tiny_dataset, rng=5)
        b = simulate_protocol(OLOLOHA(tiny_dataset.k, 2.0, 1.0), tiny_dataset, rng=5)
        assert np.allclose(a.estimates, b.estimates)
        assert a.mse_avg == pytest.approx(b.mse_avg)


class TestSweep:
    def test_sweep_grid_size_and_ordering(self, tiny_dataset):
        specs = {
            "OLOLOHA": ProtocolSpec(name="OLOLOHA"),
            "RAPPOR": ProtocolSpec(name="L-SUE", label="RAPPOR"),
        }
        points = run_sweep(
            specs, tiny_dataset, eps_inf_values=[1.0, 2.0], alpha_values=[0.5], n_runs=2, rng=0
        )
        assert len(points) == 4
        assert all(len(point.runs) == 2 for point in points)
        assert {point.protocol_name for point in points} == {"OLOLOHA", "RAPPOR"}

    def test_sweep_requires_valid_alpha(self, tiny_dataset):
        with pytest.raises(ExperimentError):
            run_sweep(
                {"OLOLOHA": ProtocolSpec(name="OLOLOHA")},
                tiny_dataset,
                eps_inf_values=[1.0],
                alpha_values=[1.5],
            )

    def test_sweep_requires_protocols(self, tiny_dataset):
        with pytest.raises(ExperimentError):
            run_sweep({}, tiny_dataset, eps_inf_values=[1.0], alpha_values=[0.5])

    def test_sweep_mse_decreases_with_budget(self, small_dataset):
        specs = {"OLOLOHA": ProtocolSpec(name="OLOLOHA")}
        points = run_sweep(
            specs, small_dataset, eps_inf_values=[0.5, 4.0], alpha_values=[0.5], rng=1
        )
        low_budget = next(p for p in points if p.eps_inf == 0.5)
        high_budget = next(p for p in points if p.eps_inf == 4.0)
        assert high_budget.mse_avg < low_budget.mse_avg

    def test_keep_runs_false_drops_details(self, tiny_dataset):
        points = run_sweep(
            {"RAPPOR": ProtocolSpec(name="L-SUE", label="RAPPOR")},
            tiny_dataset,
            eps_inf_values=[1.0],
            alpha_values=[0.5],
            keep_runs=False,
        )
        assert points[0].runs == []
