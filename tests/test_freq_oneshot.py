"""Tests for the one-shot LDP frequency oracles (GRR, UE)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AggregationError, DomainError, EncodingError, ParameterError
from repro.freq_oneshot import (
    GRR,
    OUE,
    SUE,
    UnaryEncoding,
    grr_parameters,
    oue_parameters,
    sue_parameters,
    unbiased_estimate,
)


class TestParameterDerivations:
    @pytest.mark.parametrize("epsilon,k", [(0.5, 2), (1.0, 10), (3.0, 100)])
    def test_grr_parameters_satisfy_ldp_ratio(self, epsilon, k):
        params = grr_parameters(epsilon, k)
        assert params.p / params.q == pytest.approx(math.exp(epsilon))
        assert params.p + (k - 1) * params.q == pytest.approx(1.0)

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0, 4.0])
    def test_sue_parameters_are_symmetric(self, epsilon):
        params = sue_parameters(epsilon)
        assert params.p + params.q == pytest.approx(1.0)
        realized = math.log(params.p * (1 - params.q) / ((1 - params.p) * params.q))
        assert realized == pytest.approx(epsilon)

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0, 4.0])
    def test_oue_parameters_realize_epsilon(self, epsilon):
        params = oue_parameters(epsilon)
        assert params.p == pytest.approx(0.5)
        realized = math.log(params.p * (1 - params.q) / ((1 - params.p) * params.q))
        assert realized == pytest.approx(epsilon)

    def test_unbiased_estimate_requires_gap(self):
        with pytest.raises(ParameterError):
            unbiased_estimate(np.asarray([1.0]), 10, 0.3, 0.3)

    def test_unbiased_estimate_matches_manual_computation(self):
        counts = np.asarray([30.0, 70.0])
        estimate = unbiased_estimate(counts, 100, 0.75, 0.25)
        assert estimate[0] == pytest.approx((30 - 25) / 50)
        assert estimate[1] == pytest.approx((70 - 25) / 50)


class TestGRR:
    def test_reports_stay_in_domain(self, rng):
        oracle = GRR(k=10, epsilon=1.0)
        reports = oracle.privatize_batch(rng.integers(0, 10, size=500), rng)
        assert reports.min() >= 0 and reports.max() < 10

    def test_privatize_rejects_out_of_domain(self):
        oracle = GRR(k=10, epsilon=1.0)
        with pytest.raises(DomainError):
            oracle.privatize(10)

    def test_estimation_is_unbiased(self):
        oracle = GRR(k=5, epsilon=2.0)
        rng = np.random.default_rng(0)
        true = np.asarray([0.5, 0.2, 0.1, 0.1, 0.1])
        values = rng.choice(5, size=20_000, p=true)
        reports = oracle.privatize_batch(values, rng)
        estimate = oracle.estimate_frequencies(reports)
        assert np.allclose(estimate, true, atol=0.03)

    def test_keep_probability_scales_with_epsilon(self):
        low = GRR(k=10, epsilon=0.5)
        high = GRR(k=10, epsilon=5.0)
        assert high.estimation_parameters.p > low.estimation_parameters.p

    def test_empty_reports_raise(self):
        oracle = GRR(k=4, epsilon=1.0)
        with pytest.raises(AggregationError):
            oracle.estimate_frequencies([])

    def test_variance_decreases_with_n(self):
        oracle = GRR(k=10, epsilon=1.0)
        assert oracle.estimator_variance(10_000) < oracle.estimator_variance(100)


class TestUnaryEncoding:
    def test_report_shape_and_dtype(self, rng):
        oracle = SUE(k=8, epsilon=1.0)
        report = oracle.privatize(3, rng)
        assert report.shape == (8,)
        assert set(np.unique(report)).issubset({0, 1})

    def test_batch_shape(self, rng):
        oracle = OUE(k=8, epsilon=1.0)
        reports = oracle.privatize_batch(rng.integers(0, 8, size=100), rng)
        assert reports.shape == (100, 8)

    def test_estimation_is_unbiased_sue(self):
        oracle = SUE(k=6, epsilon=2.0)
        rng = np.random.default_rng(1)
        true = np.asarray([0.3, 0.3, 0.2, 0.1, 0.05, 0.05])
        values = rng.choice(6, size=20_000, p=true)
        reports = oracle.privatize_batch(values, rng)
        assert np.allclose(oracle.estimate_frequencies(reports), true, atol=0.03)

    def test_estimation_is_unbiased_oue(self):
        oracle = OUE(k=6, epsilon=2.0)
        rng = np.random.default_rng(2)
        true = np.asarray([0.3, 0.3, 0.2, 0.1, 0.05, 0.05])
        values = rng.choice(6, size=20_000, p=true)
        reports = oracle.privatize_batch(values, rng)
        assert np.allclose(oracle.estimate_frequencies(reports), true, atol=0.03)

    def test_oue_variance_not_worse_than_sue(self):
        sue = SUE(k=20, epsilon=1.0)
        oue = OUE(k=20, epsilon=1.0)
        assert oue.estimator_variance(1000) <= sue.estimator_variance(1000) + 1e-12

    def test_wrong_report_length_raises(self):
        oracle = SUE(k=8, epsilon=1.0)
        with pytest.raises(EncodingError):
            oracle.support_counts(np.zeros((3, 9), dtype=np.uint8))

    def test_from_probabilities_requires_p_above_q(self):
        with pytest.raises(ParameterError):
            UnaryEncoding.from_probabilities(k=4, p=0.2, q=0.5)

    def test_from_probabilities_recovers_epsilon(self):
        oracle = UnaryEncoding.from_probabilities(k=4, p=0.75, q=0.25)
        assert oracle.epsilon == pytest.approx(math.log(9.0))


class TestPropertyBased:
    @given(
        epsilon=st.floats(min_value=0.1, max_value=6.0),
        k=st.integers(min_value=2, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_grr_probabilities_are_valid(self, epsilon, k):
        params = grr_parameters(epsilon, k)
        assert 0 < params.q < params.p < 1
        assert params.p + (k - 1) * params.q == pytest.approx(1.0)

    @given(epsilon=st.floats(min_value=0.1, max_value=6.0))
    @settings(max_examples=60, deadline=None)
    def test_ue_probabilities_realize_epsilon(self, epsilon):
        for params in (sue_parameters(epsilon), oue_parameters(epsilon)):
            realized = math.log(params.p * (1 - params.q) / ((1 - params.p) * params.q))
            assert realized == pytest.approx(epsilon, rel=1e-9)
