"""Tests for the variance formulas (Eq. 4 / Eq. 5, and Eq. 4 over a fixed
population) and the optimal-g selection (Eq. 6)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_dataset
from repro.exceptions import ParameterError
from repro.longitudinal import LGRR, DBitFlipPM, optimal_g, optimal_g_numeric
from repro.longitudinal.parameters import (
    l_grr_parameters,
    l_osue_parameters,
    l_sue_parameters,
    loloha_parameters,
)
from repro.longitudinal.variance import (
    approximate_variance,
    dbitflip_closed_form_variance,
    exact_variance,
    fixed_population_variance,
    l_osue_closed_form_variance,
)


class TestExactVariance:
    def test_approximate_is_exact_at_zero_frequency(self):
        params = l_osue_parameters(2.0, 1.0)
        assert approximate_variance(params, 1000) == pytest.approx(
            exact_variance(params, 1000, 0.0)
        )

    def test_variance_scales_inversely_with_n(self):
        params = l_sue_parameters(2.0, 1.0)
        assert exact_variance(params, 2000, 0.1) == pytest.approx(
            exact_variance(params, 1000, 0.1) / 2.0
        )

    @pytest.mark.parametrize(
        "params",
        [l_sue_parameters(2.0, 1.0), l_grr_parameters(2.0, 1.0, 60)],
        ids=["L-SUE", "L-GRR"],
    )
    def test_variance_positive_for_valid_frequencies(self, params):
        for f in (0.0, 0.1, 0.5, 0.9):
            assert exact_variance(params, 100, f) > 0

    def test_rejects_invalid_frequency(self):
        params = l_sue_parameters(2.0, 1.0)
        with pytest.raises(ParameterError):
            exact_variance(params, 100, 1.5)

    def test_rejects_non_positive_n(self):
        params = l_sue_parameters(2.0, 1.0)
        with pytest.raises(ParameterError):
            exact_variance(params, 0, 0.1)


FIXED_POPULATION_PARAMS = pytest.mark.parametrize(
    "params",
    [
        l_sue_parameters(2.0, 1.0),
        l_osue_parameters(8.0, 4.0),
        l_grr_parameters(8.0, 4.0, 60),
        loloha_parameters(2.0, 1.0, 2),
    ],
    ids=["L-SUE", "L-OSUE-eps8", "L-GRR-eps8", "BiLOLOHA"],
)


class TestFixedPopulationVariance:
    @FIXED_POPULATION_PARAMS
    def test_is_eq4_minus_the_population_term(self, params):
        assert fixed_population_variance(params, 600, 0.0) == approximate_variance(params, 600)
        for f in (0.05, 0.5, 0.9, 1.0):
            assert fixed_population_variance(params, 600, f) == pytest.approx(
                exact_variance(params, 600, f) - f * (1 - f) / 600, rel=1e-12
            )

    @FIXED_POPULATION_PARAMS
    def test_is_the_variance_of_a_sum_of_independent_bernoullis(self, params):
        """``n f`` holders support at gamma_1, the rest at gamma_0."""
        p1, q1, p2, q2 = params.p1, params.estimator_q1, params.p2, params.q2
        gamma_1 = p1 * p2 + (1 - p1) * q2
        gamma_0 = q1 * p2 + (1 - q1) * q2
        for f in (0.05, 0.5, 0.9):
            count_variance = 600 * (
                f * gamma_1 * (1 - gamma_1) + (1 - f) * gamma_0 * (1 - gamma_0)
            )
            assert fixed_population_variance(params, 600, f) == pytest.approx(
                count_variance / (600 * (gamma_1 - gamma_0)) ** 2, rel=1e-12
            )

    def test_protocol_methods(self):
        protocol = LGRR(60, 8.0, 4.0)
        assert protocol.fixed_population_variance(600, 0.2) == fixed_population_variance(
            protocol.chained_parameters, 600, 0.2
        )
        with pytest.raises(ParameterError):
            protocol.fixed_population_variance(600, 1.5)
        dbitflip = DBitFlipPM(40, 1.0, b=20, d=4)
        assert dbitflip.fixed_population_variance(500, 0.3) == dbitflip.exact_variance(500, 0.3)


class TestClosedForms:
    @pytest.mark.parametrize("eps_inf,alpha", [(1.0, 0.5), (2.0, 0.5), (4.0, 0.4)])
    def test_l_osue_closed_form_matches_generic_formula(self, eps_inf, alpha):
        eps_1 = alpha * eps_inf
        params = l_osue_parameters(eps_inf, eps_1)
        generic = approximate_variance(params, 10_000)
        closed = l_osue_closed_form_variance(eps_1, 10_000)
        assert generic == pytest.approx(closed, rel=1e-6)

    def test_dbitflip_closed_form_decreases_with_d(self):
        assert dbitflip_closed_form_variance(2.0, b=100, d=100, n=1000) < (
            dbitflip_closed_form_variance(2.0, b=100, d=1, n=1000)
        )

    def test_dbitflip_closed_form_rejects_d_above_b(self):
        with pytest.raises(ParameterError):
            dbitflip_closed_form_variance(2.0, b=10, d=11, n=1000)


class TestDBitFlipVariance:
    """dBitFlipPM's own variance: a ``d / b`` share of users reports each bucket."""

    def test_exact_at_full_sampling_is_the_closed_form(self):
        protocol = DBitFlipPM(100, 2.0, b=50, d=50)
        assert protocol.approximate_variance(1000) == pytest.approx(
            dbitflip_closed_form_variance(2.0, b=50, d=50, n=1000), rel=1e-12
        )

    def test_bucket_sampling_term_adds_to_the_closed_form(self):
        protocol = DBitFlipPM(100, 2.0, b=100, d=1)
        p, q = protocol.bit_probabilities
        closed = dbitflip_closed_form_variance(2.0, b=100, d=1, n=1000)
        assert protocol.approximate_variance(1000) == pytest.approx(
            closed * (1 - q / 100) / p, rel=1e-12
        )

    def test_exact_variance_grows_with_frequency(self):
        protocol = DBitFlipPM(40, 1.0, b=20, d=4)
        assert protocol.exact_variance(500, 0.0) == protocol.approximate_variance(500)
        assert protocol.exact_variance(500, 0.3) > protocol.exact_variance(500, 0.0)
        with pytest.raises(ParameterError):
            protocol.exact_variance(500, 1.5)

    @pytest.mark.parametrize("d_label", ["1", "b"])
    @pytest.mark.parametrize("dataset_name", ["syn", "db_mt"])
    def test_simulated_mse_matches_v_star(self, dataset_name, d_label):
        # Memoization correlates a run's rounds, so the spread comes from
        # independent seeds, not from rounds.
        from repro.registry import dbitflip_bucket_count
        from repro.simulation import simulate_protocol

        dataset = make_dataset(dataset_name, scale=0.2, rng=0)
        b = dbitflip_bucket_count(dataset.k)
        protocol = DBitFlipPM(dataset.k, 2.0, b=b, d=1 if d_label == "1" else b)
        v_star = protocol.approximate_variance(dataset.n_users)
        ratios = np.array(
            [simulate_protocol(protocol, dataset, rng=seed).mse_avg for seed in range(1, 9)]
        ) / v_star
        standard_error = ratios.std(ddof=1) / math.sqrt(ratios.size)
        assert abs(ratios.mean() - 1.0) <= max(0.1, 4 * standard_error)


class TestVarianceOrdering:
    """Qualitative orderings reported in Section 4 / Figure 2."""

    def test_ololoha_close_to_l_osue(self):
        for eps_inf in (1.0, 2.0, 3.0, 4.0, 5.0):
            eps_1 = 0.5 * eps_inf
            g = optimal_g(eps_inf, eps_1)
            v_ololoha = approximate_variance(loloha_parameters(eps_inf, eps_1, g), 10_000)
            v_losue = approximate_variance(l_osue_parameters(eps_inf, eps_1), 10_000)
            assert v_ololoha <= 1.6 * v_losue

    def test_biloloha_not_better_than_ololoha(self):
        for eps_inf in (1.0, 3.0, 5.0):
            eps_1 = 0.6 * eps_inf
            g = optimal_g(eps_inf, eps_1)
            v_bi = approximate_variance(loloha_parameters(eps_inf, eps_1, 2), 10_000)
            v_opt = approximate_variance(loloha_parameters(eps_inf, eps_1, g), 10_000)
            assert v_opt <= v_bi + 1e-15

    def test_all_protocols_similar_in_high_privacy_regime(self):
        eps_inf, eps_1 = 0.5, 0.15
        values = [
            approximate_variance(l_sue_parameters(eps_inf, eps_1), 10_000),
            approximate_variance(l_osue_parameters(eps_inf, eps_1), 10_000),
            approximate_variance(loloha_parameters(eps_inf, eps_1, 2), 10_000),
        ]
        assert max(values) / min(values) < 1.35


class TestOptimalG:
    def test_high_privacy_gives_binary(self):
        assert optimal_g(0.5, 0.05) == 2
        assert optimal_g(1.0, 0.1) == 2

    def test_low_privacy_gives_larger_g(self):
        assert optimal_g(5.0, 3.0) > 2

    def test_monotone_in_eps_inf_for_fixed_alpha(self):
        values = [optimal_g(eps, 0.6 * eps) for eps in (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)]
        assert values == sorted(values)

    def test_matches_numeric_minimizer(self):
        for eps_inf in (0.5, 1.0, 2.0, 3.0, 4.0, 5.0):
            for alpha in (0.3, 0.5, 0.6):
                closed = optimal_g(eps_inf, alpha * eps_inf)
                numeric = optimal_g_numeric(eps_inf, alpha * eps_inf, g_max=64)
                assert abs(closed - numeric) <= 1

    def test_requires_valid_budget_pair(self):
        with pytest.raises(ParameterError):
            optimal_g(1.0, 1.0)

    @given(
        eps_inf=st.floats(min_value=0.3, max_value=5.0),
        alpha=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_optimal_g_always_at_least_two(self, eps_inf, alpha):
        assert optimal_g(eps_inf, alpha * eps_inf) >= 2

    @given(
        eps_inf=st.floats(min_value=0.3, max_value=4.0),
        alpha=st.floats(min_value=0.2, max_value=0.7),
        g_offset=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_optimal_g_beats_other_choices(self, eps_inf, alpha, g_offset):
        """The closed-form g never loses materially to g + offset.

        Eq. (6) rounds a continuous optimum to the nearest integer, so at the
        boundary between two integers the neighbour can be marginally better;
        a few percent of slack absorbs that rounding effect.
        """
        eps_1 = alpha * eps_inf
        best = optimal_g(eps_inf, eps_1)
        best_variance = approximate_variance(loloha_parameters(eps_inf, eps_1, best), 1000)
        other_variance = approximate_variance(
            loloha_parameters(eps_inf, eps_1, best + g_offset), 1000
        )
        assert best_variance <= other_variance * 1.05
