"""Tests for the dataset container and the four workload generators."""

import numpy as np
import pytest

from repro.datasets import (
    LongitudinalDataset,
    dataset_summaries,
    make_adult,
    make_census_counters,
    make_dataset,
    make_db_de,
    make_db_mt,
    make_syn,
    make_uniform_changing,
)
from repro.datasets.adult import ADULT_DOMAIN_SIZE, adult_hours_marginal
from repro.exceptions import DatasetError


class TestContainer:
    def test_shape_properties(self):
        values = np.zeros((5, 3), dtype=np.int64)
        dataset = LongitudinalDataset(name="x", values=values, k=2)
        assert dataset.n_users == 5
        assert dataset.n_rounds == 3

    def test_rejects_non_integer_values(self):
        with pytest.raises(DatasetError):
            LongitudinalDataset(name="x", values=np.zeros((2, 2)), k=2)

    def test_rejects_out_of_domain_values(self):
        with pytest.raises(DatasetError):
            LongitudinalDataset(name="x", values=np.full((2, 2), 5, dtype=np.int64), k=3)

    def test_rejects_wrong_dimensionality(self):
        with pytest.raises(DatasetError):
            LongitudinalDataset(name="x", values=np.zeros(4, dtype=np.int64), k=2)

    def test_true_frequencies_normalized(self):
        dataset = make_uniform_changing(k=6, n_users=50, n_rounds=4, change_probability=0.5, rng=0)
        for t in range(4):
            frequencies = dataset.true_frequencies(t)
            assert frequencies.shape == (6,)
            assert frequencies.sum() == pytest.approx(1.0)

    def test_true_frequency_matrix_shape(self):
        dataset = make_uniform_changing(k=6, n_users=50, n_rounds=4, change_probability=0.5, rng=0)
        assert dataset.true_frequency_matrix().shape == (4, 6)

    def test_round_values_bounds_check(self):
        dataset = make_uniform_changing(k=6, n_users=10, n_rounds=2, change_probability=0.5, rng=0)
        with pytest.raises(DatasetError):
            dataset.round_values(2)

    def test_change_counts_zero_when_static(self):
        values = np.tile(np.arange(4, dtype=np.int64).reshape(-1, 1), (1, 5))
        dataset = LongitudinalDataset(name="static", values=values, k=4)
        assert dataset.change_counts().sum() == 0
        assert np.all(dataset.distinct_values_per_user() == 1)

    @pytest.mark.parametrize("k,n_rounds", [(5, 1), (7, 9), (300, 240)])
    def test_once_visited_mask_marks_values_held_in_one_round(self, k, n_rounds):
        values = np.random.default_rng(k).integers(0, k, size=(40, n_rounds))
        dataset = LongitudinalDataset(name="mask", values=values, k=k)
        expected = np.array([
            [np.count_nonzero(row == value) == 1 for value in row] for row in values
        ])
        mask = dataset.once_visited_mask()
        assert np.array_equal(mask, expected)
        assert dataset.once_visited_mask() is mask  # cached on the object

    def test_subsample_shapes(self):
        dataset = make_syn(n_users=100, n_rounds=10, k=20, rng=0)
        small = dataset.subsample(n_users=30, n_rounds=4)
        assert small.n_users == 30
        assert small.n_rounds == 4
        assert small.k == dataset.k

    def test_subsample_random_user_selection(self):
        dataset = make_syn(n_users=100, n_rounds=5, k=20, rng=0)
        small = dataset.subsample(n_users=10, rng=np.random.default_rng(1))
        assert small.n_users == 10


class TestSynGenerator:
    def test_paper_default_shape_parameters(self):
        dataset = make_syn(n_users=200, n_rounds=10, rng=0)
        assert dataset.k == 360
        assert dataset.metadata["paper_defaults"]["p_ch"] == 0.25

    def test_change_probability_controls_changes(self):
        static = make_uniform_changing(k=10, n_users=300, n_rounds=20, change_probability=0.0, rng=1)
        dynamic = make_uniform_changing(k=10, n_users=300, n_rounds=20, change_probability=0.9, rng=1)
        assert static.change_counts().sum() == 0
        assert dynamic.change_counts().mean() > 10

    def test_observed_change_rate_matches_probability(self):
        p_change = 0.25
        dataset = make_uniform_changing(
            k=50, n_users=2000, n_rounds=20, change_probability=p_change, rng=2
        )
        observed = dataset.change_counts().mean() / (dataset.n_rounds - 1)
        # A change draw can keep the same value with probability 1/k.
        expected = p_change * (1 - 1 / dataset.k)
        assert observed == pytest.approx(expected, rel=0.1)

    def test_deterministic_with_seed(self):
        a = make_syn(n_users=50, n_rounds=5, rng=3)
        b = make_syn(n_users=50, n_rounds=5, rng=3)
        assert np.array_equal(a.values, b.values)


class TestAdultGenerator:
    def test_marginal_is_distribution_with_mode_at_40_hours(self):
        marginal = adult_hours_marginal()
        assert marginal.sum() == pytest.approx(1.0)
        assert marginal.argmax() == 39  # index 39 = 40 hours

    def test_population_histogram_constant_over_rounds(self):
        dataset = make_adult(n_users=500, n_rounds=6, rng=0)
        first = dataset.true_frequencies(0)
        for t in range(1, 6):
            assert np.allclose(dataset.true_frequencies(t), first)

    def test_individual_sequences_change(self):
        dataset = make_adult(n_users=500, n_rounds=6, rng=0)
        assert dataset.change_counts().mean() > 1.0

    def test_domain_size(self):
        dataset = make_adult(n_users=100, n_rounds=2, rng=0)
        assert dataset.k == ADULT_DOMAIN_SIZE


class TestCensusGenerators:
    def test_domain_is_dense_relabelling(self):
        dataset = make_census_counters(n_users=300, n_rounds=10, rng=0)
        assert dataset.values.max() == dataset.k - 1
        assert dataset.values.min() == 0

    def test_large_population_yields_large_domain(self):
        dataset = make_db_mt(n_users=3000, n_rounds=40, rng=1)
        assert dataset.k > 300

    def test_values_cluster_per_user(self):
        dataset = make_census_counters(n_users=200, n_rounds=20, rng=2)
        distinct = dataset.distinct_values_per_user()
        # Replicates hover around a base weight: well below 20 distinct raw
        # values would collapse to even fewer dense labels, but they must not
        # span the whole domain either.
        assert distinct.mean() < dataset.k / 2

    def test_db_de_metadata(self):
        dataset = make_db_de(n_users=100, n_rounds=5, rng=3)
        assert dataset.metadata["paper_defaults"]["k"] == 1234


class TestRegistry:
    def test_make_dataset_by_name(self):
        dataset = make_dataset("syn", scale=0.01, rng=0)
        assert dataset.name == "syn"
        assert dataset.n_users == 100

    def test_explicit_overrides_take_precedence(self):
        dataset = make_dataset("adult", n_users=77, n_rounds=3, rng=0)
        assert dataset.n_users == 77
        assert dataset.n_rounds == 3

    def test_unknown_name_raises(self):
        with pytest.raises(DatasetError):
            make_dataset("imaginary")

    def test_dataset_summaries_cover_all_workloads(self):
        summaries = dataset_summaries(scale=0.01, rng=0)
        assert {s["name"] for s in summaries} == {"syn", "adult", "db_mt", "db_de"}
        for summary in summaries:
            assert summary["n_users"] >= 2
            assert summary["k"] >= 2
