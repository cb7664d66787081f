"""Tests for the evaluation metrics and the change-detection attack."""

import numpy as np
import pytest

from repro.attacks import change_detection_rate
from repro.datasets import make_uniform_changing
from repro.exceptions import ExperimentError
from repro.simulation.metrics import (
    averaged_longitudinal_privacy_loss,
    averaged_mse,
    mse_per_round,
)


class TestMetrics:
    def test_mse_of_identical_matrices_is_zero(self):
        matrix = np.random.default_rng(0).random((4, 6))
        assert averaged_mse(matrix, matrix) == 0.0

    def test_mse_per_round_shape(self):
        estimated = np.zeros((3, 5))
        true = np.ones((3, 5))
        assert mse_per_round(estimated, true).shape == (3,)
        assert averaged_mse(estimated, true) == pytest.approx(1.0)

    def test_mse_accepts_single_round_vectors(self):
        assert averaged_mse(np.zeros(5), np.zeros(5)) == 0.0

    def test_mse_shape_mismatch_raises(self):
        with pytest.raises(ExperimentError):
            averaged_mse(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_privacy_loss_average(self):
        assert averaged_longitudinal_privacy_loss([1, 2, 3], 2.0) == pytest.approx(4.0)

    def test_privacy_loss_empty_population_raises(self):
        with pytest.raises(ExperimentError):
            averaged_longitudinal_privacy_loss([], 1.0)

    def test_privacy_loss_rejects_negative_counts(self):
        with pytest.raises(ExperimentError):
            averaged_longitudinal_privacy_loss([-1], 1.0)


class TestChangeDetectionAttack:
    @pytest.fixture(scope="class")
    def changing_dataset(self):
        return make_uniform_changing(
            k=30, n_users=600, n_rounds=25, change_probability=0.4, name="attack", rng=0
        )

    def test_utility_oriented_configuration_is_fully_detectable(self, changing_dataset):
        result = change_detection_rate(changing_dataset, eps_inf=2.0, d=changing_dataset.k, rng=1)
        assert result.fraction_fully_detected > 0.9

    def test_privacy_oriented_configuration_is_rarely_detectable(self, changing_dataset):
        result = change_detection_rate(changing_dataset, eps_inf=2.0, d=1, rng=1)
        assert result.fraction_fully_detected < 0.05

    def test_result_counts_are_consistent(self, changing_dataset):
        result = change_detection_rate(changing_dataset, eps_inf=1.0, d=1, rng=2)
        assert 0 <= result.n_fully_detected <= result.n_users_with_changes <= result.n_users
        assert result.fraction_fully_detected == pytest.approx(
            result.n_fully_detected / result.n_users
        )

    @pytest.mark.parametrize(
        "d, n_with_changes, n_fully_detected", [(1, 330, 34), (4, 330, 183), (10, 330, 329)]
    )
    def test_exact_counts_at_a_fixed_seed(self, d, n_with_changes, n_fully_detected):
        """Pinned counts: any change to the keys, the memo or the stream shows."""
        dataset = make_uniform_changing(
            k=30, n_users=600, n_rounds=12, change_probability=0.08, name="attack", rng=0
        )
        result = change_detection_rate(dataset, eps_inf=2.0, d=d, b=10, rng=11)
        assert (result.n_users_with_changes, result.n_fully_detected) == (
            n_with_changes,
            n_fully_detected,
        )

    def test_bucketized_attack_runs(self, changing_dataset):
        result = change_detection_rate(changing_dataset, eps_inf=2.0, d=2, b=10, rng=3)
        assert result.b == 10
        assert result.d == 2
