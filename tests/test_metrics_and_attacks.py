"""Tests for the evaluation metrics and the attack modules."""

import numpy as np
import pytest

from repro.attacks import averaging_attack_accuracy, change_detection_rate, detect_user_changes
from repro.datasets import make_uniform_changing
from repro.exceptions import ExperimentError
from repro.simulation.metrics import (
    averaged_longitudinal_privacy_loss,
    averaged_mse,
    mse_per_round,
    worst_case_privacy_loss,
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

    def test_worst_case_privacy_loss(self):
        assert worst_case_privacy_loss(5, 2.0) == 10.0
        with pytest.raises(ExperimentError):
            worst_case_privacy_loss(0, 2.0)


class TestDetectUserChanges:
    def test_all_changes_visible(self):
        buckets = np.asarray([0, 0, 1, 1, 2])
        keys = np.asarray([0, 0, 1, 1, 2])
        memo_equal = np.eye(3, dtype=bool)  # distinct keys have distinct memos
        assert detect_user_changes(buckets, keys, memo_equal) is True

    def test_colliding_memo_hides_a_change(self):
        buckets = np.asarray([0, 1])
        keys = np.asarray([0, 1])
        memo_equal = np.ones((2, 2), dtype=bool)  # memoized responses collide
        assert detect_user_changes(buckets, keys, memo_equal) is False

    def test_no_changes_returns_false(self):
        buckets = np.asarray([3, 3, 3])
        keys = np.asarray([0, 0, 0])
        assert detect_user_changes(buckets, keys, np.eye(1, dtype=bool)) is False

    def test_length_mismatch_raises(self):
        with pytest.raises(ExperimentError):
            detect_user_changes(np.asarray([0, 1]), np.asarray([0]), np.eye(2, dtype=bool))


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


class TestAveragingAttack:
    def test_accuracy_grows_with_observations(self):
        few = averaging_attack_accuracy(k=20, epsilon=1.0, n_reports=2, n_victims=300, rng=0)
        many = averaging_attack_accuracy(k=20, epsilon=1.0, n_reports=200, n_victims=300, rng=0)
        assert many.accuracy > few.accuracy
        assert many.accuracy > 0.9

    def test_single_report_close_to_keep_probability(self):
        result = averaging_attack_accuracy(k=10, epsilon=1.0, n_reports=1, n_victims=2000, rng=1)
        expected_p = np.exp(1.0) / (np.exp(1.0) + 9)
        assert result.baseline_accuracy == pytest.approx(expected_p, abs=0.05)

    def test_result_metadata(self):
        result = averaging_attack_accuracy(k=5, epsilon=0.5, n_reports=3, n_victims=50, rng=2)
        assert result.k == 5
        assert result.epsilon == 0.5
        assert result.n_reports == 3
