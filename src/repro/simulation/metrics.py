"""Evaluation metrics: Eq. (7) utility and Eq. (8) privacy loss.

``averaged_mse`` is the paper's ``MSE_avg``: the mean squared error between
the estimated and true histograms, averaged over values and collection
rounds.  ``averaged_longitudinal_privacy_loss`` is ``eps_avg``: the mean over
users of the realized longitudinal budget (``eps_inf`` times the number of
distinct memoization keys each user consumed).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._validation import require_epsilon
from ..exceptions import ExperimentError

__all__ = [
    "mse_per_round",
    "averaged_mse",
    "averaged_longitudinal_privacy_loss",
]


def _validate_matrices(estimated: np.ndarray, true: np.ndarray) -> tuple:
    estimated = np.asarray(estimated, dtype=np.float64)
    true = np.asarray(true, dtype=np.float64)
    if estimated.shape != true.shape:
        raise ExperimentError(
            f"estimated and true frequency matrices must have the same shape, "
            f"got {estimated.shape} and {true.shape}"
        )
    if estimated.ndim == 1:
        estimated = estimated.reshape(1, -1)
        true = true.reshape(1, -1)
    if estimated.ndim != 2:
        raise ExperimentError("frequency matrices must be 1-D or 2-D (tau, k)")
    return estimated, true


def mse_per_round(estimated: np.ndarray, true: np.ndarray) -> np.ndarray:
    """Per-round MSE between estimated and true ``(tau, k)`` frequency matrices."""
    estimated, true = _validate_matrices(estimated, true)
    return ((estimated - true) ** 2).mean(axis=1)


def averaged_mse(estimated: np.ndarray, true: np.ndarray) -> float:
    """``MSE_avg`` (Eq. 7): the per-round MSE averaged over all rounds."""
    return float(mse_per_round(estimated, true).mean())


def averaged_longitudinal_privacy_loss(
    distinct_memoized_per_user: Sequence[int], eps_inf: float
) -> float:
    """``eps_avg`` (Eq. 8): the mean realized longitudinal budget over users.

    Each user's realized budget is ``eps_inf`` multiplied by the number of
    distinct memoization keys the user's client permanently randomized.
    """
    eps_inf = require_epsilon(eps_inf, "eps_inf")
    counts = np.asarray(list(distinct_memoized_per_user), dtype=np.float64)
    if counts.size == 0:
        raise ExperimentError("cannot average the privacy loss of an empty population")
    if counts.min() < 0:
        raise ExperimentError("memoization counts must be non-negative")
    return float(eps_inf * counts.mean())
