"""Histogram post-processing utilities.

Unbiased LDP estimates can be negative or sum to something other than one.
The functions here implement the standard post-processing options; they are
kept separate from the oracles because post-processing trades bias for
variance and the paper's metrics are computed on the raw unbiased estimates.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError

__all__ = [
    "clip_and_normalize",
    "project_onto_simplex",
]


def clip_and_normalize(frequencies: np.ndarray) -> np.ndarray:
    """Clip negative entries to zero and rescale to sum to one.

    If every entry is non-positive the uniform distribution is returned, which
    is the convention used by the multi-freq-ldpy reference package.
    """
    clipped = np.clip(np.asarray(frequencies, dtype=np.float64), 0.0, None)
    total = clipped.sum()
    if total <= 0:
        return np.full_like(clipped, 1.0 / clipped.size)
    return clipped / total


def project_onto_simplex(frequencies: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    This is the post-processing with the smallest L2 distortion; it solves
    ``min ||x - f||_2`` subject to ``x >= 0`` and ``sum(x) = 1`` using the
    sorting algorithm of Held, Wolfe and Crowder.
    """
    values = np.asarray(frequencies, dtype=np.float64)
    if values.ndim != 1:
        raise ParameterError("project_onto_simplex expects a one-dimensional array")
    sorted_desc = np.sort(values)[::-1]
    cumulative = np.cumsum(sorted_desc) - 1.0
    indices = np.arange(1, values.size + 1)
    candidate = sorted_desc - cumulative / indices
    rho = np.nonzero(candidate > 0)[0][-1]
    theta = cumulative[rho] / (rho + 1.0)
    return np.clip(values - theta, 0.0, None)
