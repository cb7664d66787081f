"""Streaming aggregation sinks for the vectorized simulation.

A *sink* receives one vector of support counts per collection round and folds
it into server-side state; the estimate matrix is produced once at the end by
debiasing the accumulated counts (Eq. 1 / Eq. 3 are linear per round, so
debiasing at the end is bit-identical to debiasing round by round).  This
keeps the round loop of :func:`repro.simulation.runner.simulate_protocol`
free of any per-round allocation beyond the count row itself.
"""

from __future__ import annotations

import numpy as np

from .._validation import require_int_at_least
from ..exceptions import AggregationError
from ..longitudinal.base import LongitudinalProtocol, longitudinal_estimate
from ..longitudinal.dbitflip import DBitFlipPM
from .kernels import debias_kernel

__all__ = [
    "estimate_support_counts",
    "SupportCountSink",
]


def estimate_support_counts(
    protocol: LongitudinalProtocol, counts: np.ndarray, n_users: int
) -> np.ndarray:
    """Debias support counts into unbiased frequency estimates.

    Works on a single round (1-D counts) or a whole ``(n_rounds, m)`` matrix.
    Uses the chained estimator of Eq. (3) for the double-randomization
    protocols and the effective-sample-size estimator for dBitFlipPM (each
    bucket is observed by roughly ``n d / b`` users).
    """
    counts = np.asarray(counts, dtype=np.float64)
    if isinstance(protocol, DBitFlipPM):
        p, q = protocol.bit_probabilities
        effective_n = max(n_users * protocol.d / protocol.b, 1e-12)
        return debias_kernel(counts, effective_n, p, q)
    return longitudinal_estimate(counts, n_users, protocol.chained_parameters)


class SupportCountSink:
    """Accumulates one support-count row per round into a dense matrix.

    Rounds may arrive in any order but each index must be offered exactly
    once; :attr:`support_counts` raises until the matrix is complete.
    """

    def __init__(self, n_rounds: int, domain_size: int, n_users: int) -> None:
        self.n_rounds = require_int_at_least(n_rounds, 1, "n_rounds")
        self.domain_size = require_int_at_least(domain_size, 1, "domain_size")
        self.n_users = require_int_at_least(n_users, 1, "n_users")
        self._counts = np.zeros((n_rounds, domain_size), dtype=np.float64)
        self._seen = np.zeros(n_rounds, dtype=bool)

    def add_round(self, t: int, counts: np.ndarray) -> None:
        """Fold the support counts of round ``t`` into the sink."""
        if not 0 <= t < self.n_rounds:
            raise AggregationError(
                f"round index must lie in [0, {self.n_rounds}), got {t}"
            )
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (self.domain_size,):
            raise AggregationError(
                f"expected counts of shape ({self.domain_size},), got {counts.shape}"
            )
        if self._seen[t]:
            raise AggregationError(f"round {t} was already added to this sink")
        self._counts[t] = counts
        self._seen[t] = True

    @property
    def support_counts(self) -> np.ndarray:
        """The complete ``(n_rounds, domain_size)`` count matrix."""
        if not self._seen.all():
            missing = int(np.flatnonzero(~self._seen)[0])
            raise AggregationError(f"round {missing} has not been added yet")
        return self._counts

    def estimates(self, protocol: LongitudinalProtocol) -> np.ndarray:
        """Debiased ``(n_rounds, m)`` estimate matrix (Eq. 1 / Eq. 3)."""
        return estimate_support_counts(protocol, self.support_counts, self.n_users)
