"""Abstract base classes shared by all longitudinal protocols.

A longitudinal protocol is split between a stateless *protocol* object, which
holds the configuration (domain size, budgets, chained parameters) and the
server-side estimator, and per-user *client* objects, which hold the
memoization state and produce one report per collection round.

The server-side estimator is Eq. (3) of the paper::

    f_hat(v) = (C(v) - n q1 (p2 - q2) - n q2) / (n (p1 - q1)(p2 - q2))

where ``C(v)`` is the number of reports supporting value ``v`` at a given
round and ``(p1, q1, p2, q2)`` are the chained parameters (with ``q1``
replaced by ``1/g`` for local hashing).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .._validation import require_domain_size, require_epsilon_pair, require_int_at_least
from ..exceptions import AggregationError
from ..rng import RngLike
from ..simulation.kernels import chained_debias_kernel
from .parameters import ChainedParameters
from .variance import approximate_variance, exact_variance, fixed_population_variance

__all__ = ["RoundEstimate", "LongitudinalClient", "LongitudinalProtocol", "longitudinal_estimate"]


def longitudinal_estimate(
    counts: np.ndarray, n: int, params: ChainedParameters
) -> np.ndarray:
    """Unbiased longitudinal frequency estimate, Eq. (3)."""
    n = require_int_at_least(n, 1, "n")
    p1, q1 = params.p1, params.estimator_q1
    p2, q2 = params.p2, params.q2
    if n * (p1 - q1) * (p2 - q2) <= 0:
        raise AggregationError("estimator denominator is non-positive; check parameters")
    return chained_debias_kernel(counts, n, p1, q1, p2, q2)


@dataclass(frozen=True)
class RoundEstimate:
    """Result of aggregating one collection round.

    Attributes
    ----------
    round_index:
        The collection round the estimate refers to.
    frequencies:
        Unbiased frequency estimate over the protocol's estimation domain
        (size ``k``, or ``b`` for dBitFlipPM with bucketization).
    n_reports:
        Number of reports aggregated.
    """

    round_index: int
    frequencies: np.ndarray
    n_reports: int


class LongitudinalClient(ABC):
    """Per-user client state of a longitudinal protocol."""

    def __init__(self, protocol: "LongitudinalProtocol") -> None:
        self.protocol = protocol

    @abstractmethod
    def report(self, value: int, rng: RngLike = None):
        """Sanitize the user's value for the current round and return the report."""

    @property
    @abstractmethod
    def distinct_memoized(self) -> int:
        """Number of distinct memoization keys consumed so far."""

    @property
    @abstractmethod
    def memoization_keys(self) -> tuple:
        """The memoization keys in order of first use (for privacy accounting)."""

    def realized_budget(self) -> float:
        """Realized longitudinal budget so far: ``eps_inf * distinct_memoized``."""
        return self.protocol.eps_inf * self.distinct_memoized


class LongitudinalProtocol(ABC):
    """Configuration plus server-side estimator of a longitudinal protocol.

    Parameters
    ----------
    k:
        Original domain size.
    eps_inf:
        Longitudinal (upper-bound) privacy budget.
    eps_1:
        First-report privacy budget, ``0 < eps_1 < eps_inf``.
    """

    #: Short protocol name used in experiment reports.
    name: str = "longitudinal"

    def __init__(self, k: int, eps_inf: float, eps_1: float) -> None:
        self.k = require_domain_size(k, "k")
        self.eps_1, self.eps_inf = require_epsilon_pair(eps_1, eps_inf)

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    @property
    @abstractmethod
    def chained_parameters(self) -> ChainedParameters:
        """The ``(p1, q1, p2, q2)`` chain realized by this protocol."""

    @property
    @abstractmethod
    def budget_domain_size(self) -> int:
        """Worst-case number of distinct memoization keys (Table 1).

        ``k`` for RAPPOR / L-OSUE / L-GRR, ``g`` for LOLOHA and
        ``min(d + 1, b)`` for dBitFlipPM.
        """

    @property
    def estimation_domain_size(self) -> int:
        """Size of the histogram produced by :meth:`estimate_frequencies`."""
        return self.k

    def worst_case_budget(self) -> float:
        """Worst-case longitudinal budget on the users' values (Table 1)."""
        return self.budget_domain_size * self.eps_inf

    @property
    @abstractmethod
    def communication_bits(self) -> float:
        """Communication cost in bits per user per time step (Table 1)."""

    # ------------------------------------------------------------------ #
    # Client / server
    # ------------------------------------------------------------------ #
    @abstractmethod
    def create_client(self, rng: RngLike = None) -> LongitudinalClient:
        """Create a fresh per-user client (samples any per-user randomness)."""

    @abstractmethod
    def support_counts(self, reports: Sequence) -> np.ndarray:
        """Per-value support counts ``C(v)`` over the reports of one round."""

    def estimate_frequencies(self, reports: Sequence, n: Optional[int] = None) -> np.ndarray:
        """Unbiased frequency estimate (Eq. 3) for one collection round."""
        reports = list(reports) if not isinstance(reports, (list, np.ndarray)) else reports
        if n is None:
            n = len(reports)
        if n <= 0:
            raise AggregationError("cannot estimate frequencies from an empty report set")
        counts = self.support_counts(reports)
        return longitudinal_estimate(counts, n, self.chained_parameters)

    # ------------------------------------------------------------------ #
    # Theory
    # ------------------------------------------------------------------ #
    def approximate_variance(self, n: int) -> float:
        """Approximate estimator variance V* (Eq. 5) with ``n`` users."""
        return approximate_variance(self.chained_parameters, n)

    def exact_variance(self, n: int, f: float) -> float:
        """Exact estimator variance (Eq. 4) for a value with true frequency
        ``f``; :meth:`fixed_population_variance` is the variance a
        simulation's fixed population reaches."""
        return exact_variance(self.chained_parameters, n, f)

    def fixed_population_variance(self, n: int, f: float) -> float:
        """Estimator variance over a fixed population where exactly ``n f``
        users hold the value: Eq. (4) minus ``f (1 - f) / n``."""
        return fixed_population_variance(self.chained_parameters, n, f)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(k={self.k}, eps_inf={self.eps_inf}, "
            f"eps_1={self.eps_1})"
        )
