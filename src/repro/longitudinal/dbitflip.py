"""dBitFlipPM: Microsoft's one-round memoization protocol (Section 2.4.4).

The original domain ``[0..k)`` is partitioned into ``b`` equal-width buckets.
Each user samples ``d`` bucket indices without replacement, fixed forever, and
at every round reports a randomized bit per sampled bucket indicating whether
the user's current bucket equals that sampled bucket.  The randomization uses
the symmetric (SUE) probabilities at budget ``eps_inf`` and is *memoized* per
distinct bucket-indicator pattern, so there is no instantaneous round.

Because there is no second round of sanitization, a change of bucket usually
produces a visibly different report — the data-change detection weakness the
paper quantifies in Table 2 (and that :mod:`repro.attacks.change_detection`
reproduces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .._validation import (
    as_rng,
    require_int_at_least,
    require_probability,
    validate_value_in_domain,
)
from ..exceptions import AggregationError, EncodingError, ParameterError
from ..freq_oneshot.base import sue_parameters, unbiased_estimate
from ..rng import RngLike
from .base import LongitudinalClient, LongitudinalProtocol
from .memoization import MemoizationTable
from .parameters import ChainedParameters

__all__ = ["DBitFlipPM", "DBitFlipClient", "DBitFlipReport", "equal_width_buckets"]


def equal_width_buckets(values: np.ndarray, k: int, b: int) -> np.ndarray:
    """Map domain values to ``b`` equal-width buckets: ``bucket = v * b // k``."""
    values = np.asarray(values, dtype=np.int64)
    return (values * b) // k


@dataclass(frozen=True)
class DBitFlipReport:
    """One dBitFlipPM report: the user's fixed sampled buckets and the
    (memoized) randomized bits for those buckets."""

    sampled_buckets: Tuple[int, ...]
    bits: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sampled_buckets) != len(self.bits):
            raise EncodingError("sampled_buckets and bits must have the same length")


class DBitFlipClient(LongitudinalClient):
    """Per-user dBitFlipPM state.

    The memoization key is the *bucket indicator*: which of the user's ``d``
    sampled buckets the current value falls into (or ``-1`` when it falls in
    none of them).  There are therefore at most ``min(d + 1, b)`` distinct
    keys, which is exactly the protocol's worst-case budget factor.
    """

    def __init__(self, protocol: "DBitFlipPM", rng: RngLike = None) -> None:
        super().__init__(protocol)
        generator = as_rng(rng)
        self.sampled_buckets: Tuple[int, ...] = tuple(
            int(j) for j in generator.choice(protocol.b, size=protocol.d, replace=False)
        )
        self._memo = MemoizationTable(max_keys=min(protocol.d + 1, protocol.b))

    def _indicator_key(self, bucket: int) -> int:
        """The memoization key: index into the sampled buckets, or -1."""
        try:
            return self.sampled_buckets.index(bucket)
        except ValueError:
            return -1

    def report(self, value: int, rng: RngLike = None) -> DBitFlipReport:
        """Report the (memoized) randomized bits for the current value."""
        value = validate_value_in_domain(value, self.protocol.k)
        generator = as_rng(rng)
        bucket = int(equal_width_buckets(np.asarray([value]), self.protocol.k, self.protocol.b)[0])
        key = self._indicator_key(bucket)
        p, q = self.protocol.bit_probabilities

        def permanent() -> Tuple[int, ...]:
            bits = []
            for position, sampled in enumerate(self.sampled_buckets):
                probability = p if position == key else q
                bits.append(int(generator.random() < probability))
            return tuple(bits)

        bits, _ = self._memo.get_or_create(key, permanent)
        return DBitFlipReport(sampled_buckets=self.sampled_buckets, bits=bits)

    @property
    def distinct_memoized(self) -> int:
        return self._memo.distinct_keys

    @property
    def memoization_keys(self) -> tuple:
        return self._memo.first_use_order


class DBitFlipPM(LongitudinalProtocol):
    """dBitFlipPM protocol with ``d`` sampled buckets out of ``b``.

    Parameters
    ----------
    k:
        Original domain size.
    eps_inf:
        Longitudinal privacy budget (the only budget — there is no second
        round of sanitization).
    b:
        Number of buckets (defaults to ``k``, i.e. no generalization).
    d:
        Number of sampled buckets per user, ``1 <= d <= b``.  ``d = 1`` is
        the privacy-oriented configuration, ``d = b`` the utility-oriented
        one.
    """

    name = "dBitFlipPM"

    def __init__(self, k: int, eps_inf: float, b: Optional[int] = None, d: int = 1) -> None:
        # dBitFlipPM has a single round; model it as a chain whose second
        # round is the identity so the shared estimator machinery applies.
        # eps_1 therefore equals eps_inf for this protocol.
        self.k = require_int_at_least(k, 2, "k")
        if eps_inf <= 0:
            raise ParameterError(f"eps_inf must be positive, got {eps_inf}")
        self.eps_inf = float(eps_inf)
        self.eps_1 = float(eps_inf)
        self.b = require_int_at_least(b if b is not None else k, 2, "b")
        if self.b > self.k:
            raise ParameterError(f"b must not exceed k, got b={self.b}, k={self.k}")
        self.d = require_int_at_least(d, 1, "d")
        if self.d > self.b:
            raise ParameterError(f"d must not exceed b, got d={self.d}, b={self.b}")
        params = sue_parameters(eps_inf)
        self._bit_probabilities = (params.p, params.q)
        self._params = ChainedParameters(
            p1=params.p, q1=params.q, p2=1.0, q2=0.0, eps_inf=eps_inf, eps_1=eps_inf
        )

    @property
    def name_with_d(self) -> str:
        """Name annotated with the sampling configuration, e.g. ``1BitFlipPM``."""
        prefix = "b" if self.d == self.b else str(self.d)
        return f"{prefix}BitFlipPM"

    @property
    def bit_probabilities(self) -> Tuple[float, float]:
        """The symmetric keep/flip probabilities ``(p, q)`` of each bit."""
        return self._bit_probabilities

    @property
    def chained_parameters(self) -> ChainedParameters:
        return self._params

    @property
    def budget_domain_size(self) -> int:
        """Worst case: one permanent randomization per bucket-indicator pattern."""
        return min(self.d + 1, self.b)

    @property
    def estimation_domain_size(self) -> int:
        """dBitFlipPM estimates a ``b``-bucket histogram."""
        return self.b

    @property
    def communication_bits(self) -> float:
        """A report transmits ``d`` randomized bits."""
        return float(self.d)

    def bucket_of(self, values: Sequence[int]) -> np.ndarray:
        """Bucket index of each value under the equal-width bucketization."""
        return equal_width_buckets(np.asarray(values, dtype=np.int64), self.k, self.b)

    def bucket_frequencies(self, frequencies: np.ndarray) -> np.ndarray:
        """Aggregate a ``k``-bin true histogram into the ``b``-bucket histogram."""
        frequencies = np.asarray(frequencies, dtype=np.float64)
        if frequencies.size != self.k:
            raise EncodingError(
                f"expected a {self.k}-bin histogram, got {frequencies.size} bins"
            )
        buckets = self.bucket_of(np.arange(self.k))
        return np.bincount(buckets, weights=frequencies, minlength=self.b)

    def approximate_variance(self, n: int) -> float:
        """Estimator variance V* at ``f = 0`` (see :meth:`exact_variance`).

        The chained Eq. (5) would model dBitFlipPM as a chain whose second
        round is the identity, which ignores that only ``d`` of the ``b``
        buckets are reported per user.
        """
        return self.exact_variance(n, 0.0)

    def exact_variance(self, n: int, f: float) -> float:
        """Exact variance of one bucket's estimate when its true frequency is ``f``.

        A user reports bucket ``j`` with probability ``pi = d / b`` and then
        sets its bit with probability ``p`` (its bucket is ``j``) or ``q``
        (it is not), so the support count is a sum of independent Bernoulli
        draws and the estimator ``(C_j / (n pi) - q) / (p - q)`` has variance
        ``[f pi p (1 - pi p) + (1 - f) pi q (1 - pi q)] / (n pi^2 (p - q)^2)``.
        At ``d = b`` this is the Section 4 closed form
        (:func:`~repro.longitudinal.variance.dbitflip_closed_form_variance`);
        below it, the closed form omits the bucket-sampling term.
        """
        n = require_int_at_least(n, 1, "n")
        f = require_probability(f, "f")
        p, q = self._bit_probabilities
        pi = self.d / self.b
        numerator = f * pi * p * (1.0 - pi * p) + (1.0 - f) * pi * q * (1.0 - pi * q)
        return numerator / (n * pi**2 * (p - q) ** 2)

    def create_client(self, rng: RngLike = None) -> DBitFlipClient:
        return DBitFlipClient(self, rng)

    def support_counts(self, reports: Sequence[DBitFlipReport]) -> np.ndarray:
        """Sum of reported bits per bucket (only sampled buckets contribute)."""
        counts = np.zeros(self.b, dtype=np.float64)
        for report in reports:
            if not isinstance(report, DBitFlipReport):
                raise EncodingError(
                    f"dBitFlipPM expects DBitFlipReport instances, got {type(report).__name__}"
                )
            for bucket, bit in zip(report.sampled_buckets, report.bits):
                counts[bucket] += bit
        return counts

    def estimate_frequencies(self, reports: Sequence, n: Optional[int] = None) -> np.ndarray:
        """Unbiased bucket-frequency estimate.

        Each bucket is observed by roughly ``n d / b`` users, so the Eq. (1)
        estimator is applied with that effective sample size.
        """
        reports = list(reports) if not isinstance(reports, (list, np.ndarray)) else reports
        if n is None:
            n = len(reports)
        if n <= 0:
            raise AggregationError("cannot estimate frequencies from an empty report set")
        counts = self.support_counts(reports)
        effective_n = max(n * self.d / self.b, 1e-12)
        p, q = self._bit_probabilities
        return (counts - effective_n * q) / (effective_n * (p - q))
