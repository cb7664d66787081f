"""Data-change detection attack against dBitFlipPM (Table 2 of the paper).

dBitFlipPM memoizes the randomized response of each bucket-indicator pattern
and has no instantaneous round, so two consecutive reports of a user are
identical whenever the underlying bucket did not change and *usually differ*
when it did.  The attacker simply marks a change whenever the report changes.

The paper's worst-case metric is the percentage of users for whom the
attacker identifies **all** bucket change points, i.e. every true bucket
change produced a different memoized response.  With ``d = 1`` the memoized
responses are single bits and frequently coincide across buckets, so the
percentage is near zero; with ``d = b`` the responses are long vectors and
essentially always differ, so the percentage is 100%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._validation import as_rng
from ..datasets.base import LongitudinalDataset
from ..longitudinal.dbitflip import DBitFlipPM
from ..rng import RngLike
from ..simulation.engines import DBitFlipEngine

__all__ = ["ChangeDetectionResult", "change_detection_rate"]


@dataclass(frozen=True)
class ChangeDetectionResult:
    """Outcome of the change-detection attack over a population.

    Attributes
    ----------
    n_users:
        Population size.
    n_users_with_changes:
        Users whose true bucket changed at least once.
    n_fully_detected:
        Users with at least one change whose changes were *all* detected.
    fraction_fully_detected:
        ``n_fully_detected / n_users`` — the percentage reported in Table 2.
    eps_inf, d, b:
        The attacked configuration.
    """

    n_users: int
    n_users_with_changes: int
    n_fully_detected: int
    fraction_fully_detected: float
    eps_inf: float
    d: int
    b: int


def change_detection_rate(
    dataset: LongitudinalDataset,
    eps_inf: float,
    d: int,
    b: Optional[int] = None,
    rng: RngLike = None,
) -> ChangeDetectionResult:
    """Run the attack over a full population (one Table 2 cell).

    Simulates dBitFlipPM with the given configuration over ``dataset`` and
    reports the fraction of users whose bucket changes were all detected.
    """
    protocol = DBitFlipPM(k=dataset.k, eps_inf=eps_inf, b=b, d=d)
    generator = as_rng(rng)
    # The attack observes the per-round memoization keys, so this is the one
    # consumer that opts into the engine's key history (off by default — it
    # grows by one array per round).
    engine = DBitFlipEngine(
        protocol, dataset.n_users, generator, record_key_history=True
    )
    for values_t in dataset.iter_rounds():
        engine.run_round(values_t, generator)

    keys = np.stack(engine.key_history, axis=1)  # (n_users, tau)
    buckets = np.stack(
        [protocol.bucket_of(values_t) for values_t in dataset.iter_rounds()], axis=1
    )

    n_fully_detected = 0
    n_with_changes = 0
    for user in range(dataset.n_users):
        user_buckets = buckets[user]
        change_points = np.nonzero(user_buckets[1:] != user_buckets[:-1])[0] + 1
        if change_points.size == 0:
            continue
        n_with_changes += 1
        user_keys = keys[user]
        all_detected = True
        memo_cache: dict = {}
        for t in change_points:
            previous_key = int(user_keys[t - 1])
            current_key = int(user_keys[t])
            for key in (previous_key, current_key):
                if key not in memo_cache:
                    memo_cache[key] = engine.memoized_bits(user, key)
            previous_bits = memo_cache[previous_key]
            current_bits = memo_cache[current_key]
            # A change is undetected when the two memoized responses coincide
            # (identical keys always coincide; distinct keys may collide).
            if previous_bits is None or current_bits is None:
                all_detected = False
                break
            if previous_key == current_key or np.array_equal(previous_bits, current_bits):
                all_detected = False
                break
        if all_detected:
            n_fully_detected += 1

    return ChangeDetectionResult(
        n_users=dataset.n_users,
        n_users_with_changes=n_with_changes,
        n_fully_detected=n_fully_detected,
        fraction_fully_detected=n_fully_detected / dataset.n_users,
        eps_inf=eps_inf,
        d=protocol.d,
        b=protocol.b,
    )
