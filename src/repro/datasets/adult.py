"""Adult-shaped workload: the ``hours-per-week`` attribute, permuted per round.

The paper uses the UCI Adult dataset (``n = 45222`` after cleaning) and keeps
only the ``hours-per-week`` attribute (``k = 96`` distinct values), then
simulates ``tau = 260`` collections by randomly permuting the column at every
round: the population histogram is identical at every round, but each user's
private sequence is an (essentially) fresh draw.

Without network access the real file cannot be downloaded, so this module
synthesizes a population whose ``hours-per-week`` marginal matches the
well-known shape of the Adult attribute: a dominant mode at 40 hours,
secondary modes at 50 / 45 / 60 / 35 / 20 / 30 hours, and a long, thin tail
over the remaining values.  Only the marginal matters for frequency
estimation error, so this substitution preserves the experiment's behaviour.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .._validation import as_rng, require_int_at_least
from ..rng import RngLike
from .base import LongitudinalDataset

__all__ = ["ADULT_HOURS_DISTRIBUTION", "adult_hours_marginal", "make_adult"]

#: Approximate marginal of the Adult ``hours-per-week`` attribute.  Keys are
#: hours (1..99); values are probability masses of the named modes.  The
#: remaining mass is spread geometrically over the other values.
ADULT_HOURS_DISTRIBUTION: Dict[int, float] = {
    40: 0.465,
    50: 0.086,
    45: 0.056,
    60: 0.045,
    35: 0.039,
    20: 0.031,
    30: 0.025,
    55: 0.022,
    25: 0.019,
    38: 0.015,
    48: 0.014,
    15: 0.012,
    70: 0.010,
    10: 0.009,
    65: 0.008,
    44: 0.007,
    36: 0.007,
    42: 0.007,
    32: 0.006,
    24: 0.005,
}

#: Number of distinct hour values retained after the paper's cleaning step.
ADULT_DOMAIN_SIZE = 96


def adult_hours_marginal(k: int = ADULT_DOMAIN_SIZE) -> np.ndarray:
    """The synthetic Adult ``hours-per-week`` marginal over ``k`` values.

    Value index ``i`` represents ``i + 1`` hours per week.  Named modes take
    their calibrated mass; the leftover mass decays geometrically with the
    distance from 40 hours, mimicking the real attribute's thin tails.
    """
    k = require_int_at_least(k, 2, "k")
    marginal = np.zeros(k, dtype=np.float64)
    named_mass = 0.0
    for hours, mass in ADULT_HOURS_DISTRIBUTION.items():
        index = hours - 1
        if 0 <= index < k:
            marginal[index] = mass
            named_mass += mass
    remaining = max(1.0 - named_mass, 0.0)
    unnamed = np.asarray([i for i in range(k) if marginal[i] == 0.0])
    if unnamed.size:
        distances = np.abs(unnamed - 39)
        weights = np.exp(-distances / 12.0)
        marginal[unnamed] = remaining * weights / weights.sum()
    return marginal / marginal.sum()


def make_adult(
    n_users: int = 45_222,
    n_rounds: int = 260,
    k: int = ADULT_DOMAIN_SIZE,
    rng: RngLike = None,
) -> LongitudinalDataset:
    """Adult-shaped longitudinal dataset (defaults match Section 5.1).

    The population is drawn once from the synthetic marginal and the column
    is independently permuted at every round, exactly as the paper does with
    the real attribute: the true histogram is constant over time while every
    user's private sequence changes almost every round.
    """
    n_users = require_int_at_least(n_users, 1, "n_users")
    n_rounds = require_int_at_least(n_rounds, 1, "n_rounds")
    generator = as_rng(rng)
    marginal = adult_hours_marginal(k)
    base_population = generator.choice(k, size=n_users, p=marginal)

    values = np.empty((n_users, n_rounds), dtype=np.int64)
    for t in range(n_rounds):
        values[:, t] = generator.permutation(base_population)
    return LongitudinalDataset(
        name="adult",
        values=values,
        k=k,
        metadata={
            "generator": "adult_hours_permutation",
            "attribute": "hours-per-week",
            "paper_defaults": {"k": 96, "n": 45_222, "tau": 260},
            "substitution": "synthetic marginal matching the UCI Adult attribute shape",
        },
    )
