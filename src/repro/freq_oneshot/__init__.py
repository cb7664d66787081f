"""One-shot (single collection) LDP frequency-estimation oracles.

These are the building blocks reviewed in Section 2.3 of the paper: Generalized
Randomized Response (GRR) and Unary Encoding (SUE / OUE).  The longitudinal
protocols in :mod:`repro.longitudinal` chain two of these primitives (a
permanent and an instantaneous round) to obtain memoization-based
longitudinal guarantees; LOLOHA's local hashing step draws its hash
functions from :mod:`repro.hashing` directly.

Every oracle follows the same life cycle::

    oracle = GRR(k=100, epsilon=1.0)
    reports = oracle.privatize_batch(values, rng=0)     # client side
    estimate = oracle.estimate_frequencies(reports)     # server side

Estimates are unbiased (Eq. 1 of the paper); :mod:`repro.freq_oneshot.histogram`
offers optional post-processing (clipping, simplex projection).
"""

from .base import (
    FrequencyOracle,
    PerturbationParameters,
    grr_parameters,
    oue_parameters,
    sue_parameters,
    unbiased_estimate,
)
from .grr import GRR
from .unary_encoding import OUE, SUE, UnaryEncoding
from .histogram import clip_and_normalize, project_onto_simplex

__all__ = [
    "FrequencyOracle",
    "PerturbationParameters",
    "grr_parameters",
    "sue_parameters",
    "oue_parameters",
    "unbiased_estimate",
    "GRR",
    "UnaryEncoding",
    "SUE",
    "OUE",
    "clip_and_normalize",
    "project_onto_simplex",
]
