"""Estimator variances for chained (longitudinal) protocols.

Implements Eq. (4) — the exact variance of the longitudinal estimator of
Eq. (3) — and Eq. (5), the approximate variance obtained by evaluating Eq. (4)
at ``f(v) = 0``, plus the variance of a fixed population (the one a
simulation draws reports from), Eq. (4) minus ``f (1 - f) / n``.  The
approximate variance is the quantity compared across protocols in Figure 2
of the paper and the objective minimized by the optimal ``g`` selection
(Eq. 6).

Two closed forms quoted in Section 4 are also provided for cross-checking:
the L-OSUE approximate variance ``4 e^{eps_1} / (n (e^{eps_1} - 1)^2)`` and the
dBitFlipPM variance ``b e^{eps_inf / 2} / (d n (e^{eps_inf/2} - 1)^2)``.
"""

from __future__ import annotations

import math

from .._validation import require_int_at_least, require_probability
from ..exceptions import ParameterError
from .parameters import ChainedParameters

__all__ = [
    "exact_variance",
    "fixed_population_variance",
    "approximate_variance",
    "l_osue_closed_form_variance",
    "dbitflip_closed_form_variance",
]


def exact_variance(params: ChainedParameters, n: int, f: float) -> float:
    """Exact variance of the longitudinal estimator, Eq. (4).

    Parameters
    ----------
    params:
        Chained parameters ``(p1, q1, p2, q2)``.  The *estimation* ``q1`` is
        used (``1/g`` for local hashing), matching how the estimator of
        Eq. (3) is parameterized.
    n:
        Number of users.
    f:
        True frequency of the value whose estimator variance is evaluated.

    ``gamma`` is the probability that one report supports the value:
    ``p1 p2 + (1 - p1) q2`` for its holders, ``q1 p2 + (1 - q1) q2`` for
    everyone else, so its ``f`` term is ``(p1 - q1)(p2 - q2)`` for every
    chain, UE and GRR alike.

    Eq. (4) assumes a binomial population: each user's value is a fresh
    draw from ``f``.  A simulation fixes the population, whose support
    count then varies less, so the measured MSE/V* drifts below 1 as ε∞
    grows: L-GRR at k = 60 reads 0.96–0.98 at ε∞ = 5 and 0.76–0.78 at
    ε∞ = 8.  :func:`fixed_population_variance` is the variance of that
    fixed population.
    """
    n = require_int_at_least(n, 1, "n")
    f = require_probability(f, "f")
    p1, q1 = params.p1, params.estimator_q1
    p2, q2 = params.p2, params.q2
    gamma = f * (p1 - q1) * (p2 - q2) + p2 * q1 + q2 * (1.0 - q1)
    denominator = n * (p1 - q1) ** 2 * (p2 - q2) ** 2
    if denominator <= 0:
        raise ParameterError("estimator variance is undefined when p1 <= q1 or p2 <= q2")
    return gamma * (1.0 - gamma) / denominator


def fixed_population_variance(params: ChainedParameters, n: int, f: float) -> float:
    """Exact estimator variance over a fixed population: Eq. (4) − f(1 − f)/n.

    A fixed population holds the value at exactly ``n f`` users, so the
    support count is a sum of independent Bernoullis: ``n f`` of them
    support at ``gamma_1 = p1 p2 + (1 - p1) q2`` and the rest at
    ``gamma_0 = q1 p2 + (1 - q1) q2``.  Its variance is
    ``n [f gamma_1 (1 - gamma_1) + (1 - f) gamma_0 (1 - gamma_0)]
    = n [gamma (1 - gamma) - f (1 - f) (gamma_1 - gamma_0)^2]``, with Eq. (4)'s
    ``gamma = f gamma_1 + (1 - f) gamma_0``.  Since ``gamma_1 - gamma_0 =
    (p1 - q1)(p2 - q2)``, dividing by Eq. (4)'s
    ``n^2 (p1 - q1)^2 (p2 - q2)^2`` gives Eq. (4) minus ``f (1 - f) / n``.
    At ``f = 0`` it equals :func:`approximate_variance`.
    """
    f = require_probability(f, "f")
    return exact_variance(params, n, f) - f * (1.0 - f) / n


def approximate_variance(params: ChainedParameters, n: int) -> float:
    """Approximate variance V*, Eq. (5): the exact variance evaluated at ``f = 0``."""
    return exact_variance(params, n, 0.0)


def l_osue_closed_form_variance(eps_1: float, n: int) -> float:
    """Closed-form L-OSUE approximate variance quoted in Section 4:
    ``4 e^{eps_1} / (n (e^{eps_1} - 1)^2)``."""
    n = require_int_at_least(n, 1, "n")
    if eps_1 <= 0:
        raise ParameterError(f"eps_1 must be positive, got {eps_1}")
    b = math.exp(eps_1)
    return 4.0 * b / (n * (b - 1.0) ** 2)


def dbitflip_closed_form_variance(eps_inf: float, b: int, d: int, n: int) -> float:
    """The paper's Section 4 approximation of the dBitFlipPM variance.

    With the SUE-style bit parameters ``p = e^{eps/2}/(e^{eps/2}+1)`` and
    ``q = 1 - p`` and an effective sample size of ``n d / b`` per bucket, the
    approximate variance of the bucket-frequency estimator is
    ``b * e^{eps_inf/2} / (d * n * (e^{eps_inf/2} - 1)^2)``.  It is exact at
    ``d = b`` only: below that it omits the bucket-sampling term and falls
    short by up to ``1 / p``.  :meth:`repro.longitudinal.DBitFlipPM.exact_variance`
    has the exact form.
    """
    n = require_int_at_least(n, 1, "n")
    b = require_int_at_least(b, 2, "b")
    d = require_int_at_least(d, 1, "d")
    if d > b:
        raise ParameterError(f"d must not exceed b, got d={d}, b={b}")
    if eps_inf <= 0:
        raise ParameterError(f"eps_inf must be positive, got {eps_inf}")
    half = math.exp(eps_inf / 2.0)
    return b * half / (d * n * (half - 1.0) ** 2)
