"""Longitudinal (memoization-based) LDP frequency-estimation protocols.

This package contains the paper's main contribution — LOLOHA (Section 3) —
together with every baseline it is compared against (Section 2.4):

* :class:`LGRR` — chained GRR (L-GRR, Arcolezi et al. 2022).
* :class:`LSUE` — chained SUE, i.e. the utility-oriented RAPPOR.
* :class:`LOSUE` — OUE permanent round + SUE instantaneous round (L-OSUE).
* :class:`LOUE`, :class:`LSOUE` — the remaining two UE chain combinations.
* :class:`DBitFlipPM` — Microsoft's one-round memoization protocol.
* :class:`LOLOHA` with the :func:`BiLOLOHA` and :func:`OLOLOHA` presets.

All double-randomization protocols share the chained parameterization of
:mod:`repro.longitudinal.parameters` (``p1, q1`` permanent / ``p2, q2``
instantaneous), the longitudinal estimator of Eq. (3), and the exact /
approximate variances of Eq. (4) / Eq. (5) in
:mod:`repro.longitudinal.variance`.  A user's longitudinal privacy
consumption is ``eps_inf`` per distinct memoized key; the simulations'
``eps_avg`` comes from the engines' memo counts (see
:mod:`repro.simulation.metrics`).
"""

from .base import LongitudinalClient, LongitudinalProtocol, RoundEstimate
from .dbitflip import DBitFlipPM, DBitFlipClient
from .l_grr import LGRR
from .l_ue import LOSUE, LOUE, LSOUE, LSUE, LongitudinalUnaryEncoding, RAPPOR
from .loloha import LOLOHA, BiLOLOHA, LOLOHAClient, OLOLOHA
from .memoization import MemoizationTable
from .optimal_g import optimal_g, optimal_g_numeric
from .parameters import (
    ChainedParameters,
    l_grr_parameters,
    l_osue_parameters,
    l_oue_parameters,
    l_soue_parameters,
    l_sue_parameters,
    loloha_parameters,
)
from .variance import (
    approximate_variance,
    exact_variance,
    fixed_population_variance,
    l_osue_closed_form_variance,
    dbitflip_closed_form_variance,
)

__all__ = [
    "LongitudinalProtocol",
    "LongitudinalClient",
    "RoundEstimate",
    "MemoizationTable",
    "ChainedParameters",
    "l_grr_parameters",
    "l_sue_parameters",
    "l_osue_parameters",
    "l_oue_parameters",
    "l_soue_parameters",
    "loloha_parameters",
    "approximate_variance",
    "exact_variance",
    "fixed_population_variance",
    "l_osue_closed_form_variance",
    "dbitflip_closed_form_variance",
    "optimal_g",
    "optimal_g_numeric",
    "LGRR",
    "LongitudinalUnaryEncoding",
    "LSUE",
    "RAPPOR",
    "LOSUE",
    "LOUE",
    "LSOUE",
    "DBitFlipPM",
    "DBitFlipClient",
    "LOLOHA",
    "LOLOHAClient",
    "BiLOLOHA",
    "OLOLOHA",
]
