"""Approximate-variance comparison across longitudinal protocols (Figure 2).

The paper compares protocols numerically because the closed-form variances are
"excessively verbose".  We do the same: every protocol's approximate variance
V* (Eq. 5) is obtained by instantiating its chained parameters for a given
``(eps_inf, eps_1)`` pair and evaluating Eq. (5).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence

from .._validation import require_domain_size, require_int_at_least
from ..exceptions import ParameterError
from ..longitudinal.optimal_g import optimal_g
from ..longitudinal.parameters import (
    l_grr_parameters,
    l_osue_parameters,
    l_oue_parameters,
    l_soue_parameters,
    l_sue_parameters,
    loloha_parameters,
)
from ..longitudinal.variance import approximate_variance

__all__ = [
    "PROTOCOL_VARIANCE_FUNCTIONS",
    "approximate_variance_for",
    "variance_comparison_grid",
]


def _variance_rappor(eps_inf: float, eps_1: float, n: int, k: int) -> float:
    return approximate_variance(l_sue_parameters(eps_inf, eps_1), n)


def _variance_l_osue(eps_inf: float, eps_1: float, n: int, k: int) -> float:
    return approximate_variance(l_osue_parameters(eps_inf, eps_1), n)


def _variance_l_oue(eps_inf: float, eps_1: float, n: int, k: int) -> float:
    return approximate_variance(l_oue_parameters(eps_inf, eps_1), n)


def _variance_l_soue(eps_inf: float, eps_1: float, n: int, k: int) -> float:
    return approximate_variance(l_soue_parameters(eps_inf, eps_1), n)


def _variance_l_grr(eps_inf: float, eps_1: float, n: int, k: int) -> float:
    return approximate_variance(l_grr_parameters(eps_inf, eps_1, k), n)


def _variance_biloloha(eps_inf: float, eps_1: float, n: int, k: int) -> float:
    return approximate_variance(loloha_parameters(eps_inf, eps_1, 2), n)


def _variance_ololoha(eps_inf: float, eps_1: float, n: int, k: int) -> float:
    g = optimal_g(eps_inf, eps_1)
    return approximate_variance(loloha_parameters(eps_inf, eps_1, g), n)


#: Mapping from protocol display name to its approximate-variance function
#: ``f(eps_inf, eps_1, n, k) -> V*``.  The names match the legend of Fig. 2/3.
PROTOCOL_VARIANCE_FUNCTIONS: Dict[str, Callable[[float, float, int, int], float]] = {
    "RAPPOR": _variance_rappor,
    "L-OSUE": _variance_l_osue,
    "L-OUE": _variance_l_oue,
    "L-SOUE": _variance_l_soue,
    "L-GRR": _variance_l_grr,
    "BiLOLOHA": _variance_biloloha,
    "OLOLOHA": _variance_ololoha,
}


def approximate_variance_for(
    protocol: str, eps_inf: float, eps_1: float, n: int, k: int = 2
) -> float:
    """Approximate variance V* of a named protocol.

    ``k`` only matters for L-GRR; the UE and LOLOHA variances are
    domain-size agnostic.
    """
    n = require_int_at_least(n, 1, "n")
    k = require_domain_size(k, "k")
    try:
        function = PROTOCOL_VARIANCE_FUNCTIONS[protocol]
    except KeyError:
        known = ", ".join(sorted(PROTOCOL_VARIANCE_FUNCTIONS))
        raise ParameterError(
            f"unknown protocol {protocol!r}; known protocols: {known}"
        ) from None
    return function(eps_inf, eps_1, n, k)


def variance_comparison_grid(
    protocols: Sequence[str],
    eps_inf_values: Iterable[float],
    alpha_values: Iterable[float],
    n: int = 10_000,
    k: int = 2,
) -> Dict[str, Dict[float, List[float]]]:
    """Numerical V* grid matching Figure 2 of the paper.

    Returns ``{protocol: {alpha: [V* for each eps_inf]}}``; the per-alpha
    lists follow the order of ``eps_inf_values``.
    """
    eps_inf_values = list(eps_inf_values)
    alpha_values = list(alpha_values)
    grid: Dict[str, Dict[float, List[float]]] = {}
    for protocol in protocols:
        per_alpha: Dict[float, List[float]] = {}
        for alpha in alpha_values:
            if not 0.0 < alpha < 1.0:
                raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
            per_alpha[alpha] = [
                approximate_variance_for(protocol, eps_inf, alpha * eps_inf, n, k)
                for eps_inf in eps_inf_values
            ]
        grid[protocol] = per_alpha
    return grid
