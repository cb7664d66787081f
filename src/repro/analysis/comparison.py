"""Theoretical protocol comparison — Table 1 of the paper.

For each protocol the table reports, per user and per time step:

* the communication cost in bits,
* the server run-time complexity of one aggregation round, and
* the worst-case longitudinal privacy budget consumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from .._validation import require_domain_size, require_epsilon, require_int_at_least
from ..exceptions import ParameterError

__all__ = ["ProtocolSummary", "theoretical_comparison_table"]


@dataclass(frozen=True)
class ProtocolSummary:
    """One row of the Table 1 comparison.

    Attributes
    ----------
    protocol:
        Display name.
    communication_bits:
        Bits transmitted per user per time step.
    server_complexity:
        Human-readable server run-time complexity of one round.
    server_operations:
        The corresponding operation count for the given ``n`` / ``k`` / ``b``.
    budget_factor:
        The multiplier of ``eps_inf`` in the worst-case longitudinal budget.
    worst_case_budget:
        ``budget_factor * eps_inf``.
    """

    protocol: str
    communication_bits: float
    server_complexity: str
    server_operations: int
    budget_factor: int
    worst_case_budget: float


def theoretical_comparison_table(
    k: int,
    eps_inf: float,
    n: int,
    g: int = 2,
    b: Optional[int] = None,
    d: int = 1,
) -> List[ProtocolSummary]:
    """Build Table 1 for a concrete configuration.

    Parameters
    ----------
    k:
        Original domain size.
    eps_inf:
        Longitudinal privacy budget.
    n:
        Number of users (used to report concrete operation counts).
    g:
        LOLOHA hashed-domain size.
    b:
        dBitFlipPM bucket count (defaults to ``k``).
    d:
        dBitFlipPM sampled-bit count.
    """
    k = require_domain_size(k, "k")
    g = require_domain_size(g, "g")
    n = require_int_at_least(n, 1, "n")
    eps_inf = require_epsilon(eps_inf, "eps_inf")
    b = require_domain_size(b if b is not None else k, "b")
    d = require_int_at_least(d, 1, "d")
    if d > b:
        raise ParameterError(f"d must not exceed b, got d={d}, b={b}")

    rows = [
        ProtocolSummary(
            protocol="LOLOHA",
            communication_bits=float(math.ceil(math.log2(g))),
            server_complexity="O(n k)",
            server_operations=n * k,
            budget_factor=g,
            worst_case_budget=g * eps_inf,
        ),
        ProtocolSummary(
            protocol="L-GRR",
            communication_bits=float(math.ceil(math.log2(k))),
            server_complexity="O(n + k)",
            server_operations=n + k,
            budget_factor=k,
            worst_case_budget=k * eps_inf,
        ),
        ProtocolSummary(
            protocol="RAPPOR",
            communication_bits=float(k),
            server_complexity="O(n k)",
            server_operations=n * k,
            budget_factor=k,
            worst_case_budget=k * eps_inf,
        ),
        ProtocolSummary(
            protocol="L-OSUE",
            communication_bits=float(k),
            server_complexity="O(n k)",
            server_operations=n * k,
            budget_factor=k,
            worst_case_budget=k * eps_inf,
        ),
        ProtocolSummary(
            protocol="dBitFlipPM",
            communication_bits=float(d),
            server_complexity="O(n b)",
            server_operations=n * b,
            budget_factor=min(d + 1, b),
            worst_case_budget=min(d + 1, b) * eps_inf,
        ),
    ]
    return rows
