"""Theoretical analysis tools: variances and protocol comparison.

This package hosts the closed-form / numerical analysis used by Section 4 of
the paper:

* :mod:`repro.analysis.variances` — approximate variance V* (Eq. 5) for every
  protocol as a function of ``(eps_inf, alpha, n, k)``; used by Figure 2.
* :mod:`repro.analysis.comparison` — the Table 1 comparison (communication
  bits, server run-time complexity, worst-case budget consumption).
"""

from .comparison import ProtocolSummary, theoretical_comparison_table
from .variances import (
    PROTOCOL_VARIANCE_FUNCTIONS,
    approximate_variance_for,
    variance_comparison_grid,
)

__all__ = [
    "ProtocolSummary",
    "theoretical_comparison_table",
    "PROTOCOL_VARIANCE_FUNCTIONS",
    "approximate_variance_for",
    "variance_comparison_grid",
]
