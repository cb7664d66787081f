"""Figure 1 — optimal ``g`` selection for OLOLOHA.

The paper plots the closed-form optimal ``g`` (Eq. 6) against the longitudinal
budget ``eps_inf`` in ``[0.5, 5]`` for ``alpha = eps_1 / eps_inf`` in
``{0.1, ..., 0.6}``.  The reproduction reports the same series and, as a
sanity check, the numerically obtained variance minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .._validation import require_distinct, require_positive
from ..longitudinal.optimal_g import optimal_g, optimal_g_numeric
from .empirical import PAPER_EPS_INF_VALUES
from .report import format_table

__all__ = ["Figure1Result", "run_figure1", "format_figure1"]

#: The alpha grid used by Figure 1 (wider than the one used in Figures 3/4).
FIGURE1_ALPHAS: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


@dataclass(frozen=True)
class Figure1Result:
    """Optimal ``g`` series per ``alpha``.

    ``closed_form[alpha]`` and ``numeric[alpha]`` are lists aligned with
    ``eps_inf_values``.
    """

    eps_inf_values: Tuple[float, ...]
    alpha_values: Tuple[float, ...]
    closed_form: Dict[float, List[int]]
    numeric: Dict[float, List[int]]

    def rows(self) -> List[Dict[str, object]]:
        """Flat rows (one per ``(alpha, eps_inf)`` point) for table rendering."""
        rows: List[Dict[str, object]] = []
        for alpha in self.alpha_values:
            for i, eps_inf in enumerate(self.eps_inf_values):
                rows.append(
                    {
                        "alpha": alpha,
                        "eps_inf": eps_inf,
                        "optimal_g_eq6": self.closed_form[alpha][i],
                        "optimal_g_numeric": self.numeric[alpha][i],
                    }
                )
        return rows


def run_figure1(
    eps_inf_values: Sequence[float] = PAPER_EPS_INF_VALUES,
    alpha_values: Sequence[float] = FIGURE1_ALPHAS,
    include_numeric: bool = True,
) -> Figure1Result:
    """Compute the Figure 1 series.

    Parameters
    ----------
    eps_inf_values:
        The ``eps_inf`` axis.
    alpha_values:
        The ``alpha`` curves to draw (Figure 1 uses 0.1 ... 0.6).
    include_numeric:
        Also compute the brute-force variance minimizer for cross-checking
        (slightly slower).
    """
    require_distinct(eps_inf_values, "eps_inf_values")
    for eps_inf in eps_inf_values:
        require_positive(eps_inf, "eps_inf")
    closed_form: Dict[float, List[int]] = {}
    numeric: Dict[float, List[int]] = {}
    for alpha in alpha_values:
        closed_form[alpha] = [
            optimal_g(eps_inf, alpha * eps_inf) for eps_inf in eps_inf_values
        ]
        if include_numeric:
            numeric[alpha] = [
                optimal_g_numeric(eps_inf, alpha * eps_inf)
                for eps_inf in eps_inf_values
            ]
        else:
            numeric[alpha] = list(closed_form[alpha])
    return Figure1Result(
        eps_inf_values=tuple(eps_inf_values),
        alpha_values=tuple(alpha_values),
        closed_form=closed_form,
        numeric=numeric,
    )


def format_figure1(result: Figure1Result) -> str:
    """Render Figure 1 as a text table (one row per ``alpha``, columns per ``eps_inf``)."""
    rows = []
    for alpha in result.alpha_values:
        row: Dict[str, object] = {"alpha": alpha}
        for i, eps_inf in enumerate(result.eps_inf_values):
            row[f"eps={eps_inf:g}"] = result.closed_form[alpha][i]
        rows.append(row)
    return "Figure 1 — optimal g (Eq. 6) by eps_inf and alpha\n" + format_table(rows)
