"""Figure 2 — numerical approximate variance V* of the double-randomization
protocols (L-OSUE, OLOLOHA, RAPPOR, BiLOLOHA).

The paper evaluates Eq. (5) with ``n = 10000`` over ``eps_inf`` in ``[0.5, 5]``
and ``alpha`` in ``{0.1, ..., 0.6}``.  The expected shape: all four protocols
are close for ``alpha <= 0.3``; for large ``eps_inf`` and ``alpha``, BiLOLOHA
and RAPPOR lose utility while OLOLOHA tracks L-OSUE closely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .._validation import require_distinct, require_positive
from ..analysis.variances import variance_comparison_grid
from .empirical import PAPER_EPS_INF_VALUES
from .report import ascii_curve, format_table

__all__ = ["Figure2Result", "run_figure2", "format_figure2", "FIGURE2_PROTOCOLS", "FIGURE2_N"]

#: The protocols plotted in Figure 2 (legend order of the paper).
FIGURE2_PROTOCOLS: Tuple[str, ...] = ("L-OSUE", "OLOLOHA", "RAPPOR", "BiLOLOHA")

#: The alpha grid of Figure 2.
FIGURE2_ALPHAS: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

#: The population size ``n`` at which the paper evaluates Eq. (5).
FIGURE2_N = 10_000


@dataclass(frozen=True)
class Figure2Result:
    """V* series per protocol and alpha, aligned with ``eps_inf_values``."""

    eps_inf_values: Tuple[float, ...]
    alpha_values: Tuple[float, ...]
    n: int
    variances: Dict[str, Dict[float, List[float]]]

    def series_for_alpha(self, alpha: float) -> Dict[str, List[float]]:
        """The per-protocol V* curves of one subplot (one ``alpha``)."""
        return {protocol: self.variances[protocol][alpha] for protocol in self.variances}

    def rows(self) -> List[Dict[str, object]]:
        """Flat rows (protocol, alpha, eps_inf, variance)."""
        rows: List[Dict[str, object]] = []
        for protocol, per_alpha in self.variances.items():
            for alpha, values in per_alpha.items():
                for eps_inf, variance in zip(self.eps_inf_values, values):
                    rows.append(
                        {
                            "protocol": protocol,
                            "alpha": alpha,
                            "eps_inf": eps_inf,
                            "approximate_variance": variance,
                        }
                    )
        return rows


def run_figure2(
    eps_inf_values: Sequence[float] = PAPER_EPS_INF_VALUES,
    protocols: Sequence[str] = FIGURE2_PROTOCOLS,
    alpha_values: Sequence[float] = FIGURE2_ALPHAS,
) -> Figure2Result:
    """Compute the Figure 2 variance grid at ``n =`` :data:`FIGURE2_N`."""
    require_distinct(eps_inf_values, "eps_inf_values")
    for eps_inf in eps_inf_values:
        require_positive(eps_inf, "eps_inf")
    variances = variance_comparison_grid(
        protocols=protocols,
        eps_inf_values=eps_inf_values,
        alpha_values=alpha_values,
        n=FIGURE2_N,
    )
    return Figure2Result(
        eps_inf_values=tuple(eps_inf_values),
        alpha_values=tuple(alpha_values),
        n=FIGURE2_N,
        variances=variances,
    )


def format_figure2(result: Figure2Result, alpha: float = 0.5) -> str:
    """Render one Figure 2 subplot (a fixed ``alpha``) as table plus ASCII curve."""
    series = result.series_for_alpha(alpha)
    rows = []
    for i, eps_inf in enumerate(result.eps_inf_values):
        row: Dict[str, object] = {"eps_inf": eps_inf}
        for protocol, values in series.items():
            row[protocol] = values[i]
        rows.append(row)
    table = format_table(rows)
    curve = ascii_curve(
        result.eps_inf_values,
        series,
        title=f"Figure 2 — approximate variance V* (alpha={alpha}, n={result.n})",
    )
    return f"{curve}\n\n{table}"
