"""Table 1 — theoretical comparison of the longitudinal protocols.

Communication bits per user per time step, server run-time complexity, and
worst-case longitudinal budget consumption, instantiated for a concrete
``(k, g, b, d, eps_inf, n)`` configuration.  Both the symbolic expressions
(as printed in the paper) and the concrete numbers are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.comparison import ProtocolSummary, theoretical_comparison_table
from ..longitudinal.optimal_g import optimal_g
from .report import format_table

__all__ = ["Table1Result", "run_table1", "format_table1"]

#: Symbolic expressions exactly as printed in Table 1 of the paper.
SYMBOLIC_ROWS: Dict[str, Dict[str, str]] = {
    "LOLOHA": {
        "communication": "ceil(log2 g)",
        "server": "n k",
        "budget": "g eps_inf",
    },
    "L-GRR": {
        "communication": "ceil(log2 k)",
        "server": "n k",
        "budget": "k eps_inf",
    },
    "RAPPOR": {
        "communication": "k",
        "server": "n k",
        "budget": "k eps_inf",
    },
    "L-OSUE": {
        "communication": "k",
        "server": "n k",
        "budget": "k eps_inf",
    },
    "dBitFlipPM": {
        "communication": "d",
        "server": "n b",
        "budget": "min(d + 1, b) eps_inf",
    },
}


@dataclass(frozen=True)
class Table1Result:
    """Concrete Table 1 instantiation plus the paper's symbolic expressions."""

    k: int
    g: int
    b: int
    d: int
    eps_inf: float
    n: int
    summaries: Tuple[ProtocolSummary, ...]

    def rows(self) -> List[Dict[str, object]]:
        """One row per protocol combining symbolic and concrete columns."""
        rows: List[Dict[str, object]] = []
        for summary in self.summaries:
            symbolic = SYMBOLIC_ROWS.get(summary.protocol, {})
            rows.append(
                {
                    "protocol": summary.protocol,
                    "comm_bits_formula": symbolic.get("communication", ""),
                    "comm_bits": summary.communication_bits,
                    "server_complexity": symbolic.get("server", summary.server_complexity),
                    "budget_formula": symbolic.get("budget", ""),
                    "budget_factor": summary.budget_factor,
                    "worst_case_budget": summary.worst_case_budget,
                }
            )
        return rows


def run_table1(
    k: int = 360,
    n: int = 10_000,
    eps_inf: float = 2.0,
    alpha: float = 0.5,
    d: int = 1,
    b: Optional[int] = None,
) -> Table1Result:
    """Instantiate Table 1 for a concrete configuration.

    Defaults mirror the Syn dataset with a mid-range budget; ``g`` is the
    OLOLOHA choice for the given ``(eps_inf, alpha)``.
    """
    g = optimal_g(eps_inf, alpha * eps_inf)
    resolved_b = b if b is not None else k
    summaries = tuple(
        theoretical_comparison_table(k=k, eps_inf=eps_inf, n=n, g=g, b=resolved_b, d=d)
    )
    return Table1Result(
        k=k, g=g, b=resolved_b, d=d, eps_inf=eps_inf, n=n, summaries=summaries
    )


def format_table1(result: Table1Result) -> str:
    """Render Table 1 as text."""
    header = (
        f"Table 1 — theoretical comparison "
        f"(k={result.k}, g={result.g}, b={result.b}, d={result.d}, "
        f"eps_inf={result.eps_inf}, n={result.n})"
    )
    return header + "\n" + format_table(result.rows())
