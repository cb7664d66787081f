"""Shared configuration for the experiment harnesses.

Two presets are provided:

* :data:`PAPER_CONFIG` — the exact grids of Section 5.1 (full populations,
  ``eps_inf`` from 0.5 to 5 in steps of 0.5, ``alpha`` in {0.4, 0.5, 0.6},
  20 repetitions).  Running it reproduces the paper at full fidelity but takes
  hours on a laptop.
* :data:`QUICK_CONFIG` — a scaled-down grid (smaller populations, three
  ``eps_inf`` points, one repetition) whose qualitative conclusions match the
  paper and which finishes in minutes; it is the default for the benchmark
  suite and for the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from .._validation import require_distinct, require_int_at_least, require_positive
from ..exceptions import ExperimentError

__all__ = ["ExperimentConfig", "PAPER_CONFIG", "QUICK_CONFIG"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid and scale settings shared by the experiment harnesses.

    Attributes
    ----------
    eps_inf_values:
        Longitudinal privacy budgets to sweep.
    alpha_values:
        Ratios ``eps_1 / eps_inf`` to sweep.
    n_runs:
        Independent repetitions per grid point.
    dataset_scale:
        Fraction of each dataset's paper-size population / horizon to
        simulate.
    datasets:
        Dataset names to include (subset of syn / adult / db_mt / db_de).
    seed:
        Root seed from which all randomness is derived.
    variance_n:
        The ``n`` used for numerical variance comparisons (Figure 2).
    """

    eps_inf_values: Tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
    alpha_values: Tuple[float, ...] = (0.4, 0.5, 0.6)
    n_runs: int = 20
    dataset_scale: float = 1.0
    datasets: Tuple[str, ...] = ("syn", "adult", "db_mt", "db_de")
    seed: int = 20230328
    variance_n: int = 10_000

    def __post_init__(self) -> None:
        if not self.eps_inf_values:
            raise ExperimentError("eps_inf_values must be non-empty")
        if not self.alpha_values:
            raise ExperimentError("alpha_values must be non-empty")
        for alpha in self.alpha_values:
            if not 0.0 < alpha < 1.0:
                raise ExperimentError(f"alpha values must lie in (0, 1), got {alpha}")
        for eps in self.eps_inf_values:
            require_positive(eps, "eps_inf")
        require_int_at_least(self.n_runs, 1, "n_runs")
        require_positive(self.dataset_scale, "dataset_scale")
        require_int_at_least(self.variance_n, 1, "variance_n")
        if not self.datasets:
            raise ExperimentError("at least one dataset is required")
        require_distinct(self.datasets, "datasets")

    def scaled(self, **overrides) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


#: The full grids used by the paper (Section 5.1).
PAPER_CONFIG = ExperimentConfig()

#: A CI-friendly configuration: qualitative conclusions are preserved while a
#: full figure reproduction finishes in minutes on a laptop.
QUICK_CONFIG = ExperimentConfig(
    eps_inf_values=(0.5, 2.0, 5.0),
    alpha_values=(0.5,),
    n_runs=1,
    dataset_scale=0.05,
    datasets=("syn", "adult"),
    seed=20230328,
    variance_n=10_000,
)
