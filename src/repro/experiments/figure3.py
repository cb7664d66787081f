"""Figure 3 — empirical ``MSE_avg`` (Eq. 7) per protocol, dataset and budget.

The paper's headline utility result: over Syn, Adult, DB_MT and DB_DE and the
grid ``eps_inf in [0.5..5]``, ``alpha in {0.4, 0.5, 0.6}``,

* OLOLOHA tracks L-OSUE closely at every setting;
* all double-randomization protocols are similar in high-privacy regimes;
* BiLOLOHA and RAPPOR fall behind in low-privacy regimes;
* L-GRR and 1BitFlipPM are the least accurate;
* bBitFlipPM is the most accurate (single round, all bits reported) — at the
  cost of the Table 2 detectability.

For the large-domain datasets (DB_MT / DB_DE) the paper omits dBitFlipPM from
the MSE plot because it estimates a ``b``-bucket histogram with ``b < k``; the
harness follows the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..datasets import make_dataset
from ..datasets.base import LongitudinalDataset
from ..exceptions import ExperimentError
from .config import ExperimentConfig, PAPER_CONFIG
from .empirical import run_empirical_sweep
from .report import ascii_curve, format_table

__all__ = ["Figure3Result", "run_figure3", "format_figure3"]


@dataclass(frozen=True)
class Figure3Result:
    """``MSE_avg`` per (dataset, protocol, alpha, eps_inf)."""

    eps_inf_values: Tuple[float, ...]
    alpha_values: Tuple[float, ...]
    datasets: Tuple[str, ...]
    #: mse[dataset][protocol][alpha] is a list aligned with eps_inf_values.
    mse: Dict[str, Dict[str, Dict[float, List[float]]]]

    def series(self, dataset: str, alpha: float) -> Dict[str, List[float]]:
        """Per-protocol MSE curves of one subplot (dataset, alpha)."""
        return {
            protocol: per_alpha[alpha] for protocol, per_alpha in self.mse[dataset].items()
        }

    def rows(self) -> List[Dict[str, object]]:
        """Flat rows for CSV export."""
        rows: List[Dict[str, object]] = []
        for dataset, per_protocol in self.mse.items():
            for protocol, per_alpha in per_protocol.items():
                for alpha, values in per_alpha.items():
                    for eps_inf, value in zip(self.eps_inf_values, values):
                        rows.append(
                            {
                                "dataset": dataset,
                                "protocol": protocol,
                                "alpha": alpha,
                                "eps_inf": eps_inf,
                                "mse_avg": value,
                            }
                        )
        return rows


def run_figure3(
    config: ExperimentConfig = PAPER_CONFIG,
    datasets: Optional[Dict[str, LongitudinalDataset]] = None,
) -> Figure3Result:
    """Run the Figure 3 sweep.

    Parameters
    ----------
    config:
        Grid / scale configuration.
    datasets:
        Optional pre-built datasets keyed by name (used by tests and by the
        Figure 4 harness to share simulations); when omitted, each configured
        dataset is generated at ``config.dataset_scale``.
    """
    dataset_names = tuple(datasets.keys()) if datasets else config.datasets
    mse: Dict[str, Dict[str, Dict[float, List[float]]]] = {}
    for name in dataset_names:
        if datasets:
            dataset = datasets[name]
        else:
            dataset = make_dataset(name, scale=config.dataset_scale, rng=config.seed)
        points = run_empirical_sweep(
            config, name, dataset=dataset, include_dbitflip=dataset.k <= 360
        )
        per_protocol: Dict[str, Dict[float, List[float]]] = {}
        for point in points:
            per_alpha = per_protocol.setdefault(point.protocol_name, {})
            per_alpha.setdefault(point.alpha, []).append(point.mse_avg)
        mse[name] = per_protocol
    return Figure3Result(
        eps_inf_values=tuple(config.eps_inf_values),
        alpha_values=tuple(config.alpha_values),
        datasets=dataset_names,
        mse=mse,
    )


def format_figure3(result: Figure3Result, dataset: Optional[str] = None, alpha: Optional[float] = None) -> str:
    """Render one Figure 3 subplot as an ASCII curve plus table."""
    dataset = dataset or result.datasets[0]
    alpha = alpha if alpha is not None else result.alpha_values[0]
    if dataset not in result.mse:
        raise ExperimentError(f"no results for dataset {dataset!r}")
    series = result.series(dataset, alpha)
    rows = []
    for i, eps_inf in enumerate(result.eps_inf_values):
        row: Dict[str, object] = {"eps_inf": eps_inf}
        for protocol, values in series.items():
            row[protocol] = values[i]
        rows.append(row)
    curve = ascii_curve(
        result.eps_inf_values,
        series,
        title=f"Figure 3 — MSE_avg on {dataset} (alpha={alpha})",
    )
    return f"{curve}\n\n{format_table(rows)}"
