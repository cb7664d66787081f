"""Table 2 — percentage of users whose data changes are all detected
(dBitFlipPM change-detection attack).

For each dataset and each ``eps_inf`` in the grid, the attack of
:mod:`repro.attacks.change_detection` is run against dBitFlipPM with ``d = 1``
(privacy-oriented) and ``d = b`` (utility-oriented).  The expected shape:
``d = 1`` yields a fraction near zero (slightly decreasing in ``eps_inf``)
while ``d = b`` yields essentially 100%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..attacks.change_detection import ChangeDetectionResult, change_detection_rate
from ..datasets.base import LongitudinalDataset
from ..registry import dbitflip_bucket_count
from ..rng import derive_generators
from .empirical import PAPER_EPS_INF_VALUES
from .report import format_table

__all__ = ["Table2Result", "run_table2", "format_table2"]


@dataclass(frozen=True)
class Table2Result:
    """Detection fractions per (dataset, eps_inf, d-configuration)."""

    eps_inf_values: Tuple[float, ...]
    datasets: Tuple[str, ...]
    #: detection[dataset][d_label] is a list aligned with eps_inf_values.
    detection: Dict[str, Dict[str, List[float]]]
    details: Dict[str, Dict[str, List[ChangeDetectionResult]]]

    def rows(self) -> List[Dict[str, object]]:
        """One row per ``eps_inf`` with a column per (dataset, d) pair."""
        rows: List[Dict[str, object]] = []
        for i, eps_inf in enumerate(self.eps_inf_values):
            row: Dict[str, object] = {"eps_inf": eps_inf}
            for d_label in ("d=1", "d=b"):
                for dataset in self.datasets:
                    row[f"{dataset} {d_label}"] = self.detection[dataset][d_label][i]
            rows.append(row)
        return rows


def run_table2(
    datasets: Mapping[str, LongitudinalDataset],
    seed: int,
    eps_inf_values: Sequence[float] = PAPER_EPS_INF_VALUES,
) -> Table2Result:
    """Run the Table 2 attack grid on ``datasets``.

    Every (dataset, ``eps_inf``, ``d``) cell attacks with its own stream
    derived from ``seed``.
    """
    detection: Dict[str, Dict[str, List[float]]] = {}
    details: Dict[str, Dict[str, List[ChangeDetectionResult]]] = {}
    streams = derive_generators(seed, len(datasets) * len(eps_inf_values) * 2)
    stream_index = 0
    for name, dataset in datasets.items():
        b = dbitflip_bucket_count(dataset.k)
        per_d: Dict[str, List[float]] = {"d=1": [], "d=b": []}
        per_d_details: Dict[str, List[ChangeDetectionResult]] = {"d=1": [], "d=b": []}
        for eps_inf in eps_inf_values:
            for d_label, d in (("d=1", 1), ("d=b", b)):
                result = change_detection_rate(
                    dataset, eps_inf=eps_inf, d=d, b=b, rng=streams[stream_index]
                )
                stream_index += 1
                per_d[d_label].append(result.fraction_fully_detected)
                per_d_details[d_label].append(result)
        detection[name] = per_d
        details[name] = per_d_details
    return Table2Result(
        eps_inf_values=tuple(eps_inf_values),
        datasets=tuple(datasets),
        detection=detection,
        details=details,
    )


def format_table2(result: Table2Result) -> str:
    """Render Table 2 as text (fractions shown as percentages)."""
    rows = []
    for row in result.rows():
        formatted = {"eps_inf": row["eps_inf"]}
        for key, value in row.items():
            if key == "eps_inf":
                continue
            formatted[key] = f"{100.0 * float(value):.3f}%"
        rows.append(formatted)
    return "Table 2 — % of users with all data changes detected (dBitFlipPM)\n" + format_table(rows)
