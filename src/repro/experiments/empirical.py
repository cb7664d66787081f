"""The Section 5 grid, rendered as Figures 3 and 4.

Both figures plot columns of the same simulations: every protocol is run
over every dataset for the full ``(eps_inf, alpha)`` grid, and each grid
point's :meth:`~repro.simulation.SweepPoint.as_row` row carries its
``mse_avg`` (Eq. 7, Figure 3), its realized ``eps_avg`` (Eq. 8, Figure 4)
and its Table 1 ``worst_case_budget``.  :func:`paper_sweep_spec` is that
grid as one :class:`~repro.specs.SweepSpec` named ``"empirical"``: the
protocol line-up of Section 5.1, including the two dBitFlipPM
configurations and the paper's bucket-count rule, over the paper's grid by
default.  :func:`~repro.simulation.run_sweep_spec` runs it, in memory or, as
``repro-ldp figure3/figure4 --output-dir D`` do, into ``sweep --spec``'s
resumable CSVs ``D/empirical_<dataset>.csv``, so the second figure rendered
into ``D`` simulates nothing.  :func:`render_figure` turns the rows into
either figure.

Figure 3 — ``MSE_avg``, the paper's headline utility result:

* OLOLOHA tracks L-OSUE closely at every setting;
* all double-randomization protocols are similar in high-privacy regimes;
* BiLOLOHA and RAPPOR fall behind in low-privacy regimes;
* L-GRR and 1BitFlipPM are the least accurate;
* bBitFlipPM is the most accurate (single round, all bits reported) — at the
  cost of the Table 2 detectability.

For the large-domain datasets (DB_MT / DB_DE) the paper omits dBitFlipPM
from the MSE plot because it estimates a ``b``-bucket histogram with
``b < k``; Figure 3 drops those series when rendering, not simulating.

Figure 4 — ``eps_avg``, the averaged longitudinal privacy loss:

* RAPPOR, L-OSUE, L-GRR and bBitFlipPM grow linearly with the number of data
  (or bucket) changes — tens to hundreds of epsilon over the experimental
  horizons;
* BiLOLOHA stays at most ``2 * eps_inf`` and OLOLOHA at most ``g * eps_inf``;
* 1BitFlipPM stays at most ``2 * eps_inf`` as well (``min(d + 1, b)`` with
  ``d = 1``), but pays for it with the worst utility in Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..datasets.base import LongitudinalDataset
from ..exceptions import ExperimentError
from ..specs import ProtocolSpec, SweepSpec
from .report import ascii_curve, format_table

__all__ = [
    "paper_protocol_specs",
    "paper_sweep_spec",
    "PAPER_EPS_INF_VALUES",
    "EmpiricalFigure",
    "FIGURE3",
    "FIGURE4",
    "FigureResult",
    "render_figure",
    "format_figure",
    "EMPIRICAL_PROTOCOLS",
]

#: Display order of the evaluated protocols (legend order of Figures 3/4).
EMPIRICAL_PROTOCOLS = (
    "bBitFlipPM",
    "L-OSUE",
    "OLOLOHA",
    "RAPPOR",
    "BiLOLOHA",
    "1BitFlipPM",
    "L-GRR",
)

#: The ``eps_inf`` axis of every figure and table of the paper.
PAPER_EPS_INF_VALUES: Tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)


def paper_protocol_specs() -> Dict[str, ProtocolSpec]:
    """Spec templates for the protocol line-up evaluated in Section 5.2.

    Each template leaves the grid fields (``k``, ``eps_inf``, ``alpha``)
    open; the sweep fills them in per grid point.  dBitFlipPM derives its
    bucket count from the paper's rule (the registry default) and appears in
    the privacy- (``d = 1``) and utility-oriented (``d = b``) configurations.
    """
    return {
        "RAPPOR": ProtocolSpec(name="L-SUE", label="RAPPOR"),
        "L-OSUE": ProtocolSpec(name="L-OSUE"),
        "L-GRR": ProtocolSpec(name="L-GRR"),
        "BiLOLOHA": ProtocolSpec(name="BiLOLOHA"),
        "OLOLOHA": ProtocolSpec(name="OLOLOHA"),
        "1BitFlipPM": ProtocolSpec(name="dBitFlipPM", label="1BitFlipPM", params={"d": 1}),
        "bBitFlipPM": ProtocolSpec(name="dBitFlipPM", label="bBitFlipPM", params={"d": "b"}),
    }


def paper_sweep_spec(
    eps_inf_values: Sequence[float] = PAPER_EPS_INF_VALUES,
    alpha_values: Sequence[float] = (0.4, 0.5, 0.6),
    datasets: Sequence[str] = ("syn", "adult", "db_mt", "db_de"),
    n_runs: int = 20,
    dataset_scale: float = 1.0,
    seed: int = 20230328,
) -> SweepSpec:
    """The Figure 3/4 grid as a serializable sweep spec.

    The defaults are the paper's: 10 ``eps_inf`` × 3 ``alpha`` × 20 runs on
    the four datasets at full size.  This is what ``figure3``/``figure4``
    run, emit with ``--emit-spec`` and what ``repro-ldp sweep --spec``
    consumes.
    """
    return SweepSpec(
        protocols=tuple(paper_protocol_specs().values()),
        eps_inf_values=eps_inf_values,
        alpha_values=alpha_values,
        datasets=datasets,
        n_runs=n_runs,
        dataset_scale=dataset_scale,
        seed=seed,
        name="empirical",
    )


@dataclass(frozen=True)
class EmpiricalFigure:
    """What one of Figures 3/4 plots from the grid's sweep rows."""

    number: int
    #: The sweep-row column plotted (also its column in the figure CSV).
    column: str
    #: The metric's name in the paper, used in titles.
    label: str
    log_scale: bool
    #: dBitFlipPM series are shown only for domains up to this size.
    dbitflip_max_k: Optional[int] = None
    #: Whether the figure CSV carries each protocol's Table 1 worst case.
    worst_case: bool = False

    def shows(self, spec: ProtocolSpec, k: int) -> bool:
        """Whether the figure plots ``spec``'s series on a domain of size ``k``."""
        if self.dbitflip_max_k is None or spec.name != "dBitFlipPM":
            return True
        return k <= self.dbitflip_max_k


FIGURE3 = EmpiricalFigure(3, "mse_avg", "MSE_avg", log_scale=True, dbitflip_max_k=360)
FIGURE4 = EmpiricalFigure(4, "eps_avg", "eps_avg", log_scale=False, worst_case=True)


@dataclass(frozen=True)
class FigureResult:
    """One figure's metric per (dataset, protocol, alpha, eps_inf)."""

    figure: EmpiricalFigure
    eps_inf_values: Tuple[float, ...]
    alpha_values: Tuple[float, ...]
    datasets: Tuple[str, ...]
    #: values[dataset][protocol][alpha] is a list aligned with eps_inf_values.
    values: Dict[str, Dict[str, Dict[float, List[float]]]]
    #: worst_case[dataset][protocol] — the Table 1 bound for reference.
    worst_case: Dict[str, Dict[str, float]]

    def series(self, dataset: str, alpha: float) -> Dict[str, List[float]]:
        """Per-protocol curves of one subplot (dataset, alpha)."""
        return {
            protocol: per_alpha[alpha] for protocol, per_alpha in self.values[dataset].items()
        }

    def rows(self) -> List[Dict[str, object]]:
        """Flat rows for CSV export."""
        rows: List[Dict[str, object]] = []
        for dataset, per_protocol in self.values.items():
            for protocol, per_alpha in per_protocol.items():
                for alpha, values in per_alpha.items():
                    for eps_inf, value in zip(self.eps_inf_values, values):
                        row: Dict[str, object] = {
                            "dataset": dataset,
                            "protocol": protocol,
                            "alpha": alpha,
                            "eps_inf": eps_inf,
                            self.figure.column: value,
                        }
                        if self.figure.worst_case:
                            row["worst_case"] = self.worst_case[dataset][protocol]
                        rows.append(row)
        return rows


def render_figure(
    figure: EmpiricalFigure,
    rows: Mapping[str, Sequence[Mapping[str, object]]],
    datasets: Mapping[str, LongitudinalDataset],
    eps_inf_values: Sequence[float],
    alpha_values: Sequence[float],
) -> FigureResult:
    """Read ``figure`` off the sweep rows of an ``eps_inf_values`` ×
    ``alpha_values`` grid.

    ``rows`` maps each dataset name to its rows, as
    :func:`~repro.simulation.run_sweep_spec` returns them: ``as_row()``
    dictionaries, or the string-valued ones a
    :class:`~repro.store.ResultsStore` loads back, which parse to the same
    floats.  ``datasets`` are the workloads the rows were simulated on;
    Figure 3 reads their domain sizes.
    """
    values: Dict[str, Dict[str, Dict[float, List[float]]]] = {}
    worst_case: Dict[str, Dict[str, float]] = {}
    for name, dataset in datasets.items():
        points = {
            (row["protocol"], float(row["alpha"]), float(row["eps_inf"])): row
            for row in rows[name]
        }
        protocols = [
            label
            for label, spec in paper_protocol_specs().items()
            if figure.shows(spec, dataset.k)
        ]
        values[name] = {
            protocol: {
                alpha: [
                    float(points[protocol, alpha, eps_inf][figure.column])
                    for eps_inf in eps_inf_values
                ]
                for alpha in alpha_values
            }
            for protocol in protocols
        }
        worst_case[name] = {
            protocol: max(
                float(points[protocol, alpha, eps_inf]["worst_case_budget"])
                for alpha in alpha_values
                for eps_inf in eps_inf_values
            )
            for protocol in protocols
        }
    return FigureResult(
        figure=figure,
        eps_inf_values=tuple(eps_inf_values),
        alpha_values=tuple(alpha_values),
        datasets=tuple(datasets),
        values=values,
        worst_case=worst_case,
    )


def format_figure(
    result: FigureResult, dataset: Optional[str] = None, alpha: Optional[float] = None
) -> str:
    """Render one subplot of the figure as an ASCII curve plus table."""
    dataset = dataset or result.datasets[0]
    alpha = alpha if alpha is not None else result.alpha_values[0]
    if dataset not in result.values:
        raise ExperimentError(f"no results for dataset {dataset!r}")
    series = result.series(dataset, alpha)
    rows = []
    for i, eps_inf in enumerate(result.eps_inf_values):
        row: Dict[str, object] = {"eps_inf": eps_inf}
        for protocol, values in series.items():
            row[protocol] = values[i]
        rows.append(row)
    figure = result.figure
    curve = ascii_curve(
        result.eps_inf_values,
        series,
        log_scale=figure.log_scale,
        title=f"Figure {figure.number} — {figure.label} on {dataset} (alpha={alpha})",
    )
    return f"{curve}\n\n{format_table(rows)}"
