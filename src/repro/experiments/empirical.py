"""Shared empirical sweep used by Figures 3 and 4.

Both figures come from the same simulations: every protocol is run over every
dataset for the full ``(eps_inf, alpha)`` grid; Figure 3 reads off the
``MSE_avg`` of each run and Figure 4 the realized ``eps_avg``.  This module
builds the protocol line-up of Section 5.1 (including the two dBitFlipPM
configurations and the paper's bucket-count rule) as declarative
:class:`~repro.specs.ProtocolSpec` templates and runs the sweep once per
dataset so the two figures can share the results.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..datasets import make_dataset
from ..datasets.base import LongitudinalDataset
from ..registry import dbitflip_bucket_count
from ..simulation.sweep import SweepPoint, run_sweep
from ..specs import ProtocolSpec, SweepSpec
from .config import ExperimentConfig

__all__ = [
    "paper_protocol_specs",
    "paper_sweep_spec",
    "dbitflip_bucket_count",
    "run_empirical_sweep",
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


def paper_protocol_specs(include_dbitflip: bool = True) -> Dict[str, ProtocolSpec]:
    """Spec templates for the protocol line-up evaluated in Section 5.2.

    Each template leaves the grid fields (``k``, ``eps_inf``, ``alpha``)
    open; the sweep fills them in per grid point.  dBitFlipPM derives its
    bucket count from the paper's rule (the registry default) and appears in
    the privacy- (``d = 1``) and utility-oriented (``d = b``) configurations.
    """
    specs: Dict[str, ProtocolSpec] = {
        "RAPPOR": ProtocolSpec(name="L-SUE", label="RAPPOR"),
        "L-OSUE": ProtocolSpec(name="L-OSUE"),
        "L-GRR": ProtocolSpec(name="L-GRR"),
        "BiLOLOHA": ProtocolSpec(name="BiLOLOHA"),
        "OLOLOHA": ProtocolSpec(name="OLOLOHA"),
    }
    if include_dbitflip:
        specs["1BitFlipPM"] = ProtocolSpec(
            name="dBitFlipPM", label="1BitFlipPM", params={"d": 1}
        )
        specs["bBitFlipPM"] = ProtocolSpec(
            name="dBitFlipPM", label="bBitFlipPM", params={"d": "b"}
        )
    return specs


def paper_sweep_spec(
    config: ExperimentConfig,
    include_dbitflip: bool = True,
    name: str = "empirical",
) -> SweepSpec:
    """The full Figure 3/4 grid of ``config`` as a serializable sweep spec.

    This is what the figure CLI subcommands emit with ``--emit-spec`` and
    what ``repro-ldp sweep --spec`` consumes.
    """
    return SweepSpec(
        protocols=tuple(paper_protocol_specs(include_dbitflip).values()),
        eps_inf_values=tuple(config.eps_inf_values),
        alpha_values=tuple(config.alpha_values),
        datasets=tuple(config.datasets),
        n_runs=config.n_runs,
        dataset_scale=config.dataset_scale,
        seed=config.seed,
        n_workers=config.n_workers,
        name=name,
    )


def run_empirical_sweep(
    config: ExperimentConfig,
    dataset_name: str,
    dataset: Optional[LongitudinalDataset] = None,
    include_dbitflip: bool = True,
    store=None,
    experiment_id: Optional[str] = None,
) -> List[SweepPoint]:
    """Run the full protocol sweep over one dataset of the configuration.

    The sweep is sharded over ``config.n_workers`` processes (results are
    bit-identical for every worker count).  When ``store`` (a
    :class:`repro.store.ResultsStore`) is given, completed grid points are
    flushed to ``<experiment_id>.csv`` incrementally while the sweep runs.
    """
    if dataset is None:
        dataset = make_dataset(dataset_name, scale=config.dataset_scale, rng=config.seed)
    specs = paper_protocol_specs(include_dbitflip=include_dbitflip)
    return run_sweep(
        protocols=specs,
        dataset=dataset,
        eps_inf_values=config.eps_inf_values,
        alpha_values=config.alpha_values,
        n_runs=config.n_runs,
        rng=config.seed,
        keep_runs=False,
        n_workers=config.n_workers,
        store=store,
        experiment_id=experiment_id or f"empirical_{dataset.name}",
    )
