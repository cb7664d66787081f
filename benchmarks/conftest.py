"""Shared configuration for the benchmark suite.

Every benchmark reproduces one paper artifact (table or figure) at a
CI-friendly scale and, in addition to timing the harness with
pytest-benchmark, attaches the reproduced rows/series to
``benchmark.extra_info`` so the regenerated numbers can be inspected in the
benchmark JSON output.

Scale can be raised towards the paper's full grids with the environment
variable ``REPRO_BENCH_SCALE`` (a float multiplier on the population /
horizon sizes) and ``REPRO_BENCH_FULL_GRID=1`` (use the full eps/alpha grid).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import paper_sweep_spec
from repro.specs import SweepSpec


def _bench_spec() -> SweepSpec:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.04"))
    if os.environ.get("REPRO_BENCH_FULL_GRID", "0") == "1":
        return paper_sweep_spec(dataset_scale=scale)
    return paper_sweep_spec(
        eps_inf_values=(0.5, 2.0, 5.0), alpha_values=(0.5,), n_runs=1, dataset_scale=scale
    )


@pytest.fixture(scope="session")
def bench_spec() -> SweepSpec:
    """The Section 5 grid / scale shared by every benchmark."""
    return _bench_spec()
