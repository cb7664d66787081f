"""Benchmark / reproduction of Figure 3: empirical MSE_avg per protocol.

Runs the Section 5 grid of the full protocol line-up (RAPPOR, L-OSUE, L-GRR,
1BitFlipPM, bBitFlipPM, BiLOLOHA, OLOLOHA) over scaled-down versions of the
four paper datasets and renders its sweep rows as Figure 3, recording the
MSE_avg series (dBitFlipPM only where k <= 360).  Shapes to verify against
Figure 3:

* OLOLOHA ~ L-OSUE at every grid point;
* bBitFlipPM has the lowest MSE, 1BitFlipPM and L-GRR the highest;
* MSE decreases as eps_inf grows.

Set ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_FULL_GRID=1`` to approach the
paper-scale experiment.
"""

import pytest

from repro.datasets import make_dataset
from repro.experiments import FIGURE3, render_figure
from repro.simulation import run_sweep_spec


def _run(spec, dataset_name):
    datasets = {
        dataset_name: make_dataset(dataset_name, scale=spec.dataset_scale, rng=spec.seed)
    }
    rows = run_sweep_spec(spec, datasets)
    return render_figure(FIGURE3, rows, datasets, spec.eps_inf_values, spec.alpha_values)


@pytest.mark.benchmark(group="figure3")
@pytest.mark.parametrize("dataset_name", ["syn", "adult", "db_mt", "db_de"])
def test_figure3_mse(benchmark, bench_spec, dataset_name):
    result = benchmark.pedantic(
        _run, args=(bench_spec, dataset_name), iterations=1, rounds=1
    )
    alpha = bench_spec.alpha_values[0]
    series = result.series(dataset_name, alpha)
    benchmark.extra_info["eps_inf_values"] = list(result.eps_inf_values)
    benchmark.extra_info["mse_avg"] = series

    # Shape checks (loose: scaled-down populations are noisy).
    assert series["OLOLOHA"][-1] <= 5 * series["L-OSUE"][-1]
    for protocol, values in series.items():
        assert values[-1] <= values[0] * 1.5, f"{protocol} MSE did not improve with budget"
    if "bBitFlipPM" in series and "1BitFlipPM" in series:
        assert series["bBitFlipPM"][-1] <= series["1BitFlipPM"][-1]
