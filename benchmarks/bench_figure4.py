"""Benchmark / reproduction of Figure 4: averaged longitudinal privacy loss.

Runs the same Section 5 grid as the Figure 3 benchmark and renders its sweep
rows as Figure 4, recording the eps_avg series of every protocol.  Shapes to
verify against Figure 4:

* RAPPOR / L-OSUE / L-GRR / bBitFlipPM grow with the number of data changes
  (linear in eps_inf and much larger than the LOLOHA protocols);
* BiLOLOHA stays at or below 2 * eps_inf; OLOLOHA at or below g * eps_inf;
* 1BitFlipPM stays at or below 2 * eps_inf as well.
"""

import pytest

from repro.datasets import make_dataset
from repro.experiments import FIGURE4, empirical_rows, render_figure


def _run(config, dataset_name):
    datasets = {
        dataset_name: make_dataset(dataset_name, scale=config.dataset_scale, rng=config.seed)
    }
    config = config.scaled(datasets=(dataset_name,))
    return render_figure(FIGURE4, config, empirical_rows(config, datasets), datasets)


@pytest.mark.benchmark(group="figure4")
@pytest.mark.parametrize("dataset_name", ["syn", "adult", "db_mt", "db_de"])
def test_figure4_privacy_loss(benchmark, bench_config, dataset_name):
    result = benchmark.pedantic(
        _run, args=(bench_config, dataset_name), iterations=1, rounds=1
    )
    alpha = bench_config.alpha_values[0]
    series = result.series(dataset_name, alpha)
    benchmark.extra_info["eps_inf_values"] = list(result.eps_inf_values)
    benchmark.extra_info["eps_avg"] = series

    for i, eps_inf in enumerate(result.eps_inf_values):
        # Theorem 3.5 bound for the LOLOHA protocols.
        assert series["BiLOLOHA"][i] <= 2 * eps_inf + 1e-9
        assert series["1BitFlipPM"][i] <= 2 * eps_inf + 1e-9
        # RAPPOR-style protocols consume at least as much budget as BiLOLOHA.
        assert series["RAPPOR"][i] >= series["BiLOLOHA"][i] - 1e-9
        assert series["L-OSUE"][i] >= series["BiLOLOHA"][i] - 1e-9
