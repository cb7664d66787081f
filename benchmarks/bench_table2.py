"""Benchmark / reproduction of Table 2: dBitFlipPM change-detection rates.

For each dataset, runs the change-detection attack with the privacy-oriented
configuration (d = 1) and the utility-oriented one (d = b).  Shape to verify:
d = 1 yields a near-zero fraction of fully attacked users, d = b yields a
fraction close to 100% of the users that changed at least once.
"""

import dataclasses

import pytest

from repro.datasets import make_dataset
from repro.experiments import run_table2


def _run(spec, dataset_name):
    dataset = make_dataset(dataset_name, scale=spec.dataset_scale, rng=spec.seed)
    return run_table2({dataset_name: dataset}, spec.seed, spec.eps_inf_values)


@pytest.mark.benchmark(group="table2")
@pytest.mark.parametrize("dataset_name", ["syn", "adult"])
def test_table2_change_detection(benchmark, bench_spec, dataset_name):
    spec = dataclasses.replace(bench_spec, eps_inf_values=(0.5, 2.0, 5.0))
    result = benchmark.pedantic(_run, args=(spec, dataset_name), iterations=1, rounds=1)
    benchmark.extra_info["detection"] = result.detection[dataset_name]

    detection = result.detection[dataset_name]
    details = result.details[dataset_name]
    for i in range(len(result.eps_inf_values)):
        # Privacy-oriented configuration: few users fully attacked.
        assert detection["d=1"][i] < 0.10
        # Utility-oriented configuration: essentially every changing user is
        # fully attacked.
        full = details["d=b"][i]
        if full.n_users_with_changes:
            assert full.n_fully_detected / full.n_users_with_changes > 0.9
