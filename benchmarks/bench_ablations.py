"""Ablation benchmarks for the library's design choices.

* hash-family choice: the estimation error of LOLOHA must be statistically
  indistinguishable across universal families;
* ``g`` sensitivity: the analytic optimum of Eq. (6) must not be materially
  worse than its neighbours (and must beat far-off choices);
* dBitFlipPM ``d`` between the two extremes the paper reports: utility
  improves and detectability worsens monotonically (in expectation) with d;
* post-processing: clipping / simplex projection never increase the MSE of a
  raw unbiased estimate by more than a trivial amount on skewed histograms.
"""

import numpy as np
import pytest

from repro.attacks import change_detection_rate
from repro.datasets import make_uniform_changing
from repro.freq_oneshot import clip_and_normalize, project_onto_simplex
from repro.hashing import (
    BlakeHashFamily,
    MultiplyShiftHashFamily,
    PolynomialHashFamily,
    TabulationHashFamily,
)
from repro.longitudinal import DBitFlipPM, LOLOHA
from repro.longitudinal.optimal_g import optimal_g
from repro.longitudinal.parameters import loloha_parameters
from repro.longitudinal.variance import approximate_variance
from repro.simulation import simulate_protocol


@pytest.fixture(scope="module")
def ablation_dataset():
    return make_uniform_changing(
        k=64, n_users=2_000, n_rounds=10, change_probability=0.3, name="ablation", rng=0
    )


@pytest.mark.benchmark(group="ablation-hash-family")
@pytest.mark.parametrize(
    "family_cls",
    [MultiplyShiftHashFamily, PolynomialHashFamily, TabulationHashFamily, BlakeHashFamily],
    ids=["multiply-shift", "polynomial", "tabulation", "blake"],
)
def test_hash_family_choice(benchmark, ablation_dataset, family_cls):
    protocol = LOLOHA(
        ablation_dataset.k, eps_inf=2.0, eps_1=1.0, g=4, family=family_cls(4)
    )
    result = benchmark.pedantic(
        simulate_protocol, args=(protocol, ablation_dataset), kwargs={"rng": 1},
        iterations=1, rounds=1,
    )
    benchmark.extra_info["mse_avg"] = result.mse_avg
    # The estimator only assumes universality, so accuracy must stay in the
    # same ballpark as the theoretical variance regardless of the family.
    assert result.mse_avg < 10 * protocol.approximate_variance(ablation_dataset.n_users)


@pytest.mark.benchmark(group="ablation-g-sensitivity")
def test_g_sensitivity_around_optimum(benchmark):
    eps_inf, alpha, n = 4.0, 0.6, 10_000
    eps_1 = alpha * eps_inf

    def sweep():
        return {
            g: approximate_variance(loloha_parameters(eps_inf, eps_1, g), n)
            for g in range(2, 40)
        }

    variances = benchmark(sweep)
    best_g = optimal_g(eps_inf, eps_1)
    benchmark.extra_info["optimal_g"] = best_g
    benchmark.extra_info["variance_at_optimum"] = variances[best_g]
    # The analytic optimum is within a hair of the best scanned value and far
    # better than a badly mis-tuned g.
    assert variances[best_g] <= min(variances.values()) * 1.02
    assert variances[best_g] < 0.8 * variances[39]


@pytest.mark.benchmark(group="ablation-dbitflip-d")
def test_dbitflip_d_tradeoff(benchmark, ablation_dataset):
    """Sweep d between the paper's two extremes: utility improves with d
    while detectability grows."""
    eps_inf = 2.0
    d_values = (1, 4, 16, ablation_dataset.k)

    def sweep():
        rows = []
        for d in d_values:
            protocol = DBitFlipPM(ablation_dataset.k, eps_inf, d=d)
            utility = simulate_protocol(protocol, ablation_dataset, rng=2)
            attack = change_detection_rate(ablation_dataset, eps_inf=eps_inf, d=d, rng=3)
            rows.append(
                {
                    "d": d,
                    "mse_avg": utility.mse_avg,
                    "fraction_fully_detected": attack.fraction_fully_detected,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    benchmark.extra_info["dbitflip_tradeoff"] = rows
    assert rows[-1]["mse_avg"] < rows[0]["mse_avg"]
    assert rows[-1]["fraction_fully_detected"] > rows[0]["fraction_fully_detected"]


@pytest.mark.benchmark(group="ablation-postprocessing")
def test_postprocessing_effect(benchmark):
    """Post-processing a raw unbiased estimate onto the simplex does not hurt
    (and usually helps) the MSE on a skewed histogram."""
    rng = np.random.default_rng(5)
    k, n = 64, 4_000
    true = np.zeros(k)
    true[:4] = (0.4, 0.3, 0.2, 0.1)
    values = rng.choice(k, size=n, p=true)
    protocol = LOLOHA(k, eps_inf=2.0, eps_1=1.0)

    def run():
        clients = [protocol.create_client(rng) for _ in range(n)]
        reports = [c.report(int(v), rng) for c, v in zip(clients, values)]
        return protocol.estimate_frequencies(reports)

    raw = benchmark.pedantic(run, iterations=1, rounds=1)
    mse_raw = float(np.mean((raw - true) ** 2))
    mse_clip = float(np.mean((clip_and_normalize(raw) - true) ** 2))
    mse_simplex = float(np.mean((project_onto_simplex(raw) - true) ** 2))
    benchmark.extra_info["mse"] = {"raw": mse_raw, "clip": mse_clip, "simplex": mse_simplex}
    assert mse_simplex <= mse_raw * 1.05
