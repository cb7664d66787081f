"""Benchmark / reproduction of Figure 1: optimal g selection (Eq. 6).

Regenerates the optimal-``g`` curves for ``alpha`` in {0.1..0.6} over the
paper's full ``eps_inf`` grid and records them in ``extra_info``.  The shape
to verify against the paper: ``g = 2`` in high-privacy regimes, growing to
double digits only for large ``eps_inf`` combined with large ``alpha``.
"""

import pytest

from repro.experiments import run_figure1
from repro.experiments.figure1 import FIGURE1_ALPHAS


@pytest.mark.benchmark(group="figure1")
def test_figure1_optimal_g(benchmark):
    result = benchmark(
        lambda: run_figure1(alpha_values=FIGURE1_ALPHAS, include_numeric=False)
    )
    series = {str(alpha): result.closed_form[alpha] for alpha in result.alpha_values}
    benchmark.extra_info["eps_inf_values"] = list(result.eps_inf_values)
    benchmark.extra_info["optimal_g_by_alpha"] = series

    # Paper shape checks: binary g under strong privacy, growing with alpha.
    assert result.closed_form[0.1][0] == 2
    assert result.closed_form[0.6][-1] >= 10
    for alpha in result.alpha_values:
        values = result.closed_form[alpha]
        assert values == sorted(values)
