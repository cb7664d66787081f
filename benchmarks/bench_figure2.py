"""Benchmark / reproduction of Figure 2: approximate variance comparison.

Regenerates the V* (Eq. 5) curves for L-OSUE, OLOLOHA, RAPPOR and BiLOLOHA
with n = 10000 over the paper's full grid.  Shape to verify: all protocols
close for small alpha; OLOLOHA tracks L-OSUE; BiLOLOHA and RAPPOR fall behind
as eps_inf and alpha grow.
"""

import pytest

from repro.experiments import run_figure2
from repro.experiments.figure2 import FIGURE2_ALPHAS, FIGURE2_PROTOCOLS


@pytest.mark.benchmark(group="figure2")
def test_figure2_variances(benchmark):
    result = benchmark(
        lambda: run_figure2(protocols=FIGURE2_PROTOCOLS, alpha_values=FIGURE2_ALPHAS)
    )
    benchmark.extra_info["eps_inf_values"] = list(result.eps_inf_values)
    benchmark.extra_info["variances"] = {
        protocol: {str(alpha): values for alpha, values in per_alpha.items()}
        for protocol, per_alpha in result.variances.items()
    }

    # Shape checks from Section 4.
    low_privacy = {p: result.variances[p][0.6][-1] for p in FIGURE2_PROTOCOLS}
    assert low_privacy["OLOLOHA"] <= 1.6 * low_privacy["L-OSUE"]
    assert low_privacy["BiLOLOHA"] >= low_privacy["OLOLOHA"]
    assert low_privacy["RAPPOR"] >= low_privacy["L-OSUE"]
    high_privacy = [result.variances[p][0.2][0] for p in FIGURE2_PROTOCOLS]
    assert max(high_privacy) / min(high_privacy) < 1.6
