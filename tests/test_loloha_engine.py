"""LOLOHA engine: stream anchors at a multi-block shape and the MSE gate.

The engine draws every user's hashed domain through the multiply-shift
family's blocked batch draw, then gathers hashes, memo symbols and packed
support rows with flat takes.  The anchors are sha256 digests of
``simulate_protocol(...).estimates`` on a reduced db_mt whose population
spans several row blocks of that draw; both support layouts and both kernel
backends give the same digest.  The packed support planes, filled one row
block at a time, equal the whole-table ``packbits`` of each hash value.  The MSE_avg/V* gate bounds the R-seed mean
serially and through pooled shards, on the gate datasets shared with the UE
and dBitFlipPM gates; it also runs L-GRR, which shares the symbol memo.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.datasets.census import make_db_mt
from repro.hashing.families import _MULTIPLY_SHIFT_BLOCK_BYTES
from repro.longitudinal import LGRR, LOLOHA, BiLOLOHA, OLOLOHA
from repro.simulation import LOLOHAEngine, simulate_protocol, simulate_protocol_sharded
from repro.simulation.engines import _SUPPORT_PLANES_BLOCK_BYTES
from repro.simulation.kernels_backend import available_backend_names
from repro.specs import ProtocolSpec
from test_statistical_properties import _Z_ALPHA_1E4
from test_ue_once_visited import GATE_DATASETS

PROTOCOLS = {"BiLOLOHA": BiLOLOHA, "OLOLOHA": OLOLOHA}
EPS_INF, ALPHA = 2.0, 0.5
#: The MSE gate's protocols and their eps_inf.  It also runs L-GRR, whose
#: engine shares LOLOHA's dense symbol memo, at eps_inf = 5: at 2 its V* on
#: the gate datasets is so large that a memo carrying no signal of the user's
#: value still passes.
GATE_PROTOCOLS = {
    "BiLOLOHA": (BiLOLOHA, EPS_INF),
    "OLOLOHA": (OLOLOHA, EPS_INF),
    "L-GRR": (LGRR, 5.0),
}


def anchor_dataset():
    """db_mt at 1000 users (k = 475) and 6 rounds."""
    return make_db_mt(n_users=1000, n_rounds=6, rng=0)


#: sha256 of the float64 estimates, eps_inf=2, alpha=0.5, rng=7 — the same
#: for both support layouts and both kernel backends.
ESTIMATE_SHA256 = {
    "BiLOLOHA": "c7cb8d604750880095678370acf38e24f1f7d066588d79bd2ebc90b1f43bdb5b",
    "OLOLOHA": "8283092686f09d0e115cfcd6b5a1082970dc7be67fad475e13ca5794c4b5039e",
}


def test_anchor_population_spans_several_hash_blocks():
    dataset = anchor_dataset()
    block_rows = _MULTIPLY_SHIFT_BLOCK_BYTES // (8 * dataset.k)
    assert dataset.n_users // block_rows >= 3
    assert dataset.n_users % block_rows  # a ragged last block


@pytest.mark.parametrize("backend", ["numpy", "native"])
@pytest.mark.parametrize("layout", ["packed", "compare"])
@pytest.mark.parametrize("name", list(PROTOCOLS))
def test_estimates_match_anchor(name, layout, backend):
    if backend not in available_backend_names():
        pytest.skip("the native backend cannot be built on this host")
    dataset = anchor_dataset()
    result = simulate_protocol(
        PROTOCOLS[name](dataset.k, EPS_INF, ALPHA * EPS_INF),
        dataset,
        rng=7,
        engine_options={"support_layout": layout, "backend": backend},
    )
    assert hashlib.sha256(result.estimates.tobytes()).hexdigest() == ESTIMATE_SHA256[name]


@pytest.mark.parametrize("g", [2, 3, 53])
def test_blocked_support_planes_equal_whole_table_packbits(g):
    """Planes packed one row block at a time equal each whole-table
    ``packbits(hashed_domain == h)``, over a ragged last block."""
    k = 300
    block_rows = _SUPPORT_PLANES_BLOCK_BYTES // (2 * k)  # int16 tables
    n_users = 2 * block_rows + 17
    engine = LOLOHAEngine(LOLOHA(k, 2.0, 1.0, g=g), n_users, rng=3, support_layout="packed")
    planes = engine._support_planes
    assert planes.shape == (g, n_users, -(-k // 8))
    for h in range(g):
        assert np.array_equal(planes[h], np.packbits(engine.hashed_domain == h, axis=1))


N_SEEDS = 16


@pytest.mark.parametrize("dataset_name", list(GATE_DATASETS))
@pytest.mark.parametrize("name", list(GATE_PROTOCOLS))
def test_mse_over_v_star_is_bounded_serial_and_pooled(name, dataset_name):
    """The R-seed mean of MSE_avg/V* stays at 1, serially and through pooled
    shards, and the two means agree.

    V* is Eq. (4) averaged over the true frequencies.  Memoization
    correlates rounds, so the spread is taken across seeds: the bound is
    ``z`` seed-standard-errors plus 10%.
    """
    dataset = GATE_DATASETS[dataset_name]()
    protocol_cls, eps_inf = GATE_PROTOCOLS[name]
    protocol = protocol_cls(dataset.k, eps_inf, ALPHA * eps_inf)
    spec = ProtocolSpec(name=name, eps_inf=eps_inf, alpha=ALPHA)
    v_star = np.mean([
        protocol.exact_variance(dataset.n_users, float(f))
        for f in dataset.true_frequency_matrix().ravel()
    ])
    by_mode = {
        "serial": [simulate_protocol(protocol, dataset, rng=seed).mse_avg / v_star
                   for seed in range(N_SEEDS)],
        "pooled": [simulate_protocol_sharded(spec, dataset, 2, rng=seed, n_workers=2).mse_avg
                   / v_star for seed in range(N_SEEDS)],
    }
    spreads = {}
    for mode, ratios in by_mode.items():
        ratios = np.asarray(ratios)
        spreads[mode] = math.sqrt(ratios.var(ddof=1) / ratios.size)
        assert abs(ratios.mean() - 1) < 0.1 + _Z_ALPHA_1E4 * spreads[mode], (mode, ratios)
    gap = np.mean(by_mode["serial"]) - np.mean(by_mode["pooled"])
    assert abs(gap) < _Z_ALPHA_1E4 * math.hypot(*spreads.values()), by_mode
