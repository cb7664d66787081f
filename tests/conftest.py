"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_syn, make_uniform_changing
from repro.longitudinal import (
    BiLOLOHA,
    DBitFlipPM,
    LGRR,
    LOSUE,
    LOUE,
    LSOUE,
    LSUE,
    OLOLOHA,
)
from repro.specs import ProtocolSpec, SweepSpec


@pytest.fixture
def rng():
    """A deterministic generator for tests that need explicit randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_dataset():
    """A small Syn-like dataset: 400 users, 6 rounds, domain 24."""
    return make_uniform_changing(
        k=24, n_users=400, n_rounds=6, change_probability=0.3, name="small", rng=7
    )


@pytest.fixture
def tiny_dataset():
    """A tiny dataset for client-level (slow-path) simulations."""
    return make_uniform_changing(
        k=12, n_users=120, n_rounds=4, change_probability=0.4, name="tiny", rng=11
    )


@pytest.fixture
def syn_dataset():
    """A scaled-down version of the paper's Syn dataset."""
    return make_syn(n_users=800, n_rounds=10, k=60, rng=3)


@pytest.fixture
def oneshot_dataset():
    """A single-round workload: the one-shot collection degenerate case."""
    return make_uniform_changing(
        k=16, n_users=200, n_rounds=1, change_probability=0.5, name="oneshot", rng=3
    )


@pytest.fixture
def write_sweep_grid(tmp_path):
    """Factory: build a small two-protocol SweepSpec and save it as JSON.

    Returns the saved path; keyword overrides replace the defaults.
    """

    def _write(**overrides):
        fields = dict(
            name="cli",
            protocols=(
                ProtocolSpec(name="L-OSUE"),
                ProtocolSpec(name="dBitFlipPM", label="1BitFlipPM", params={"d": 1}),
            ),
            eps_inf_values=(0.5, 2.0),
            alpha_values=(0.5,),
            datasets=("syn",),
            n_runs=1,
            dataset_scale=0.02,
            seed=11,
        )
        fields.update(overrides)
        spec = SweepSpec(**fields)
        return spec.save(tmp_path / "grid.json")

    return _write


def _protocol_factories(k: int):
    """All longitudinal protocols configured for a domain of size ``k``."""
    eps_inf, eps_1 = 2.0, 1.0
    return {
        "L-GRR": LGRR(k, eps_inf, eps_1),
        "RAPPOR": LSUE(k, eps_inf, eps_1),
        "L-OSUE": LOSUE(k, eps_inf, eps_1),
        "L-OUE": LOUE(k, eps_inf, eps_1),
        "L-SOUE": LSOUE(k, eps_inf, eps_1),
        "BiLOLOHA": BiLOLOHA(k, eps_inf, eps_1),
        "OLOLOHA": OLOLOHA(k, eps_inf, eps_1),
        "1BitFlipPM": DBitFlipPM(k, eps_inf, d=1),
        "bBitFlipPM": DBitFlipPM(k, eps_inf, d=k),
    }


@pytest.fixture
def all_protocols_k24():
    """Every longitudinal protocol over a domain of 24 values."""
    return _protocol_factories(24)


@pytest.fixture(params=["L-GRR", "RAPPOR", "L-OSUE", "BiLOLOHA", "OLOLOHA"])
def double_round_protocol(request):
    """Parametrized fixture over the double-randomization protocols (k=24)."""
    return _protocol_factories(24)[request.param]
