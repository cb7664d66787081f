"""Tests for the theoretical-analysis package (comparison, variances)."""

import pytest

from repro.analysis import (
    PROTOCOL_VARIANCE_FUNCTIONS,
    approximate_variance_for,
    theoretical_comparison_table,
    variance_comparison_grid,
)
from repro.exceptions import ParameterError


class TestComparisonTable:
    def test_contains_all_protocols(self):
        rows = theoretical_comparison_table(k=360, eps_inf=2.0, n=10_000, g=3, d=1)
        assert {row.protocol for row in rows} == {
            "LOLOHA",
            "L-GRR",
            "RAPPOR",
            "L-OSUE",
            "dBitFlipPM",
        }

    def test_budget_factors_match_table1(self):
        rows = {
            row.protocol: row
            for row in theoretical_comparison_table(k=100, eps_inf=2.0, n=1000, g=4, b=50, d=3)
        }
        assert rows["LOLOHA"].budget_factor == 4
        assert rows["RAPPOR"].budget_factor == 100
        assert rows["L-OSUE"].budget_factor == 100
        assert rows["L-GRR"].budget_factor == 100
        assert rows["dBitFlipPM"].budget_factor == 4  # min(d + 1, b)

    def test_communication_bits_match_table1(self):
        rows = {
            row.protocol: row
            for row in theoretical_comparison_table(k=100, eps_inf=2.0, n=1000, g=4, b=50, d=3)
        }
        assert rows["LOLOHA"].communication_bits == 2.0
        assert rows["RAPPOR"].communication_bits == 100.0
        assert rows["L-GRR"].communication_bits == 7.0
        assert rows["dBitFlipPM"].communication_bits == 3.0

    def test_rejects_d_above_b(self):
        with pytest.raises(ParameterError):
            theoretical_comparison_table(k=100, eps_inf=2.0, n=1000, b=5, d=6)


class TestVarianceComparison:
    def test_registry_covers_figure2_protocols(self):
        for name in ("RAPPOR", "L-OSUE", "BiLOLOHA", "OLOLOHA", "L-GRR"):
            assert name in PROTOCOL_VARIANCE_FUNCTIONS

    def test_unknown_protocol_raises(self):
        with pytest.raises(ParameterError):
            approximate_variance_for("LDP-9000", 2.0, 1.0, 1000)

    def test_l_grr_variance_depends_on_k(self):
        small = approximate_variance_for("L-GRR", 2.0, 1.0, 1000, k=2)
        large = approximate_variance_for("L-GRR", 2.0, 1.0, 1000, k=500)
        assert large > small

    def test_ue_variances_are_domain_size_agnostic(self):
        for protocol in ("RAPPOR", "L-OSUE", "BiLOLOHA", "OLOLOHA"):
            a = approximate_variance_for(protocol, 2.0, 1.0, 1000, k=2)
            b = approximate_variance_for(protocol, 2.0, 1.0, 1000, k=500)
            assert a == pytest.approx(b)

    def test_grid_shape(self):
        grid = variance_comparison_grid(
            ["RAPPOR", "OLOLOHA"], eps_inf_values=[1.0, 2.0], alpha_values=[0.5], n=1000
        )
        assert set(grid) == {"RAPPOR", "OLOLOHA"}
        assert len(grid["RAPPOR"][0.5]) == 2

    def test_grid_rejects_invalid_alpha(self):
        with pytest.raises(ParameterError):
            variance_comparison_grid(["RAPPOR"], [1.0], [1.5], n=1000)

    def test_figure2_qualitative_shape(self):
        """In the low-privacy regime OLOLOHA ~ L-OSUE and both beat BiLOLOHA."""
        eps_inf, alpha, n = 5.0, 0.6, 10_000
        v = {
            name: approximate_variance_for(name, eps_inf, alpha * eps_inf, n)
            for name in ("L-OSUE", "OLOLOHA", "RAPPOR", "BiLOLOHA")
        }
        assert v["OLOLOHA"] < v["BiLOLOHA"]
        assert v["L-OSUE"] < v["RAPPOR"]
        assert v["OLOLOHA"] == pytest.approx(v["L-OSUE"], rel=0.6)

    def test_variance_decreases_with_budget(self):
        for protocol in ("RAPPOR", "L-OSUE", "OLOLOHA", "BiLOLOHA"):
            low = approximate_variance_for(protocol, 1.0, 0.5, 1000)
            high = approximate_variance_for(protocol, 4.0, 2.0, 1000)
            assert high < low
