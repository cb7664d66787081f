"""Tests for the experiment harnesses (Figures 1-4, Tables 1-2) at small scale."""

import numpy as np
import pytest

from repro.datasets import make_dataset, make_uniform_changing
from repro.exceptions import ExperimentError, ParameterError
from repro.experiments import (
    FIGURE3,
    FIGURE4,
    format_figure,
    format_figure1,
    format_figure2,
    format_table1,
    format_table2,
    paper_sweep_spec,
    render_figure,
    run_figure1,
    run_figure2,
    run_table1,
    run_table2,
)
from repro.experiments.report import ascii_curve, format_table
from repro.registry import dbitflip_bucket_count
from repro.simulation import run_sweep_spec


@pytest.fixture(scope="module")
def tiny_spec():
    return paper_sweep_spec(
        eps_inf_values=(0.5, 2.0),
        alpha_values=(0.5,),
        datasets=("syn",),
        n_runs=1,
        dataset_scale=0.02,
    )


def _render(figure, spec, rows, datasets):
    return render_figure(figure, rows, datasets, spec.eps_inf_values, spec.alpha_values)


@pytest.fixture(scope="module")
def tiny_named_datasets():
    dataset = make_uniform_changing(
        k=24, n_users=300, n_rounds=6, change_probability=0.3, name="syn", rng=0
    )
    return {"syn": dataset}


class TestPaperSweepSpec:
    def test_defaults_are_the_paper_grid_and_fields_narrow_it(self):
        paper = paper_sweep_spec()
        assert paper.eps_inf_values == tuple(0.5 * i for i in range(1, 11))
        assert paper.alpha_values == (0.4, 0.5, 0.6)
        assert paper.datasets == ("syn", "adult", "db_mt", "db_de")
        assert (paper.n_runs, paper.dataset_scale, paper.seed) == (20, 1.0, 20230328)
        assert paper.n_grid_points == 7 * 10 * 3
        narrowed = paper_sweep_spec(n_runs=3)
        assert narrowed.n_runs == 3
        assert narrowed.eps_inf_values == paper.eps_inf_values

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ParameterError):
            paper_sweep_spec(alpha_values=(1.2,))

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            paper_sweep_spec(eps_inf_values=())


class TestFigure1:
    def test_series_shapes(self, tiny_spec):
        result = run_figure1(tiny_spec.eps_inf_values, alpha_values=(0.3, 0.6), include_numeric=False)
        assert set(result.closed_form) == {0.3, 0.6}
        assert len(result.closed_form[0.3]) == len(tiny_spec.eps_inf_values)

    def test_numeric_cross_check_close(self, tiny_spec):
        result = run_figure1(tiny_spec.eps_inf_values, alpha_values=(0.5,), include_numeric=True)
        for closed, numeric in zip(result.closed_form[0.5], result.numeric[0.5]):
            assert abs(closed - numeric) <= 1

    def test_high_alpha_curves_dominate(self, tiny_spec):
        result = run_figure1(tiny_spec.eps_inf_values, alpha_values=(0.1, 0.6), include_numeric=False)
        for low, high in zip(result.closed_form[0.1], result.closed_form[0.6]):
            assert high >= low

    def test_formatting_and_rows(self, tiny_spec):
        result = run_figure1(tiny_spec.eps_inf_values, alpha_values=(0.5,), include_numeric=False)
        assert "Figure 1" in format_figure1(result)
        assert len(result.rows()) == len(tiny_spec.eps_inf_values)


class TestFigure2:
    def test_grid_contains_paper_protocols(self, tiny_spec):
        result = run_figure2(tiny_spec.eps_inf_values, alpha_values=(0.5,))
        assert set(result.variances) == {"L-OSUE", "OLOLOHA", "RAPPOR", "BiLOLOHA"}

    def test_variance_decreasing_in_eps(self, tiny_spec):
        result = run_figure2(tiny_spec.eps_inf_values, alpha_values=(0.5,))
        for protocol, per_alpha in result.variances.items():
            values = per_alpha[0.5]
            assert values[0] > values[-1]

    def test_formatting(self, tiny_spec):
        result = run_figure2(tiny_spec.eps_inf_values, alpha_values=(0.5,))
        rendered = format_figure2(result, alpha=0.5)
        assert "Figure 2" in rendered
        assert "OLOLOHA" in rendered


class TestFigure3And4:
    @pytest.fixture(scope="class")
    def tiny_rows(self, tiny_spec, tiny_named_datasets):
        """One run of the grid, which both figures render."""
        return run_sweep_spec(tiny_spec, tiny_named_datasets)

    def test_figure3_structure_and_shape(self, tiny_spec, tiny_named_datasets, tiny_rows):
        result = _render(FIGURE3, tiny_spec, tiny_rows, tiny_named_datasets)
        series = result.series("syn", 0.5)
        assert "OLOLOHA" in series and "RAPPOR" in series
        assert len(series["OLOLOHA"]) == len(tiny_spec.eps_inf_values)
        # Utility improves (MSE drops) as the budget grows.
        for values in series.values():
            assert values[-1] <= values[0] * 1.5

    def test_figure3_by_name_drops_dbitflip_on_large_domains(self):
        """The k > 360 rule holds for datasets built by name, not only for
        prebuilt ones: db_mt at scale 0.1 has k = 578.  It only filters
        what Figure 3 renders: Figure 4 plots both dBitFlipPM series from
        the same rows."""
        spec = paper_sweep_spec(
            eps_inf_values=(2.0,), alpha_values=(0.5,), datasets=("db_mt", "syn"),
            n_runs=1, dataset_scale=0.1,
        )
        datasets = {
            name: make_dataset(name, scale=spec.dataset_scale, rng=spec.seed)
            for name in spec.datasets
        }
        assert datasets["db_mt"].k > 360
        rows = run_sweep_spec(spec, datasets)
        figure3 = _render(FIGURE3, spec, rows, datasets)
        assert not any("BitFlipPM" in name for name in figure3.values["db_mt"])
        assert "OLOLOHA" in figure3.values["db_mt"]
        assert {"1BitFlipPM", "bBitFlipPM"} <= set(figure3.values["syn"])
        figure4 = _render(FIGURE4, spec, rows, datasets)
        assert {"1BitFlipPM", "bBitFlipPM"} <= set(figure4.values["db_mt"])
        assert {row["protocol"] for row in rows["db_mt"]} == set(figure4.values["db_mt"])

    def test_figure3_rows_and_formatting(self, tiny_spec, tiny_named_datasets, tiny_rows):
        result = _render(FIGURE3, tiny_spec, tiny_rows, tiny_named_datasets)
        assert len(result.rows()) > 0
        assert "mse_avg" in result.rows()[0] and "worst_case" not in result.rows()[0]
        assert "MSE_avg" in format_figure(result, "syn", 0.5)

    def test_figure4_loloha_bounded_rappor_linear(
        self, tiny_spec, tiny_named_datasets, tiny_rows
    ):
        result = _render(FIGURE4, tiny_spec, tiny_rows, tiny_named_datasets)
        series = result.series("syn", 0.5)
        eps_values = tiny_spec.eps_inf_values
        for i, eps_inf in enumerate(eps_values):
            assert series["BiLOLOHA"][i] <= 2 * eps_inf + 1e-9
            assert series["RAPPOR"][i] >= series["BiLOLOHA"][i] - 1e-9

    def test_figure4_formatting(self, tiny_spec, tiny_named_datasets, tiny_rows):
        result = _render(FIGURE4, tiny_spec, tiny_rows, tiny_named_datasets)
        assert "eps_avg" in format_figure(result, "syn", 0.5)
        assert result.rows()[0]["worst_case"] == result.worst_case["syn"]["RAPPOR"]

    def test_unknown_dataset_in_formatting_raises(
        self, tiny_spec, tiny_named_datasets, tiny_rows
    ):
        result = _render(FIGURE3, tiny_spec, tiny_rows, tiny_named_datasets)
        with pytest.raises(ExperimentError):
            format_figure(result, "adult", 0.5)


class TestTables:
    def test_table1_budget_factors(self):
        result = run_table1(k=360, n=10_000, eps_inf=2.0, alpha=0.5, d=1)
        rows = {row["protocol"]: row for row in result.rows()}
        assert rows["LOLOHA"]["budget_factor"] == result.g
        assert rows["RAPPOR"]["budget_factor"] == 360
        assert rows["dBitFlipPM"]["budget_factor"] == 2
        assert "Table 1" in format_table1(result)

    def test_table2_detection_contrast(self, tiny_spec, tiny_named_datasets):
        result = run_table2(tiny_named_datasets, tiny_spec.seed, tiny_spec.eps_inf_values)
        for i in range(len(tiny_spec.eps_inf_values)):
            assert result.detection["syn"]["d=b"][i] >= result.detection["syn"]["d=1"][i]
        assert "Table 2" in format_table2(result)

    def test_table2_result_pinned(self, tiny_spec, tiny_named_datasets):
        # The attack reads the engine's key history and memoized rows, so any
        # change to how dBitFlipPM keys or memoizes shows up here exactly.
        result = run_table2(tiny_named_datasets, tiny_spec.seed, tiny_spec.eps_inf_values)
        cells = {
            label: [(r.n_users_with_changes, r.n_fully_detected) for r in runs]
            for label, runs in result.details["syn"].items()
        }
        assert cells == {"d=1": [(238, 6), (238, 8)], "d=b": [(238, 238), (238, 238)]}
        assert result.detection["syn"]["d=1"] == [6 / 300, 8 / 300]

    def test_table2_rows_structure(self, tiny_spec, tiny_named_datasets):
        result = run_table2(tiny_named_datasets, tiny_spec.seed, tiny_spec.eps_inf_values)
        rows = result.rows()
        assert len(rows) == len(tiny_spec.eps_inf_values)
        assert "syn d=1" in rows[0]


class TestEmpiricalHelpers:
    def test_bucket_count_rule(self):
        assert dbitflip_bucket_count(360) == 360
        assert dbitflip_bucket_count(1412) == 353
        assert dbitflip_bucket_count(96) == 96

    def test_specs_instantiate_protocols(self):
        from repro.experiments.empirical import paper_protocol_specs
        from repro.registry import build_protocol

        specs = paper_protocol_specs()
        assert list(specs) == [
            "RAPPOR", "L-OSUE", "L-GRR", "BiLOLOHA", "OLOLOHA",
            "1BitFlipPM", "bBitFlipPM",
        ]
        for name, spec in specs.items():
            protocol = build_protocol(spec.at(k=24, eps_inf=2.0, alpha=0.5))
            assert protocol.k == 24
            assert spec.display_name == name


@pytest.fixture(scope="module")
def reduced_syn():
    return make_dataset("syn", scale=0.02, n_rounds=30, rng=0)


@pytest.mark.parametrize(
    "protocol_name",
    ["RAPPOR", "L-OSUE", "L-GRR", "BiLOLOHA", "OLOLOHA", "1BitFlipPM", "bBitFlipPM"],
)
def test_realized_budget_within_table1_worst_case(protocol_name, reduced_syn):
    from repro.experiments.empirical import paper_protocol_specs
    from repro.registry import build_protocol
    from repro.simulation import simulate_protocol

    spec = paper_protocol_specs()[protocol_name].at(k=reduced_syn.k, eps_inf=2.0, alpha=0.5)
    protocol = build_protocol(spec)
    result = simulate_protocol(protocol, reduced_syn, rng=1)
    assert 0 < result.eps_avg <= protocol.worst_case_budget()


class TestReportFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.34567}, {"a": 10, "b": 0.5}]
        rendered = format_table(rows)
        assert "a" in rendered and "b" in rendered
        assert len(rendered.splitlines()) == 4

    def test_format_table_empty_raises(self):
        with pytest.raises(ExperimentError):
            format_table([])

    def test_ascii_curve_contains_legend(self):
        rendered = ascii_curve([1, 2, 3], {"x": [1.0, 0.1, 0.01]}, title="demo")
        assert "demo" in rendered
        assert "legend" in rendered

    def test_ascii_curve_validates_lengths(self):
        with pytest.raises(ExperimentError):
            ascii_curve([1, 2], {"x": [1.0]})

    def test_ascii_curve_requires_series(self):
        with pytest.raises(ExperimentError):
            ascii_curve([1, 2], {})
