"""Tests for ``run_sweep`` and ``run_sweep_spec``: parallel bit-identity,
fail-fast validation, dispersion statistics, incremental result flushing and
resume."""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.exceptions import ExperimentError, ParameterError
from repro.simulation import sweep as sweep_module
from repro.simulation.runner import simulate_protocol
from repro.simulation.sweep import (
    SweepTask,
    completed_points_from_rows,
    run_sweep,
    run_sweep_spec,
)
from repro.specs import ProtocolSpec, SweepSpec
from repro.store import ResultsStore


def _specs():
    return {
        "OLOLOHA": ProtocolSpec(name="OLOLOHA"),
        "RAPPOR": ProtocolSpec(name="L-SUE", label="RAPPOR"),
    }


def _executed_tasks(monkeypatch, *args, **kwargs):
    """The tasks a serial ``run_sweep(*args, **kwargs)`` executes, in order."""
    tasks = []
    execute = sweep_module._execute_task

    def recording(task_index, task, *rest):
        tasks.append(task)
        return execute(task_index, task, *rest)

    monkeypatch.setattr(sweep_module, "_execute_task", recording)
    run_sweep(*args, **kwargs)
    return tasks


class TestParallelBitIdentity:
    def test_parallel_reproduces_serial_bit_for_bit(self, tiny_dataset):
        kwargs = dict(
            protocols=_specs(),
            dataset=tiny_dataset,
            eps_inf_values=[1.0, 2.0],
            alpha_values=[0.5],
            n_runs=2,
            rng=123,
        )
        serial = run_sweep(**kwargs, n_workers=1)
        parallel = run_sweep(**kwargs, n_workers=2, keep_runs=False)
        assert len(serial) == len(parallel) == 4
        for s, p in zip(serial, parallel):
            assert (s.protocol_name, s.alpha, s.eps_inf) == (
                p.protocol_name,
                p.alpha,
                p.eps_inf,
            )
            # Bit-for-bit, not approx: both paths must consume identical
            # derived randomness streams.
            assert s.mse_avg == p.mse_avg
            assert s.eps_avg == p.eps_avg
            assert s.run_mses == p.run_mses

    @pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
    def test_non_fork_pool_reproduces_serial_bit_for_bit(self, tmp_path, start_method):
        """Under ``spawn`` and ``forkserver`` the pool workers receive a
        pickled dataset through the initializer instead of fork-inherited
        pages; results must stay bit-identical to the serial path."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = tmp_path / "pool_sweep.py"
        script.write_text(
            "import json, multiprocessing\n"
            "from repro.datasets.synthetic import make_uniform_changing\n"
            "from repro.simulation.sweep import run_sweep\n"
            "from repro.specs import ProtocolSpec\n"
            "if __name__ == '__main__':\n"
            f"    multiprocessing.set_start_method({start_method!r})\n"
            "    dataset = make_uniform_changing(k=12, n_users=120, n_rounds=4,\n"
            "        change_probability=0.4, name='tiny', rng=11)\n"
            "    kwargs = dict(protocols={'OLOLOHA': ProtocolSpec(name='OLOLOHA'),\n"
            "        'L-GRR': ProtocolSpec(name='L-GRR')}, dataset=dataset,\n"
            "        eps_inf_values=[1.0], alpha_values=[0.5], n_runs=2, rng=123,\n"
            "        keep_runs=False)\n"
            "    print(json.dumps([[(p.mse_avg, p.eps_avg) for p in\n"
            "        run_sweep(**kwargs, n_workers=n)] for n in (1, 2)]))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        process = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert process.returncode == 0, process.stderr
        serial, pooled = json.loads(process.stdout)
        assert len(serial) == 2
        assert serial == pooled

    def test_worker_count_does_not_change_results(self, tiny_dataset):
        kwargs = dict(
            protocols={"L-GRR": ProtocolSpec(name="L-GRR")},
            dataset=tiny_dataset,
            eps_inf_values=[2.0],
            alpha_values=[0.4, 0.6],
            n_runs=3,
            rng=7,
            keep_runs=False,
        )
        two = run_sweep(**kwargs, n_workers=2)
        three = run_sweep(**kwargs, n_workers=3)
        for a, b in zip(two, three):
            assert a.mse_avg == b.mse_avg and a.eps_avg == b.eps_avg

    def test_task_rejects_wrong_dataset(self, tiny_dataset, small_dataset, monkeypatch):
        task = _executed_tasks(
            monkeypatch, _specs(), tiny_dataset, eps_inf_values=[1.0], alpha_values=[0.5]
        )[0]
        assert task.dataset_name == tiny_dataset.name
        with pytest.raises(ExperimentError, match="reached a worker"):
            task.check_dataset(small_dataset)

    def test_tasks_are_picklable(self, tiny_dataset, monkeypatch):
        import pickle

        tasks = _executed_tasks(
            monkeypatch, _specs(), tiny_dataset,
            eps_inf_values=[1.0], alpha_values=[0.5], n_runs=2,
        )
        assert len(tasks) == 4
        assert [task.run for task in tasks] == [0, 1, 0, 1]
        restored = pickle.loads(pickle.dumps(tasks))
        assert all(isinstance(task, SweepTask) for task in restored)
        assert restored == tasks
        protocol = restored[0].build(tiny_dataset.k)
        assert protocol.k == tiny_dataset.k


class TestFailFastValidation:
    def test_invalid_alpha_rejected_before_any_simulation(self, tiny_dataset):
        # A huge run count would make a post-derivation validation allocate
        # an enormous task list and generator table before failing; the
        # sweep must reject the grid up front.
        with pytest.raises(ExperimentError, match="alpha"):
            run_sweep(
                _specs(),
                tiny_dataset,
                eps_inf_values=[1.0],
                alpha_values=[1.5],
                n_runs=1_000_000_000,
            )

    @pytest.mark.parametrize(
        "field, values",
        [("eps_inf_values", [1.0, 2.0, 1.0]), ("alpha_values", [0.5, 0.5])],
        ids=["eps", "alpha"],
    )
    def test_repeated_grid_value_rejected_before_any_simulation(
        self, tiny_dataset, tmp_path, monkeypatch, field, values
    ):
        def never(*args, **kwargs):
            raise AssertionError("a grid point ran")

        monkeypatch.setattr(sweep_module, "simulate_protocol", never)
        store = ResultsStore(tmp_path)
        grid = {"eps_inf_values": [1.0], "alpha_values": [0.5], field: values}
        with pytest.raises(ParameterError, match=f"{field} repeats the value {values[0]!r}"):
            run_sweep(_specs(), tiny_dataset, store=store, experiment_id="dup", **grid)
        assert not store.has_rows("dup")

    def test_missing_dataset_rejected(self):
        with pytest.raises(ExperimentError, match="no dataset"):
            run_sweep(_specs(), None, eps_inf_values=[1.0], alpha_values=[0.5])

    def test_empty_grid_rejected(self, tiny_dataset):
        with pytest.raises(ExperimentError):
            run_sweep(_specs(), tiny_dataset, eps_inf_values=[], alpha_values=[0.5])

    def test_non_spec_protocol_rejected(self, tiny_dataset):
        with pytest.raises(ExperimentError, match="'RAPPOR' must be a ProtocolSpec"):
            run_sweep(
                {"RAPPOR": lambda k, eps_inf, eps_1: None},
                tiny_dataset,
                eps_inf_values=[1.0],
                alpha_values=[0.5],
            )

    def test_grid_order_is_protocol_alpha_eps(self, tiny_dataset):
        points = run_sweep(
            _specs(),
            tiny_dataset,
            eps_inf_values=[1.0, 2.0],
            alpha_values=[0.4, 0.6],
        )
        assert [(p.protocol_name, p.alpha, p.eps_inf) for p in points[:4]] == [
            ("OLOLOHA", 0.4, 1.0),
            ("OLOLOHA", 0.4, 2.0),
            ("OLOLOHA", 0.6, 1.0),
            ("OLOLOHA", 0.6, 2.0),
        ]


class TestDispersionStatistics:
    def test_mse_std_available_without_kept_runs(self, tiny_dataset):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.std([]) would warn
            points = run_sweep(
                {"RAPPOR": ProtocolSpec(name="L-SUE", label="RAPPOR")},
                tiny_dataset,
                eps_inf_values=[1.0],
                alpha_values=[0.5],
                n_runs=3,
                keep_runs=False,
            )
            std = points[0].mse_std
        assert points[0].runs == []
        assert len(points[0].run_mses) == 3
        assert np.isfinite(std)
        assert std == pytest.approx(float(np.std(points[0].run_mses)))

    def test_mse_std_nan_without_any_runs(self):
        from repro.simulation.sweep import SweepPoint

        point = SweepPoint(
            protocol_name="x",
            dataset_name="y",
            eps_inf=1.0,
            alpha=0.5,
            mse_avg=0.0,
            eps_avg=0.0,
            worst_case_budget=0.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(point.mse_std)


class TestIncrementalFlushing:
    def test_sweep_flushes_points_to_store(self, tiny_dataset, tmp_path):
        store = ResultsStore(tmp_path)
        points = run_sweep(
            _specs(),
            tiny_dataset,
            eps_inf_values=[1.0, 2.0],
            alpha_values=[0.5],
            n_runs=2,
            rng=0,
            keep_runs=False,
            store=store,
            experiment_id="sweep_test",
        )
        rows = store.load_rows("sweep_test")
        assert len(rows) == len(points) == 4
        for row, point in zip(rows, points):
            assert row["protocol"] == point.protocol_name
            assert float(row["mse_avg"]) == pytest.approx(point.mse_avg)
            assert int(row["n_runs"]) == 2

    def test_parallel_sweep_flushes_in_grid_order(self, tiny_dataset, tmp_path):
        store = ResultsStore(tmp_path)
        points = run_sweep(
            _specs(),
            tiny_dataset,
            eps_inf_values=[1.0, 2.0],
            alpha_values=[0.5],
            n_runs=1,
            rng=0,
            keep_runs=False,
            n_workers=2,
            store=store,
            experiment_id="sweep_par",
        )
        rows = store.load_rows("sweep_par")
        assert [row["protocol"] for row in rows] == [p.protocol_name for p in points]
        assert [float(row["eps_inf"]) for row in rows] == [p.eps_inf for p in points]

    def test_serial_sweep_appends_each_point_before_the_next_runs(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        """Every completed point is on disk before the next one starts."""
        timeline = []

        class RecordingStore(ResultsStore):
            def append_rows(self, experiment_id, rows, header_comment=None):
                timeline.append(("append", len(rows)))
                return super().append_rows(experiment_id, rows, header_comment=header_comment)

        def recorded(protocol, dataset, rng):
            timeline.append(("simulate", protocol.eps_inf))
            return simulate_protocol(protocol, dataset, rng)

        monkeypatch.setattr(sweep_module, "simulate_protocol", recorded)
        run_sweep(
            {"RAPPOR": ProtocolSpec(name="L-SUE", label="RAPPOR")},
            tiny_dataset,
            eps_inf_values=[1.0, 2.0, 3.0],
            alpha_values=[0.5],
            keep_runs=False,
            store=RecordingStore(tmp_path),
            experiment_id="stepwise",
        )
        assert timeline == [
            ("simulate", 1.0), ("append", 1),
            ("simulate", 2.0), ("append", 1),
            ("simulate", 3.0), ("append", 1),
        ]

    def test_rerun_with_same_experiment_id_rejected(self, tiny_dataset, tmp_path):
        """A second sweep must not silently append duplicate grid points."""
        store = ResultsStore(tmp_path)
        kwargs = dict(
            protocols={"RAPPOR": ProtocolSpec(name="L-SUE", label="RAPPOR")},
            dataset=tiny_dataset,
            eps_inf_values=[1.0],
            alpha_values=[0.5],
            keep_runs=False,
            store=store,
            experiment_id="dup",
        )
        run_sweep(**kwargs)
        with pytest.raises(ExperimentError, match="already exist"):
            run_sweep(**kwargs)
        assert len(store.load_rows("dup")) == 1

    def test_completed_prefix_flushed_when_a_task_fails(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        """Finished grid points reach the store even if a later point errors."""
        store = ResultsStore(tmp_path)

        def late_fail(protocol, dataset, rng):
            if protocol.eps_inf == 3.0:
                raise ExperimentError("injected failure at eps_inf=3.0")
            return simulate_protocol(protocol, dataset, rng)

        monkeypatch.setattr(sweep_module, "simulate_protocol", late_fail)
        with pytest.raises(ExperimentError, match="injected failure"):
            run_sweep(
                {"RAPPOR": ProtocolSpec(name="L-SUE", label="RAPPOR")},
                tiny_dataset,
                eps_inf_values=[1.0, 2.0, 3.0],
                alpha_values=[0.5],
                keep_runs=False,
                store=store,
                experiment_id="latefail",
            )
        rows = store.load_rows("latefail")
        assert [float(row["eps_inf"]) for row in rows] == [1.0, 2.0]

    def test_append_rows_accumulates(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append_rows("inc", [{"a": 1, "b": 2}])
        store.append_rows("inc", [{"a": 3, "b": 4}])
        rows = store.load_rows("inc")
        assert [row["a"] for row in rows] == ["1", "3"]

    def test_append_rows_rejects_column_mismatch(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append_rows("inc2", [{"a": 1}])
        with pytest.raises(ExperimentError):
            store.append_rows("inc2", [{"c": 1}])


class TestResume:
    def _run(self, dataset, store, completed=None, resume=False):
        return run_sweep(
            _specs(),
            dataset,
            eps_inf_values=[1.0, 2.0],
            alpha_values=[0.5],
            n_runs=2,
            rng=42,
            keep_runs=False,
            store=store,
            experiment_id="resumable",
            completed=completed,
            resume=resume,
        )

    def test_resume_skips_completed_and_matches_uninterrupted_run(
        self, tiny_dataset, tmp_path
    ):
        full_store = ResultsStore(tmp_path / "full")
        self._run(tiny_dataset, full_store)
        full_rows = full_store.load_rows("resumable")
        assert len(full_rows) == 4

        # Simulate an interrupted sweep: only the first two rows survived.
        partial_store = ResultsStore(tmp_path / "partial")
        partial_store.append_rows("resumable", [dict(row) for row in full_rows[:2]])
        completed = completed_points_from_rows(partial_store.load_rows("resumable"))
        assert len(completed) == 2

        points = self._run(
            tiny_dataset, partial_store, completed=completed, resume=True
        )
        # Skipped points are returned as None, recomputed ones as SweepPoint.
        assert [point is None for point in points] == [True, True, False, False]
        resumed_rows = partial_store.load_rows("resumable")
        assert resumed_rows == full_rows

    def test_resume_without_flag_rejected(self, tiny_dataset, tmp_path):
        store = ResultsStore(tmp_path)
        self._run(tiny_dataset, store)
        with pytest.raises(ExperimentError, match="resume"):
            self._run(tiny_dataset, store, completed=set())

    def test_completed_points_from_rows_rejects_malformed(self):
        with pytest.raises(ExperimentError, match="cannot resume"):
            completed_points_from_rows([{"protocol": "x"}])

    def test_fully_completed_grid_runs_nothing(self, tiny_dataset, tmp_path):
        store = ResultsStore(tmp_path)
        self._run(tiny_dataset, store)
        completed = completed_points_from_rows(store.load_rows("resumable"))
        points = self._run(
            tiny_dataset, store, completed=completed, resume=True
        )
        assert all(point is None for point in points)
        assert len(store.load_rows("resumable")) == 4


class TestRunSweepSpec:
    SPEC = SweepSpec(
        protocols=tuple(_specs().values()),
        eps_inf_values=(1.0, 2.0),
        alpha_values=(0.5,),
        datasets=("tiny",),
        n_runs=2,
        seed=5,
        name="t",
    )

    def test_in_memory_rows_are_the_sweep_points_as_rows(self, tiny_dataset):
        points = run_sweep(
            self.SPEC.grid_protocols(), tiny_dataset, self.SPEC.eps_inf_values,
            self.SPEC.alpha_values, n_runs=2, rng=5, keep_runs=False,
        )
        rows = run_sweep_spec(self.SPEC, {"tiny": tiny_dataset})
        assert rows == {"tiny": [point.as_row() for point in points]}

    def test_output_dir_rows_are_the_fingerprinted_csv(self, tiny_dataset, tmp_path, capsys):
        datasets = {"tiny": tiny_dataset}
        rows = run_sweep_spec(self.SPEC, datasets, tmp_path)
        csv = tmp_path / "t_tiny.csv"
        first_line = csv.read_text().splitlines()[0]
        assert first_line == f"# sweep_spec_fingerprint={self.SPEC.fingerprint()}"
        assert rows == {"tiny": ResultsStore(tmp_path).load_rows("t_tiny")}
        in_memory = run_sweep_spec(self.SPEC, datasets)["tiny"]
        assert [float(row["mse_avg"]) for row in rows["tiny"]] == [
            row["mse_avg"] for row in in_memory
        ]
        assert "tiny: 4 grid points (0 already complete, 4 to run, 1 worker)" in (
            capsys.readouterr().out
        )

        before = csv.read_bytes()
        assert run_sweep_spec(self.SPEC, datasets, tmp_path, resume=True) == rows
        assert "tiny: all 4 grid points already complete, nothing to do" in (
            capsys.readouterr().out
        )
        assert csv.read_bytes() == before
        with pytest.raises(ExperimentError, match="already exist"):
            run_sweep_spec(self.SPEC, datasets, tmp_path)
        other = dataclasses.replace(self.SPEC, seed=6)
        with pytest.raises(ExperimentError, match="refusing to resume t_tiny"):
            run_sweep_spec(other, datasets, tmp_path, resume=True)
        assert csv.read_bytes() == before
