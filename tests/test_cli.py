"""Tests for the command-line interface."""

import contextlib
import hashlib
import io
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.datasets import make_dataset
from repro.exceptions import ParameterError
from repro.experiments import (
    FIGURE3,
    FIGURE4,
    format_figure,
    paper_sweep_spec,
    render_figure,
)
from repro.simulation import run_sweep_spec
from repro.specs import SweepSpec, load_sweep_spec
from repro.store import ResultsStore


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_prog_name_matches_installed_script(self):
        # pyproject installs the entry point as ``repro-ldp``.
        assert build_parser().prog == "repro-ldp"

    def test_figure3_accepts_dataset_choices(self):
        args = build_parser().parse_args(["figure3", "--dataset", "syn", "adult"])
        assert args.dataset == ["syn", "adult"]

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure3", "--dataset", "imaginary"])

    def test_grid_defaults(self):
        args = build_parser().parse_args(["figure3"])
        assert args.eps == [0.5, 2.0, 5.0]
        assert args.alpha == [0.5]

    @pytest.mark.parametrize(
        "argv, unrecognized",
        [
            (["figure1", "--alpha", "0.5"], "--alpha 0.5"),
            (["figure1", "--runs", "2"], "--runs 2"),
            (["figure1", "--scale", "0.1"], "--scale 0.1"),
            (["figure1", "--seed", "3"], "--seed 3"),
            (["figure2", "--runs", "2"], "--runs 2"),
            (["figure2", "--scale", "0.1"], "--scale 0.1"),
            (["figure2", "--seed", "3"], "--seed 3"),
            (["table1", "--eps", "1.0"], "--eps 1.0"),
            (["table1", "--runs", "2"], "--runs 2"),
            (["table1", "--scale", "0.1"], "--scale 0.1"),
            (["table1", "--seed", "3"], "--seed 3"),
            (["table2", "--alpha", "0.5"], "--alpha 0.5"),
            (["table2", "--runs", "2"], "--runs 2"),
            (["table1", "--alpha", "0.4", "0.6"], "0.6"),
        ],
        ids=lambda value: "-".join(value[:3]) if isinstance(value, list) else "",
    )
    def test_subcommands_take_only_the_options_their_harness_reads(
        self, capsys, argv, unrecognized
    ):
        """A flag the harness would not read is an argparse error, not a
        silently ignored value; ``table1 --alpha`` takes one float."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {unrecognized}\n" in capsys.readouterr().err

    def test_table1_alpha_is_one_float(self):
        assert build_parser().parse_args(["table1", "--alpha", "0.4"]).alpha == 0.4

    def test_shared_memory_flags_are_gone(self, capsys):
        argv = ["sweep", "--spec", "s.json", "--output-dir", "o", "--shared-dataset"]
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--spec", "s.json", "--queue-dir", "q"],
            ["work", "--queue-dir", "q"],
            ["status", "--queue-dir", "q"],
            ["status", "--metrics", "127.0.0.1:9", "--checkpoint", "x.npz"],
            ["status", "--metrics", "127.0.0.1:9"],
            ["sweep", "--spec", "s.json", "--output-dir", "o", "--metrics-port", "0"],
            ["check", "src/repro"],
        ],
        ids=[
            "serve", "work", "status-queue-dir", "status-checkpoint",
            "status", "sweep-metrics-port", "check",
        ],
    )
    def test_file_queue_commands_are_gone(self, capsys, argv):
        """Shards run on a local pool only, and a sweep reports progress
        through ``--events`` alone, and the invariant rules run as a test:
        the file-queue commands, ``status``, ``sweep --metrics-port`` and
        ``check`` are argparse errors, not tracebacks."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro-ldp" in err and "error:" in err
        assert "Traceback" not in err


class TestCommands:
    def test_datasets_summary(self, capsys):
        assert main(["datasets", "--scale", "0.01", "--seed", "0"]) == 0
        output = capsys.readouterr().out
        assert "syn" in output and "adult" in output

    def test_figure1_command(self, capsys):
        assert main(["figure1", "--eps", "0.5", "2.0"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_figure2_command(self, capsys):
        assert main(["figure2", "--eps", "0.5", "2.0", "--alpha", "0.4"]) == 0
        assert "OLOLOHA" in capsys.readouterr().out

    def test_table1_command_with_save(self, capsys, tmp_path):
        code = main(["table1", "--k", "100", "--eps-inf", "2.0", "--output-dir", str(tmp_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert list(tmp_path.glob("*.csv"))

    def test_figure3_command_small(self, capsys, tmp_path):
        code = main(
            [
                "figure3",
                "--dataset", "syn",
                "--eps", "0.5", "2.0",
                "--alpha", "0.5",
                "--scale", "0.02",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "MSE_avg" in output
        assert list(tmp_path.glob("figure3.csv"))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["figure1", "--eps", "0"], "eps_inf must be a finite positive number, got 0.0"),
            (["figure2", "--alpha", "1.5"], "alpha must lie in (0, 1), got 1.5"),
            (["figure3", "--alpha", "1.2", "--scale", "0.02"], "alpha must lie in (0, 1), got 1.2"),
            (["figure4", "--alpha", "1.5", "--scale", "0.02"], "alpha must lie in (0, 1), got 1.5"),
            (["figure4", "--runs", "0", "--scale", "0.02"], "n_runs must be >= 1, got 0"),
            (["table2", "--eps", "0", "--scale", "0.02"], "eps_inf must be positive, got 0.0"),
            (["table2", "--scale", "0"], "scale must be a finite positive number, got 0.0"),
            (
                ["table1", "--alpha", "1.5"],
                "eps_1 (first-report budget) must be strictly smaller than "
                "eps_inf (longitudinal budget); got eps_1=3.0, eps_inf=2.0",
            ),
        ],
        ids=lambda value: "-".join(value[:2]) if isinstance(value, list) else "",
    )
    def test_invalid_grid_answers_error_line_and_exit_2(
        self, capsys, tmp_path, argv, message
    ):
        code = main([*argv, "--output-dir", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == f"error: {message}"
        assert "Traceback" not in captured.err
        assert not list(tmp_path.iterdir())

    def test_repeated_eps_answers_error_line_and_exit_2(self, capsys):
        code = main(["figure3", "--eps", "2", "2", "--alpha", "0.5", "--scale", "0.02"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: eps_inf_values repeats the value 2.0"
        assert "MSE_avg" not in captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure1", "--eps", "2", "1", "2"],
            ["figure2", "--eps", "2", "2"],
            ["table2", "--eps", "2", "2", "--dataset", "syn", "--scale", "0.02"],
        ],
        ids=["figure1", "figure2", "table2"],
    )
    def test_repeated_eps_is_refused_before_any_output(self, capsys, tmp_path, argv):
        """A repeated ``--eps`` used to print collapsed columns or duplicate
        rows and save every row once per repeat."""
        assert main([*argv, "--output-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: eps_inf_values repeats the value 2.0\n"
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["figure3", "table2"])
    def test_repeated_dataset_answers_error_line_and_exit_2(self, capsys, command):
        code = main([command, "--dataset", "syn", "syn", "--eps", "1", "--scale", "0.02"])
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: datasets repeats the value 'syn'"

    def test_table2_command_small(self, capsys):
        code = main(
            ["table2", "--dataset", "syn", "--eps", "0.5", "--scale", "0.02"]
        )
        assert code == 0
        assert "Table 2" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_streams_grid_to_csv(self, capsys, tmp_path, write_sweep_grid):
        grid = write_sweep_grid()
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(grid), "--output-dir", str(out)]) == 0
        output = capsys.readouterr().out
        assert "4 grid points" in output and "0 already complete" in output
        csv_path = out / "cli_syn.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().strip().splitlines()
        # fingerprint comment + header + 4 rows
        assert len(lines) == 6
        assert lines[0].startswith("# sweep_spec_fingerprint=")

    def test_sweep_workers_and_backend_flags(
        self, capsys, tmp_path, write_sweep_grid, monkeypatch
    ):
        """--workers 2 and --kernel-backend produce the same CSV as the
        default sweep (bit-identical grid, numpy backend pinned via env)."""
        import os

        from repro.simulation.kernels_backend import BACKEND_ENV_VAR

        # setenv (not delenv) so teardown restores a known value even though
        # the CLI writes os.environ directly; "auto" is the default policy.
        monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
        grid = write_sweep_grid()
        plain_out, pooled_out = tmp_path / "plain", tmp_path / "pooled"
        assert main(["sweep", "--spec", str(grid), "--output-dir", str(plain_out)]) == 0
        assert (
            main(
                [
                    "sweep",
                    "--spec", str(grid),
                    "--output-dir", str(pooled_out),
                    "--workers", "2",
                    "--kernel-backend", "numpy",
                ]
            )
            == 0
        )
        assert "kernel backend: numpy" in capsys.readouterr().out
        # The flag holds for its own sweep only.
        assert os.environ[BACKEND_ENV_VAR] == "auto"
        assert (plain_out / "cli_syn.csv").read_text().splitlines()[1:] == (
            pooled_out / "cli_syn.csv"
        ).read_text().splitlines()[1:]

    def test_sweep_csv_fingerprint_matches_spec(self, tmp_path, write_sweep_grid):
        grid = write_sweep_grid()
        out = tmp_path / "out"
        main(["sweep", "--spec", str(grid), "--output-dir", str(out)])
        comment = (out / "cli_syn.csv").read_text().splitlines()[0]
        spec = load_sweep_spec(grid)
        assert comment == f"# sweep_spec_fingerprint={spec.fingerprint()}"

    def test_sweep_resume_recomputes_only_missing_points(self, capsys, tmp_path, write_sweep_grid):
        grid = write_sweep_grid()
        out = tmp_path / "out"
        main(["sweep", "--spec", str(grid), "--output-dir", str(out)])
        capsys.readouterr()
        csv_path = out / "cli_syn.csv"
        full = csv_path.read_bytes()

        # Simulate an interrupted sweep: drop the last two data rows
        # (keeping the fingerprint comment, the header and two rows).
        lines = full.splitlines(keepends=True)
        csv_path.write_bytes(b"".join(lines[:4]))

        code = main(["sweep", "--spec", str(grid), "--output-dir", str(out), "--resume"])
        assert code == 0
        output = capsys.readouterr().out
        assert "2 already complete" in output and "2 to run" in output
        # Byte-identical to the uninterrupted run: resumed points consume the
        # same derived streams.
        assert csv_path.read_bytes() == full

    def test_sweep_resume_refuses_csv_from_a_different_spec(self, capsys, tmp_path, write_sweep_grid):
        """A fingerprinted CSV written by a different grid must be refused."""
        grid = write_sweep_grid()
        out = tmp_path / "out"
        main(["sweep", "--spec", str(grid), "--output-dir", str(out)])
        capsys.readouterr()
        before = (out / "cli_syn.csv").read_text()

        # Re-point the spec at a different eps grid under the same name.
        payload = json.loads((tmp_path / "grid.json").read_text())
        payload["eps_inf_values"] = [1.0, 4.0]
        (tmp_path / "grid.json").write_text(json.dumps(payload))

        code = main(["sweep", "--spec", str(grid), "--output-dir", str(out), "--resume"])
        assert code == 2
        assert "refusing to resume" in capsys.readouterr().err
        # The refusal must leave the old CSV untouched.
        assert (out / "cli_syn.csv").read_text() == before

    def test_sweep_resume_refuses_csv_of_an_older_stream_contract(
        self, capsys, monkeypatch, tmp_path, write_sweep_grid
    ):
        """Rows drawn on stream contract 1 must not be completed with rows
        of the current contract, even under an unchanged spec file."""
        grid = write_sweep_grid()
        out = tmp_path / "out"
        with monkeypatch.context() as patched:
            patched.setattr("repro.specs.STREAM_CONTRACT", 1)
            old_fingerprint = load_sweep_spec(grid).fingerprint()
            assert main(["sweep", "--spec", str(grid), "--output-dir", str(out)]) == 0
        capsys.readouterr()
        assert load_sweep_spec(grid).fingerprint() != old_fingerprint
        before = (out / "cli_syn.csv").read_text()
        assert f"sweep_spec_fingerprint={old_fingerprint}" in before

        code = main(["sweep", "--spec", str(grid), "--output-dir", str(out), "--resume"])
        assert code == 2
        assert "refusing to resume" in capsys.readouterr().err
        assert (out / "cli_syn.csv").read_text() == before

    @pytest.mark.parametrize("damage", ["stripped", "hash-flipped"])
    def test_sweep_resume_refuses_csv_without_fingerprint(
        self, capsys, tmp_path, write_sweep_grid, damage
    ):
        """A CSV without a fingerprint record is refused before any point runs.

        ``stripped`` drops the comment line (and a row); ``hash-flipped``
        turns the comment's leading ``#`` into ``"``, which makes the line
        read as a header row rather than a comment.
        """
        grid = write_sweep_grid()
        out = tmp_path / "out"
        main(["sweep", "--spec", str(grid), "--output-dir", str(out)])
        capsys.readouterr()
        csv_path = out / "cli_syn.csv"
        lines = csv_path.read_bytes().splitlines(keepends=True)
        assert lines[0].startswith(b"#")
        if damage == "stripped":
            csv_path.write_bytes(b"".join(lines[1:4]))
        else:
            csv_path.write_bytes(b'"' + b"".join(lines)[1:])
        before = csv_path.read_bytes()

        code = main(["sweep", "--spec", str(grid), "--output-dir", str(out), "--resume"])
        assert code == 2
        captured = capsys.readouterr()
        assert "no sweep spec fingerprint" in captured.err
        assert str(csv_path) in captured.err
        assert "to run" not in captured.out
        assert csv_path.read_bytes() == before

    def test_sweep_resume_names_the_csv_of_a_malformed_row(
        self, capsys, tmp_path, write_sweep_grid
    ):
        """A damaged header row under a valid fingerprint is refused, naming the file."""
        grid = write_sweep_grid()
        out = tmp_path / "out"
        main(["sweep", "--spec", str(grid), "--output-dir", str(out)])
        capsys.readouterr()
        csv_path = out / "cli_syn.csv"
        data = bytearray(csv_path.read_bytes())
        header_start = data.index(b"\n") + 1
        column = data.index(b"protocol", header_start)
        data[column] ^= 0x01  # "protocol" -> "qrotocol"
        csv_path.write_bytes(bytes(data))

        code = main(["sweep", "--spec", str(grid), "--output-dir", str(out), "--resume"])
        assert code == 2
        captured = capsys.readouterr()
        assert "cannot resume from row" in captured.err
        assert str(csv_path) in captured.err
        assert csv_path.read_bytes() == bytes(data)

    def test_sweep_resume_noop_when_complete(self, capsys, tmp_path, write_sweep_grid):
        grid = write_sweep_grid()
        out = tmp_path / "out"
        main(["sweep", "--spec", str(grid), "--output-dir", str(out)])
        capsys.readouterr()
        assert main(
            ["sweep", "--spec", str(grid), "--output-dir", str(out), "--resume"]
        ) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_sweep_without_resume_refuses_existing_csv(self, capsys, tmp_path, write_sweep_grid):
        grid = write_sweep_grid()
        out = tmp_path / "out"
        main(["sweep", "--spec", str(grid), "--output-dir", str(out)])
        capsys.readouterr()
        code = main(["sweep", "--spec", str(grid), "--output-dir", str(out)])
        assert code == 2
        assert "already exist" in capsys.readouterr().err

    def test_sweep_with_bad_spec_file_fails_cleanly(self, capsys, tmp_path, write_sweep_grid):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        code = main(["sweep", "--spec", str(bad), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestQueryCli:
    """`query` over the CSVs a `sweep` wrote."""

    def _run(self, grid, out, *extra):
        return main(["sweep", "--spec", str(grid), "--output-dir", str(out), *extra])

    def test_query_filters_and_formats(self, capsys, tmp_path, write_sweep_grid):
        grid = write_sweep_grid()
        out = tmp_path / "out"
        self._run(grid, out)
        fingerprint = load_sweep_spec(grid).fingerprint()
        capsys.readouterr()

        assert main(["query", "--dir", str(out), "--fingerprint", fingerprint]) == 0
        csv_text = capsys.readouterr().out
        assert csv_text.count("\n") == 5  # header + 4 rows
        assert csv_text.startswith("experiment_id,")

        assert main(["query", "--dir", str(out), "--fingerprint", "0" * 16]) == 0
        assert capsys.readouterr().out == ""

        assert (
            main(
                ["query", "--dir", str(out), "--protocol", "L-OSUE",
                 "--eps-min", "1.0", "--format", "json"]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["protocol"] == "L-OSUE" and rows[0]["eps_inf"] == "2.0"

    def test_query_output_file(self, capsys, tmp_path, write_sweep_grid):
        grid = write_sweep_grid()
        out = tmp_path / "out"
        self._run(grid, out)
        capsys.readouterr()
        target = tmp_path / "result.csv"
        assert main(["query", "--dir", str(out), "--output", str(target)]) == 0
        assert "4 matching rows" in capsys.readouterr().out
        assert target.read_text().count("\n") == 5

    def test_query_missing_dir_fails_cleanly(self, capsys, tmp_path):
        code = main(["query", "--dir", str(tmp_path / "absent")])
        assert code == 2
        assert "no results directory" in capsys.readouterr().err

    def test_query_dir_without_csv_fails_cleanly(self, capsys, tmp_path):
        (tmp_path / "stray.txt").write_text("not a results file\n")
        assert main(["query", "--dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no results CSV" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--spec", "s.json", "--output-dir", "o", "--store", "csv"],
             "unrecognized arguments: --store csv"),
            (["query", "--dir", "d", "--store", "csv"],
             "unrecognized arguments: --store csv"),
            (["migrate-store", "--source", "a", "--dest", "b"],
             "invalid choice: 'migrate-store'"),
        ],
        ids=["sweep-store", "query-store", "migrate-store"],
    )
    def test_store_kind_options_are_gone(self, capsys, argv, message):
        """The CSV store is the only results store: no kind to pick."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, values",
    [
        ("eps_inf_values", (2.0, 2.0)),
        ("alpha_values", (0.5, 0.4, 0.5)),
        ("datasets", ("syn", "syn")),
    ],
    ids=["eps", "alpha", "datasets"],
)
def test_sweep_spec_repeating_a_grid_value_is_refused(
    capsys, tmp_path, write_sweep_grid, field, values
):
    """A repeated grid value would run one grid key twice; the API and
    `repro-ldp sweep` (exit 2, before any point runs) refuse it, naming the
    field and the value."""
    message = f"{field} repeats the value {values[-1]!r}"
    with pytest.raises(ParameterError, match=re.escape(message)):
        write_sweep_grid(**{field: values})
    grid = write_sweep_grid()
    payload = json.loads(grid.read_text())
    payload[field] = list(values)
    grid.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["sweep", "--spec", str(grid), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_events_naming_a_directory_is_refused(capsys, tmp_path, write_sweep_grid):
    """An event log that cannot take appends is refused before any grid
    point runs, as an error line naming it, not a traceback."""
    grid = write_sweep_grid()
    out = tmp_path / "out"
    argv = ["sweep", "--spec", str(grid), "--output-dir", str(out), "--events", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"cannot append events to {tmp_path}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("backend_before", [None, "auto"], ids=["unset", "auto"])
def test_sweep_flags_do_not_outlive_their_sweep(
    tmp_path, write_sweep_grid, monkeypatch, backend_before
):
    """Two in-process sweeps: ``--events`` and ``--kernel-backend`` of the
    first leave no event log, tracing or backend variable to the second."""
    import os

    from repro.obs import get_default_event_log, read_events, tracing_enabled
    from repro.simulation.kernels_backend import BACKEND_ENV_VAR

    if backend_before is None:
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(BACKEND_ENV_VAR, backend_before)
    grid = write_sweep_grid()
    events = tmp_path / "events.jsonl"
    before = (get_default_event_log(), tracing_enabled())
    first = [
        "sweep", "--spec", str(grid), "--output-dir", str(tmp_path / "first"),
        "--events", str(events), "--kernel-backend", "numpy",
    ]
    assert main(first) == 0
    n_records = len(read_events(events))
    assert n_records > 0
    assert (get_default_event_log(), tracing_enabled()) == before
    assert os.environ.get(BACKEND_ENV_VAR) == backend_before

    assert main(["sweep", "--spec", str(grid), "--output-dir", str(tmp_path / "second")]) == 0
    assert len(read_events(events)) == n_records
    assert (get_default_event_log(), tracing_enabled()) == before
    assert os.environ.get(BACKEND_ENV_VAR) == backend_before


def test_sweep_spec_naming_store_is_refused(capsys, tmp_path, write_sweep_grid):
    """A spec that still names the removed ``store`` field is refused as an
    unknown field, by the API and by `repro-ldp sweep` (exit 2)."""
    grid = write_sweep_grid()
    payload = json.loads(grid.read_text())
    payload["store"] = "csv"
    with pytest.raises(ParameterError, match=r"unknown sweep spec fields: \['store'\]"):
        SweepSpec.from_dict(payload)
    grid.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["sweep", "--spec", str(grid), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'store'" in err
    assert not out.exists()


class TestEmitSpec:
    def test_figure3_emits_consumable_sweep_spec(self, capsys, tmp_path):
        target = tmp_path / "figure3.json"
        code = main(
            [
                "figure3",
                "--dataset", "syn",
                "--eps", "0.5", "2.0",
                "--alpha", "0.5",
                "--scale", "0.02",
                "--emit-spec", str(target),
            ]
        )
        assert code == 0
        assert "wrote sweep spec" in capsys.readouterr().out
        spec = load_sweep_spec(target)
        assert spec.eps_inf_values == (0.5, 2.0)
        assert spec.datasets == ("syn",)
        # The emitted grid names the full paper line-up.
        assert {"RAPPOR", "OLOLOHA", "1BitFlipPM"} <= set(spec.grid_protocols())
        # And it round-trips through JSON on disk.
        assert SweepSpec.from_dict(json.loads(target.read_text())) == spec

    def test_figure3_and_figure4_emit_one_grid(self, capsys, tmp_path):
        """Both figures read the same simulations, so they emit the same
        spec, named ``empirical``, bytewise."""
        argv = ["--dataset", "syn", "db_mt", "--eps", "1.0", "--scale", "0.02"]
        targets = [tmp_path / "figure3.json", tmp_path / "figure4.json"]
        for command, target in zip(("figure3", "figure4"), targets):
            assert main([command, *argv, "--emit-spec", str(target)]) == 0
        assert targets[0].read_bytes() == targets[1].read_bytes()
        spec = load_sweep_spec(targets[0])
        assert spec.name == "empirical" and spec.n_workers == 1
        assert len(spec.protocols) == 7

    def test_table2_has_no_emit_spec(self, capsys, tmp_path):
        """The Table 2 attack never runs the Figure 3/4 grid, so it has no
        grid to emit: the flag is an argparse error and writes nothing."""
        target = tmp_path / "table2.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--scale", "0.02", "--emit-spec", str(target)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --emit-spec" in capsys.readouterr().err
        assert not target.exists()


#: Figures 3/4 at reduced scale; the anchors below are the sha256 of the
#: figure CSVs and of every rendered (dataset, alpha) subplot, computed with
#: the separate per-figure simulations of the harness these renderers
#: replaced.  Rendering from one grid must not move a byte.
FIGURE_ARGV = [
    "--dataset", "syn", "db_mt", "--eps", "0.5", "2.0", "--alpha", "0.4", "0.6",
    "--scale", "0.1",
]
FIGURE_SPEC = paper_sweep_spec(
    eps_inf_values=(0.5, 2.0),
    alpha_values=(0.4, 0.6),
    datasets=("syn", "db_mt"),
    n_runs=1,
    dataset_scale=0.1,
)
FIGURE_ANCHORS = {
    "figure3": {
        "csv": "2c11b03232968fd51960736c244b541c35641ecdf2e8000db089dfe8c204cfec",
        "subplots": "41baeffa3e16cbf6ec7f5925dfeeb6d214a90f92b894d7c21e832e2cd969ff08",
    },
    "figure4": {
        "csv": "0d86913777af6d8c1a4029f614319feb505d14172ad1830fe5b1533fbc946b8c",
        "subplots": "6c9ea90f59764d4e524a6497c83d6773d916b677e7c023f581d172ff83231828",
    },
}


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestEmpiricalFigures:
    """``figure3``/``figure4`` render two columns of one Section 5 grid."""

    @pytest.fixture(scope="class")
    def one_dir(self, tmp_path_factory):
        """``figure3 --output-dir D`` then ``figure4 --output-dir D``: the
        stdout of each and the sweep CSV bytes after each."""
        out = tmp_path_factory.mktemp("figures")
        runs = {}
        for command in ("figure3", "figure4"):
            code, stdout = _run_cli([command, *FIGURE_ARGV, "--output-dir", str(out)])
            assert code == 0
            sweep_csvs = {
                name: (out / f"empirical_{name}.csv").read_bytes()
                for name in FIGURE_SPEC.datasets
            }
            runs[command] = (stdout, sweep_csvs)
        return out, runs

    @pytest.fixture(scope="class")
    def datasets(self):
        return {
            name: make_dataset(name, scale=FIGURE_SPEC.dataset_scale, rng=FIGURE_SPEC.seed)
            for name in FIGURE_SPEC.datasets
        }

    @staticmethod
    def _subplots(figure, rows, datasets):
        result = render_figure(
            figure, rows, datasets, FIGURE_SPEC.eps_inf_values, FIGURE_SPEC.alpha_values
        )
        return [
            format_figure(result, name, alpha)
            for name in FIGURE_SPEC.datasets
            for alpha in FIGURE_SPEC.alpha_values
        ]

    @pytest.mark.parametrize(
        "command, figure", [("figure3", FIGURE3), ("figure4", FIGURE4)], ids=["figure3", "figure4"]
    )
    def test_outputs_match_separate_simulation_anchors(
        self, one_dir, datasets, command, figure
    ):
        out, runs = one_dir
        anchors = FIGURE_ANCHORS[command]
        assert _sha256((out / f"{command}.csv").read_bytes()) == anchors["csv"]
        store = ResultsStore(out)
        on_disk = {name: store.load_rows(f"empirical_{name}") for name in datasets}
        in_memory = run_sweep_spec(FIGURE_SPEC, datasets)
        for rows in (on_disk, in_memory):
            subplots = self._subplots(figure, rows, datasets)
            assert _sha256("\n".join(subplots).encode()) == anchors["subplots"]
        # The command prints each dataset's first-alpha subplot.
        stdout = runs[command][0]
        assert subplots[0] in stdout and subplots[2] in stdout

    def test_second_figure_simulates_nothing(self, one_dir):
        _, runs = one_dir
        stdout, sweep_csvs = runs["figure4"]
        for name in FIGURE_SPEC.datasets:
            assert f"{name}: all 28 grid points already complete, nothing to do" in stdout
        assert "to run" not in stdout
        assert sweep_csvs == runs["figure3"][1]

    def test_figure_after_parallel_sweep_simulates_nothing(self, tmp_path):
        argv = ["--dataset", "syn", "--eps", "1.0", "--scale", "0.02"]
        grid, out = tmp_path / "grid.json", tmp_path / "out"
        assert _run_cli(["figure3", *argv, "--emit-spec", str(grid)])[0] == 0
        sweep = ["sweep", "--spec", str(grid), "--workers", "2", "--output-dir", str(out)]
        assert _run_cli(sweep)[0] == 0
        before = (out / "empirical_syn.csv").read_bytes()
        code, stdout = _run_cli(["figure3", *argv, "--output-dir", str(out)])
        assert code == 0
        assert "syn: all 7 grid points already complete, nothing to do" in stdout
        assert (out / "empirical_syn.csv").read_bytes() == before
        assert (out / "figure3.csv").exists()

    def test_other_grid_in_output_dir_is_refused(self, capsys, tmp_path):
        """A ``D/empirical_syn.csv`` written under another grid is never
        rendered as this one's, nor overwritten: exit 2, nothing written."""
        argv = ["--dataset", "syn", "--scale", "0.02", "--output-dir", str(tmp_path)]
        assert main(["figure3", "--eps", "1.0", *argv]) == 0
        before = (tmp_path / "empirical_syn.csv").read_bytes()
        capsys.readouterr()
        assert main(["figure4", "--eps", "2.0", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: refusing to resume empirical_syn in ")
        assert "fingerprint" in captured.err and "Traceback" not in captured.err
        assert (tmp_path / "empirical_syn.csv").read_bytes() == before
        assert not (tmp_path / "figure4.csv").exists()


#: sha256 of each figure/table subcommand's stdout (with and without
#: ``--output-dir``; the directory is spelled ``<D>``) and of every CSV its
#: ``--output-dir`` run writes, at small inputs.  Reworking the harnesses or
#: the CLI must not move a byte of any of them.
OUTPUT_ANCHORS = {
    "figure1-default": (
        ["figure1"],
        "3b0e409741e125a0e5c125b85d4ea13a332e297690bd34ae7f7ad41467ffa978",
        "7f948fd4ea1916418ab54f8ab87544fc3de6c6a6923580cf799bea8d5102d6e4",
        {"figure1.csv": "fe0a3cc88446b55fc3caaed8273a3500c4ca4f303bb7bfe6dec2e26b68a52c12"},
    ),
    "figure1": (
        ["figure1", "--eps", "0.5", "1", "2.5", "5"],
        "5425aaa0f9661908f0cac3e54126378af35fb66712bce0abfe85bf032f70e54e",
        "d27bcae262a82ef500cfec98aeebfbb66c38c2ea550a12e5e526bd91ce9be0cf",
        {"figure1.csv": "70799d63c4175f21fc86a4c4c05ba39dc5762c7128c239c6089e62466a41c4c8"},
    ),
    "figure2-default": (
        ["figure2"],
        "430b4f01de203d703f66a19c70d8363899a3568807d140a8d2ddabbede016ed8",
        "087070effd1de6e080cba471fcae0f97e8389f5309e31fabd07331d1df784bdb",
        {"figure2.csv": "8360c492d3629388c7c16fb863180eef28c19cc8b6b2f5db828d148da5703aa7"},
    ),
    "figure2": (
        ["figure2", "--eps", "0.5", "2", "--alpha", "0.3", "0.6"],
        "161161104e8c07acf7b940acb8b1029f71660fe9356e7d67161f1ae66f1b1c05",
        "bd78875f3d473248e6e0bd8214611cd25ddff0f8cbc9914c18ea9d63a926f167",
        {"figure2.csv": "de32dafbfd62164de5998846320a2b9e18bffdc70b6fe6e7aa1d01e880dade25"},
    ),
    "table1-default": (
        ["table1"],
        "ce941ec79da479900a375644aca047b74526d244b97ebec7f9687b2aa2cc3276",
        "f31db97dcdd4e0268dfc223a11235365f629873c4653932f8538c0831ecf1aca",
        {"table1.csv": "4a6af1773b737ab0d85df23f4e2a8fb5b8c1d82cbf31493cdaae97dff034f051"},
    ),
    "table1": (
        ["table1", "--k", "100", "--n", "5000", "--eps-inf", "3", "--alpha", "0.4", "--d", "2"],
        "037a3071a37dc71d216db34ef0e77e98d0f1bb90d617c222436970219839fbdb",
        "5a8635e90c77f1af2f270bb9db42498fe697a27726c9a53b95834ec150673cdd",
        {"table1.csv": "08cb041875b4af4f22696e0f6094d179a6fc3ef8f369921273f5be73002507a3"},
    ),
    "table2": (
        ["table2", "--scale", "0.02", "--eps", "2"],
        "3469730b7026aae98643ed74a45a9e4da2ba899dde34b732724ea4ac9e954168",
        "577d4df78c7dcb91e4446f6511664893065c968a77c0352920ce606352e26a7a",
        {"table2.csv": "5a9e01fb968db4e51ba54ed840420c71ba288f2078624bd949b28da521a18c22"},
    ),
    "table2-two-datasets": (
        [
            "table2", "--dataset", "syn", "adult", "--scale", "0.02",
            "--eps", "0.5", "2", "--seed", "7",
        ],
        "12f742ec564e77c286f7426111420ed2f1aebda1743da8826c4a7f260b2f9a6a",
        "6f1b1d038788f6a285800b4171a0f379529cf530b614b7b7fc2d423e941d055f",
        {"table2.csv": "43e270aa6a34b4db736adfbfa15a6e588b27b0f0e4cb07b308287827bcd0398b"},
    ),
    "figure3": (
        ["figure3", "--eps", "1", "3", "--alpha", "0.4", "0.6", "--scale", "0.02"],
        "83b87c5e8eac7fe4e56ddf33789550a1cee713db8687890377ef327e83f8b7b8",
        "c42f754ecb1aa2e3d27eec486369fd21df3636cec413e450458ead4d1ce5be83",
        {
            "empirical_syn.csv": "d65fe2cddf7ce314d32284c5fcfa19fa3d31bea6cdb02c220d699a51797696f5",
            "figure3.csv": "6f75bbcf74f152aca6625f1e1d2815a2723f4796bedd61898d1e6058ca9323be",
        },
    ),
    "figure4": (
        ["figure4", "--eps", "1", "3", "--runs", "2", "--seed", "5", "--scale", "0.02"],
        "28bf514030dea64311ff4b958de769e4f71cc1346b5466641b15ee0a47d178cf",
        "94dd6f09d572f3c7b4679b0e3feefbcdbda7be9206068803c314affa343a346c",
        {
            "empirical_syn.csv": "7208fa0c96fc89e7d3e34e4ce7e02fabe11c0fc051968dac608fe41ca54b3ac7",
            "figure4.csv": "badc95594edf15be3de1865f5aa6a465467d43e25943f6fa36accf6593998415",
        },
    ),
}


@pytest.mark.parametrize("case", list(OUTPUT_ANCHORS))
def test_subcommand_outputs_match_anchors(tmp_path, case):
    argv, stdout_sha, saved_stdout_sha, csv_shas = OUTPUT_ANCHORS[case]
    code, stdout = _run_cli(argv)
    assert code == 0
    assert _sha256(stdout.encode()) == stdout_sha
    code, stdout = _run_cli([*argv, "--output-dir", str(tmp_path)])
    assert code == 0
    assert _sha256(stdout.replace(str(tmp_path), "<D>").encode()) == saved_stdout_sha
    written = {path.name: _sha256(path.read_bytes()) for path in sorted(tmp_path.glob("*.csv"))}
    assert written == csv_shas


def test_stdout_closed_early_exits_1_without_traceback():
    """``repro-ldp figure1 --eps <3000 values> | head -c 100``: the table
    outgrows the pipe buffer, its reader closes early, and the command
    exits 1 with nothing on stderr."""
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    eps = [f"{0.5 + i / 1000:g}" for i in range(3000)]
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "figure1", "--eps", *eps],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(process.stdout.read(100)) == 100
    process.stdout.close()
    stderr = process.stderr.read()
    process.stderr.close()
    assert process.wait(timeout=120) == 1
    assert stderr == b""


class TestIngestLoadgenCli:
    """Flag parity and lifecycle for the live ingestion commands."""

    @pytest.fixture
    def ingest_spec_path(self, tmp_path):
        from repro.specs import IngestSpec, ProtocolSpec

        spec = IngestSpec(
            protocol=ProtocolSpec(name="L-OSUE", k=8, eps_inf=2.0, eps_1=1.0),
            n_rounds=2,
            name="cli-test",
            host="127.0.0.1",
            port=0,
            quorum=20,
        )
        path = tmp_path / "ingest.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        return path

    @pytest.mark.parametrize("kind", ["clockless", "json", "garbage"])
    def test_ingest_refuses_unusable_checkpoint(
        self, capsys, tmp_path, ingest_spec_path, kind
    ):
        """Only a session + clock .npz restarts the service; anything else
        is one error line and exit 2, never a clock restarted at round 0."""
        from repro.service import CollectorSession
        from repro.specs import load_ingest_spec

        checkpoint = tmp_path / "state.npz"
        protocol = load_ingest_spec(ingest_spec_path).protocol
        if kind == "clockless":
            session = CollectorSession(protocol, n_rounds=2)
            session.submit_counts(0, [1.0] * 8, n_reports=20)
            session.checkpoint(checkpoint)
        elif kind == "json":
            checkpoint.write_text(
                json.dumps({"format": 1, "spec": protocol.to_dict()}),
                encoding="utf-8",
            )
        else:
            checkpoint.write_bytes(b"PK\x03\x04 not a zip")
        code = main(
            [
                "ingest",
                "--spec", str(ingest_spec_path),
                "--checkpoint", str(checkpoint),
                "--run-seconds", "0.1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " in err and str(checkpoint) in err
        assert "Traceback" not in err

    def test_ingest_unwritable_final_checkpoint_is_an_error_line(
        self, capsys, tmp_path, ingest_spec_path
    ):
        """A checkpoint whose parent is a regular file fails at drain time
        with one error line naming it and exit 2, not a traceback."""
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"")
        checkpoint = blocker / "live.npz"
        code = main(
            [
                "ingest",
                "--spec", str(ingest_spec_path),
                "--checkpoint", str(checkpoint),
                "--run-seconds", "0.1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: cannot write the final checkpoint " + str(checkpoint) in err
        assert "Traceback" not in err

    def test_ingest_parser_accepts_service_flags(self):
        args = build_parser().parse_args(
            [
                "ingest",
                "--spec", "ingest.json",
                "--bind", "127.0.0.1:9000",
                "--checkpoint", "state.npz",
                "--checkpoint-interval", "5",
                "--auth-key-env", "REPRO_KEY",
                "--run-seconds", "1.5",
            ]
        )
        assert args.command == "ingest"
        assert args.bind == "127.0.0.1:9000"
        assert args.checkpoint_interval == 5.0
        assert args.run_seconds == 1.5

    def test_loadgen_parser_accepts_traffic_flags(self):
        args = build_parser().parse_args(
            [
                "loadgen",
                "--spec", "ingest.json",
                "--connect", "127.0.0.1:9000",
                "--users", "50",
                "--seed", "7",
                "--batch-size", "16",
                "--rate", "200",
                "--mode", "counts",
            ]
        )
        assert args.command == "loadgen"
        assert args.users == 50
        assert args.mode == "counts"
        assert not args.wrong_key

    def test_subcommands_refuse_inapplicable_flags(self):
        # loadgen has no checkpointing; ingest generates no traffic.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["loadgen", "--spec", "s.json", "--connect", "h:1", "--checkpoint", "c.npz"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest", "--spec", "s.json", "--users", "10"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest", "--spec", "s.json", "--wrong-key"])

    def test_checkpoint_interval_without_checkpoint_is_an_error(
        self, capsys, ingest_spec_path
    ):
        code = main(
            ["ingest", "--spec", str(ingest_spec_path), "--checkpoint-interval", "5"]
        )
        assert code == 2
        assert "requires --checkpoint" in capsys.readouterr().err

    def test_wrong_key_and_auth_key_env_are_mutually_exclusive(
        self, capsys, ingest_spec_path
    ):
        code = main(
            [
                "loadgen",
                "--spec", str(ingest_spec_path),
                "--connect", "127.0.0.1:9000",
                "--wrong-key",
                "--auth-key-env", "REPRO_KEY",
            ]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_malformed_bind_rejected(self, capsys, ingest_spec_path):
        code = main(
            ["ingest", "--spec", str(ingest_spec_path), "--bind", "no-port-here"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_spec_file_fails_cleanly(self, capsys, tmp_path):
        code = main(["ingest", "--spec", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unauthenticated_ingest_warns_and_serves(self, capsys, ingest_spec_path):
        code = main(
            ["ingest", "--spec", str(ingest_spec_path), "--run-seconds", "0.2"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "UNAUTHENTICATED" in captured.err
        assert "listening on 127.0.0.1:" in captured.out
        assert "drained at round 0/2" in captured.out

    def test_authenticated_ingest_does_not_warn(
        self, capsys, monkeypatch, ingest_spec_path
    ):
        monkeypatch.setenv("REPRO_CLI_TEST_KEY", "super-secret")
        code = main(
            [
                "ingest",
                "--spec", str(ingest_spec_path),
                "--auth-key-env", "REPRO_CLI_TEST_KEY",
                "--run-seconds", "0.2",
            ]
        )
        assert code == 0
        assert "UNAUTHENTICATED" not in capsys.readouterr().err


class TestIngestEndToEnd:
    """The full CLI lifecycle over a real socket: serve, drive, kill."""

    def _env(self):
        import os
        import pathlib

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["REPRO_E2E_KEY"] = "cli-e2e-shared-secret"
        return env

    def _start_server(self, spec_path, checkpoint, env):
        import subprocess
        import sys

        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli",
                "ingest",
                "--spec", str(spec_path),
                "--auth-key-env", "REPRO_E2E_KEY",
                "--checkpoint", str(checkpoint),
                "--checkpoint-interval", "0.05",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        banner = process.stdout.readline()
        assert "listening on" in banner, banner + process.stderr.read()
        port = int(banner.rsplit(":", 1)[1])
        return process, port

    def _loadgen(self, spec_path, port, env, *extra):
        import subprocess
        import sys

        return subprocess.run(
            [
                sys.executable, "-m", "repro.cli",
                "loadgen",
                "--spec", str(spec_path),
                "--connect", f"127.0.0.1:{port}",
                "--users", "20",
                "--seed", "11",
                *extra,
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )

    def test_serve_drive_sigterm_drains(self, tmp_path):
        import signal

        from repro.specs import IngestSpec, ProtocolSpec

        spec = IngestSpec(
            protocol=ProtocolSpec(name="L-OSUE", k=8, eps_inf=2.0, eps_1=1.0),
            n_rounds=2,
            name="e2e",
            port=0,
            quorum=20,
            auth_key_env="REPRO_E2E_KEY",
        )
        spec_path = tmp_path / "e2e.json"
        spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        env = self._env()
        server, port = self._start_server(spec_path, tmp_path / "e2e.npz", env)
        try:
            # A client signing with the wrong key is rejected on every batch.
            wrong = self._loadgen(spec_path, port, env, "--wrong-key")
            assert wrong.returncode == 1, wrong.stdout + wrong.stderr
            assert "401" in wrong.stdout

            # The honest client (key from the spec's auth_key_env) gets
            # every report in; quorum seals both rounds.
            good = self._loadgen(spec_path, port, env)
            assert good.returncode == 0, good.stdout + good.stderr
            assert "40/40 reports accepted" in good.stdout
        finally:
            server.send_signal(signal.SIGTERM)
            out, err = server.communicate(timeout=60)
        assert server.returncode == 0, out + err
        assert "drained at round 2/2" in out
        assert "40 reports folded" in out
        # Session and round clock live in one checkpoint file, no sidecar.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e2e.json", "e2e.npz"]

        import subprocess
        import sys

        restarted = subprocess.run(
            [
                sys.executable, "-m", "repro.cli",
                "ingest",
                "--spec", str(spec_path),
                "--auth-key-env", "REPRO_E2E_KEY",
                "--checkpoint", str(tmp_path / "e2e.npz"),
                "--run-seconds", "0.1",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert restarted.returncode == 0, restarted.stdout + restarted.stderr
        assert (
            f"restored from {tmp_path / 'e2e.npz'} at round 2/2 (40 reports)"
            in restarted.stdout
        )
