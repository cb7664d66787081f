"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.exceptions import ParameterError
from repro.specs import SweepSpec, load_sweep_spec


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
        args = build_parser().parse_args(["figure1"])
        assert args.eps == [0.5, 2.0, 5.0]
        assert args.alpha == [0.5]

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
        ],
        ids=[
            "serve", "work", "status-queue-dir", "status-checkpoint",
            "status", "sweep-metrics-port",
        ],
    )
    def test_file_queue_commands_are_gone(self, capsys, argv):
        """Shards run on a local pool only, and a sweep reports progress
        through ``--events`` alone: the file-queue commands, ``status`` and
        ``sweep --metrics-port`` are argparse errors, not tracebacks."""
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
        assert main(["figure1", "--eps", "0.5", "2.0", "--alpha", "0.5"]) == 0
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
        "command, message",
        [
            (command, "alpha values must lie in (0, 1), got 1.5")
            for command in ("figure1", "figure2", "figure3", "figure4", "table2")
        ]
        + [
            (
                "table1",
                "eps_1 (first-report budget) must be strictly smaller than "
                "eps_inf (longitudinal budget); got eps_1=3.0, eps_inf=2.0",
            )
        ],
    )
    def test_invalid_grid_answers_error_line_and_exit_2(
        self, capsys, tmp_path, command, message
    ):
        code = main(
            [
                command,
                "--eps", "1.0",
                "--alpha", "1.5",
                "--scale", "0.02",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == f"error: {message}"
        assert "Traceback" not in captured.err

    def test_repeated_eps_answers_error_line_and_exit_2(self, capsys):
        code = main(["figure3", "--eps", "2", "2", "--alpha", "0.5", "--scale", "0.02"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: eps_inf_values repeats the value 2.0"
        assert "MSE_avg" not in captured.out

    def test_table2_command_small(self, capsys):
        code = main(
            ["table2", "--dataset", "syn", "--eps", "0.5", "--alpha", "0.5", "--scale", "0.02"]
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
        assert os.environ[BACKEND_ENV_VAR] == "numpy"
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
