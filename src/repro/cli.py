"""Command-line interface for the reproduction harnesses.

Usage (after installation as ``repro-ldp``, or via ``python -m repro.cli``)::

    python -m repro.cli figure1
    python -m repro.cli figure2 --alpha 0.5
    python -m repro.cli figure3 --dataset syn --scale 0.05 --eps 0.5 2 5
    python -m repro.cli figure4 --dataset adult --scale 0.05 --output-dir results/
    python -m repro.cli table1 --k 360 --eps-inf 2.0
    python -m repro.cli table2 --dataset syn --scale 0.05
    python -m repro.cli datasets
    python -m repro.cli sweep --spec grid.json --output-dir results/

Each figure/table subcommand prints the regenerated rows/series of one paper
artifact as a text table (and optionally saves them with ``--output-dir``).

The ``sweep`` subcommand is the spec-driven workhorse: it consumes a
declarative grid file (see :class:`repro.specs.SweepSpec`), streams every
completed grid point through :meth:`repro.store.ResultsStore.append_rows`
while the sweep is still running, and — because the per-task randomness is
derived from the root seed alone — can **resume** an interrupted sweep
without recomputing the points already on disk::

    cat grid.json
    {
      "name": "demo",
      "protocols": [
        {"name": "L-OSUE"},
        {"name": "dBitFlipPM", "label": "1BitFlipPM", "params": {"d": 1}}
      ],
      "datasets": ["syn"],
      "eps_inf_values": [0.5, 2.0],
      "alpha_values": [0.5],
      "n_runs": 1,
      "dataset_scale": 0.05,
      "seed": 20230328
    }

    repro-ldp sweep --spec grid.json --output-dir results/
    # ... interrupted ...
    repro-ldp sweep --spec grid.json --output-dir results/ --resume

``figure3`` and ``figure4`` render two columns of one grid (see
:mod:`repro.experiments.empirical`), the spec named ``empirical``; they
emit it with ``--emit-spec grid.json`` instead of running it.  With
``--output-dir DIR`` they run it as ``sweep --spec ... --output-dir DIR
--resume`` does, into ``DIR/empirical_<dataset>.csv``, so rendering the
second figure (or rendering after a parallel sweep) simulates nothing::

    repro-ldp figure3 --emit-spec grid.json --dataset syn adult
    repro-ldp sweep --spec grid.json --workers 2 --output-dir results/
    repro-ldp figure3 --dataset syn adult --output-dir results/
    repro-ldp figure4 --dataset syn adult --output-dir results/

Each dataset's results go to one append-only CSV, which carries the spec's
fingerprint in a ``#`` comment line above its header; ``--resume`` refuses
a CSV whose fingerprint does not match the current spec file, so a changed
grid (different runs, seed, protocols …) cannot silently absorb rows
computed under different parameters.  ``query`` filters the CSVs of a
results directory by spec fingerprint, protocol or ε range, skipping whole
files whose fingerprint does not match::

    repro-ldp query --dir results/ --fingerprint 0123abcd... --protocol L-OSUE

``sweep`` accepts ``--events PATH.jsonl`` (append a structured,
schema-versioned event log with one ``span`` record per grid-point run; see
:mod:`repro.obs`); ``tail -f PATH.jsonl`` follows a running sweep.

The ``ingest`` / ``loadgen`` pair runs a *live* collection (see
:mod:`repro.service.ingest`): ``ingest`` starts the async HTTP front door
described by an :class:`repro.specs.IngestSpec` — batched report submission
on ``POST /v1/reports`` (each batch folded before its ``202``), live
debiased estimates on ``GET /v1/estimate/<t>``, a Prometheus text surface
on ``GET /metrics``, round windowing owned by a
:class:`repro.service.clock.RoundClock` (a round seals on report quorum or
explicit advance; reports for a sealed round are dropped and counted), and
a graceful stop + atomic checkpoint on SIGTERM.
``loadgen`` drives it with a seeded synthetic client fleet whose reports
are bit-identical to what a local batch session would be fed::

    repro-ldp ingest --spec ingest.json --checkpoint state.npz
    repro-ldp loadgen --spec ingest.json --connect 127.0.0.1:8471 --users 500

Both sides honor ``--auth-key-env SECRET_VAR`` (HMAC-signed submissions,
see :mod:`repro.service.auth`); an ``ingest`` without it serves
unauthenticated and says so loudly.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from typing import List, Optional, Sequence, Tuple

from .datasets import dataset_summaries, make_dataset
from .exceptions import ReproError
from .experiments import (
    FIGURE3,
    FIGURE4,
    ExperimentConfig,
    empirical_rows,
    format_figure,
    format_figure1,
    format_figure2,
    format_table,
    format_table1,
    format_table2,
    paper_sweep_spec,
    render_figure,
    run_figure1,
    run_figure2,
    run_table1,
    run_table2,
)
from .simulation.sweep import completed_points_from_rows, run_sweep
from .specs import SweepSpec, load_sweep_spec
from .store import FINGERPRINT_KEY, ResultsStore

__all__ = [
    "build_parser",
    "main",
    "run_spec_sweep",
    "run_ingest",
    "run_loadgen",
    "run_query",
]


def _apply_events_option(
    args: argparse.Namespace, run_id: str, restore: ExitStack
) -> None:
    """Install ``sweep --events`` until ``restore`` closes.

    The flag also enables span tracing with span events, which never
    touches the RNG streams — estimates stay bit-identical.
    """
    events = args.events
    if events is None:
        return
    from .obs import EventLog, configure_tracing, set_default_event_log

    log = EventLog(events, component="sweep", run_id=run_id)
    restore.callback(set_default_event_log, set_default_event_log(log))
    print(f"events: appending to {events}", flush=True)
    restore.callback(configure_tracing, *configure_tracing(True, span_events=True))


def _apply_backend_option(args: argparse.Namespace, restore: ExitStack) -> None:
    """Install ``--kernel-backend`` as the process-wide backend default
    until ``restore`` closes.

    Resolving eagerly fails fast (with a build-failure reason) when
    ``native`` was requested on a host that cannot compile it, instead of
    erroring mid-sweep inside a worker.
    """
    choice = args.kernel_backend
    if choice is None:
        return
    import os

    from .simulation.kernels_backend import BACKEND_ENV_VAR, resolve_backend

    previous = os.environ.get(BACKEND_ENV_VAR)
    if previous is None:
        restore.callback(os.environ.pop, BACKEND_ENV_VAR, None)
    else:
        restore.callback(os.environ.__setitem__, BACKEND_ENV_VAR, previous)
    os.environ[BACKEND_ENV_VAR] = choice
    backend = resolve_backend(choice)
    print(f"kernel backend: {backend.name}")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Translate CLI options into an :class:`ExperimentConfig`."""
    datasets = tuple(args.dataset) if getattr(args, "dataset", None) else ("syn",)
    return ExperimentConfig(
        eps_inf_values=tuple(args.eps),
        alpha_values=tuple(args.alpha),
        n_runs=args.runs,
        dataset_scale=args.scale,
        datasets=datasets,
        seed=args.seed,
    )


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--eps", type=float, nargs="+", default=[0.5, 2.0, 5.0],
        help="longitudinal privacy budgets eps_inf to sweep",
    )
    parser.add_argument(
        "--alpha", type=float, nargs="+", default=[0.5],
        help="ratios eps_1 / eps_inf to sweep",
    )
    parser.add_argument("--runs", type=int, default=1, help="repetitions per grid point")
    parser.add_argument(
        "--scale", type=float, default=0.05,
        help="fraction of the paper-sized population / horizon to simulate",
    )
    parser.add_argument("--seed", type=int, default=20230328, help="root random seed")
    parser.add_argument(
        "--output-dir", default=None,
        help="directory in which to persist the regenerated rows as CSV",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser with one subcommand per paper artifact."""
    parser = argparse.ArgumentParser(
        prog="repro-ldp",
        description="Regenerate the figures and tables of the LOLOHA paper (EDBT 2023).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("figure1", "optimal g selection (Eq. 6)"),
        ("figure2", "approximate variance comparison"),
        ("figure3", "empirical MSE_avg per protocol and dataset"),
        ("figure4", "averaged longitudinal privacy loss"),
        ("table1", "theoretical protocol comparison"),
        ("table2", "dBitFlipPM change-detection percentages"),
    ):
        sub = subparsers.add_parser(name, help=helptext)
        _add_grid_options(sub)
        if name in ("figure3", "figure4", "table2"):
            sub.add_argument(
                "--dataset", nargs="+", default=["syn"],
                choices=["syn", "adult", "db_mt", "db_de"],
                help="datasets to simulate",
            )
        if name in ("figure3", "figure4"):
            sub.add_argument(
                "--emit-spec", default=None, metavar="PATH",
                help="write the Figure 3/4 grid as a sweep spec JSON file "
                     "(consumable by 'sweep --spec') instead of running it",
            )
        if name == "table1":
            sub.add_argument("--k", type=int, default=360, help="domain size")
            sub.add_argument("--n", type=int, default=10_000, help="number of users")
            sub.add_argument("--eps-inf", type=float, default=2.0, help="longitudinal budget")
            sub.add_argument("--d", type=int, default=1, help="dBitFlipPM sampled bits")

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a declarative (protocol, dataset, eps_inf, alpha) grid "
             "from a spec file, streaming results to CSV with resume support",
    )
    sweep_parser.add_argument(
        "--spec", required=True, metavar="PATH",
        help="sweep spec JSON file (see repro.specs.SweepSpec)",
    )
    sweep_parser.add_argument(
        "--output-dir", required=True,
        help="directory for the per-dataset result CSVs",
    )
    sweep_parser.add_argument(
        "--resume", action="store_true",
        help="skip grid points already present in the output CSVs "
             "(bit-identical to an uninterrupted run)",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=None,
        help="override the spec's worker-process count",
    )
    sweep_parser.add_argument(
        "--kernel-backend", choices=["auto", "numpy", "native"], default=None,
        help="kernel backend for the hot simulation folds: 'numpy' forces "
             "the reference implementation, 'native' requires the compiled "
             "one, 'auto' (the default) compiles when possible and falls "
             "back to numpy; applies to this process and its worker pool",
    )
    sweep_parser.add_argument(
        "--events", default=None, metavar="PATH.jsonl",
        help="append structured events (schema-versioned JSONL, one record "
             "per line) to this file; span records are mirrored there too",
    )

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="run the live ingestion service: an async HTTP front door that "
             "accepts report batches, seals round windows on quorum or "
             "explicit advance and serves live estimates and Prometheus metrics",
    )
    ingest_parser.add_argument(
        "--spec", required=True, metavar="PATH",
        help="ingest spec JSON file (see repro.specs.IngestSpec)",
    )
    ingest_parser.add_argument(
        "--bind", default=None, metavar="HOST:PORT",
        help="bind address override (default: the spec's host:port; "
             "port 0 = ephemeral, the chosen port is printed)",
    )
    ingest_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH.npz",
        help="session + round-clock checkpoint (one atomic .npz); an "
             "existing checkpoint is restored so a killed service resumes "
             "mid-horizon bit-identical to an uninterrupted run",
    )
    ingest_parser.add_argument(
        "--checkpoint-interval", type=float, default=None, metavar="SECONDS",
        help="override the spec's checkpoint cadence (requires --checkpoint)",
    )
    ingest_parser.add_argument(
        "--auth-key-env", default=None, metavar="ENV_VAR",
        help="environment variable holding the shared HMAC secret; "
             "submissions must then be signed envelopes (overrides the "
             "spec's auth_key_env; the key itself never appears in argv)",
    )
    ingest_parser.add_argument(
        "--run-seconds", type=float, default=None, metavar="SECONDS",
        help="serve for this long then stop and exit "
             "(default: until SIGTERM/SIGINT)",
    )

    loadgen_parser = subparsers.add_parser(
        "loadgen",
        help="drive a live ingestion service with a seeded synthetic client "
             "fleet (Poisson-staggered batches, bit-identical report "
             "material for a given seed)",
    )
    loadgen_parser.add_argument(
        "--spec", required=True, metavar="PATH",
        help="ingest spec JSON file of the target service (provides the "
             "protocol and horizon)",
    )
    loadgen_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="address of the running 'ingest' service",
    )
    loadgen_parser.add_argument(
        "--users", type=int, default=100, metavar="N",
        help="size of the simulated client population (default: 100)",
    )
    loadgen_parser.add_argument(
        "--seed", type=int, default=20230328,
        help="root seed of the client fleet; the same seed yields the same "
             "reports a local batch session would be fed",
    )
    loadgen_parser.add_argument(
        "--batch-size", type=int, default=32, metavar="N",
        help="users per POST /v1/reports submission (default: 32)",
    )
    loadgen_parser.add_argument(
        "--rate", type=float, default=None, metavar="BATCHES_PER_S",
        help="mean submission rate with exponential (Poisson) inter-arrival "
             "gaps; default: submit as fast as the server accepts",
    )
    loadgen_parser.add_argument(
        "--mode", choices=["reports", "counts"], default="reports",
        help="submit wire-encoded reports, or pre-fold each batch to "
             "support counts locally (required for LOLOHA, whose reports "
             "carry a hash function and do not serialize)",
    )
    loadgen_parser.add_argument(
        "--auth-key-env", default=None, metavar="ENV_VAR",
        help="environment variable holding the shared HMAC secret "
             "(must match the service's; overrides the spec's auth_key_env)",
    )
    loadgen_parser.add_argument(
        "--wrong-key", action="store_true",
        help="sign every submission with a deliberately invalid key — a "
             "rejection drill for authenticated services (exit code 1 when, "
             "as expected, the batches are refused)",
    )

    query_parser = subparsers.add_parser(
        "query",
        help="filter sweep results in a results directory by spec "
             "fingerprint, protocol or eps range, and emit CSV or JSON",
    )
    query_parser.add_argument(
        "--dir", required=True, metavar="DIR",
        help="results directory written by 'sweep'",
    )
    query_parser.add_argument(
        "--experiment", default=None, metavar="ID",
        help="restrict to one experiment id (default: all experiments)",
    )
    query_parser.add_argument(
        "--fingerprint", default=None, metavar="HEX",
        help="only experiments written under this sweep-spec fingerprint "
             "(see SweepSpec.fingerprint)",
    )
    query_parser.add_argument(
        "--protocol", default=None, metavar="NAME",
        help="only rows of this protocol display name",
    )
    query_parser.add_argument(
        "--eps-min", type=float, default=None, metavar="EPS",
        help="only rows with eps_inf >= EPS",
    )
    query_parser.add_argument(
        "--eps-max", type=float, default=None, metavar="EPS",
        help="only rows with eps_inf <= EPS",
    )
    query_parser.add_argument(
        "--format", choices=["csv", "json"], default="csv",
        help="output format (default: csv)",
    )
    query_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the result atomically to PATH instead of stdout",
    )

    datasets_parser = subparsers.add_parser(
        "datasets", help="summarize the evaluation workloads"
    )
    datasets_parser.add_argument("--scale", type=float, default=0.02)
    datasets_parser.add_argument("--seed", type=int, default=0)
    return parser


def _maybe_save(args: argparse.Namespace, experiment_id: str, rows: List[dict]) -> None:
    output_dir = getattr(args, "output_dir", None)
    if output_dir:
        path = ResultsStore(output_dir).save_rows(experiment_id, rows, overwrite=True)
        print(f"\nsaved {len(rows)} rows to {path}")


def _run_empirical_figure(args: argparse.Namespace, config: ExperimentConfig) -> None:
    """``figure3``/``figure4``: emit, run or reuse the shared grid, then render."""
    spec = paper_sweep_spec(config)
    if args.emit_spec:
        path = spec.save(args.emit_spec)
        print(
            f"wrote sweep spec for {spec.n_grid_points} grid points x "
            f"{len(spec.datasets)} datasets to {path}"
        )
        return
    datasets = {
        name: make_dataset(name, scale=config.dataset_scale, rng=config.seed)
        for name in config.datasets
    }
    if args.output_dir:
        run_spec_sweep(spec, args.output_dir, resume=True)
        store = ResultsStore(args.output_dir)
        rows = {name: store.load_rows(spec.experiment_id(name)) for name in datasets}
    else:
        rows = empirical_rows(config, datasets)
    figure = FIGURE3 if args.command == "figure3" else FIGURE4
    result = render_figure(figure, config, rows, datasets)
    for name in config.datasets:
        print(format_figure(result, name, args.alpha[0]))
        print()
    _maybe_save(args, args.command, result.rows())


def run_spec_sweep(
    spec: SweepSpec,
    output_dir: str,
    resume: bool = False,
    n_workers: Optional[int] = None,
) -> int:
    """Execute a :class:`~repro.specs.SweepSpec`, one experiment per dataset.

    Completed grid points stream into one CSV per dataset under
    ``output_dir`` while the sweep runs; with ``resume=True``, points
    already present in a partial CSV are skipped and only the missing
    remainder is computed (with unchanged derived seeds, so the final rows
    are bit-identical to an uninterrupted run).
    """
    workers = n_workers if n_workers is not None else spec.n_workers
    protocols = spec.grid_protocols()
    fingerprint = spec.fingerprint()
    grid_keys = {
        (name, float(alpha), float(eps_inf))
        for name in protocols
        for alpha in spec.alpha_values
        for eps_inf in spec.eps_inf_values
    }
    store = ResultsStore(output_dir)
    for dataset_name in spec.datasets:
        experiment_id = spec.experiment_id(dataset_name)
        completed = set()
        if resume and store.has_rows(experiment_id):
            on_disk_fingerprint = store.fingerprint(experiment_id)
            if on_disk_fingerprint is None:
                raise ReproError(
                    f"refusing to resume {experiment_id} in "
                    f"{store.location(experiment_id)}: it carries no sweep "
                    f"spec fingerprint record, so nothing shows which spec "
                    f"wrote its rows; move the old results aside and rerun"
                )
            if on_disk_fingerprint != fingerprint:
                raise ReproError(
                    f"refusing to resume {experiment_id} in "
                    f"{store.location(experiment_id)}: it was "
                    f"written by a sweep spec with fingerprint "
                    f"{on_disk_fingerprint}, but the current spec's "
                    f"fingerprint is {fingerprint} (grid, runs, scale or "
                    f"seed changed); move the old results aside or rerun "
                    f"with the original spec"
                )
            on_disk = completed_points_from_rows(
                store.load_rows(experiment_id), source=store.location(experiment_id)
            )
            # Only rows that belong to THIS grid count as done; rows left
            # by a different spec (other eps/alpha/protocols under the
            # same name) must not silently satisfy the sweep.
            completed = on_disk & grid_keys
            if on_disk - grid_keys:
                print(
                    f"{dataset_name}: warning: {len(on_disk - grid_keys)} rows "
                    f"in {experiment_id} are not part of this grid (stale "
                    f"spec?); they are kept but do not count as completed"
                )
        n_total = spec.n_grid_points
        n_done = len(completed)
        if n_done >= n_total:
            print(
                f"{dataset_name}: all {n_total} grid points already complete, "
                f"nothing to do"
            )
            continue
        print(
            f"{dataset_name}: {n_total} grid points "
            f"({n_done} already complete, {n_total - n_done} to run, "
            f"{workers} worker{'s' if workers != 1 else ''})"
        )
        dataset = make_dataset(dataset_name, scale=spec.dataset_scale, rng=spec.seed)
        run_sweep(
            protocols=protocols,
            dataset=dataset,
            eps_inf_values=spec.eps_inf_values,
            alpha_values=spec.alpha_values,
            n_runs=spec.n_runs,
            rng=spec.seed,
            keep_runs=False,
            n_workers=workers,
            store=store,
            experiment_id=experiment_id,
            completed=completed,
            resume=resume,
            header_comment=f"{FINGERPRINT_KEY}={fingerprint}",
        )
        rows = store.load_rows(experiment_id)
        print(
            f"{dataset_name}: {len(rows)} rows in "
            f"{store.location(experiment_id)}"
        )
    return 0


def run_query(args: argparse.Namespace) -> int:
    """Filter rows in a results store and emit them as CSV or JSON."""
    import csv
    import io
    import json

    from ._atomicio import atomic_write_text

    store = ResultsStore(args.dir)
    if not store.root.is_dir():
        raise ReproError(f"no results directory at {store.root}")
    if not any(store.root.glob("*.csv")):
        raise ReproError(f"{store.root} holds no results CSV (no *.csv)")
    rows = store.query(
        experiment_id=args.experiment,
        fingerprint=args.fingerprint,
        protocol=args.protocol,
        eps_min=args.eps_min,
        eps_max=args.eps_max,
    )
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    elif rows:
        # Experiments may disagree on columns; emit the union in first-seen
        # order with empty cells where a row lacks a column.
        fieldnames: List[str] = []
        for row in rows:
            for name in row:
                if name not in fieldnames:
                    fieldnames.append(name)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    else:
        text = ""
    if args.output:
        atomic_write_text(args.output, text)
        print(f"wrote {len(rows)} matching rows to {args.output}")
    else:
        sys.stdout.write(text)
        print(f"# {len(rows)} matching rows", file=sys.stderr)
    return 0


def _parse_host_port(address: str, option: str) -> Tuple[str, int]:
    host, separator, port = address.rpartition(":")
    if not separator or not host:
        raise ReproError(f"{option} must look like HOST:PORT, got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ReproError(f"invalid port in {option}={address!r}") from None


def run_ingest(args: argparse.Namespace) -> int:
    """Run the live ingestion service until SIGTERM (or ``--run-seconds``)."""
    import asyncio
    from dataclasses import replace

    from .service.ingest import IngestServer
    from .specs import load_ingest_spec

    spec = load_ingest_spec(args.spec)
    if args.checkpoint_interval is not None and not args.checkpoint:
        # A cadence without a checkpoint path would be silently inert;
        # refuse it rather than let the operator believe it is in effect.
        raise ReproError("--checkpoint-interval requires --checkpoint")
    if args.bind:
        host, port = _parse_host_port(args.bind, "--bind")
        spec = replace(spec, host=host, port=port)
    if args.auth_key_env:
        spec = replace(spec, auth_key_env=args.auth_key_env)
    if args.checkpoint_interval is not None:
        spec = replace(spec, checkpoint_interval_seconds=args.checkpoint_interval)
    if spec.auth_key_env is None:
        print(
            "warning: serving UNAUTHENTICATED — no --auth-key-env and the "
            "spec sets no auth_key_env, so any client that can reach "
            f"{spec.host} may submit reports",
            file=sys.stderr,
        )

    server = IngestServer(spec, checkpoint_path=args.checkpoint)
    if server.clock.current_round > 0 or server.session.total_reports > 0:
        print(
            f"{spec.name}: restored from {args.checkpoint} at round "
            f"{server.clock.current_round}/{spec.n_rounds} "
            f"({server.session.total_reports} reports)"
        )

    def ready(address: Tuple[str, int]) -> None:
        print(f"{spec.name}: listening on {address[0]}:{address[1]}", flush=True)

    asyncio.run(server.run(run_seconds=args.run_seconds, ready=ready))
    clock = server.clock
    print(
        f"{spec.name}: drained at round {clock.current_round}/{spec.n_rounds} "
        f"({server.session.total_reports} reports folded, "
        f"{len(clock.seals)} windows sealed, "
        f"{clock.late_dropped} late dropped)"
    )
    return 0


def run_loadgen(args: argparse.Namespace) -> int:
    """Drive a live ingestion service with seeded synthetic traffic."""
    import asyncio

    from .service.auth import PayloadAuthenticator
    from .service.loadgen import run_loadgen as run_loadgen_async
    from .specs import load_ingest_spec

    if args.wrong_key and args.auth_key_env:
        raise ReproError(
            "--wrong-key and --auth-key-env are mutually exclusive: "
            "--wrong-key fabricates a deliberately invalid key"
        )
    spec = load_ingest_spec(args.spec)
    host, port = _parse_host_port(args.connect, "--connect")
    authenticator = None
    auth_key_env = None
    if args.wrong_key:
        authenticator = PayloadAuthenticator(b"deliberately-wrong-loadgen-key")
    else:
        auth_key_env = args.auth_key_env or spec.auth_key_env

    result = asyncio.run(
        run_loadgen_async(
            spec.protocol,
            host,
            port,
            n_rounds=spec.n_rounds,
            n_users=args.users,
            seed=args.seed,
            batch_size=args.batch_size,
            rate=args.rate,
            mode=args.mode,
            auth_key_env=auth_key_env,
            authenticator=authenticator,
        )
    )
    statuses = ", ".join(
        f"{count}x {status}" for status, count in sorted(result.statuses.items())
    )
    print(
        f"loadgen: {result.accepted_reports}/{result.submitted_reports} "
        f"reports accepted over {result.n_rounds} rounds "
        f"({result.rejected_batches} batches rejected; responses: {statuses})"
    )
    return 0 if result.rejected_batches == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Every subcommand reports a library error as one ``error: <message>``
    line on stderr and exit code 2, never as a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "datasets":
        rows = dataset_summaries(scale=args.scale, rng=args.seed)
        print(format_table(rows))
        return 0

    if args.command == "sweep":
        # --kernel-backend and --events set process-wide state; an
        # in-process caller gets its previous state back when the sweep ends.
        with ExitStack() as restore:
            _apply_backend_option(args, restore)
            spec = load_sweep_spec(args.spec)
            _apply_events_option(args, spec.name, restore)
            return run_spec_sweep(
                spec,
                args.output_dir,
                resume=args.resume,
                n_workers=args.workers,
            )

    runners = {
        "query": run_query,
        "ingest": run_ingest,
        "loadgen": run_loadgen,
    }
    if args.command in runners:
        return runners[args.command](args)

    if args.command == "table1":
        result = run_table1(
            k=args.k, n=args.n, eps_inf=args.eps_inf, alpha=args.alpha[0], d=args.d
        )
        print(format_table1(result))
        _maybe_save(args, "table1", result.rows())
        return 0

    config = _config_from_args(args)

    if args.command == "figure1":
        result = run_figure1(config, include_numeric=False)
        print(format_figure1(result))
        _maybe_save(args, "figure1", result.rows())
    elif args.command == "figure2":
        result = run_figure2(config, alpha_values=tuple(args.alpha))
        print(format_figure2(result, alpha=args.alpha[0]))
        _maybe_save(args, "figure2", result.rows())
    elif args.command == "table2":
        result = run_table2(config)
        print(format_table2(result))
        _maybe_save(args, "table2", result.rows())
    else:
        _run_empirical_figure(args, config)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
