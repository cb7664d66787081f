"""Parameter sweeps over ``(protocol, eps_inf, alpha)`` grids.

The paper's Figures 3 and 4 sweep ``eps_inf`` over ``[0.5, 1, ..., 5]`` and
``alpha = eps_1 / eps_inf`` over ``{0.4, 0.5, 0.6}`` for every protocol and
dataset, averaging 20 runs per point.  :func:`run_sweep` reproduces that
loop over one dataset for arbitrary grids and run counts and can spread the
grid across worker processes:

* protocols are described by declarative :class:`~repro.specs.ProtocolSpec`
  templates; every (grid point, repetition) pair becomes a picklable
  :class:`SweepTask` ``(spec, dataset_name, eps_inf, alpha, run)`` that a
  worker resolves with :func:`repro.registry.build_protocol` — no closures
  cross process boundaries;
* every task is seeded by its own :class:`numpy.random.SeedSequence` child
  derived from the root seed, so a parallel sweep (``n_workers > 1``) is
  **bit-identical** to the serial one — only wall-clock time changes;
* completed grid points are flushed to a :class:`repro.store.ResultsStore`
  CSV as soon as every earlier point is done, so an interrupted sweep keeps
  every finished point on disk;
* an interrupted sweep can be *resumed*: pass the already-present grid keys
  as ``completed`` (see :func:`completed_points_from_rows`) and only the
  missing points are computed — with unchanged derived seeds, so a resumed
  sweep is bit-identical to an uninterrupted one.

:func:`run_sweep_spec` runs a whole :class:`~repro.specs.SweepSpec` on
datasets the caller has built, through :func:`run_sweep`: in memory, or into
one fingerprinted, resumable CSV per dataset (``repro-ldp sweep --spec`` and
``figure3``/``figure4 --output-dir``).
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import (
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from .._validation import require_distinct, require_int_at_least
from ..datasets.base import LongitudinalDataset
from ..exceptions import ExperimentError
from ..longitudinal.base import LongitudinalProtocol
from ..obs.events import emit_event
from ..obs.spans import span
from ..registry import build_protocol
from ..rng import derive_seed_sequences
from ..specs import ProtocolSpec, SweepSpec
from ..store.results_store import FINGERPRINT_KEY, ResultsStore
from .runner import SimulationResult, simulate_protocol

__all__ = [
    "SweepPoint",
    "SweepTask",
    "run_sweep",
    "run_sweep_spec",
    "completed_points_from_rows",
]

#: A grid key: ``(display name, alpha, eps_inf)``.
GridKey = Tuple[str, float, float]


@dataclass(frozen=True)
class SweepTask:
    """One picklable unit of sweep work: a grid point repetition.

    ``spec`` is the protocol template; a worker resolves it against the
    dataset's domain and the grid point's budgets with
    ``build_protocol(spec.at(k=dataset.k, eps_inf=eps_inf, alpha=alpha))``.
    """

    spec: ProtocolSpec
    dataset_name: str
    eps_inf: float
    alpha: float
    run: int

    def build(self, k: int) -> LongitudinalProtocol:
        """Resolve the template into a live protocol for domain size ``k``."""
        return build_protocol(self.spec.at(k=k, eps_inf=self.eps_inf, alpha=self.alpha))

    def check_dataset(
        self, dataset: Optional[LongitudinalDataset]
    ) -> LongitudinalDataset:
        """Guard against executing the task against the wrong workload.

        Tasks are shippable; a worker pool initialized with a different
        dataset must fail loudly instead of producing mislabelled results,
        and a task run outside an initialized pool without a dataset must
        fail with a typed error.
        """
        if dataset is None:
            raise ExperimentError(
                f"no dataset for sweep task {self.spec.name!r}: pass one, or run "
                "the task in a pool initialized with its dataset"
            )
        if self.dataset_name and dataset.name != self.dataset_name:
            raise ExperimentError(
                f"task for dataset {self.dataset_name!r} reached a worker "
                f"holding dataset {dataset.name!r}"
            )
        return dataset


@dataclass
class SweepPoint:
    """Aggregated result of one ``(protocol, eps_inf, alpha)`` grid point.

    ``mse_avg`` and ``eps_avg`` are averaged over the sweep's repeated runs.
    The scalar per-run values (``run_mses``, ``run_eps``) are always kept so
    dispersion statistics remain available when the full
    :class:`~repro.simulation.runner.SimulationResult` objects are dropped
    with ``keep_runs=False``.
    """

    protocol_name: str
    dataset_name: str
    eps_inf: float
    alpha: float
    mse_avg: float
    eps_avg: float
    worst_case_budget: float
    runs: List[SimulationResult] = field(default_factory=list)
    run_mses: List[float] = field(default_factory=list)
    run_eps: List[float] = field(default_factory=list)

    @property
    def mse_std(self) -> float:
        """Standard deviation of ``MSE_avg`` across runs (NaN without runs)."""
        run_mses = self.run_mses or [run.mse_avg for run in self.runs]
        if not run_mses:
            return float("nan")
        return float(np.std(run_mses))

    def as_row(self) -> Dict[str, object]:
        """Flat representation for CSV persistence."""
        return {
            "protocol": self.protocol_name,
            "dataset": self.dataset_name,
            "eps_inf": self.eps_inf,
            "alpha": self.alpha,
            "mse_avg": self.mse_avg,
            "mse_std": self.mse_std,
            "eps_avg": self.eps_avg,
            "worst_case_budget": self.worst_case_budget,
            "n_runs": len(self.run_mses),
        }


def completed_points_from_rows(
    rows: Iterable[Mapping[str, object]], source: str = "the given rows"
) -> Set[GridKey]:
    """Grid keys already present in previously flushed CSV rows.

    Accepts the string-valued dictionaries of
    :meth:`repro.store.ResultsStore.load_rows`; used by ``repro-ldp sweep
    --resume`` to skip finished points.  ``source`` names where the rows
    were read (the CSV path) in the error a malformed row raises.
    """
    completed: Set[GridKey] = set()
    for row in rows:
        try:
            completed.add(
                (str(row["protocol"]), float(row["alpha"]), float(row["eps_inf"]))
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ExperimentError(
                f"cannot resume from row {dict(row)!r} of {source}: {error}"
            ) from None
    return completed


@dataclass(frozen=True)
class _RunStats:
    """Slim picklable per-run summary shipped back from worker processes."""

    mse_avg: float
    eps_avg: float
    worst_case_budget: float


# ``fork``-safe per-worker cache: the dataset is shipped once through the pool
# initializer instead of being pickled into every task.
_WORKER_DATASET: Optional[LongitudinalDataset] = None


def _init_worker(dataset: LongitudinalDataset) -> None:
    global _WORKER_DATASET
    _WORKER_DATASET = dataset


def _execute_task(
    task_index: int,
    task: SweepTask,
    seed: np.random.SeedSequence,
    keep_full: bool,
    dataset: Optional[LongitudinalDataset] = None,
):
    """Run one task; returns ``(task_index, payload)``."""
    if dataset is None:
        dataset = _WORKER_DATASET
    protocol = task.build(task.check_dataset(dataset).k)
    result = simulate_protocol(protocol, dataset, np.random.default_rng(seed))
    if keep_full:
        return task_index, result
    return (
        task_index,
        _RunStats(
            mse_avg=result.mse_avg,
            eps_avg=result.eps_avg,
            worst_case_budget=result.worst_case_budget,
        ),
    )


def _run_pool(tasks, seeds, keep_runs, dataset, n_workers, on_task_done) -> None:
    active = [index for index, task in enumerate(tasks) if task is not None]
    if not active:
        return
    with ProcessPoolExecutor(
        max_workers=min(n_workers, len(active)),
        initializer=_init_worker,
        initargs=(dataset,),
    ) as pool:
        pending = {
            pool.submit(_execute_task, index, tasks[index], seeds[index], keep_runs)
            for index in active
        }
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    on_task_done(*future.result())
        except BaseException:
            # Surface a failed task immediately instead of waiting for
            # the whole remaining grid to finish.
            for future in pending:
                future.cancel()
            raise


def run_sweep(
    protocols: Mapping[str, ProtocolSpec],
    dataset: LongitudinalDataset,
    eps_inf_values: Iterable[float],
    alpha_values: Iterable[float],
    n_runs: int = 1,
    rng: Optional[int] = 0,
    keep_runs: bool = True,
    n_workers: int = 1,
    store: Optional[ResultsStore] = None,
    experiment_id: str = "sweep",
    completed: Optional[Collection[GridKey]] = None,
    resume: bool = False,
    header_comment: Optional[str] = None,
) -> List[Optional[SweepPoint]]:
    """Run the full ``(protocol, eps_inf, alpha)`` grid over one dataset.

    Returns the grid points in canonical order (protocol, then alpha, then
    eps_inf).

    Parameters
    ----------
    protocols:
        Mapping from display name to a :class:`~repro.specs.ProtocolSpec`
        template; tasks carry the spec across process boundaries and resolve
        it with :func:`repro.registry.build_protocol`.
    dataset:
        The longitudinal workload to simulate (shipped to each worker once).
    eps_inf_values, alpha_values:
        The privacy grid; ``eps_1 = alpha * eps_inf``.  Validated up front
        (no repeated value, alpha in ``(0, 1)``), before any randomness
        streams are derived.
    n_runs:
        Independent repetitions per grid point (the paper uses 20).
    rng:
        Root seed; every (grid point, repetition) task receives an
        independent derived stream, so results are reproducible,
        order-independent and identical for every ``n_workers``.
    keep_runs:
        Whether to retain per-run :class:`SimulationResult` objects.  Per-run
        scalar statistics are always retained.
    n_workers:
        Number of worker processes; ``1`` (default) runs in-process.  With
        more, the tasks are spread across a process pool and the points
        are bit-identical to the serial ones.
    store, experiment_id:
        When ``store`` is given (a :class:`repro.store.ResultsStore`, or any
        object with its ``has_rows`` / ``append_rows`` methods), completed
        grid points are appended under ``experiment_id`` in grid order
        while the sweep is still running: each completed grid-order prefix
        goes out in one append.  The store is only touched from the parent
        process.
    completed, resume:
        Resume support: grid keys in ``completed`` (``(protocol_name,
        alpha, eps_inf)``, see :func:`completed_points_from_rows`) are
        skipped — not simulated and not re-flushed — while the task seed
        derivation still covers the full grid, so the union of the old and
        new CSV rows is bit-identical to one uninterrupted sweep.
        ``resume=True`` additionally allows appending to an existing CSV
        (otherwise a non-empty store entry is an error).  Skipped points are
        returned as ``None``.
    header_comment:
        Optional single-line comment written above the CSV header when the
        store file is first created (:func:`run_sweep_spec` embeds the sweep
        spec's fingerprint here so ``--resume`` can detect a changed spec).
    """
    n_runs = require_int_at_least(n_runs, 1, "n_runs")
    n_workers = require_int_at_least(n_workers, 1, "n_workers")
    eps_inf_values = list(eps_inf_values)
    alpha_values = list(alpha_values)
    if not protocols:
        raise ExperimentError("at least one protocol spec is required")
    if dataset is None:
        raise ExperimentError("no dataset given: pass the dataset to simulate")
    if not eps_inf_values or not alpha_values:
        raise ExperimentError("the privacy grid must be non-empty")
    # Fail fast on an invalid grid, before any generator table is derived or
    # any simulation starts.  A repeated value would run one grid key twice
    # and write two rows for it.
    require_distinct(eps_inf_values, "eps_inf_values")
    require_distinct(alpha_values, "alpha_values")
    for alpha in alpha_values:
        if not 0.0 < alpha < 1.0:
            raise ExperimentError(f"alpha must lie in (0, 1), got {alpha}")
    for name, spec in protocols.items():
        if not isinstance(spec, ProtocolSpec):
            raise ExperimentError(
                f"protocol {name!r} must be a ProtocolSpec template, got "
                f"{type(spec).__name__}"
            )
    if store is not None and store.has_rows(experiment_id) and not resume:
        # Appending after a previous (or interrupted) run would silently
        # duplicate grid points in the CSV.
        raise ExperimentError(
            f"results for experiment {experiment_id!r} already exist in "
            f"the store; pick a new experiment_id, delete the old results "
            f"first, or pass resume=True with the completed grid keys"
        )
    grid: List[GridKey] = [
        (name, alpha, eps_inf)
        for name in protocols
        for alpha in alpha_values
        for eps_inf in eps_inf_values
    ]
    done_keys = {
        (str(name), float(alpha), float(eps_inf))
        for name, alpha, eps_inf in (completed or ())
    }
    skip = [key in done_keys for key in grid]
    # One picklable task per (grid point, run); None for skipped points.
    tasks: List[Optional[SweepTask]] = [
        None if skip[point_index] else SweepTask(
            spec=protocols[name], dataset_name=dataset.name,
            eps_inf=eps_inf, alpha=alpha, run=run,
        )
        for point_index, (name, alpha, eps_inf) in enumerate(grid)
        for run in range(n_runs)
    ]
    # Seeds cover the FULL grid even on resume, so the recomputed points
    # consume exactly the streams they would have in one uninterrupted run.
    seeds = derive_seed_sequences(rng, len(tasks))

    n_skipped = sum(skip)
    emit_event(
        "sweep_started",
        component="sweep",
        experiment_id=experiment_id,
        n_points=len(grid),
        n_runs=n_runs,
        n_workers=n_workers,
        skipped=n_skipped,
    )

    results: List[object] = [None] * len(tasks)
    points: List[Optional[SweepPoint]] = [None] * len(grid)
    completed_runs = [0] * len(grid)
    # Every point before the cursor is on disk (or was skipped).
    flush_cursor = 0

    def on_task_done(task_index: int, payload: object) -> None:
        nonlocal flush_cursor
        results[task_index] = payload
        point_index = task_index // n_runs
        completed_runs[point_index] += 1
        if completed_runs[point_index] < n_runs:
            return
        name, alpha, eps_inf = grid[point_index]
        run_payloads = results[point_index * n_runs : (point_index + 1) * n_runs]
        run_mses = [payload.mse_avg for payload in run_payloads]
        run_eps = [payload.eps_avg for payload in run_payloads]
        points[point_index] = SweepPoint(
            protocol_name=name,
            dataset_name=dataset.name,
            eps_inf=eps_inf,
            alpha=alpha,
            mse_avg=float(np.mean(run_mses)),
            eps_avg=float(np.mean(run_eps)),
            worst_case_budget=run_payloads[0].worst_case_budget,
            runs=list(run_payloads) if keep_runs else [],
            run_mses=run_mses,
            run_eps=run_eps,
        )
        if store is None:
            return
        # Append the finished grid-order prefix in one write, at once, so
        # finished points stay on disk even when a later task fails or the
        # sweep is interrupted.  Skipped (already-persisted) points advance
        # the cursor without being re-appended.
        rows = []
        while flush_cursor < len(grid) and (
            skip[flush_cursor] or points[flush_cursor] is not None
        ):
            if not skip[flush_cursor]:
                rows.append(points[flush_cursor].as_row())
            flush_cursor += 1
        if rows:
            store.append_rows(experiment_id, rows, header_comment=header_comment)

    if n_workers == 1:
        for task_index, task in enumerate(tasks):
            if task is None:
                continue
            with span("sweep.task", component="sweep", task_index=task_index):
                _, payload = _execute_task(
                    task_index, task, seeds[task_index], keep_runs, dataset
                )
            on_task_done(task_index, payload)
    else:
        _run_pool(tasks, seeds, keep_runs, dataset, n_workers, on_task_done)
    emit_event(
        "sweep_finished",
        component="sweep",
        experiment_id=experiment_id,
        done=sum(1 for point in points if point is not None),
        skipped=n_skipped,
    )
    return points


def _completed_in_store(
    spec: SweepSpec, store: ResultsStore, experiment_id: str, dataset_name: str
) -> Set[GridKey]:
    """Grid keys of ``spec`` already in ``experiment_id``'s CSV.

    Refuses a CSV that no fingerprint record ties to a spec, or that a
    different spec wrote.
    """
    location = store.location(experiment_id)
    on_disk_fingerprint = store.fingerprint(experiment_id)
    if on_disk_fingerprint is None:
        raise ExperimentError(
            f"refusing to resume {experiment_id} in {location}: it carries no "
            f"sweep spec fingerprint record, so nothing shows which spec "
            f"wrote its rows; move the old results aside and rerun"
        )
    fingerprint = spec.fingerprint()
    if on_disk_fingerprint != fingerprint:
        raise ExperimentError(
            f"refusing to resume {experiment_id} in {location}: it was "
            f"written by a sweep spec with fingerprint "
            f"{on_disk_fingerprint}, but the current spec's "
            f"fingerprint is {fingerprint} (grid, runs, scale or "
            f"seed changed); move the old results aside or rerun "
            f"with the original spec"
        )
    on_disk = completed_points_from_rows(store.load_rows(experiment_id), source=location)
    grid_keys = {
        (name, float(alpha), float(eps_inf))
        for name in spec.grid_protocols()
        for alpha in spec.alpha_values
        for eps_inf in spec.eps_inf_values
    }
    # Only rows that belong to THIS grid count as done; rows left by a
    # different spec (other eps/alpha/protocols under the same name) must
    # not silently satisfy the sweep.
    if on_disk - grid_keys:
        print(
            f"{dataset_name}: warning: {len(on_disk - grid_keys)} rows "
            f"in {experiment_id} are not part of this grid (stale "
            f"spec?); they are kept but do not count as completed"
        )
    return on_disk & grid_keys


def run_sweep_spec(
    spec: SweepSpec,
    datasets: Mapping[str, LongitudinalDataset],
    output_dir: Optional[str] = None,
    resume: bool = False,
    n_workers: Optional[int] = None,
) -> Dict[str, List[Dict[str, object]]]:
    """Run ``spec``'s grid on each of ``datasets``; the sweep rows per dataset.

    ``datasets`` maps names from ``spec.datasets`` to the workloads the
    caller built, ``make_dataset(name, scale=spec.dataset_scale,
    rng=spec.seed)`` for the spec's own results.  Without ``output_dir`` the
    rows are the points' :meth:`SweepPoint.as_row` dictionaries.  With it,
    each dataset's points stream into ``<spec.name>_<dataset>.csv`` there,
    under a ``#`` record of the spec's fingerprint, and the rows are the
    CSV's, loaded back.  ``resume=True`` then skips the points already in a
    CSV written by the same spec (with unchanged derived seeds, so the final
    rows are bit-identical to an uninterrupted run) and refuses one written
    by another.  ``n_workers`` overrides ``spec.n_workers``.
    """
    workers = n_workers if n_workers is not None else spec.n_workers
    store = ResultsStore(output_dir) if output_dir is not None else None
    rows: Dict[str, List[Dict[str, object]]] = {}
    for name, dataset in datasets.items():
        experiment_id = spec.experiment_id(name)
        completed: Set[GridKey] = set()
        if store is not None:
            if resume and store.has_rows(experiment_id):
                completed = _completed_in_store(spec, store, experiment_id, name)
            n_total, n_done = spec.n_grid_points, len(completed)
            if n_done >= n_total:
                print(f"{name}: all {n_total} grid points already complete, nothing to do")
                rows[name] = store.load_rows(experiment_id)
                continue
            print(
                f"{name}: {n_total} grid points "
                f"({n_done} already complete, {n_total - n_done} to run, "
                f"{workers} worker{'s' if workers != 1 else ''})"
            )
        points = run_sweep(
            spec.grid_protocols(),
            dataset,
            spec.eps_inf_values,
            spec.alpha_values,
            n_runs=spec.n_runs,
            rng=spec.seed,
            keep_runs=False,
            n_workers=workers,
            store=store,
            experiment_id=experiment_id,
            completed=completed,
            resume=resume,
            header_comment=f"{FINGERPRINT_KEY}={spec.fingerprint()}",
        )
        if store is None:
            rows[name] = [point.as_row() for point in points]
        else:
            rows[name] = store.load_rows(experiment_id)
            print(f"{name}: {len(rows[name])} rows in {store.location(experiment_id)}")
    return rows
