"""Parameter sweeps over ``(protocol, eps_inf, alpha)`` grids.

The paper's Figures 3 and 4 sweep ``eps_inf`` over ``[0.5, 1, ..., 5]`` and
``alpha = eps_1 / eps_inf`` over ``{0.4, 0.5, 0.6}`` for every protocol and
dataset, averaging 20 runs per point.  :class:`SweepExecutor` reproduces that
loop for arbitrary grids and run counts and can shard the grid across worker
processes:

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

:func:`run_sweep` remains the functional entry point used by the experiment
harnesses.
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
    Sequence,
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
from ..specs import ProtocolSpec
from ..store.results_store import ResultsStore
from .runner import SimulationResult, simulate_protocol

__all__ = [
    "SweepPoint",
    "SweepTask",
    "SweepExecutor",
    "run_sweep",
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

    def check_dataset(self, dataset: LongitudinalDataset) -> LongitudinalDataset:
        """Guard against executing the task against the wrong workload.

        Tasks are shippable; a worker pool initialized with a different
        dataset must fail loudly instead of producing mislabelled results.
        """
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


class SweepExecutor:
    """Executes a ``(protocol, eps_inf, alpha)`` grid, serially or sharded
    across worker processes.

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
        Number of worker processes; ``1`` (default) runs in-process.
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
        store file is first created (the CLI embeds the sweep spec's
        fingerprint here so ``--resume`` can detect a changed spec).
    """

    def __init__(
        self,
        protocols: Optional[Mapping[str, ProtocolSpec]] = None,
        dataset: LongitudinalDataset = None,
        eps_inf_values: Iterable[float] = (),
        alpha_values: Iterable[float] = (),
        n_runs: int = 1,
        rng: Optional[int] = 0,
        keep_runs: bool = True,
        n_workers: int = 1,
        store: Optional[ResultsStore] = None,
        experiment_id: str = "sweep",
        completed: Optional[Collection[GridKey]] = None,
        resume: bool = False,
        header_comment: Optional[str] = None,
    ) -> None:
        self.n_runs = require_int_at_least(n_runs, 1, "n_runs")
        self.n_workers = require_int_at_least(n_workers, 1, "n_workers")
        eps_inf_values = list(eps_inf_values)
        alpha_values = list(alpha_values)
        if not protocols:
            raise ExperimentError("at least one protocol spec is required")
        if dataset is None:
            raise ExperimentError("no dataset given: pass the dataset to simulate")
        if not eps_inf_values or not alpha_values:
            raise ExperimentError("the privacy grid must be non-empty")
        # Fail fast on an invalid grid, before any generator table is derived
        # or any simulation starts.  A repeated value would run one grid key
        # twice and write two rows for it.
        require_distinct(eps_inf_values, "eps_inf_values")
        require_distinct(alpha_values, "alpha_values")
        for alpha in alpha_values:
            if not 0.0 < alpha < 1.0:
                raise ExperimentError(f"alpha must lie in (0, 1), got {alpha}")
        self.protocols: Dict[str, ProtocolSpec] = dict(protocols)
        for name, spec in self.protocols.items():
            if not isinstance(spec, ProtocolSpec):
                raise ExperimentError(
                    f"protocol {name!r} must be a ProtocolSpec template, got "
                    f"{type(spec).__name__}"
                )
        self.dataset = dataset
        self.rng = rng
        self.keep_runs = keep_runs
        self.store = store
        self.experiment_id = experiment_id
        self.header_comment = header_comment
        self.resume = bool(resume)
        self.completed: Set[GridKey] = {
            (str(name), float(alpha), float(eps_inf))
            for name, alpha, eps_inf in (completed or ())
        }
        #: Grid points in canonical order: protocol -> alpha -> eps_inf.
        self.grid: List[GridKey] = [
            (protocol_name, alpha, eps_inf)
            for protocol_name in self.protocols
            for alpha in alpha_values
            for eps_inf in eps_inf_values
        ]

    def tasks(self) -> List[SweepTask]:
        """The picklable task list, in task order."""
        return self._tasks([False] * len(self.grid))

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> List[Optional[SweepPoint]]:
        """Execute every task and return the grid points in canonical order.

        On resume, points listed in ``completed`` are skipped and returned
        as ``None``.
        """
        if (
            self.store is not None
            and self.store.has_rows(self.experiment_id)
            and not self.resume
        ):
            # Appending after a previous (or interrupted) run would silently
            # duplicate grid points in the CSV.
            raise ExperimentError(
                f"results for experiment {self.experiment_id!r} already exist in "
                f"the store; pick a new experiment_id, delete the old results "
                f"first, or pass resume=True with the completed grid keys"
            )
        n_points = len(self.grid)
        n_tasks = n_points * self.n_runs
        # Seeds cover the FULL grid even on resume, so the recomputed points
        # consume exactly the streams they would have in one uninterrupted run.
        seeds = derive_seed_sequences(self.rng, n_tasks)
        skip = [key in self.completed for key in self.grid]
        tasks = self._tasks(skip)

        n_skipped = sum(skip)
        emit_event(
            "sweep_started",
            component="sweep",
            experiment_id=self.experiment_id,
            n_points=n_points,
            n_runs=self.n_runs,
            n_workers=self.n_workers,
            skipped=n_skipped,
        )

        results: List[object] = [None] * n_tasks
        points: List[Optional[SweepPoint]] = [None] * n_points
        completed_runs = [0] * n_points
        # Every point before the cursor is on disk (or was skipped).
        flush_cursor = 0

        def on_task_done(task_index: int, payload: object) -> None:
            nonlocal flush_cursor
            results[task_index] = payload
            point_index = task_index // self.n_runs
            completed_runs[point_index] += 1
            if completed_runs[point_index] == self.n_runs:
                points[point_index] = self._build_point(point_index, results)
                # Flushing at once keeps finished points on disk even when a
                # later task fails or the sweep is interrupted.
                flush_cursor = self._flush_ready(points, skip, flush_cursor)

        if self.n_workers == 1:
            for task_index, task in enumerate(tasks):
                if task is None:
                    continue
                with span("sweep.task", component="sweep", task_index=task_index):
                    _, payload = _execute_task(
                        task_index, task, seeds[task_index],
                        self.keep_runs, self.dataset,
                    )
                on_task_done(task_index, payload)
        else:
            self._run_pool(tasks, seeds, on_task_done)
        emit_event(
            "sweep_finished",
            component="sweep",
            experiment_id=self.experiment_id,
            done=sum(1 for point in points if point is not None),
            skipped=n_skipped,
        )
        return list(points)

    def _tasks(self, skip: Sequence[bool]) -> List[Optional[SweepTask]]:
        """One picklable task per (grid point, run); ``None`` for skipped ones."""
        items: List[Optional[SweepTask]] = []
        for point_index, (name, alpha, eps_inf) in enumerate(self.grid):
            for run in range(self.n_runs):
                if skip[point_index]:
                    items.append(None)
                else:
                    items.append(
                        SweepTask(
                            spec=self.protocols[name],
                            dataset_name=self.dataset.name,
                            eps_inf=eps_inf,
                            alpha=alpha,
                            run=run,
                        )
                    )
        return items

    def _run_pool(self, tasks, seeds, on_task_done) -> None:
        active = [index for index, task in enumerate(tasks) if task is not None]
        if not active:
            return
        with ProcessPoolExecutor(
            max_workers=min(self.n_workers, len(active)),
            initializer=_init_worker,
            initargs=(self.dataset,),
        ) as pool:
            pending = {
                pool.submit(
                    _execute_task, index, tasks[index], seeds[index], self.keep_runs
                )
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

    # ------------------------------------------------------------------ #
    # Aggregation / flushing
    # ------------------------------------------------------------------ #
    def _build_point(self, point_index: int, results: Sequence[object]) -> SweepPoint:
        protocol_name, alpha, eps_inf = self.grid[point_index]
        start = point_index * self.n_runs
        run_payloads = results[start : start + self.n_runs]
        run_mses = [payload.mse_avg for payload in run_payloads]
        run_eps = [payload.eps_avg for payload in run_payloads]
        return SweepPoint(
            protocol_name=protocol_name,
            dataset_name=self.dataset.name,
            eps_inf=eps_inf,
            alpha=alpha,
            mse_avg=float(np.mean(run_mses)),
            eps_avg=float(np.mean(run_eps)),
            worst_case_budget=run_payloads[0].worst_case_budget,
            runs=list(run_payloads) if self.keep_runs else [],
            run_mses=run_mses,
            run_eps=run_eps,
        )

    def _flush_ready(
        self,
        points: Sequence[Optional[SweepPoint]],
        skip: Sequence[bool],
        cursor: int,
    ) -> int:
        """Append the finished grid-order prefix from ``cursor`` on to the
        store in one write; returns the new cursor.

        Skipped (already-persisted) points advance the cursor without being
        re-appended.
        """
        if self.store is None:
            return cursor
        rows = []
        while cursor < len(points) and (skip[cursor] or points[cursor] is not None):
            if not skip[cursor]:
                rows.append(points[cursor].as_row())
            cursor += 1
        if rows:
            self.store.append_rows(
                self.experiment_id, rows, header_comment=self.header_comment
            )
        return cursor


def run_sweep(
    protocols: Optional[Mapping[str, ProtocolSpec]] = None,
    dataset: LongitudinalDataset = None,
    eps_inf_values: Iterable[float] = (),
    alpha_values: Iterable[float] = (),
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

    This is the functional wrapper around :class:`SweepExecutor`; see its
    documentation for the parameters.  With ``n_workers > 1`` the grid tasks
    are sharded across a process pool and the aggregated results are
    bit-identical to the serial execution for the same root seed.
    """
    executor = SweepExecutor(
        protocols=protocols,
        dataset=dataset,
        eps_inf_values=eps_inf_values,
        alpha_values=alpha_values,
        n_runs=n_runs,
        rng=rng,
        keep_runs=keep_runs,
        n_workers=n_workers,
        store=store,
        experiment_id=experiment_id,
        completed=completed,
        resume=resume,
        header_comment=header_comment,
    )
    return executor.run()
