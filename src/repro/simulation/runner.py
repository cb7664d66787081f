"""End-to-end simulation of a longitudinal protocol over a dataset.

``simulate_protocol`` is the fast path used by the experiment harness: it
drives a vectorized :mod:`~repro.simulation.engines` population round by
round, folds the per-round support counts into a
:class:`~repro.simulation.sinks.SupportCountSink` and scores the debiased
estimates with the paper's metrics.  ``simulate_protocol_sharded`` splits the
population into independent user shards whose partial counts are merged with
a :class:`~repro.simulation.sinks.ShardedSink` — the building block for
populations larger than one engine (or one process) should hold.
``simulate_with_clients`` is the reference path that drives the per-user
client objects directly; it is slower but exercises exactly the public
client API and is used by the integration tests (and to cross-check the
engines).

``simulate_protocol_sharded`` accepts either a protocol object or a
declarative :class:`~repro.specs.ProtocolSpec`; with a spec, every shard
becomes a picklable :class:`ShardTask` and ``n_workers > 1`` runs the
shards on a local process pool.  The estimates are bit-identical to the
serial path for every worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .._validation import as_rng, require_int_at_least
from ..datasets.base import LongitudinalDataset
from ..exceptions import ExperimentError
from ..longitudinal.base import LongitudinalProtocol
from ..longitudinal.dbitflip import DBitFlipPM
from ..obs.spans import span
from ..rng import RngLike, derive_seed_sequences
from ..specs import ProtocolSpec
from .engines import engine_for
from .metrics import averaged_longitudinal_privacy_loss, averaged_mse, mse_per_round
from .sinks import ShardedSink, ShardSummary, SupportCountSink

__all__ = [
    "SimulationResult",
    "ShardTask",
    "make_shard_tasks",
    "result_from_summaries",
    "round_windows",
    "shard_boundaries",
    "simulate_protocol",
    "simulate_protocol_sharded",
    "simulate_with_clients",
]


@dataclass
class SimulationResult:
    """Outcome of one longitudinal simulation run.

    Attributes
    ----------
    protocol_name, dataset_name:
        Identifiers of the simulated configuration.
    eps_inf, eps_1:
        Privacy budgets of the simulated protocol.
    estimates:
        Estimated frequency matrix of shape ``(tau, m)`` where ``m`` is the
        protocol's estimation-domain size (``k``, or ``b`` for dBitFlipPM).
    true_frequencies:
        Ground-truth frequency matrix with the same shape.
    mse_avg:
        ``MSE_avg`` of Eq. (7).
    eps_avg:
        ``eps_avg`` of Eq. (8) — the population-averaged realized budget.
    worst_case_budget:
        Theoretical worst case of Table 1 for this protocol configuration.
    distinct_memoized_per_user:
        Number of distinct memoization keys per user at the end of the run.
    extra:
        Free-form per-run metadata (e.g. dBitFlipPM configuration).
    """

    protocol_name: str
    dataset_name: str
    eps_inf: float
    eps_1: float
    estimates: np.ndarray
    true_frequencies: np.ndarray
    mse_avg: float
    eps_avg: float
    worst_case_budget: float
    distinct_memoized_per_user: np.ndarray
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def mse_by_round(self) -> np.ndarray:
        """Per-round MSE curve."""
        return mse_per_round(self.estimates, self.true_frequencies)


def _true_frequency_matrix(
    protocol: LongitudinalProtocol, dataset: LongitudinalDataset
) -> np.ndarray:
    """Ground truth on the protocol's estimation domain.

    For protocols that estimate the original ``k``-bin histogram this is the
    dataset's own frequency matrix; for dBitFlipPM with ``b < k`` buckets the
    per-round histogram is aggregated to buckets first.
    """
    truth = dataset.true_frequency_matrix()
    if isinstance(protocol, DBitFlipPM) and protocol.estimation_domain_size != dataset.k:
        return np.stack([protocol.bucket_frequencies(row) for row in truth])
    return truth


def _check_domains(protocol: LongitudinalProtocol, dataset: LongitudinalDataset) -> None:
    if dataset.k != protocol.k:
        raise ExperimentError(
            f"protocol domain size ({protocol.k}) does not match dataset domain size "
            f"({dataset.k})"
        )


def _package_result(
    protocol: LongitudinalProtocol,
    dataset: LongitudinalDataset,
    estimates: np.ndarray,
    distinct: np.ndarray,
    extra: Dict[str, object],
) -> SimulationResult:
    truth = _true_frequency_matrix(protocol, dataset)
    return SimulationResult(
        protocol_name=getattr(protocol, "name_with_d", protocol.name),
        dataset_name=dataset.name,
        eps_inf=protocol.eps_inf,
        eps_1=protocol.eps_1,
        estimates=estimates,
        true_frequencies=truth,
        mse_avg=averaged_mse(estimates, truth),
        eps_avg=averaged_longitudinal_privacy_loss(distinct, protocol.eps_inf),
        worst_case_budget=protocol.worst_case_budget(),
        distinct_memoized_per_user=distinct,
        extra=extra,
    )


def round_windows(values: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal round windows ``[t0, t1)`` in which no user's value changes.

    Longitudinal workloads are sticky, so consecutive rounds are frequently
    identical for the *entire* population; each such window can be driven
    through one batched :meth:`~repro.simulation.engines.PopulationEngine
    .run_rounds` call instead of per-round stepping.  Any single user's
    value change ends the window (the batched kernels require unchanged
    values), so the driver's output stays bit-identical to round-at-a-time
    stepping.
    """
    tau = int(values.shape[1])
    if tau == 1:
        return [(0, 1)]
    changed = (values[:, 1:] != values[:, :-1]).any(axis=0)
    starts = np.concatenate([[0], np.flatnonzero(changed) + 1])
    stops = np.concatenate([starts[1:], [tau]])
    return list(zip(starts.tolist(), stops.tolist()))


def _drive_windows(engine, values: np.ndarray, sink, generator) -> None:
    """Run every round of ``values`` (one column per round) into ``sink``,
    batching maximal unchanged windows through ``engine.run_rounds``.

    Rounds reach ``sink.add_round`` once each, in order.
    """
    engine_name = type(engine).__name__
    for start_t, stop_t in round_windows(values):
        n_window = stop_t - start_t
        with span("sim.window", component="simulation", engine=engine_name,
                  rounds=n_window, start_round=start_t):
            counts = engine.run_rounds(values[:, start_t], n_window, generator)
        for offset in range(n_window):
            sink.add_round(start_t + offset, counts[offset])


def simulate_protocol(
    protocol: LongitudinalProtocol,
    dataset: LongitudinalDataset,
    rng: RngLike = None,
    engine_options: Optional[Dict[str, object]] = None,
) -> SimulationResult:
    """Simulate ``protocol`` over ``dataset`` using the vectorized engine.

    ``engine_options`` are forwarded to
    :func:`~repro.simulation.engines.engine_for` (e.g. ``backend=`` or a
    layout override) and validated there against the selected engine.
    """
    _check_domains(protocol, dataset)
    generator = as_rng(rng)
    engine = engine_for(protocol, dataset.n_users, generator, **(engine_options or {}))
    sink = SupportCountSink(
        dataset.n_rounds, protocol.estimation_domain_size, dataset.n_users
    )
    _drive_windows(engine, dataset.values, sink, generator)

    return _package_result(
        protocol,
        dataset,
        estimates=sink.estimates(protocol),
        distinct=engine.distinct_memoized_per_user(),
        extra={"engine": type(engine).__name__},
    )


@dataclass(frozen=True)
class ShardTask:
    """One picklable shard work unit of a sharded simulation.

    Carries everything a pool worker needs — a declarative protocol spec,
    the shard's user slice and its derived seed — so shards can be shipped
    to worker processes and their
    :class:`~repro.simulation.sinks.ShardSummary` results merged in any
    grouping.
    """

    spec: ProtocolSpec
    dataset_name: str
    start: int
    stop: int
    seed: np.random.SeedSequence


# ``fork``-safe per-worker shard context (see sweep.py for the same pattern).
# The dataset travels through the pool initializer once per worker instead
# of once per task.
_SHARD_DATASET: Optional[LongitudinalDataset] = None


def _init_shard_worker(dataset: LongitudinalDataset) -> None:
    global _SHARD_DATASET
    _SHARD_DATASET = dataset


def run_shard_task(
    task: ShardTask, dataset: Optional[LongitudinalDataset] = None
) -> ShardSummary:
    """Execute one shard and return its picklable partial counts.

    ``dataset`` defaults to the one installed by the pool initializer.
    """
    if dataset is None:
        dataset = _SHARD_DATASET
    if dataset is None:
        raise ExperimentError(
            f"no dataset for shard task {task.dataset_name!r}: pass dataset= "
            "or run the task on a pool initialized with one"
        )
    if task.dataset_name and dataset.name != task.dataset_name:
        # A worker holding a different workload must fail loudly instead of
        # producing mislabelled partial counts.
        raise ExperimentError(
            f"shard task for dataset {task.dataset_name!r} reached a worker "
            f"holding dataset {dataset.name!r}"
        )
    from ..registry import build_protocol  # runtime import: registry builds on this layer

    protocol = build_protocol(task.spec.at(k=dataset.k))
    generator = np.random.default_rng(task.seed)
    n_shard_users = task.stop - task.start
    engine = engine_for(protocol, n_shard_users, generator)
    sink = SupportCountSink(
        dataset.n_rounds, protocol.estimation_domain_size, n_shard_users
    )
    _drive_windows(
        engine, dataset.values[task.start : task.stop], sink, generator
    )
    return sink.to_summary(engine.distinct_memoized_per_user())


def _resolve_protocol(
    protocol_or_spec: Union[LongitudinalProtocol, ProtocolSpec], k: int
) -> LongitudinalProtocol:
    if isinstance(protocol_or_spec, ProtocolSpec):
        from ..registry import build_protocol

        return build_protocol(protocol_or_spec.at(k=k))
    return protocol_or_spec


def shard_boundaries(n_users: int, n_shards: int) -> np.ndarray:
    """Population split points for ``n_shards`` even, contiguous user shards.

    A pure function of ``(n_users, n_shards)``, so equal inputs yield
    identical boundaries in every process.
    """
    n_shards = require_int_at_least(n_shards, 1, "n_shards")
    if n_shards > n_users:
        raise ExperimentError(
            f"cannot split {n_users} users into {n_shards} shards"
        )
    return np.linspace(0, n_users, n_shards + 1).astype(np.int64)


def make_shard_tasks(
    spec: ProtocolSpec,
    dataset: LongitudinalDataset,
    n_shards: int,
    rng: RngLike = None,
) -> List[ShardTask]:
    """Split ``dataset`` into ``n_shards`` contiguous shard work units.

    Shard ``i`` covers users ``[boundaries[i], boundaries[i+1])`` and is
    seeded by the ``i``-th child of the root seed — a pure function of
    ``(rng, n_shards, i)``, so the tasks reproduce the identical summaries
    whether they run serially or on a process pool.
    """
    boundaries = shard_boundaries(dataset.n_users, n_shards)
    shard_seeds = derive_seed_sequences(rng, len(boundaries) - 1)
    return [
        ShardTask(
            spec=spec,
            dataset_name=dataset.name,
            start=int(boundaries[shard]),
            stop=int(boundaries[shard + 1]),
            seed=seed,
        )
        for shard, seed in enumerate(shard_seeds)
    ]


def result_from_summaries(
    protocol: Union[LongitudinalProtocol, ProtocolSpec],
    dataset: LongitudinalDataset,
    summaries: List[ShardSummary],
) -> SimulationResult:
    """Merge shard summaries (in the given order) into a final result."""
    resolved = _resolve_protocol(protocol, dataset.k)
    merged = ShardedSink()
    for summary in summaries:
        merged.absorb(summary)
    return _package_result(
        resolved,
        dataset,
        estimates=merged.estimates(resolved),
        distinct=merged.distinct_memoized_per_user,
        extra={"engine": "sharded", "n_shards": len(summaries)},
    )


def simulate_protocol_sharded(
    protocol: Union[LongitudinalProtocol, ProtocolSpec],
    dataset: LongitudinalDataset,
    n_shards: int,
    rng: RngLike = None,
    n_workers: int = 1,
) -> SimulationResult:
    """Simulate ``protocol`` by splitting the population into user shards.

    Each shard runs its own vectorized engine over a contiguous slice of the
    user population (with an independent derived randomness stream) and emits
    only its per-round support counts; the shards' partial counts are merged
    with the associative :class:`~repro.simulation.sinks.ShardedSink` before
    a single final debiasing.  The result is statistically equivalent to the
    unsharded path — the estimator only ever sees the population-level
    counts.

    ``protocol`` may be a protocol object or a
    :class:`~repro.specs.ProtocolSpec`.  With a spec, the shards become
    picklable :class:`ShardTask` work units and ``n_workers > 1`` executes
    them on a local process pool; results are bit-identical for every worker
    count because each shard's stream is derived from the root seed alone.
    """
    resolved = _resolve_protocol(protocol, dataset.k)
    _check_domains(resolved, dataset)
    n_shards = require_int_at_least(n_shards, 1, "n_shards")
    n_workers = require_int_at_least(n_workers, 1, "n_workers")
    if n_shards > dataset.n_users:
        raise ExperimentError(
            f"cannot split {dataset.n_users} users into {n_shards} shards"
        )
    if n_workers > 1 and not isinstance(protocol, ProtocolSpec):
        raise ExperimentError(
            "distributing shards requires a ProtocolSpec (protocol objects "
            "are not shipped as work units); pass a spec from repro.specs"
        )

    summaries: List[ShardSummary]
    if isinstance(protocol, ProtocolSpec):
        tasks = make_shard_tasks(protocol, dataset, n_shards, rng)
        if n_workers == 1:
            summaries = [run_shard_task(task, dataset) for task in tasks]
        else:
            with ProcessPoolExecutor(
                max_workers=min(n_workers, n_shards),
                initializer=_init_shard_worker,
                initargs=(dataset,),
            ) as pool:
                # ``map`` preserves task order, so the merge below absorbs
                # shards in shard order — bit-identical to the serial path.
                summaries = list(pool.map(run_shard_task, tasks))
    else:
        shard_seeds = derive_seed_sequences(rng, n_shards)
        boundaries = shard_boundaries(dataset.n_users, n_shards)
        summaries = []
        for shard, seed in enumerate(shard_seeds):
            generator = np.random.default_rng(seed)
            start, stop = int(boundaries[shard]), int(boundaries[shard + 1])
            engine = engine_for(resolved, stop - start, generator)
            sink = SupportCountSink(
                dataset.n_rounds, resolved.estimation_domain_size, stop - start
            )
            _drive_windows(engine, dataset.values[start:stop], sink, generator)
            summaries.append(sink.to_summary(engine.distinct_memoized_per_user()))

    return result_from_summaries(resolved, dataset, summaries)


def simulate_with_clients(
    protocol: LongitudinalProtocol,
    dataset: LongitudinalDataset,
    rng: RngLike = None,
) -> SimulationResult:
    """Reference simulation driving one client object per user.

    Functionally equivalent to :func:`simulate_protocol` but exercises the
    per-user client API; intended for tests and small populations.
    """
    _check_domains(protocol, dataset)
    generator = as_rng(rng)
    clients = [protocol.create_client(generator) for _ in range(dataset.n_users)]
    estimates = np.empty(
        (dataset.n_rounds, protocol.estimation_domain_size), dtype=np.float64
    )
    for t, values_t in enumerate(dataset.iter_rounds()):
        reports = [
            client.report(int(value), generator) for client, value in zip(clients, values_t)
        ]
        estimates[t] = protocol.estimate_frequencies(reports, n=dataset.n_users)

    distinct = np.asarray([client.distinct_memoized for client in clients], dtype=np.int64)
    return _package_result(
        protocol, dataset, estimates=estimates, distinct=distinct, extra={"engine": "clients"}
    )
