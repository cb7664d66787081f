"""End-to-end simulation of a longitudinal protocol over a dataset.

``simulate_protocol`` is the fast path used by the experiment harness: it
drives a vectorized :mod:`~repro.simulation.engines` population round by
round, folds the per-round support counts into a
:class:`~repro.simulation.sinks.SupportCountSink` and scores the debiased
estimates with the paper's metrics; the UE engine also gets each round's
column of the dataset's once-visited mask, so pairs that occur once are
drawn in aggregate and never memoized.  ``simulate_with_clients`` is the
reference path that drives the per-user client objects directly; it is
slower but exercises exactly the public client API and is used by the
integration tests (and to cross-check the engines).  Work spreads over
processes one whole simulation at a time, through
:func:`repro.simulation.sweep.run_sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._validation import as_rng
from ..datasets.base import LongitudinalDataset
from ..exceptions import ExperimentError
from ..longitudinal.base import LongitudinalProtocol
from ..longitudinal.dbitflip import DBitFlipPM
from ..obs.spans import span
from ..rng import RngLike
from .engines import UnaryChainEngine, engine_for
from .metrics import averaged_longitudinal_privacy_loss, averaged_mse, mse_per_round
from .sinks import SupportCountSink

__all__ = [
    "SimulationResult",
    "round_windows",
    "simulate_protocol",
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


def _once_mask(engine, dataset: LongitudinalDataset) -> Optional[np.ndarray]:
    """The dataset's once-visited mask if ``engine`` draws such pairs in
    aggregate (the UE engine), else ``None`` — so other protocols never pay
    for computing it."""
    return dataset.once_visited_mask() if isinstance(engine, UnaryChainEngine) else None


def _drive_windows(
    engine, values: np.ndarray, sink, generator, once: Optional[np.ndarray] = None
) -> None:
    """Run every round of ``values`` (one column per round) into ``sink``,
    batching maximal unchanged windows through ``engine.run_rounds``.

    ``once`` is the matching once-visited mask, handed to the engine one
    round column at a time.  Rounds reach ``sink.add_round`` once each, in
    order.
    """
    engine_name = type(engine).__name__
    for start_t, stop_t in round_windows(values):
        n_window = stop_t - start_t
        options = {} if once is None else {"once": once[:, start_t]}
        with span("sim.window", component="simulation", engine=engine_name,
                  rounds=n_window, start_round=start_t):
            counts = engine.run_rounds(values[:, start_t], n_window, generator, **options)
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
    _drive_windows(engine, dataset.values, sink, generator, _once_mask(engine, dataset))

    return _package_result(
        protocol,
        dataset,
        estimates=sink.estimates(protocol),
        distinct=engine.distinct_memoized_per_user(),
        extra={"engine": type(engine).__name__},
    )


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
