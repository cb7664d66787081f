"""Streaming collection sessions: the server façade of the library.

A :class:`CollectorSession` is the service-style counterpart of the batch
:func:`repro.simulation.runner.simulate_protocol` path.  Where the batch
runner owns the whole dataset and drives the rounds in order, a session is
fed — it accepts report batches **incrementally and out of round order**
(heavy traffic never arrives sorted), keeps only the per-round support
counts and report tallies (``O(n_rounds * m)`` state, independent of the
population size), and at any moment exposes the running debiased estimate of
every round observed so far.

The session builds on the sink layer: support counts are folded exactly like
:class:`~repro.simulation.sinks.SupportCountSink` does (debiasing is linear
per round, so late debiasing is bit-identical), and estimates come
from :func:`repro.simulation.sinks.estimate_support_counts`.  Unlike the
sinks, the per-round sample size is the number of reports *actually
received* for that round, so estimates are unbiased even while a round is
only partially collected.

Sessions created from a :class:`~repro.specs.ProtocolSpec` can
:meth:`~CollectorSession.checkpoint` their state — together with the
attached :class:`~repro.service.clock.RoundClock`, if any — to one binary
``.npz`` archive, written atomically (temp + rename), and be
:meth:`~CollectorSession.restore`\\ d later (or elsewhere): the checkpoint
carries the spec, so the restoring process rebuilds the protocol through
:func:`repro.registry.build_protocol` without any pickled code.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .._atomicio import atomic_write_bytes
from .._validation import require_int_at_least
from ..exceptions import AggregationError, EncodingError, ParameterError
from ..longitudinal.base import LongitudinalProtocol, RoundEstimate
from ..registry import build_protocol
from ..simulation.sinks import estimate_support_counts
from ..specs import ProtocolSpec
from .clock import RoundClock

__all__ = ["CollectorSession"]

_CHECKPOINT_FORMAT = 1


class CollectorSession:
    """Incremental server-side aggregation of one longitudinal collection.

    Parameters
    ----------
    protocol:
        A :class:`~repro.specs.ProtocolSpec` (required for checkpointing) or
        a live protocol object.
    n_rounds:
        Length of the collection horizon.

    Examples
    --------
    >>> from repro.specs import ProtocolSpec
    >>> from repro.service import CollectorSession
    >>> session = CollectorSession(
    ...     ProtocolSpec(name="L-OSUE", k=16, eps_inf=2.0, eps_1=1.0), n_rounds=3
    ... )
    >>> client = session.protocol.create_client(rng=0)
    >>> estimate = session.submit_reports(1, [client.report(3, rng=1)])
    >>> estimate.round_index, estimate.n_reports
    (1, 1)
    """

    def __init__(
        self,
        protocol: Union[ProtocolSpec, LongitudinalProtocol],
        n_rounds: int,
        clock: Optional[RoundClock] = None,
    ) -> None:
        if isinstance(protocol, ProtocolSpec):
            self.spec: Optional[ProtocolSpec] = protocol
            self.protocol = build_protocol(protocol)
        else:
            self.spec = None
            self.protocol = protocol
        self.n_rounds = require_int_at_least(n_rounds, 1, "n_rounds")
        m = self.protocol.estimation_domain_size
        self._counts = np.zeros((self.n_rounds, m), dtype=np.float64)
        self._n_reports = np.zeros(self.n_rounds, dtype=np.int64)
        self.clock: Optional[RoundClock] = None
        if clock is not None:
            self.attach_clock(clock)

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def attach_clock(self, clock: RoundClock) -> None:
        """Give a :class:`~repro.service.clock.RoundClock` ownership of
        round windowing.

        With a clock attached, every submission is routed through
        :meth:`RoundClock.route` first: reports for an already-sealed round
        are dropped (``submit_*`` returns ``None``), and on-time batches
        may seal their window by quorum.  Without a clock the session keeps
        its historical behavior: any round accepts reports at any time.
        """
        if not isinstance(clock, RoundClock):
            raise ParameterError(
                f"clock must be a RoundClock, got {type(clock).__name__}"
            )
        if clock.n_rounds != self.n_rounds:
            raise ParameterError(
                f"clock horizon ({clock.n_rounds} rounds) does not match the "
                f"session horizon ({self.n_rounds} rounds)"
            )
        self.clock = clock

    def _check_round(self, round_index: int) -> int:
        if isinstance(round_index, bool) or not isinstance(
            round_index, (int, np.integer)
        ):
            raise ParameterError(
                f"round index must be an integer, got {type(round_index).__name__}"
            )
        round_index = int(round_index)
        if not 0 <= round_index < self.n_rounds:
            raise ParameterError(
                f"round index must lie in [0, {self.n_rounds}), got {round_index}"
            )
        return round_index

    def _fold_reports(self, reports: Sequence) -> np.ndarray:
        """Support counts of one batch, failing fast on malformed reports.

        Shape and domain mismatches historically surfaced as downstream
        numpy errors (broadcast failures, negative ``bincount`` inputs);
        they are translated into :class:`~repro.exceptions.ParameterError`
        naming the offending shape instead.
        """
        m = self.protocol.estimation_domain_size
        try:
            counts = np.asarray(
                self.protocol.support_counts(reports), dtype=np.float64
            )
        except (EncodingError, ValueError, TypeError) as error:
            raise ParameterError(
                f"report batch does not fit protocol {self.protocol.name!r} "
                f"(estimation domain {m}): {error}"
            ) from None
        if counts.shape != (m,):
            raise ParameterError(
                f"report batch folded to counts of shape {counts.shape}, "
                f"expected ({m},) — do the reports match the protocol spec?"
            )
        return counts

    def submit_reports(
        self, round_index: int, reports: Sequence
    ) -> Optional[RoundEstimate]:
        """Fold a batch of client reports for ``round_index``.

        Batches may arrive in any order and a round may receive any number
        of batches.  Returns the running estimate of ``round_index``, or
        ``None`` when an attached clock dropped the batch as late.
        """
        reports = list(reports)
        if not reports:
            raise ParameterError(
                f"cannot submit an empty report batch (round {round_index})"
            )
        return self.submit_counts(
            round_index, self._fold_reports(reports), len(reports)
        )

    def submit_counts(
        self, round_index: int, counts: np.ndarray, n_reports: int
    ) -> Optional[RoundEstimate]:
        """Fold pre-aggregated support counts (e.g. from an edge aggregator).

        This is the fast ingestion path for producers that already hold
        population-level counts — a vectorized engine round or a remote
        pre-aggregation tier.  Like :meth:`submit_reports`, an attached
        clock may drop a late batch (``None``).
        """
        n_reports = require_int_at_least(n_reports, 1, "n_reports")
        counts = np.asarray(counts, dtype=np.float64)
        m = self.protocol.estimation_domain_size
        if counts.shape != (m,):
            raise ParameterError(
                f"expected counts of shape ({m},), got {counts.shape}"
            )
        round_index = self._check_round(round_index)
        if self.clock is not None and self.clock.route(round_index, n_reports) is None:
            return None
        self._counts[round_index] += counts
        self._n_reports[round_index] += n_reports
        return self.estimate(round_index)

    # ------------------------------------------------------------------ #
    # Running estimates
    # ------------------------------------------------------------------ #
    @property
    def reports_per_round(self) -> np.ndarray:
        """Reports received so far, per round (copy)."""
        return self._n_reports.copy()

    @property
    def total_reports(self) -> int:
        """Total reports received across all rounds."""
        return int(self._n_reports.sum())

    @property
    def rounds_observed(self) -> np.ndarray:
        """Indices of rounds with at least one report."""
        return np.flatnonzero(self._n_reports > 0)

    @property
    def is_complete(self) -> bool:
        """Whether every round has received at least one report."""
        return bool((self._n_reports > 0).all())

    def support_counts(self, round_index: int) -> np.ndarray:
        """Raw accumulated support counts of one round (copy)."""
        return self._counts[self._check_round(round_index)].copy()

    def estimate(self, round_index: int) -> RoundEstimate:
        """Running debiased estimate of one round.

        Uses the number of reports received *so far* as the sample size, so
        the estimate is unbiased for the sub-population that has reported.
        """
        round_index = self._check_round(round_index)
        n = int(self._n_reports[round_index])
        if n <= 0:
            raise AggregationError(
                f"round {round_index} has not received any reports yet"
            )
        frequencies = estimate_support_counts(
            self.protocol, self._counts[round_index], n
        )
        return RoundEstimate(
            round_index=round_index, frequencies=frequencies, n_reports=n
        )

    def estimates(self) -> np.ndarray:
        """Running ``(n_rounds, m)`` estimate matrix.

        Rounds without any report are ``NaN`` rows — the caller can see at a
        glance which part of the horizon is still missing.
        """
        matrix = np.full_like(self._counts, np.nan)
        for t in self.rounds_observed:
            matrix[t] = estimate_support_counts(
                self.protocol, self._counts[t], int(self._n_reports[t])
            )
        return matrix

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #
    def checkpoint(self, path: Union[str, Path]) -> Path:
        """Persist the session state as one binary ``.npz`` archive.

        Requires a spec-built session: the checkpoint stores the declarative
        spec (never pickled code), the accumulated counts, the per-round
        report tallies and — when a clock is attached — its
        :meth:`RoundClock.state_dict`, so any process with this library can
        :meth:`restore` and continue the collection in the same round
        window.  The archive is written atomically (same-directory temp +
        rename) whatever the file suffix, so a process killed
        mid-checkpoint leaves the previous complete checkpoint intact.
        """
        if self.spec is None:
            raise ParameterError(
                "only sessions built from a ProtocolSpec can be checkpointed; "
                "construct the session with a spec from repro.specs"
            )
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {
            "format": np.int64(_CHECKPOINT_FORMAT),
            "spec": np.array(self.spec.to_json()),
            "n_rounds": np.int64(self.n_rounds),
            "counts": self._counts,
            "n_reports": self._n_reports,
        }
        if self.clock is not None:
            arrays["clock"] = np.array(json.dumps(self.clock.state_dict()))
        return atomic_write_bytes(
            path, lambda handle: np.savez_compressed(handle, **arrays)
        )

    @classmethod
    def restore(cls, path: Union[str, Path]) -> "CollectorSession":
        """Rebuild a session from a :meth:`checkpoint` file.

        A checkpointed clock is rebuilt with :meth:`RoundClock.from_state`
        (its window reopens now) and attached.  Any file that cannot be
        decoded — truncated, bit-flipped, not an archive, or state that does
        not fit its spec — raises :class:`~repro.exceptions.ParameterError`
        naming the path.
        """
        path = Path(path)
        if not path.exists():
            raise ParameterError(f"no session checkpoint found at {path}")
        if not zipfile.is_zipfile(path):
            # np.load would blame pickled data for any non-zip file.
            raise ParameterError(
                f"invalid session checkpoint {path}: not an .npz archive"
            )
        try:
            # np.load(path) leaves the file open when the archive is corrupt.
            with open(path, "rb") as handle, np.load(
                handle, allow_pickle=False
            ) as archive:
                if int(archive["format"]) != _CHECKPOINT_FORMAT:
                    raise ParameterError(
                        f"unsupported checkpoint format {int(archive['format'])} "
                        f"(expected {_CHECKPOINT_FORMAT})"
                    )
                spec = ProtocolSpec.from_json(str(archive["spec"][()]))
                n_rounds = int(archive["n_rounds"])
                counts = np.asarray(archive["counts"], dtype=np.float64)
                n_reports = np.asarray(archive["n_reports"], dtype=np.int64)
                clock_state = (
                    json.loads(str(archive["clock"][()]))
                    if "clock" in archive.files
                    else None
                )
            session = cls(spec, n_rounds=n_rounds)
            if counts.shape != session._counts.shape or n_reports.shape != (
                session.n_rounds,
            ):
                raise ParameterError(
                    f"state shape {counts.shape} does not match the spec's "
                    f"estimation domain {session._counts.shape}"
                )
            session._counts = counts
            session._n_reports = n_reports
            if clock_state is not None:
                session.attach_clock(RoundClock.from_state(clock_state))
        except Exception as error:  # zipfile/zlib/EOF/KeyError/ValueError: corrupt
            raise ParameterError(
                f"invalid session checkpoint {path}: "
                f"{type(error).__name__}: {error}"
            ) from None
        return session

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CollectorSession(protocol={self.protocol.name!r}, "
            f"n_rounds={self.n_rounds}, total_reports={self.total_reports})"
        )
