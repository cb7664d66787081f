"""Seeded load generator for the live ingestion service.

``repro-ldp loadgen`` drives an :class:`~repro.service.ingest.IngestServer`
the way a fleet of clients would: a seeded population of longitudinal
protocol clients evolves its values over the horizon, reports are batched
and POSTed to ``/v1/reports`` with Poisson-ish staggered arrivals, and
submissions are HMAC-signed when the server requires it.

Everything is deterministic given ``seed``: the report material comes from
:func:`generate_round_reports`, which derives one
:class:`numpy.random.SeedSequence` child per user (plus one for the value
evolution), so the *same seed* produces the *same reports* whether they are
fed to the HTTP service or straight into a batch
:class:`~repro.service.session.CollectorSession` — the bit-identity bar the
end-to-end tests hold the service to.  Arrival jitter uses its own derived
stream, so pacing never perturbs the privacy randomness.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..exceptions import ParameterError
from ..longitudinal.base import LongitudinalProtocol
from ..registry import build_protocol
from ..specs import ProtocolSpec
from .._validation import require_int_at_least
from .auth import PayloadAuthenticator, authenticator_from_env
from .http import HttpClient
from .ingest import encode_reports, wire_reports_supported

__all__ = ["LoadgenResult", "generate_round_reports", "run_loadgen"]

SUBMIT_MODES = ("reports", "counts")


def _as_protocol(
    protocol: Union[ProtocolSpec, LongitudinalProtocol]
) -> LongitudinalProtocol:
    if isinstance(protocol, ProtocolSpec):
        return build_protocol(protocol)
    return protocol


def generate_round_reports(
    protocol: Union[ProtocolSpec, LongitudinalProtocol],
    n_rounds: int,
    n_users: int,
    seed: int,
) -> List[List]:
    """Deterministic per-round report batches for a seeded population.

    One client is created per user from its own spawned
    :class:`~numpy.random.SeedSequence` child; user values follow a lazy
    random walk over the domain (stay with probability 0.8, else resample
    uniformly), the same longitudinal workload shape the batch simulations
    use.  Returns ``reports[t][u]`` — round-major, user-minor.
    """
    protocol = _as_protocol(protocol)
    n_rounds = require_int_at_least(n_rounds, 1, "n_rounds")
    n_users = require_int_at_least(n_users, 1, "n_users")
    root = np.random.SeedSequence(int(seed))
    children = root.spawn(n_users + 1)
    values_rng = np.random.default_rng(children[0])
    client_rngs = [np.random.default_rng(child) for child in children[1:]]
    clients = [
        protocol.create_client(rng=rng) for rng in client_rngs
    ]
    k = protocol.k
    values = values_rng.integers(0, k, size=n_users)
    rounds: List[List] = []
    for _ in range(n_rounds):
        batch = [
            client.report(int(value), rng=rng)
            for client, rng, value in zip(clients, client_rngs, values)
        ]
        rounds.append(batch)
        resample = values_rng.random(n_users) >= 0.8
        values = np.where(
            resample, values_rng.integers(0, k, size=n_users), values
        )
    return rounds


@dataclass
class LoadgenResult:
    """Outcome of one load-generation run."""

    n_users: int
    n_rounds: int
    submitted_reports: int = 0
    accepted_reports: int = 0
    rejected_batches: int = 0
    statuses: Dict[int, int] = field(default_factory=dict)

    def record(self, status: int) -> None:
        self.statuses[status] = self.statuses.get(status, 0) + 1


async def run_loadgen(
    protocol: Union[ProtocolSpec, LongitudinalProtocol],
    host: str,
    port: int,
    *,
    n_rounds: int,
    n_users: int,
    seed: int,
    batch_size: int = 32,
    rate: Optional[float] = None,
    mode: str = "reports",
    auth_key_env: Optional[str] = None,
    authenticator: Optional[PayloadAuthenticator] = None,
    rounds: Optional[Sequence[int]] = None,
) -> LoadgenResult:
    """Generate seeded traffic against a live ingestion endpoint.

    Parameters
    ----------
    protocol, n_rounds, n_users, seed:
        Passed to :func:`generate_round_reports`; the report material is
        bit-identical to what a local session would be fed with this seed.
    batch_size:
        Users per ``POST /v1/reports`` submission.
    rate:
        Mean batch submissions per second; inter-arrival gaps are
        exponential (Poisson process) drawn from a stream derived from
        ``seed``.  ``None`` submits as fast as the server accepts.
    mode:
        ``"reports"`` posts wire-encoded reports (protocols whose reports
        serialize); ``"counts"`` pre-folds each batch to support counts
        locally — the mode LOLOHA producers must use.
    auth_key_env / authenticator:
        Sign submissions with the key from this environment variable, or
        with an explicit :class:`PayloadAuthenticator` (tests use this to
        present a *wrong* key).  ``authenticator`` wins when both are given.
    rounds:
        Optional subset of round indices to submit (default: the whole
        horizon, in order).  Used by the checkpoint/restart tests to split
        a horizon across two server generations.
    """
    if mode not in SUBMIT_MODES:
        raise ParameterError(f"mode must be one of {SUBMIT_MODES}, got {mode!r}")
    batch_size = require_int_at_least(batch_size, 1, "batch_size")
    if rate is not None and not rate > 0:
        raise ParameterError(f"rate must be > 0 batches/s, got {rate}")
    live_protocol = _as_protocol(protocol)
    if mode == "reports" and not wire_reports_supported(live_protocol):
        raise ParameterError(
            f"protocol {live_protocol.name!r} reports are not "
            f"wire-serializable; use mode='counts'"
        )
    if authenticator is None:
        authenticator = authenticator_from_env(auth_key_env)

    report_rounds = generate_round_reports(live_protocol, n_rounds, n_users, seed)
    # Pacing gets its own entropy lane so arrival jitter can never collide
    # with (or perturb) the privacy randomness derived from the bare seed.
    pacing = np.random.default_rng(np.random.SeedSequence([int(seed), 0x9E3779B9]))
    if rounds is None:
        rounds = range(n_rounds)

    result = LoadgenResult(n_users=n_users, n_rounds=n_rounds)
    client = HttpClient(host, port)
    try:
        for round_index in rounds:
            batch_reports = report_rounds[round_index]
            for start in range(0, len(batch_reports), batch_size):
                batch = batch_reports[start : start + batch_size]
                if rate is not None:
                    await asyncio.sleep(float(pacing.exponential(1.0 / rate)))
                await _submit_batch(
                    client,
                    live_protocol,
                    round_index,
                    batch,
                    mode,
                    authenticator,
                    result,
                )
    finally:
        await client.close()
    return result


async def _submit_batch(
    client: HttpClient,
    protocol: LongitudinalProtocol,
    round_index: int,
    batch: List,
    mode: str,
    authenticator: Optional[PayloadAuthenticator],
    result: LoadgenResult,
) -> None:
    if mode == "reports":
        payload = {"round": round_index, "reports": encode_reports(protocol, batch)}
    else:
        counts = protocol.support_counts(batch)
        payload = {
            "round": round_index,
            "counts": np.asarray(counts, dtype=np.float64).tolist(),
            "n_reports": len(batch),
        }
    body = json.dumps(payload).encode("utf-8")
    if authenticator is not None:
        body = authenticator.sign(body)

    result.submitted_reports += len(batch)
    response = await client.request("POST", "/v1/reports", body=body)
    result.record(response.status)
    if response.status == 202:
        result.accepted_reports += len(batch)
    else:
        result.rejected_batches += 1
