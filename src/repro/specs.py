"""Declarative, serializable protocol and sweep specifications.

The construction API of the library is *data first*: a
:class:`ProtocolSpec` is a frozen, validated description of one protocol
configuration (registry name, domain size, budgets and protocol-specific
parameters) that can be pickled, JSON round-tripped and shipped across
processes.  :func:`repro.registry.build_protocol` turns a concrete
spec into a live :class:`~repro.longitudinal.base.LongitudinalProtocol`.

Specs replace the old protocol factory closures (``lambda k, eps_inf,
eps_1: ...``), which could not be serialized and therefore blocked
distributing sweeps and sharded simulations.  A spec may be *partial* — grid
fields (``k``, ``eps_inf``, ``alpha``) left as ``None`` act as a template
that a sweep fills in per grid point via :meth:`ProtocolSpec.at`.

:class:`SweepSpec` describes a whole ``(protocol, dataset, eps_inf, alpha)``
grid — the unit of work of the ``repro-ldp sweep`` CLI command — and is the
on-disk format of ``--spec grid.json`` files::

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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

from ._atomicio import atomic_write_text
from ._validation import require_distinct, require_int_at_least, require_positive
from .exceptions import ParameterError

__all__ = [
    "STREAM_CONTRACT",
    "IngestSpec",
    "ProtocolSpec",
    "SweepSpec",
    "load_ingest_spec",
    "load_sweep_spec",
]

#: Version of the simulation random streams: bumped by every change that makes
#: a seeded simulation draw different numbers, and folded into
#: :meth:`SweepSpec.fingerprint` so ``sweep --resume`` never appends rows of
#: one stream to a CSV written on another.  Contract 2: the UE engine draws
#: once-visited (user, value) pairs in aggregate instead of memoizing them.
#: Contract 3: fresh memo rows are raw 32-bit words compared with integer
#: thresholds (``ue_fresh_rows_kernel``), and bBitFlipPM (``d == b``) draws
#: its rows in bucket order instead of scattering sample-order bits.
STREAM_CONTRACT = 3

#: JSON-scalar types allowed as protocol-specific parameter values.
_SCALAR_TYPES = (bool, int, float, str, type(None))


def _require_json_scalar_params(params: Mapping) -> Dict[str, object]:
    normalized: Dict[str, object] = {}
    for key, value in params.items():
        if not isinstance(key, str):
            raise ParameterError(f"param keys must be strings, got {key!r}")
        if not isinstance(value, _SCALAR_TYPES):
            raise ParameterError(
                f"param {key!r} must be a JSON scalar (bool/int/float/str/None), "
                f"got {type(value).__name__}"
            )
        normalized[key] = value
    return normalized


@dataclass(frozen=True)
class ProtocolSpec:
    """Frozen, validated description of one protocol configuration.

    Attributes
    ----------
    name:
        Registry key of the protocol builder (see
        :func:`repro.registry.registered_protocols`), e.g. ``"L-GRR"``,
        ``"OLOLOHA"`` or ``"dBitFlipPM"``.
    k:
        Original domain size (``None`` in grid templates: filled in from the
        dataset).
    eps_inf:
        Longitudinal privacy budget (``None`` in grid templates).
    alpha:
        Ratio ``eps_1 / eps_inf`` in ``(0, 1)``.  Mutually exclusive with
        ``eps_1``.
    eps_1:
        Explicit first-report budget.  Mutually exclusive with ``alpha``.
    label:
        Display name used in sweep results and figures; defaults to ``name``.
        Lets two configurations of the same protocol coexist in one grid
        (``1BitFlipPM`` / ``bBitFlipPM`` are both ``dBitFlipPM`` specs).
    params:
        Protocol-specific parameters as JSON scalars (e.g. ``b``/``d`` for
        dBitFlipPM, ``g``/``hash_family`` for LOLOHA).  Validated by the
        registry builder on :func:`~repro.registry.build_protocol`.
    """

    name: str
    k: Optional[int] = None
    eps_inf: Optional[float] = None
    alpha: Optional[float] = None
    eps_1: Optional[float] = None
    label: Optional[str] = None
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ParameterError("spec name must be a non-empty string")
        if self.k is not None:
            require_int_at_least(self.k, 2, "k")
            object.__setattr__(self, "k", int(self.k))
        if self.eps_inf is not None:
            require_positive(self.eps_inf, "eps_inf")
            object.__setattr__(self, "eps_inf", float(self.eps_inf))
        if self.alpha is not None and self.eps_1 is not None:
            raise ParameterError(
                "alpha and eps_1 are mutually exclusive; give one of them"
            )
        if self.alpha is not None:
            if not 0.0 < float(self.alpha) < 1.0:
                raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
            object.__setattr__(self, "alpha", float(self.alpha))
        if self.eps_1 is not None:
            require_positive(self.eps_1, "eps_1")
            if self.eps_inf is not None and float(self.eps_1) > self.eps_inf:
                raise ParameterError(
                    f"eps_1 must not exceed eps_inf, got eps_1={self.eps_1}, "
                    f"eps_inf={self.eps_inf}"
                )
            object.__setattr__(self, "eps_1", float(self.eps_1))
        if self.label is not None and (not isinstance(self.label, str) or not self.label):
            raise ParameterError("label must be a non-empty string or None")
        object.__setattr__(self, "params", _require_json_scalar_params(self.params))

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    @property
    def display_name(self) -> str:
        """Name used in sweep results and legends (``label`` or ``name``)."""
        return self.label if self.label is not None else self.name

    @property
    def is_concrete(self) -> bool:
        """Whether ``k`` and ``eps_inf`` are resolved (buildable)."""
        return self.k is not None and self.eps_inf is not None

    @property
    def resolved_eps_1(self) -> Optional[float]:
        """``eps_1`` — explicit, or derived as ``alpha * eps_inf``."""
        if self.eps_1 is not None:
            return self.eps_1
        if self.alpha is not None and self.eps_inf is not None:
            return self.alpha * self.eps_inf
        return None

    def at(
        self,
        k: Optional[int] = None,
        eps_inf: Optional[float] = None,
        alpha: Optional[float] = None,
        eps_1: Optional[float] = None,
    ) -> "ProtocolSpec":
        """Return a copy with the given grid fields overridden.

        Overriding ``alpha`` clears an existing ``eps_1`` (and vice versa),
        so a template can be re-pointed across a grid without accumulating
        conflicting budget fields.
        """
        if alpha is not None and eps_1 is not None:
            raise ParameterError("give one of alpha / eps_1, not both")
        updates: Dict[str, object] = {}
        if k is not None:
            updates["k"] = k
        if eps_inf is not None:
            updates["eps_inf"] = eps_inf
        if alpha is not None:
            updates.update(alpha=alpha, eps_1=None)
        if eps_1 is not None:
            updates.update(eps_1=eps_1, alpha=None)
        return replace(self, **updates) if updates else self

    def __hash__(self) -> int:
        return hash(
            (
                self.name,
                self.k,
                self.eps_inf,
                self.alpha,
                self.eps_1,
                self.label,
                tuple(sorted(self.params.items())),
            )
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form: ``name`` plus every non-default field."""
        payload: Dict[str, object] = {"name": self.name}
        for attr in ("k", "eps_inf", "alpha", "eps_1", "label"):
            value = getattr(self, attr)
            if value is not None:
                payload[attr] = value
        if self.params:
            payload["params"] = dict(self.params)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ProtocolSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        if not isinstance(payload, Mapping):
            raise ParameterError(
                f"a protocol spec must be a mapping, got {type(payload).__name__}"
            )
        known = {"name", "k", "eps_inf", "alpha", "eps_1", "label", "params"}
        unknown = set(payload) - known
        if unknown:
            raise ParameterError(
                f"unknown protocol spec fields: {sorted(unknown)}; known: {sorted(known)}"
            )
        if "name" not in payload:
            raise ParameterError("a protocol spec requires a 'name' field")
        return cls(
            name=payload["name"],
            k=payload.get("k"),
            eps_inf=payload.get("eps_inf"),
            alpha=payload.get("alpha"),
            eps_1=payload.get("eps_1"),
            label=payload.get("label"),
            params=dict(payload.get("params", {})),
        )

    def to_json(self) -> str:
        """Compact JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProtocolSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a full ``(protocol, dataset, eps_inf,
    alpha)`` sweep grid — the payload of a ``--spec grid.json`` file.

    Attributes
    ----------
    protocols:
        Protocol templates in grid order.  Display names
        (:attr:`ProtocolSpec.display_name`) must be unique.
    eps_inf_values, alpha_values:
        The privacy grid; ``eps_1 = alpha * eps_inf``.  No value may repeat.
    datasets:
        Dataset registry names to sweep (one CSV per dataset), each once.
    n_runs:
        Independent repetitions per grid point.
    dataset_scale:
        Fraction of the paper-sized population / horizon to simulate.
    seed:
        Root seed; see :func:`repro.simulation.run_sweep` for the
        derived-stream guarantees.
    n_workers:
        Worker processes (results are bit-identical for every value).
    name:
        Experiment-id prefix of the output CSVs (``<name>_<dataset>.csv``).

    :func:`repro.simulation.run_sweep_spec` runs it, in memory or into one
    :class:`repro.store.ResultsStore` CSV per dataset.  It is the one
    description of a grid; :func:`repro.experiments.paper_sweep_spec` is the
    paper's.
    """

    protocols: Tuple[ProtocolSpec, ...]
    eps_inf_values: Tuple[float, ...]
    alpha_values: Tuple[float, ...]
    datasets: Tuple[str, ...] = ("syn",)
    n_runs: int = 1
    dataset_scale: float = 1.0
    seed: int = 20230328
    n_workers: int = 1
    name: str = "sweep"

    def __post_init__(self) -> None:
        protocols = tuple(self.protocols)
        if not protocols:
            raise ParameterError("a sweep spec requires at least one protocol")
        for spec in protocols:
            if not isinstance(spec, ProtocolSpec):
                raise ParameterError(
                    f"protocols must be ProtocolSpec instances, got {type(spec).__name__}"
                )
        labels = [spec.display_name for spec in protocols]
        if len(set(labels)) != len(labels):
            raise ParameterError(
                f"protocol display names must be unique, got {labels}; "
                f"disambiguate with 'label'"
            )
        object.__setattr__(self, "protocols", protocols)
        eps_values = tuple(float(e) for e in self.eps_inf_values)
        alpha_values = tuple(float(a) for a in self.alpha_values)
        if not eps_values or not alpha_values:
            raise ParameterError("the privacy grid must be non-empty")
        for eps in eps_values:
            require_positive(eps, "eps_inf")
        require_distinct(eps_values, "eps_inf_values")
        require_distinct(alpha_values, "alpha_values")
        for alpha in alpha_values:
            if not 0.0 < alpha < 1.0:
                raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
        object.__setattr__(self, "eps_inf_values", eps_values)
        object.__setattr__(self, "alpha_values", alpha_values)
        datasets = tuple(str(d) for d in self.datasets)
        if not datasets:
            raise ParameterError("a sweep spec requires at least one dataset")
        require_distinct(datasets, "datasets")
        object.__setattr__(self, "datasets", datasets)
        require_int_at_least(self.n_runs, 1, "n_runs")
        require_positive(self.dataset_scale, "dataset_scale")
        require_int_at_least(self.n_workers, 1, "n_workers")
        if not isinstance(self.name, str) or not self.name:
            raise ParameterError("sweep name must be a non-empty string")

    def grid_protocols(self) -> Dict[str, ProtocolSpec]:
        """Protocol templates keyed by display name, in grid order."""
        return {spec.display_name: spec for spec in self.protocols}

    def experiment_id(self, dataset: str) -> str:
        """Store id of one dataset's results CSV."""
        return f"{self.name}_{dataset}"

    @property
    def n_grid_points(self) -> int:
        """Grid points per dataset."""
        return len(self.protocols) * len(self.eps_inf_values) * len(self.alpha_values)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "protocols": [spec.to_dict() for spec in self.protocols],
            "eps_inf_values": list(self.eps_inf_values),
            "alpha_values": list(self.alpha_values),
            "datasets": list(self.datasets),
            "n_runs": self.n_runs,
            "dataset_scale": self.dataset_scale,
            "seed": self.seed,
            "n_workers": self.n_workers,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepSpec":
        if not isinstance(payload, Mapping):
            raise ParameterError(
                f"a sweep spec must be a mapping, got {type(payload).__name__}"
            )
        known = {
            "name", "protocols", "eps_inf_values", "alpha_values", "datasets",
            "n_runs", "dataset_scale", "seed", "n_workers",
        }
        unknown = set(payload) - known
        if unknown:
            raise ParameterError(
                f"unknown sweep spec fields: {sorted(unknown)}; known: {sorted(known)}"
            )
        for required in ("protocols", "eps_inf_values", "alpha_values"):
            if required not in payload:
                raise ParameterError(f"a sweep spec requires a {required!r} field")
        kwargs: Dict[str, object] = {
            "protocols": tuple(
                ProtocolSpec.from_dict(entry) for entry in payload["protocols"]
            ),
            "eps_inf_values": tuple(payload["eps_inf_values"]),
            "alpha_values": tuple(payload["alpha_values"]),
        }
        for optional in (
            "datasets", "n_runs", "dataset_scale", "seed", "n_workers", "name",
        ):
            if optional in payload:
                value = payload[optional]
                kwargs[optional] = tuple(value) if optional == "datasets" else value
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec as a JSON file and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, self.to_json() + "\n")
        return path

    def fingerprint(self) -> str:
        """Stable hash of the result-determining fields of this grid.

        The fingerprint is embedded in sweep CSV headers so ``--resume``
        can refuse to mix rows produced by a different spec.  Fields that
        never change a dataset's rows are excluded: ``n_workers`` (sweeps
        are bit-identical for any worker count), ``datasets`` (each
        dataset's CSV depends only on its own grid — adding a dataset to
        the spec must not invalidate the finished ones) and ``name`` (it is
        already the CSV filename).  The :data:`STREAM_CONTRACT` is
        included: the same grid on another stream gives other rows.
        """
        payload = self.to_dict()
        for non_determining in ("n_workers", "datasets", "name"):
            payload.pop(non_determining, None)
        payload["stream_contract"] = STREAM_CONTRACT
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def load_sweep_spec(path: Union[str, Path]) -> SweepSpec:
    """Load a :class:`SweepSpec` from a JSON file."""
    path = Path(path)
    if not path.exists():
        raise ParameterError(f"sweep spec file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ParameterError(f"invalid JSON in sweep spec {path}: {error}") from None
    return SweepSpec.from_dict(payload)


@dataclass(frozen=True)
class IngestSpec:
    """Declarative description of one live ingestion service — the payload
    of ``repro-ldp ingest --spec ingest.json`` files.

    There is no dataset: the population is *whatever reports over the
    wire*, so the protocol template must be fully concrete (``k`` included
    — nothing fills it in).

    Attributes
    ----------
    protocol:
        Concrete protocol configuration served by this collector.
    n_rounds:
        Length of the collection horizon.
    name:
        Service id used in logs and metric output.
    host, port:
        Bind address of the HTTP front door (``port 0`` = ephemeral).
    quorum:
        Seal the open round window once it has received this many reports
        (``None``: windows seal only on ``POST /v1/rounds/advance``; see
        :class:`repro.service.clock.RoundClock`).  Reports for a sealed
        round are dropped and counted.
    checkpoint_interval_seconds:
        Seconds between periodic session/clock checkpoints, each written
        only if the state changed (only active when the service is given a
        checkpoint path).
    auth_key_env:
        Name of the environment variable holding the shared HMAC secret
        (see :mod:`repro.service.auth`); submissions must then be
        signed envelopes and unauthenticated bodies are rejected with
        ``401``.  ``None`` runs unauthenticated.
    """

    protocol: ProtocolSpec
    n_rounds: int
    name: str = "ingest"
    host: str = "127.0.0.1"
    port: int = 0
    quorum: Optional[int] = None
    checkpoint_interval_seconds: float = 30.0
    auth_key_env: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.protocol, ProtocolSpec):
            raise ParameterError(
                f"protocol must be a ProtocolSpec, got {type(self.protocol).__name__}"
            )
        if not self.protocol.is_concrete:
            raise ParameterError(
                "an ingest spec's protocol must be fully concrete (k and "
                "eps_inf set): there is no dataset to fill the template in"
            )
        require_int_at_least(self.n_rounds, 1, "n_rounds")
        if not isinstance(self.name, str) or not self.name:
            raise ParameterError("ingest name must be a non-empty string")
        if not isinstance(self.host, str) or not self.host:
            raise ParameterError("host must be a non-empty string")
        port = require_int_at_least(self.port, 0, "port")
        if port > 65535:
            raise ParameterError(f"port must be <= 65535, got {port}")
        if self.quorum is not None:
            object.__setattr__(
                self, "quorum", require_int_at_least(self.quorum, 1, "quorum")
            )
        require_positive(
            self.checkpoint_interval_seconds, "checkpoint_interval_seconds"
        )
        if self.auth_key_env is not None and (
            not isinstance(self.auth_key_env, str) or not self.auth_key_env
        ):
            raise ParameterError(
                "auth_key_env must be a non-empty environment variable name "
                "or None"
            )

    _OPTIONAL_FIELDS = (
        "name", "host", "port", "quorum", "checkpoint_interval_seconds",
        "auth_key_env",
    )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "protocol": self.protocol.to_dict(),
            "n_rounds": self.n_rounds,
        }
        for attr in self._OPTIONAL_FIELDS:
            value = getattr(self, attr)
            if value is not None:
                payload[attr] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "IngestSpec":
        if not isinstance(payload, Mapping):
            raise ParameterError(
                f"an ingest spec must be a mapping, got {type(payload).__name__}"
            )
        known = {"protocol", "n_rounds", *cls._OPTIONAL_FIELDS}
        unknown = set(payload) - known
        if unknown:
            raise ParameterError(
                f"unknown ingest spec fields: {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        for required in ("protocol", "n_rounds"):
            if required not in payload:
                raise ParameterError(f"an ingest spec requires a {required!r} field")
        kwargs: Dict[str, object] = {
            "protocol": ProtocolSpec.from_dict(payload["protocol"]),
            "n_rounds": payload["n_rounds"],
        }
        for optional in cls._OPTIONAL_FIELDS:
            if optional in payload:
                kwargs[optional] = payload[optional]
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "IngestSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec as a JSON file and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, self.to_json() + "\n")
        return path


def load_ingest_spec(path: Union[str, Path]) -> IngestSpec:
    """Load an :class:`IngestSpec` from a JSON file."""
    path = Path(path)
    if not path.exists():
        raise ParameterError(f"ingest spec file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ParameterError(
            f"invalid JSON in ingest spec {path}: {error}"
        ) from None
    return IngestSpec.from_dict(payload)
