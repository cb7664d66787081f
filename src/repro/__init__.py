"""Reproduction of "Frequency Estimation of Evolving Data Under Local
Differential Privacy" (LOLOHA, EDBT 2023).

The package is organized in layers:

* :mod:`repro.hashing` — universal hash families (LOLOHA's local hashing).
* :mod:`repro.freq_oneshot` — one-shot LDP frequency oracles (GRR, SUE/OUE),
  the building blocks of Section 2.3.
* :mod:`repro.longitudinal` — memoization-based longitudinal protocols:
  L-GRR, RAPPOR (L-SUE), L-OSUE, L-OUE, L-SOUE, dBitFlipPM and the paper's
  contribution, LOLOHA (BiLOLOHA / OLOLOHA).
* :mod:`repro.analysis` — closed-form variances (Figure 2) and the
  theoretical protocol comparison of Table 1.
* :mod:`repro.attacks` — the data-change detection attack of Table 2.
* :mod:`repro.datasets` — the four evaluation workloads (Syn, Adult, DB_MT,
  DB_DE) as reproducible synthetic generators.
* :mod:`repro.simulation` — population simulation, longitudinal collection
  loop, metrics (MSE_avg, eps_avg) and parameter sweeps.
* :mod:`repro.specs` / :mod:`repro.registry` — the declarative construction
  API: frozen, serializable :class:`~repro.specs.ProtocolSpec` descriptions
  and the string-keyed registry that builds protocols from them.
* :mod:`repro.service` — the streaming :class:`~repro.service.CollectorSession`
  server façade (incremental out-of-order report batches, running per-round
  estimates, checkpoint/restore).
* :mod:`repro.experiments` — one harness per paper figure / table.
* :mod:`repro.store` — report and result storage helpers.

Quickstart
----------
>>> import numpy as np
>>> from repro import OLOLOHA
>>> protocol = OLOLOHA(k=100, eps_inf=2.0, eps_1=1.0)
>>> clients = [protocol.create_client(rng) for rng in range(1000)]
>>> values = np.random.default_rng(0).integers(0, 100, size=1000)
>>> reports = [c.report(int(v), rng=i) for i, (c, v) in enumerate(zip(clients, values))]
>>> estimate = protocol.estimate_frequencies(reports)
>>> float(np.round(estimate.sum(), 1))
1.0
"""

from .exceptions import (
    AggregationError,
    DatasetError,
    DomainError,
    EncodingError,
    ExperimentError,
    ParameterError,
    ReproError,
)
from .freq_oneshot import GRR, OUE, SUE, UnaryEncoding
from .longitudinal import (
    LGRR,
    LOLOHA,
    LOSUE,
    LOUE,
    LSOUE,
    LSUE,
    RAPPOR,
    BiLOLOHA,
    DBitFlipPM,
    LongitudinalProtocol,
    OLOLOHA,
    optimal_g,
    optimal_g_numeric,
)
from .specs import ProtocolSpec, SweepSpec, load_sweep_spec
from .registry import (
    build_protocol,
    register_protocol,
    registered_protocols,
)

__version__ = "1.0.0"


def __getattr__(name):
    # The service façade loads on first use, so that the batch simulation
    # stack imports nothing from repro.service.
    if name == "CollectorSession":
        from .service import CollectorSession

        return CollectorSession
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | {"CollectorSession"})


__all__ = [
    "__version__",
    # Exceptions
    "ReproError",
    "ParameterError",
    "DomainError",
    "EncodingError",
    "AggregationError",
    "DatasetError",
    "ExperimentError",
    # One-shot oracles
    "GRR",
    "SUE",
    "OUE",
    "UnaryEncoding",
    # Longitudinal protocols
    "LongitudinalProtocol",
    "LGRR",
    "LSUE",
    "RAPPOR",
    "LOSUE",
    "LOUE",
    "LSOUE",
    "DBitFlipPM",
    "LOLOHA",
    "BiLOLOHA",
    "OLOLOHA",
    "optimal_g",
    "optimal_g_numeric",
    # Declarative construction API + service façade
    "ProtocolSpec",
    "SweepSpec",
    "load_sweep_spec",
    "build_protocol",
    "register_protocol",
    "registered_protocols",
    "CollectorSession",
]
