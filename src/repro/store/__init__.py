"""Durable results storage.

:class:`ResultsStore` keeps one append-only CSV per experiment (the sweeps
flush completed grid points through it, and ``sweep --resume`` reads them
back) and also saves the experiment harnesses' JSON documents and tables.
Sweep CSVs carry the spec fingerprint in a ``# sweep_spec_fingerprint=<hex>``
header comment (:data:`FINGERPRINT_KEY`).
"""

from .results_store import (
    FINGERPRINT_KEY,
    ResultsStore,
    fingerprint_from_comment,
    safe_experiment_stem,
)

__all__ = [
    "FINGERPRINT_KEY",
    "ResultsStore",
    "fingerprint_from_comment",
    "safe_experiment_stem",
]
