"""Durable results backends.

:class:`ResultsBackend` is the durable-row-store interface the sweeps write
through.  :data:`BACKENDS` maps each kind to its class: ``csv``
(:class:`ResultsStore`, one append-only CSV per experiment, which also saves
the experiment harnesses' JSON documents and tables) and ``sqlite``
(:class:`SqliteBackend`, one WAL database, indexed queries).
:func:`migrate_store` lifts experiments between them byte-identically.
"""

# backends first: it imports the two backend modules once ResultsBackend
# is defined.
from .backends import (
    BACKENDS,
    FINGERPRINT_KEY,
    ResultsBackend,
    detect_backend_kind,
    fingerprint_from_comment,
    make_backend,
)
from .migrate import migrate_store
from .results_store import ResultsStore, safe_experiment_stem
from .sqlite_backend import SqliteBackend

__all__ = [
    "BACKENDS",
    "FINGERPRINT_KEY",
    "ResultsBackend",
    "ResultsStore",
    "SqliteBackend",
    "detect_backend_kind",
    "fingerprint_from_comment",
    "make_backend",
    "migrate_store",
    "safe_experiment_stem",
]
