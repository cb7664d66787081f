"""SQLite results backend: one WAL-mode database per results directory.

Layout (``<root>/results.sqlite``):

* ``experiments`` — one row per experiment id: the creating append's header
  comment, the spec fingerprint parsed out of it (indexed, so
  ``repro-ldp query --fingerprint`` touches no data rows of non-matching
  experiments), and the JSON-encoded column list.
* ``rows`` — the data rows, keyed ``(experiment_id, seq)`` so load order is
  append order.  ``protocol`` and ``eps_inf`` are denormalized into typed,
  indexed columns (every sweep row has them); the full row is stored as a
  JSON object of the canonical cell strings, which keeps the backend
  schema-free and migration to/from CSV byte-identical.

Crash safety / concurrency: the database runs ``journal_mode=WAL`` with
``synchronous=FULL``, and every :meth:`SqliteBackend.append_rows` call is a
single explicit ``BEGIN IMMEDIATE`` transaction — a writer killed mid-append
rolls back to the previously committed prefix (the SQL analogue of the CSV
torn-tail truncation, but batch-granular instead of line-granular).
Concurrent sweep writers on one database serialize on the WAL write lock
with a 30 s busy timeout; each process must open its own backend instance
(SQLite connections do not cross ``fork``/pickle boundaries, and the sweep
executor only ever flushes from the parent process).  A ``results.sqlite``
that is not a readable database (overwritten, truncated) raises
:class:`~repro.exceptions.ExperimentError` naming the file.
"""

from __future__ import annotations

import functools
import json
import sqlite3
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..exceptions import ExperimentError
from .backends import (
    ResultsBackend,
    fingerprint_from_comment,
    validate_header_comment,
    validate_rows,
)

__all__ = ["SqliteBackend", "DB_FILENAME"]

#: Database filename inside a results directory (also the marker
#: :func:`~repro.store.backends.detect_backend_kind` looks for).
DB_FILENAME = "results.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS experiments (
    experiment_id TEXT PRIMARY KEY,
    header_comment TEXT,
    fingerprint TEXT,
    columns TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_experiments_fingerprint
    ON experiments (fingerprint);
CREATE TABLE IF NOT EXISTS rows (
    experiment_id TEXT NOT NULL,
    seq INTEGER NOT NULL,
    protocol TEXT,
    eps_inf REAL,
    data TEXT NOT NULL,
    PRIMARY KEY (experiment_id, seq)
);
CREATE INDEX IF NOT EXISTS idx_rows_protocol_eps
    ON rows (protocol, eps_inf);
"""


def _eps_inf_of(row: Mapping[str, str]) -> Optional[float]:
    """The row's ``eps_inf`` as a float for the typed column, else NULL."""
    try:
        return float(row["eps_inf"])
    except (KeyError, ValueError):
        return None


def _typed_database_errors(method):
    """Re-raise SQLite's errors from a corrupt or unreadable database file as
    :class:`~repro.exceptions.ExperimentError` naming that file."""

    @functools.wraps(method)
    def wrapper(self: "SqliteBackend", *args, **kwargs):
        try:
            return method(self, *args, **kwargs)
        except sqlite3.DatabaseError as error:
            raise ExperimentError(
                f"cannot use results database {self.path}: {error}"
            ) from error

    return wrapper


class SqliteBackend(ResultsBackend):
    """All experiments of one results directory in a single WAL database."""

    kind = "sqlite"
    marker = DB_FILENAME

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.path = self.root / DB_FILENAME
        self._connection: Optional[sqlite3.Connection] = None

    def _connect(self) -> sqlite3.Connection:
        if self._connection is None:
            self.root.mkdir(parents=True, exist_ok=True)
            # isolation_level=None: no implicit transactions — append_rows
            # drives BEGIN IMMEDIATE / COMMIT itself so the all-or-nothing
            # boundary is exactly one append call.
            connection = sqlite3.connect(
                str(self.path), timeout=30.0, isolation_level=None
            )
            try:
                connection.execute("PRAGMA journal_mode=WAL")
                connection.execute("PRAGMA synchronous=FULL")
                connection.execute("PRAGMA busy_timeout=30000")
                connection.executescript(_SCHEMA)
            except sqlite3.Error:
                connection.close()
                raise
            self._connection = connection
        return self._connection

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    @_typed_database_errors
    def append_rows(
        self,
        experiment_id: str,
        rows: Sequence[Mapping[str, object]],
        header_comment: Optional[str] = None,
    ) -> None:
        if not isinstance(experiment_id, str) or not experiment_id:
            raise ExperimentError("experiment_id must be a non-empty string")
        if not rows:
            return
        fieldnames, stringified = validate_rows(rows)
        validate_header_comment(header_comment)
        connection = self._connect()
        connection.execute("BEGIN IMMEDIATE")
        try:
            existing = connection.execute(
                "SELECT columns FROM experiments WHERE experiment_id = ?",
                (experiment_id,),
            ).fetchone()
            if existing is None:
                connection.execute(
                    "INSERT INTO experiments "
                    "(experiment_id, header_comment, fingerprint, columns) "
                    "VALUES (?, ?, ?, ?)",
                    (
                        experiment_id,
                        header_comment,
                        fingerprint_from_comment(header_comment),
                        json.dumps(fieldnames),
                    ),
                )
            else:
                existing_fields = json.loads(existing[0])
                if existing_fields != fieldnames:
                    raise ExperimentError(
                        f"cannot append to {self.location(experiment_id)}: "
                        f"existing columns {existing_fields} do not match "
                        f"{fieldnames}"
                    )
            next_seq = connection.execute(
                "SELECT COALESCE(MAX(seq) + 1, 0) FROM rows "
                "WHERE experiment_id = ?",
                (experiment_id,),
            ).fetchone()[0]
            connection.executemany(
                "INSERT INTO rows (experiment_id, seq, protocol, eps_inf, data) "
                "VALUES (?, ?, ?, ?, ?)",
                [
                    (
                        experiment_id,
                        next_seq + offset,
                        row.get("protocol"),
                        _eps_inf_of(row),
                        json.dumps(row),
                    )
                    for offset, row in enumerate(stringified)
                ],
            )
            connection.execute("COMMIT")
        except BaseException:
            # repro: allow[EXC-BROAD] transactional append must roll back on
            # every exit path (including KeyboardInterrupt) and re-raise; a
            # narrower clause would leave the write lock held.
            connection.execute("ROLLBACK")
            raise

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    @_typed_database_errors
    def load_rows(self, experiment_id: str) -> List[Dict[str, str]]:
        connection = self._connect()
        if not self.has_rows(experiment_id):
            raise ExperimentError(
                f"no saved results found at {self.location(experiment_id)}"
            )
        cursor = connection.execute(
            "SELECT data FROM rows WHERE experiment_id = ? ORDER BY seq",
            (experiment_id,),
        )
        return [json.loads(data) for (data,) in cursor]

    @_typed_database_errors
    def read_header_comment(self, experiment_id: str) -> Optional[str]:
        row = self._connect().execute(
            "SELECT header_comment FROM experiments WHERE experiment_id = ?",
            (experiment_id,),
        ).fetchone()
        return None if row is None else row[0]

    @_typed_database_errors
    def has_rows(self, experiment_id: str) -> bool:
        row = self._connect().execute(
            "SELECT 1 FROM experiments WHERE experiment_id = ? LIMIT 1",
            (experiment_id,),
        ).fetchone()
        return row is not None

    @_typed_database_errors
    def list_experiments(self) -> List[str]:
        cursor = self._connect().execute(
            "SELECT experiment_id FROM experiments ORDER BY experiment_id"
        )
        return [experiment_id for (experiment_id,) in cursor]

    def location(self, experiment_id: str) -> str:
        return f"{self.path}#{experiment_id}"

    # ------------------------------------------------------------------ #
    # Querying
    # ------------------------------------------------------------------ #
    @_typed_database_errors
    def query(
        self,
        experiment_id: Optional[str] = None,
        fingerprint: Optional[str] = None,
        protocol: Optional[str] = None,
        eps_min: Optional[float] = None,
        eps_max: Optional[float] = None,
    ) -> List[Dict[str, str]]:
        """SQL-level filtering: the fingerprint/protocol/ε predicates run on
        the indexed columns, so only matching rows are ever deserialized —
        no full-table load.  Result shape matches the base-class scan."""
        clauses = ["1 = 1"]
        params: List[object] = []
        if experiment_id is not None:
            clauses.append("rows.experiment_id = ?")
            params.append(experiment_id)
        if fingerprint is not None:
            clauses.append("experiments.fingerprint = ?")
            params.append(fingerprint)
        if protocol is not None:
            clauses.append("rows.protocol = ?")
            params.append(protocol)
        if eps_min is not None:
            clauses.append("rows.eps_inf >= ?")
            params.append(eps_min)
        if eps_max is not None:
            clauses.append("rows.eps_inf <= ?")
            params.append(eps_max)
        cursor = self._connect().execute(
            "SELECT rows.experiment_id, rows.data FROM rows "
            "JOIN experiments ON experiments.experiment_id = rows.experiment_id "
            f"WHERE {' AND '.join(clauses)} "
            "ORDER BY rows.experiment_id, rows.seq",
            params,
        )
        return [
            {"experiment_id": identifier, **json.loads(data)}
            for identifier, data in cursor
        ]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

