"""Results backends: one durable-store contract, two formats.

The sweep / distributed layers persist results as *flat rows* — ordered
string-valued records grouped by ``experiment_id``, optionally tagged with a
single-line header comment (the sweep layer stores the spec fingerprint
there).  This module defines the small backend interface those layers write
through, and :data:`BACKENDS`, the one table of backend kinds that the CLI
``--store {csv,sqlite}`` flag, the sweep spec's ``store`` field and
:func:`detect_backend_kind` all read: ``csv`` is the append-only
:class:`~repro.store.results_store.ResultsStore` (interchange), ``sqlite``
the WAL :class:`~repro.store.sqlite_backend.SqliteBackend` (indexed query).

Contract (every backend, verified by the conformance suite in
``tests/test_store_backends.py``):

* **Append-only rows.**  :meth:`ResultsBackend.append_rows` adds whole rows
  to one experiment; all rows of an experiment share one column set
  (mismatches raise :class:`~repro.exceptions.ExperimentError`), and cell
  values must not contain newlines (CSV wire compatibility — migration
  between backends is bit-identical both ways).
* **String round trip.**  :meth:`ResultsBackend.load_rows` returns rows in
  append order with every cell stringified exactly as the CSV backend would
  (``str(value)``, ``None`` → ``""``), so a resumed sweep computes identical
  grid keys regardless of backend.
* **Crash safety.**  A writer killed at any instant leaves a loadable
  prefix: every previously *completed* ``append_rows`` call survives, and no
  torn or half-written row is ever observable.  Each backend realizes this
  with its own native mechanism (``O_APPEND`` + torn-tail truncation for
  CSV, WAL transactions for SQLite).
* **Header comment.**  The comment given with the *creating* append is
  durable and returned verbatim by :meth:`ResultsBackend.read_header_comment`;
  later comments are ignored.  The sweep fingerprint convention
  (``sweep_spec_fingerprint=<hex>``) is understood by every backend and
  indexed where the format allows.
* **Close.**  :meth:`ResultsBackend.close` releases OS resources (database
  connections, mmaps); backends are context managers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Type

from ..exceptions import ExperimentError

__all__ = [
    "BACKENDS",
    "FINGERPRINT_KEY",
    "ResultsBackend",
    "detect_backend_kind",
    "fingerprint_from_comment",
    "make_backend",
    "stringify_cell",
    "validate_rows",
]

#: Key of the spec-fingerprint header-comment convention
#: (``# sweep_spec_fingerprint=<hex>`` in CSVs; a dedicated indexed column
#: in SQLite).
FINGERPRINT_KEY = "sweep_spec_fingerprint"


def fingerprint_from_comment(comment: Optional[str]) -> Optional[str]:
    """The spec fingerprint carried by a header comment, or ``None``."""
    if comment is not None and comment.startswith(f"{FINGERPRINT_KEY}="):
        return comment.split("=", 1)[1]
    return None


def stringify_cell(value: object) -> str:
    """One cell as the CSV writer would serialize it (``None`` → ``""``).

    Every backend stores this canonical string form, so rows migrate
    between backends byte-for-byte and ``load_rows`` agrees with the CSV
    reader for any input value type.
    """
    return "" if value is None else str(value)


def validate_rows(
    rows: Sequence[Mapping[str, object]],
) -> Tuple[List[str], List[Dict[str, str]]]:
    """Shared append-side validation: column consistency + newline ban.

    Returns ``(fieldnames, stringified_rows)``.  Mirrors the checks the CSV
    store applies (same error messages), so the conformance contract is
    identical across backends.
    """
    fieldnames = list(rows[0].keys())
    stringified: List[Dict[str, str]] = []
    for row in rows:
        if list(row.keys()) != fieldnames:
            raise ExperimentError("all rows must share the same columns")
        for value in row.values():
            if isinstance(value, str) and ("\n" in value or "\r" in value):
                raise ExperimentError(
                    "appended cell values must not contain newlines"
                )
        stringified.append({key: stringify_cell(row[key]) for key in fieldnames})
    return fieldnames, stringified


def validate_header_comment(header_comment: Optional[str]) -> Optional[str]:
    """Reject multi-line header comments, as the CSV format requires."""
    if header_comment is not None and (
        "\n" in header_comment or "\r" in header_comment
    ):
        raise ExperimentError("header comment must be a single line")
    return header_comment


class ResultsBackend(ABC):
    """Abstract durable row store; see the module docstring for the contract.

    Subclasses set :attr:`kind` (their key in :data:`BACKENDS`, the
    ``--store`` flag value) and :attr:`marker`.
    """

    #: Key of this backend in :data:`BACKENDS` (``"csv"`` or ``"sqlite"``).
    kind: str = ""

    #: Glob pattern of what this backend leaves in its root directory, the
    #: sign :func:`detect_backend_kind` looks for.
    marker: str = ""

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    @abstractmethod
    def append_rows(
        self,
        experiment_id: str,
        rows: Sequence[Mapping[str, object]],
        header_comment: Optional[str] = None,
    ) -> None:
        """Durably append ``rows`` to ``experiment_id`` (whole-batch or not
        at all under a mid-write kill; an empty batch is a no-op)."""

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    @abstractmethod
    def load_rows(self, experiment_id: str) -> List[Dict[str, str]]:
        """All rows of one experiment, in append order, cells stringified.

        Raises :class:`~repro.exceptions.ExperimentError` when the
        experiment does not exist.
        """

    @abstractmethod
    def read_header_comment(self, experiment_id: str) -> Optional[str]:
        """The creating append's header comment; ``None`` when absent (or
        when the experiment does not exist)."""

    @abstractmethod
    def has_rows(self, experiment_id: str) -> bool:
        """Whether the experiment holds at least one durably appended row."""

    @abstractmethod
    def list_experiments(self) -> List[str]:
        """Identifiers of every experiment with rows, sorted."""

    @abstractmethod
    def location(self, experiment_id: str) -> str:
        """Human-readable description of where the rows live (log lines)."""

    # ------------------------------------------------------------------ #
    # Querying
    # ------------------------------------------------------------------ #
    def fingerprint(self, experiment_id: str) -> Optional[str]:
        """The spec fingerprint of one experiment, when recorded."""
        return fingerprint_from_comment(self.read_header_comment(experiment_id))

    def query(
        self,
        experiment_id: Optional[str] = None,
        fingerprint: Optional[str] = None,
        protocol: Optional[str] = None,
        eps_min: Optional[float] = None,
        eps_max: Optional[float] = None,
    ) -> List[Dict[str, str]]:
        """Rows matching every given filter, tagged with their experiment.

        Filters: exact ``experiment_id``; exact spec ``fingerprint`` (whole
        experiments are skipped without reading their rows when theirs does
        not match); exact ``protocol`` column; inclusive ``eps_min`` /
        ``eps_max`` range over the ``eps_inf`` column (rows without a
        numeric ``eps_inf`` never match a range filter).  Returned rows gain
        an ``experiment_id`` first column.  Backends with a native query
        engine override this row-scan fallback.
        """
        if experiment_id is not None:
            identifiers = [experiment_id] if self.has_rows(experiment_id) else []
        else:
            identifiers = self.list_experiments()
        matches: List[Dict[str, str]] = []
        for identifier in identifiers:
            if fingerprint is not None and self.fingerprint(identifier) != fingerprint:
                continue
            for row in self.load_rows(identifier):
                if row_matches(row, protocol, eps_min, eps_max):
                    matches.append({"experiment_id": identifier, **row})
        return matches

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release OS resources; reads/writes after close are undefined."""

    def __enter__(self) -> "ResultsBackend":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


def row_matches(
    row: Mapping[str, str],
    protocol: Optional[str],
    eps_min: Optional[float],
    eps_max: Optional[float],
) -> bool:
    """Row-level filter of the :meth:`ResultsBackend.query` scan."""
    if protocol is not None and row.get("protocol") != protocol:
        return False
    if eps_min is not None or eps_max is not None:
        try:
            eps_inf = float(row["eps_inf"])
        except (KeyError, ValueError):
            return False
        if eps_min is not None and eps_inf < eps_min:
            return False
        if eps_max is not None and eps_inf > eps_max:
            return False
    return True


# ---------------------------------------------------------------------- #
# Backend kinds
# ---------------------------------------------------------------------- #
def make_backend(kind: str, root) -> ResultsBackend:
    """Open a results backend of ``kind`` rooted at directory ``root``."""
    if kind not in BACKENDS:
        raise ExperimentError(
            f"unknown results backend {kind!r}; "
            f"available: {', '.join(sorted(BACKENDS))}"
        )
    return BACKENDS[kind](root)


def detect_backend_kind(root) -> str:
    """Infer which backend wrote a results directory (``repro-ldp query``).

    Kinds are tried in :data:`BACKENDS` order, so a SQLite database file
    wins over loose CSVs next to it.
    """
    root = Path(root)
    if not root.exists():
        raise ExperimentError(f"no results directory at {root}")
    for kind, backend_class in BACKENDS.items():
        if any(root.glob(backend_class.marker)):
            return kind
    markers = " or ".join(backend.marker for backend in BACKENDS.values())
    raise ExperimentError(
        f"{root} holds no recognizable results store (no {markers}); "
        f"pass --store explicitly"
    )


# The backends subclass ResultsBackend, so they are imported once it exists.
from .results_store import ResultsStore  # noqa: E402
from .sqlite_backend import SqliteBackend  # noqa: E402

#: Every results backend by kind, in :func:`detect_backend_kind` order.
BACKENDS: Dict[str, Type[ResultsBackend]] = {
    "sqlite": SqliteBackend,
    "csv": ResultsStore,
}
