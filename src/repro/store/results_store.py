"""The results store: experiment rows as append-only CSV files.

:class:`ResultsStore` keeps one ``<stem>.csv`` per experiment under one
directory (see :func:`safe_experiment_stem`).  The sweeps persist results
through it as *flat rows*: ordered string-valued records grouped by
``experiment_id``, optionally tagged with a single-line header comment (the
sweep layer stores the spec fingerprint there, see :data:`FINGERPRINT_KEY`).
The experiment harnesses also use it to save whole JSON documents and CSV
tables for inspection; the store never overwrites silently: re-saving
requires ``overwrite=True``.

Whole-file writes (:meth:`ResultsStore.save_rows`,
:meth:`ResultsStore.save_json`) are **atomic**: content is staged to a temp
file in the same directory, fsynced and renamed over the target.  Incremental flushes (:meth:`ResultsStore.append_rows`) use
``O_APPEND`` + fsync under an exclusive ``flock`` (so concurrent writers
never both write a header) — O(batch) I/O per flush instead of re-reading and
rewriting the whole file, which over a long sweep was O(rows^2).  A writer
killed mid-flush can leave at most one torn trailing line; readers (and the
next append) detect it by the missing newline terminator and drop it, so a
crash can never poison a later ``--resume``.  All rows of an experiment
share one column set, cells are stored as ``str(value)`` (``None`` → ``""``)
and must not contain newlines.  CSVs may carry leading
``# key=value`` comment lines above the header; readers skip them
transparently.  Only lines *before* the header are comments — a data row
whose first cell happens to start with ``#`` is data.  Two comments have a
meaning: an ``# experiment_id=<id>`` line comes first when the file stem
cannot spell the id (so :meth:`ResultsStore.list_experiments` returns the
id, not the stem), and the header comment of the creating append (e.g. the
sweep-spec fingerprint) follows it.  A file that is not UTF-8 text raises
:class:`~repro.exceptions.ExperimentError` naming it.
"""

from __future__ import annotations

import csv
import fcntl
import hashlib
import io
import json
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from .._atomicio import atomic_write_text as _atomic_write_text
from ..exceptions import ExperimentError

__all__ = [
    "FINGERPRINT_KEY",
    "ResultsStore",
    "fingerprint_from_comment",
    "safe_experiment_stem",
]

#: Key of the spec-fingerprint header comment
#: (``# sweep_spec_fingerprint=<hex>`` above a sweep CSV's header).
FINGERPRINT_KEY = "sweep_spec_fingerprint"


def fingerprint_from_comment(comment: Optional[str]) -> Optional[str]:
    """The spec fingerprint carried by a header comment, or ``None``."""
    if comment is not None and comment.startswith(f"{FINGERPRINT_KEY}="):
        return comment.split("=", 1)[1]
    return None


#: Characters allowed verbatim in on-disk experiment file stems.
_UNSAFE_STEM_CHARS = re.compile(r"[^a-z0-9._-]")

#: Prefix of the leading CSV comment that records an experiment id its file
#: stem cannot spell.
_ID_RECORD = "# experiment_id="


def safe_experiment_stem(experiment_id: str) -> str:
    """Collision-safe file stem for ``experiment_id``.

    Identifiers that are already filesystem-safe (lowercase letters, digits,
    ``._-``) map to themselves — every id this repo generates (``table1``,
    ``sweep_syn`` …) keeps its historical filename.  Any id that *needs*
    sanitizing gets an 8-hex-digit hash of the original appended, so two
    distinct ids can never share a file: the old mapping sent ``"a/b"``,
    ``"a b"`` and ``"A_B"`` all to ``a_b.*``, silently interleaving their
    rows whenever the columns matched.
    """
    if not isinstance(experiment_id, str) or not experiment_id:
        raise ExperimentError("experiment_id must be a non-empty string")
    sanitized = _UNSAFE_STEM_CHARS.sub("_", experiment_id.lower())
    if sanitized != experiment_id:
        digest = hashlib.sha256(experiment_id.encode("utf-8")).hexdigest()[:8]
        sanitized = f"{sanitized}-{digest}"
    return sanitized


def _id_record(experiment_id: str) -> str:
    """The ``# experiment_id=<id>`` line a new CSV of ``experiment_id``
    starts with; empty when the file stem already spells the id."""
    if safe_experiment_stem(experiment_id) == experiment_id:
        return ""
    if "\n" in experiment_id or "\r" in experiment_id:
        raise ExperimentError("a CSV experiment_id must be a single line")
    return f"{_ID_RECORD}{experiment_id}\n"


class ResultsStore:
    """Directory-backed store for experiment outputs.

    Parameters
    ----------
    root:
        Directory in which result files are written (created on demand).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def _path(self, experiment_id: str, suffix: str) -> Path:
        return self.root / f"{safe_experiment_stem(experiment_id)}.{suffix}"

    def location(self, experiment_id: str) -> str:
        """Where the rows of ``experiment_id`` live (log lines)."""
        return str(self._path(experiment_id, "csv"))

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def save_json(
        self, experiment_id: str, payload: Dict[str, object], overwrite: bool = False
    ) -> Path:
        """Persist ``payload`` as ``<experiment_id>.json`` and return the path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(experiment_id, "json")
        if path.exists() and not overwrite:
            raise ExperimentError(
                f"{path} already exists; pass overwrite=True to replace it"
            )
        # Serialize before touching the file: a payload that fails mid-encode
        # (or a kill mid-write) must leave any existing document intact.
        content = json.dumps(payload, indent=2, sort_keys=True, default=_jsonify)
        _atomic_write_text(path, content)
        return path

    def save_rows(
        self,
        experiment_id: str,
        rows: Sequence[Dict[str, object]],
        overwrite: bool = False,
    ) -> Path:
        """Persist a list of flat dictionaries as ``<experiment_id>.csv``."""
        if not rows:
            raise ExperimentError("cannot save an empty row list")
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(experiment_id, "csv")
        if path.exists() and not overwrite:
            raise ExperimentError(
                f"{path} already exists; pass overwrite=True to replace it"
            )
        fieldnames = list(rows[0].keys())
        for row in rows:
            if list(row.keys()) != fieldnames:
                raise ExperimentError("all rows must share the same columns")
        buffer = io.StringIO()
        buffer.write(_id_record(experiment_id))
        writer = csv.DictWriter(buffer, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
        _atomic_write_text(path, buffer.getvalue())
        return path

    def append_rows(
        self,
        experiment_id: str,
        rows: Sequence[Dict[str, object]],
        header_comment: Optional[str] = None,
    ) -> Path:
        """Append flat dictionaries to ``<experiment_id>.csv``, creating it on
        first use.

        Unlike :meth:`save_rows` this is an *incremental* writer: long-running
        sweeps flush completed grid points as they finish, so a crashed or
        interrupted run leaves every already-computed row on disk.  Appended
        rows must match the columns of the existing file.

        Each flush is one ``O_APPEND`` write followed by an fsync — O(batch)
        I/O, regardless of how many rows the file already holds.  A writer
        killed mid-write can leave at most one torn (newline-less) trailing
        line, which both :meth:`load_rows` and the next append drop; complete
        earlier rows are never touched.

        ``header_comment``, when given, is written as a single ``# <comment>``
        line above the CSV header of a *newly created* file (existing files
        keep whatever comment they have); readers skip leading comment lines.
        """
        path = self._path(experiment_id, "csv")
        if not rows:
            return path
        fieldnames, stringified = _validate_rows(rows)
        if header_comment is not None and (
            "\n" in header_comment or "\r" in header_comment
        ):
            raise ExperimentError("header comment must be a single line")
        id_record = _id_record(experiment_id)
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            # One exclusive lock spans the header check, the torn-tail cut
            # and the write: two writers that both saw an empty file would
            # otherwise each write a header, and the second header would
            # load as a data row.
            fcntl.flock(fd, fcntl.LOCK_EX)
            buffer = io.StringIO()
            writer = csv.DictWriter(buffer, fieldnames=fieldnames)
            existing_header = None
            if os.fstat(fd).st_size > 0:
                _truncate_torn_tail(path)
                existing_header = _read_header_fields(path)
            if existing_header is None:
                buffer.write(id_record)
                if header_comment is not None:
                    buffer.write(f"# {header_comment}\n")
                writer.writeheader()
            elif existing_header != fieldnames:
                raise ExperimentError(
                    f"cannot append to {path}: existing columns {existing_header} do "
                    f"not match {fieldnames}"
                )
            writer.writerows(stringified)
            view = memoryview(buffer.getvalue().encode("utf-8"))
            while view:
                view = view[os.write(fd, view) :]
            os.fsync(fd)
        finally:
            os.close(fd)
        return path

    def read_header_comment(self, experiment_id: str) -> Optional[str]:
        """The first ``# <comment>`` line of a CSV after the experiment-id
        record, without the marker; ``None`` if the file is missing or
        carries no comment.

        Skips leading blank lines exactly like :meth:`load_rows` and
        :func:`_read_header_fields` do — the three readers must agree on
        what counts as the comment block, or a stray blank line above the
        fingerprint comment would make the rows load fine while the
        fingerprint silently "disappears" (and ``sweep --resume`` refuses
        the file as one without a fingerprint record).
        """
        path = self._path(experiment_id, "csv")
        if not path.exists():
            return None
        id_record = _id_record(experiment_id).rstrip("\n")
        with _open_text(path) as handle:
            for line in handle:
                if not line.strip():
                    continue
                if id_record and line.rstrip("\r\n") == id_record:
                    id_record = ""
                    continue
                if line.startswith("#"):
                    return line[1:].strip()
                return None
        return None

    def has_rows(self, experiment_id: str) -> bool:
        """Whether a CSV for ``experiment_id`` already exists on disk."""
        return self._path(experiment_id, "csv").exists()

    def fingerprint(self, experiment_id: str) -> Optional[str]:
        """The spec fingerprint of one experiment; ``None`` when its CSV
        carries no header comment (``sweep --resume`` refuses such a file).

        A comment that is present but is no fingerprint record raises
        :class:`~repro.exceptions.ExperimentError` naming the file: a
        damaged key must not pass for a CSV without a fingerprint, or
        ``sweep --resume`` would keep rows of a different spec.
        """
        comment = self.read_header_comment(experiment_id)
        if comment is None:
            return None
        fingerprint = fingerprint_from_comment(comment)
        if fingerprint is None:
            raise ExperimentError(
                f"unknown header comment {comment!r} in "
                f"{self.location(experiment_id)}: expected "
                f"{FINGERPRINT_KEY}=<fingerprint>"
            )
        return fingerprint

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def load_json(self, experiment_id: str) -> Dict[str, object]:
        """Load a previously saved JSON document."""
        path = self._path(experiment_id, "json")
        if not path.exists():
            raise ExperimentError(f"no saved results found at {path}")
        with path.open("r", encoding="utf-8") as handle:
            return json.load(handle)

    def load_rows(self, experiment_id: str) -> List[Dict[str, str]]:
        """Load a previously saved CSV as a list of string-valued dictionaries.

        Comment lines (e.g. the sweep-spec fingerprint) are skipped, but only
        *above* the header row — a data row whose first cell starts with
        ``#`` is data and survives the round trip.  A torn trailing line
        (no newline terminator, left by a writer killed mid-append) is
        dropped.
        """
        path = self._path(experiment_id, "csv")
        if not path.exists():
            raise ExperimentError(f"no saved results found at {path}")
        with _open_text(path) as handle:
            lines = handle.readlines()
        if lines and not lines[-1].endswith(("\n", "\r")):
            # Torn trailing line from a crashed O_APPEND flush; every line of
            # a completely flushed file ends with its newline terminator.
            del lines[-1]
        start = 0
        while start < len(lines) and (
            lines[start].startswith("#") or not lines[start].strip()
        ):
            start += 1
        return list(csv.DictReader(lines[start:]))

    def list_experiments(self) -> List[str]:
        """Identifiers of every experiment with a CSV, sorted."""
        if not self.root.exists():
            return []
        return sorted(_recorded_id(path) for path in self.root.glob("*.csv"))

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
        an ``experiment_id`` first column.
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
                if _row_matches(row, protocol, eps_min, eps_max):
                    matches.append({"experiment_id": identifier, **row})
        return matches


def _row_matches(
    row: Mapping[str, str],
    protocol: Optional[str],
    eps_min: Optional[float],
    eps_max: Optional[float],
) -> bool:
    """Row-level filter of :meth:`ResultsStore.query`."""
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


def _validate_rows(
    rows: Sequence[Mapping[str, object]],
) -> Tuple[List[str], List[Dict[str, str]]]:
    """Append-side validation; returns ``(fieldnames, stringified_rows)``.

    A quoted multi-line cell would span physical lines, and a writer killed
    between them leaves a torn record that ends in a newline — invisible to
    the torn-tail guard — so newlines in cells are rejected.
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
        stringified.append(
            {key: "" if row[key] is None else str(row[key]) for key in fieldnames}
        )
    return fieldnames, stringified


@contextmanager
def _open_text(path: Path) -> Iterator[TextIO]:
    """Open a store CSV for reading; bytes that are not UTF-8 raise
    :class:`~repro.exceptions.ExperimentError` naming the file."""
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            yield handle
    except UnicodeDecodeError as error:
        raise ExperimentError(
            f"cannot read results file {path}: not UTF-8 text ({error.reason})"
        ) from None


def _recorded_id(path: Path) -> str:
    """The experiment id a CSV records in its leading comment, else its
    stem (a CSV written before ids were recorded, or a safe id)."""
    with _open_text(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            if line.startswith(_ID_RECORD):
                experiment_id = line[len(_ID_RECORD) :].rstrip("\r\n")
                if experiment_id and safe_experiment_stem(experiment_id) == path.stem:
                    return experiment_id
            break
    return path.stem


def _read_header_fields(path: Path) -> Optional[List[str]]:
    """The CSV header row of ``path``, skipping leading comment / blank lines.

    Reads only the file's prefix (never the data rows); returns ``None`` when
    no header line exists yet.
    """
    with _open_text(path) as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            return next(csv.reader([line]), None)
    return None


#: Backward scan granularity of :func:`_truncate_torn_tail` (bytes).
_TAIL_SCAN_CHUNK = 64 * 1024


def _truncate_torn_tail(path: Path) -> None:
    """Cut a torn (newline-less) trailing line off an append-mode CSV.

    A writer killed mid-``os.write`` can leave a partial last line; appending
    after it would fuse the next row onto the partial one.  Scanning
    backwards for the last newline touches O(torn line) bytes, not the file.
    """
    with path.open("rb+") as handle:
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) in (b"\n", b"\r"):
            return
        position = size
        while position > 0:
            chunk_start = max(0, position - _TAIL_SCAN_CHUNK)
            handle.seek(chunk_start)
            chunk = handle.read(position - chunk_start)
            newline = max(chunk.rfind(b"\n"), chunk.rfind(b"\r"))
            if newline >= 0:
                handle.truncate(chunk_start + newline + 1)
                return
            position = chunk_start
        handle.truncate(0)


def _jsonify(value: object) -> object:
    """JSON encoder fallback for numpy scalars and arrays."""
    import numpy as np

    if isinstance(value, np.ndarray):
        return value.tolist()
    # np.bool_ is not an np.integer subclass, and any comparison on kernel
    # output produces one — it needs its own branch or save_json raises.
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    raise TypeError(f"object of type {type(value).__name__} is not JSON serializable")
