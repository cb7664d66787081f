"""Structured event log: an append-only, schema-versioned JSONL timeline.

Metrics answer "how much / how fast"; the event log answers "what happened,
in what order".  Every record is one JSON object on its own line with a
fixed envelope —

``v``
    schema version (currently :data:`SCHEMA_VERSION`),
``ts``
    Unix wall-clock seconds (float),
``component``
    the emitting subsystem (``"sweep"``, ``"simulation"`` …),
``event``
    the event name (``"sweep_started"``, ``"span"`` …),
``run_id``
    an operator-chosen correlation id shared by every process of one run —

plus free-form event-specific fields.  Records are appended through
:func:`repro._atomicio.atomic_append_line`, a single fsynced ``O_APPEND``
write per record, so several processes can share one file and a crash
never leaves a torn line.

The module keeps one process-global default log (:func:`set_default_event_log`,
installed by the CLI ``--events`` flag); :func:`emit_event` is a no-op until
one is installed, so instrumented code paths cost one ``None`` check when
event logging is off.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

from .._atomicio import atomic_append_line
from ..exceptions import ReproError

__all__ = [
    "SCHEMA_VERSION",
    "EventLog",
    "emit_event",
    "get_default_event_log",
    "set_default_event_log",
    "read_events",
]

#: Bump when the envelope changes shape; readers check it.
SCHEMA_VERSION = 1

#: Envelope keys every record carries, in serialization order.
_ENVELOPE_KEYS = ("v", "ts", "component", "event", "run_id")


def _jsonable(value: object) -> object:
    """Best-effort conversion of event field values to JSON-friendly types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return str(value)


class EventLog:
    """One append-only JSONL event sink bound to a path.

    Parameters
    ----------
    path:
        Target JSONL file; parent directories are created.
    component:
        Default ``component`` of records emitted through this log (an
        :meth:`emit` call may override it per record).
    run_id:
        Correlation id stamped into every record.
    fsync:
        Whether each append is fsynced (default ``True``); turn off only
        for high-rate soft telemetry.
    clock:
        Wall-clock source, a test seam.
    """

    def __init__(
        self,
        path: Union[str, Path],
        component: str = "",
        run_id: str = "",
        fsync: bool = True,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.component = str(component)
        self.run_id = str(run_id)
        self._fsync = bool(fsync)
        self._clock = clock
        self._lock = threading.Lock()
        self.emitted = 0

    def emit(
        self, event: str, component: Optional[str] = None, **fields: object
    ) -> Dict[str, object]:
        """Append one record; returns the dict that was written.

        Free-form ``fields`` may not shadow the envelope keys — an event
        that silently overwrote its own timestamp would be unauditable.
        """
        for key in _ENVELOPE_KEYS:
            if key in fields:
                raise ReproError(
                    f"event field {key!r} would shadow the record envelope"
                )
        record: Dict[str, object] = {
            "v": SCHEMA_VERSION,
            "ts": float(self._clock()),
            "component": self.component if component is None else str(component),
            "event": str(event),
            "run_id": self.run_id,
        }
        for key, value in fields.items():
            record[key] = _jsonable(value)
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            atomic_append_line(self.path, line, fsync=self._fsync)
            self.emitted += 1
        return record


# --------------------------------------------------------------------- #
# Process-global default log
# --------------------------------------------------------------------- #
_default_log: Optional[EventLog] = None
_default_lock = threading.Lock()


def set_default_event_log(log: Optional[EventLog]) -> Optional[EventLog]:
    """Install (or with ``None`` remove) the process-global event log."""
    global _default_log
    with _default_lock:
        previous, _default_log = _default_log, log
    return previous


def get_default_event_log() -> Optional[EventLog]:
    return _default_log


def emit_event(event: str, component: str = "", **fields: object) -> Optional[dict]:
    """Emit to the default log; a cheap no-op when none is installed."""
    log = _default_log
    if log is None:
        return None
    return log.emit(event, component=component or None, **fields)


# --------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------- #
def iter_events(path: Union[str, Path]) -> Iterator[Dict[str, object]]:
    """Yield validated records of one JSONL event file, in file order.

    Raises :class:`~repro.exceptions.ReproError` on a line that is not
    UTF-8 or not valid JSON, a missing envelope key or an unknown schema
    version — a timeline that cannot be trusted end to end is worse than
    none.
    """
    path = Path(path)
    with path.open("rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as error:
                raise ReproError(
                    f"{path}:{line_no}: not UTF-8 text ({error.reason})"
                ) from None
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ReproError(
                    f"{path}:{line_no}: not valid JSON ({error})"
                ) from None
            if not isinstance(record, dict):
                raise ReproError(f"{path}:{line_no}: record is not an object")
            missing = [key for key in _ENVELOPE_KEYS if key not in record]
            if missing:
                raise ReproError(
                    f"{path}:{line_no}: record is missing envelope keys {missing}"
                )
            if record["v"] != SCHEMA_VERSION:
                raise ReproError(
                    f"{path}:{line_no}: unsupported event schema version "
                    f"{record['v']!r} (expected {SCHEMA_VERSION})"
                )
            yield record


def read_events(path: Union[str, Path]) -> List[Dict[str, object]]:
    """All validated records of one JSONL event file, in file order."""
    return list(iter_events(path))
