"""The data layer behind ``repro-ldp status``: sweep progress snapshots.

:func:`snapshot_from_metrics_text` parses the Prometheus exposition a
``--metrics-port`` process serves into a :class:`StatusSnapshot` (the
``repro_sweep_points_total`` counters), and :func:`render_status` turns one
snapshot (plus, in ``--watch`` mode, its predecessor for throughput) into
the text dashboard.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..exceptions import ReproError

__all__ = [
    "StatusSnapshot",
    "parse_exposition",
    "snapshot_from_metrics_text",
    "render_status",
]

#: ``name{labels} value`` | ``name value`` — the slice of the exposition
#: format our own renderer emits.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def parse_exposition(
    text: str,
) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse Prometheus text exposition into ``name -> [(labels, value)]``.

    Comment/``# TYPE``/``# HELP`` lines are skipped; histogram series appear
    under their ``_bucket``/``_sum``/``_count`` sample names.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ReproError(f"unparseable exposition line: {line!r}")
        labels = {
            name: _unescape_label(value)
            for name, value in _LABEL_PAIR_RE.findall(match.group("labels") or "")
        }
        raw = match.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples


@dataclass
class StatusSnapshot:
    """One observation of sweep progress."""

    source: str
    captured_at: float
    #: sweep progress when sweep metrics are present.
    sweep_done: Optional[int] = None
    sweep_skipped: Optional[int] = None


def snapshot_from_metrics_text(text: str, source: str = "metrics") -> StatusSnapshot:
    """Build a snapshot from one ``/metrics`` scrape."""
    samples = parse_exposition(text)
    snapshot = StatusSnapshot(source=source, captured_at=time.time())

    sweep = samples.get("repro_sweep_points_total")
    if sweep:
        by_status = {labels.get("status", ""): value for labels, value in sweep}
        snapshot.sweep_done = int(by_status.get("done", 0))
        snapshot.sweep_skipped = int(by_status.get("skipped", 0))
    return snapshot


def render_status(
    snapshot: StatusSnapshot, previous: Optional[StatusSnapshot] = None
) -> str:
    """The text dashboard of one snapshot (plus throughput vs. a previous)."""
    stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(snapshot.captured_at))
    lines = [f"repro-ldp status — {snapshot.source} ({stamp})"]

    if snapshot.sweep_done is not None:
        lines.append(
            f"sweep: {snapshot.sweep_done} points done, "
            f"{snapshot.sweep_skipped or 0} skipped (resume)"
        )
        if previous is not None and previous.sweep_done is not None:
            elapsed = snapshot.captured_at - previous.captured_at
            if elapsed > 0:
                rate = (snapshot.sweep_done - previous.sweep_done) / elapsed
                lines.append(f"sweep throughput: {rate:.2f} points/s")

    if len(lines) == 1:
        lines.append("no sweep series found at this source")
    return "\n".join(lines)
