"""The data layer behind ``repro-ldp status``: fleet/sweep progress snapshots.

Two sources, one :class:`StatusSnapshot`:

* **a metrics endpoint** — :func:`snapshot_from_metrics_text` parses the
  Prometheus exposition a ``--metrics-port`` process serves (coordinator
  gauges, worker counters, sweep counters);
* **the spool / checkpoint files** — :func:`snapshot_from_spool` counts the
  task/claim/summary files of a file-queue directory and reads the progress
  summary the coordinator embeds in its ``.npz`` checkpoint, so a fleet
  with no metrics port up can still be observed.

:func:`render_status` turns one snapshot (plus, in ``--watch`` mode, its
predecessor for throughput and ETA) into the text dashboard.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..exceptions import ReproError

__all__ = [
    "StatusSnapshot",
    "parse_exposition",
    "snapshot_from_metrics_text",
    "snapshot_from_spool",
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
    """One observation of fleet/sweep progress, however it was obtained."""

    source: str
    captured_at: float
    shards_total: Optional[int] = None
    shards_done: Optional[int] = None
    shards_pending: Optional[int] = None
    shards_leased: Optional[int] = None
    #: display-name -> value for the counters worth a dashboard line.
    counters: Dict[str, float] = field(default_factory=dict)
    #: sweep progress when sweep metrics are present.
    sweep_done: Optional[int] = None
    sweep_skipped: Optional[int] = None


def _first_value(
    samples: Dict[str, List[Tuple[Dict[str, str], float]]], name: str
) -> Optional[float]:
    series = samples.get(name)
    if not series:
        return None
    return sum(value for _labels, value in series)


def snapshot_from_metrics_text(text: str, source: str = "metrics") -> StatusSnapshot:
    """Build a snapshot from one ``/metrics`` scrape."""
    samples = parse_exposition(text)
    snapshot = StatusSnapshot(source=source, captured_at=time.time())

    total = _first_value(samples, "repro_coord_shards_total")
    if total is not None:
        snapshot.shards_total = int(total)
        done = _first_value(samples, "repro_coord_shards_done") or 0.0
        pending = _first_value(samples, "repro_coord_shards_pending")
        snapshot.shards_done = int(done)
        if pending is not None:
            snapshot.shards_pending = int(pending)

    for display, metric in (
        ("requeued", "repro_coord_tasks_requeued_total"),
        ("republished", "repro_coord_tasks_republished_total"),
        ("duplicates", "repro_coord_duplicates_total"),
        ("foreign", "repro_coord_foreign_total"),
        ("rejected", "repro_transport_rejected_total"),
        ("worker_claims", "repro_worker_tasks_claimed_total"),
        ("worker_summaries", "repro_worker_summaries_total"),
        ("worker_errors", "repro_worker_errors_total"),
        ("worker_idle_s", "repro_worker_idle_seconds_total"),
    ):
        value = _first_value(samples, metric)
        if value is not None:
            snapshot.counters[display] = value

    sweep = samples.get("repro_sweep_points_total")
    if sweep:
        by_status = {labels.get("status", ""): value for labels, value in sweep}
        snapshot.sweep_done = int(by_status.get("done", 0))
        snapshot.sweep_skipped = int(by_status.get("skipped", 0))
    return snapshot


def snapshot_from_spool(
    queue_dir: Union[str, Path],
    checkpoint: Optional[Union[str, Path]] = None,
) -> StatusSnapshot:
    """Build a snapshot from a file-queue spool directory (no port needed).

    ``tasks/`` holds unclaimed work, ``claims/`` leased work and
    ``summaries/`` delivered results; the coordinator's checkpoint (when
    given, or found as ``checkpoint.npz`` next to the spool) contributes
    the absorbed-shard progress summary.
    """
    root = Path(queue_dir)
    if not root.is_dir():
        raise ReproError(f"queue directory {root} does not exist")
    snapshot = StatusSnapshot(source=f"spool {root}", captured_at=time.time())
    unclaimed = len(list((root / "tasks").glob("task-*")))
    leased = len(list((root / "claims").glob("task-*")))
    delivered = len(list((root / "summaries").glob("summary-*")))
    snapshot.shards_leased = leased
    snapshot.counters["spool_unclaimed"] = float(unclaimed)
    snapshot.counters["spool_delivered"] = float(delivered)

    checkpoint_path = Path(checkpoint) if checkpoint is not None else None
    if checkpoint_path is not None and checkpoint_path.exists():
        import numpy as np

        try:
            # np.load(path) leaves the file open when the archive is corrupt.
            with open(checkpoint_path, "rb") as handle, np.load(
                handle, allow_pickle=False
            ) as archive:
                meta = json.loads(str(archive["meta"][()]))
            progress = meta.get("progress")
        except Exception as error:  # zipfile/zlib/EOF/KeyError/ValueError: corrupt
            raise ReproError(
                f"corrupt coordinator checkpoint {checkpoint_path}: "
                f"{type(error).__name__}: {error}"
            ) from None
        if isinstance(progress, dict):
            snapshot.shards_total = int(progress.get("n_shards", 0)) or None
            snapshot.shards_done = int(progress.get("done", 0))
            snapshot.shards_pending = int(progress.get("pending", 0))
            for key in ("requeued", "republished", "duplicates", "foreign"):
                if key in progress:
                    snapshot.counters[key] = float(progress[key])
        else:  # pre-observability checkpoint: count the completed list
            completed = meta.get("completed", [])
            snapshot.shards_total = int(meta.get("n_shards", 0)) or None
            snapshot.shards_done = len(completed)
            if snapshot.shards_total:
                snapshot.shards_pending = snapshot.shards_total - len(completed)
    elif snapshot.shards_total is None:
        # Without a checkpoint the spool itself is the best estimate:
        # delivered summaries stand in for done shards.
        snapshot.shards_done = delivered
        snapshot.shards_pending = unclaimed + leased
        total = unclaimed + leased + delivered
        snapshot.shards_total = total or None
    return snapshot


def render_status(
    snapshot: StatusSnapshot, previous: Optional[StatusSnapshot] = None
) -> str:
    """The text dashboard of one snapshot (plus throughput vs. a previous)."""
    stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(snapshot.captured_at))
    lines = [f"repro-ldp status — {snapshot.source} ({stamp})"]

    if snapshot.shards_total is not None:
        parts = [f"{snapshot.shards_total} total"]
        if snapshot.shards_done is not None:
            parts.append(f"{snapshot.shards_done} done")
        if snapshot.shards_leased is not None:
            parts.append(f"{snapshot.shards_leased} leased")
        if snapshot.shards_pending is not None:
            parts.append(f"{snapshot.shards_pending} pending")
        lines.append("shards: " + " | ".join(parts))
        if (
            previous is not None
            and snapshot.shards_done is not None
            and previous.shards_done is not None
        ):
            elapsed = snapshot.captured_at - previous.captured_at
            delta = snapshot.shards_done - previous.shards_done
            if elapsed > 0:
                rate = delta / elapsed
                line = f"throughput: {rate:.2f} shards/s"
                if rate > 0 and snapshot.shards_pending:
                    line += f" (ETA {snapshot.shards_pending / rate:.0f}s)"
                lines.append(line)

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

    if snapshot.counters:
        rendered = " ".join(
            f"{name}={value:g}" for name, value in sorted(snapshot.counters.items())
        )
        lines.append(f"counters: {rendered}")
    if len(lines) == 1:
        lines.append("no fleet or sweep series found at this source")
    return "\n".join(lines)
