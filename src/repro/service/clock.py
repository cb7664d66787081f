"""Round-window ownership for arrival-time-driven collections.

The batch drivers know which round is open from their loop index.  A live
ingestion service cannot work that way — reports arrive whenever clients
send them — so its round progression is owned by an explicit
:class:`RoundClock`, which seals the open window on **report quorum**
(``quorum``) or an **explicit advance** (operator request).

A batch arriving for an already-sealed round is *late*: its reports are
counted in ``late_dropped`` and discarded, so a sealed estimate stays frozen
(a round is a published artifact).  Reports for a not-yet-open (future)
round are accepted unchanged — the downstream
:class:`~repro.service.session.CollectorSession` is an out-of-order
absorber — and only tracked as ``early_reports``.

The clock is deliberately free of I/O and asyncio: sealing is reported
through an optional ``on_seal`` callback plus the :attr:`seals` history,
and the whole state round-trips through :meth:`state_dict` /
:meth:`from_state` so the ingestion service checkpoints it inside the
session's ``.npz``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .._validation import require_int_at_least
from ..exceptions import ParameterError

__all__ = ["RoundClock", "SealEvent"]

_STATE_FORMAT = 1

#: Settings of earlier format-1 states that no longer exist, with the one
#: value this clock still honours: no timeout, late reports dropped.
_RETIRED_SETTINGS = {"window_seconds": None, "late_policy": "drop"}


@dataclass(frozen=True)
class SealEvent:
    """One sealed round window.

    Attributes
    ----------
    round_index:
        The round that was sealed.
    reason:
        What closed the window: ``"quorum"`` or the reason given to
        :meth:`RoundClock.advance` (``"explicit"`` by default).
    n_reports:
        Reports routed into the window while it was open.
    duration:
        Wall-clock seconds the window was open (the *seal latency*).
    """

    round_index: int
    reason: str
    n_reports: int
    duration: float


class RoundClock:
    """Owns which collection round is open and when it seals.

    Parameters
    ----------
    n_rounds:
        Length of the collection horizon.
    quorum:
        Seal the open window as soon as it has received this many reports;
        ``None`` seals only on :meth:`advance`.
    on_seal:
        Optional callback invoked with each :class:`SealEvent` as it happens
        (the ingestion service wires this to its metrics).

    Not thread-safe: one owner (the ingest server's event loop) mutates the
    clock.
    """

    def __init__(
        self,
        n_rounds: int,
        *,
        quorum: Optional[int] = None,
        on_seal: Optional[Callable[[SealEvent], None]] = None,
    ) -> None:
        self.n_rounds = require_int_at_least(n_rounds, 1, "n_rounds")
        if quorum is not None:
            quorum = require_int_at_least(quorum, 1, "quorum")
        self.quorum = quorum
        self.on_seal = on_seal

        self._current = 0
        self._window_reports = 0
        self._window_started = time.monotonic()
        self.late_dropped = 0
        self.early_reports = 0
        self.seals: List[SealEvent] = []

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def current_round(self) -> int:
        """The open round window (== ``n_rounds`` once finished)."""
        return self._current

    @property
    def finished(self) -> bool:
        """Whether every round of the horizon has been sealed."""
        return self._current >= self.n_rounds

    @property
    def window_reports(self) -> int:
        """Reports routed into the currently open window so far."""
        return self._window_reports

    def is_sealed(self, round_index: int) -> bool:
        return self._check_round(round_index) < self._current

    def _check_round(self, round_index: int) -> int:
        round_index = int(round_index)
        if not 0 <= round_index < self.n_rounds:
            raise ParameterError(
                f"round index must lie in [0, {self.n_rounds}), got {round_index}"
            )
        return round_index

    # ------------------------------------------------------------------ #
    # Routing and sealing
    # ------------------------------------------------------------------ #
    def route(self, round_index: int, n_reports: int = 1) -> Optional[int]:
        """Map an arriving batch to the round it must be folded into.

        Returns ``round_index``, or ``None`` when the batch is late and
        dropped.  An on-time batch may seal its window (quorum); the batch
        itself still belongs to the window it arrived in.
        """
        round_index = self._check_round(round_index)
        n_reports = require_int_at_least(n_reports, 1, "n_reports")
        if round_index < self._current:
            self.late_dropped += n_reports
            return None
        if round_index > self._current:
            self.early_reports += n_reports
            return round_index
        self._window_reports += n_reports
        if self.quorum is not None and self._window_reports >= self.quorum:
            self._seal("quorum")
        return round_index

    def advance(self, reason: str = "explicit") -> SealEvent:
        """Seal the open window now (operator request)."""
        if self.finished:
            raise ParameterError(
                f"all {self.n_rounds} rounds are already sealed"
            )
        return self._seal(reason)

    def _seal(self, reason: str) -> SealEvent:
        now = time.monotonic()
        event = SealEvent(
            round_index=self._current,
            reason=reason,
            n_reports=self._window_reports,
            duration=now - self._window_started,
        )
        self.seals.append(event)
        self._current += 1
        self._window_reports = 0
        self._window_started = now
        if self.on_seal is not None:
            self.on_seal(event)
        return event

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (window age restarts on restore)."""
        return {
            "format": _STATE_FORMAT,
            "n_rounds": self.n_rounds,
            "quorum": self.quorum,
            "current_round": self._current,
            "window_reports": self._window_reports,
            "late_dropped": self.late_dropped,
            "early_reports": self.early_reports,
            "seals": [
                {
                    "round_index": event.round_index,
                    "reason": event.reason,
                    "n_reports": event.n_reports,
                    "duration": event.duration,
                }
                for event in self.seals
            ],
        }

    @classmethod
    def from_state(
        cls,
        state: Dict[str, object],
        *,
        on_seal: Optional[Callable[[SealEvent], None]] = None,
    ) -> "RoundClock":
        """Rebuild a clock from :meth:`state_dict`.

        The restored window opens *now* (monotonic clocks do not survive a
        process restart), everything else — sealed rounds, late/early
        counters, seal history — is carried over exactly.  A state naming a
        timeout window or a late policy other than dropping is refused.
        """
        if not isinstance(state, dict) or state.get("format") != _STATE_FORMAT:
            raise ParameterError(
                f"unsupported round-clock state format "
                f"{state.get('format') if isinstance(state, dict) else state!r} "
                f"(expected {_STATE_FORMAT})"
            )
        for field, supported in _RETIRED_SETTINGS.items():
            if state.get(field, supported) != supported:
                raise ParameterError(
                    f"round-clock state sets {field}={state[field]!r}, which "
                    f"this version cannot honour (only {supported!r} is "
                    f"supported)"
                )
        try:
            clock = cls(
                int(state["n_rounds"]), quorum=state.get("quorum"), on_seal=on_seal
            )
            current = int(state["current_round"])
            if not 0 <= current <= clock.n_rounds:
                raise ParameterError(
                    f"checkpointed current_round {current} outside "
                    f"[0, {clock.n_rounds}]"
                )
            clock._current = current
            clock._window_reports = int(state.get("window_reports", 0))
            clock.late_dropped = int(state.get("late_dropped", 0))
            clock.early_reports = int(state.get("early_reports", 0))
            clock.seals = [
                SealEvent(
                    round_index=int(entry["round_index"]),
                    reason=str(entry["reason"]),
                    n_reports=int(entry["n_reports"]),
                    duration=float(entry["duration"]),
                )
                for entry in state.get("seals", [])
            ]
        except (KeyError, TypeError, ValueError) as error:
            raise ParameterError(f"invalid round-clock state: {error}") from None
        return clock

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoundClock(n_rounds={self.n_rounds}, current={self._current}, "
            f"quorum={self.quorum!r})"
        )
