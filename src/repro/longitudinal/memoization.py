"""Memoization table used by the permanent-randomized-response step.

Memoization is the core defence against averaging attacks: the noisy version
of each distinct input is generated exactly once and reused for every later
report of that input.  The table also records the order in which keys were
first memoized (a client's ``memoization_keys``).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

__all__ = ["MemoizationTable"]


class MemoizationTable:
    """Mapping from memoization keys to their permanently randomized outputs.

    Parameters
    ----------
    max_keys:
        Optional upper bound on the number of distinct keys the protocol can
        memoize (``g`` for LOLOHA, ``k`` for RAPPOR-style protocols,
        ``d + 1`` for dBitFlipPM).  Exceeding the bound indicates an
        implementation error and raises ``RuntimeError``.
    """

    def __init__(self, max_keys: Optional[int] = None) -> None:
        self._table: Dict[Hashable, object] = {}
        self._first_use_order: List[Hashable] = []
        self.max_keys = max_keys

    def get_or_create(self, key: Hashable, factory: Callable[[], object]) -> Tuple[object, bool]:
        """Return the memoized output for ``key``, creating it if needed.

        Returns a ``(value, created)`` pair where ``created`` indicates that
        the permanent randomization was executed during this call (i.e. fresh
        longitudinal budget was consumed).
        """
        if key in self._table:
            return self._table[key], False
        if self.max_keys is not None and len(self._table) >= self.max_keys:
            raise RuntimeError(
                f"memoization table exceeded its declared bound of {self.max_keys} keys; "
                "this indicates a protocol implementation bug"
            )
        value = factory()
        self._table[key] = value
        self._first_use_order.append(key)
        return value, True

    def __contains__(self, key: Hashable) -> bool:
        return key in self._table

    def __len__(self) -> int:
        return len(self._table)

    @property
    def distinct_keys(self) -> int:
        """Number of distinct keys memoized so far."""
        return len(self._table)

    @property
    def first_use_order(self) -> Tuple[Hashable, ...]:
        """Keys in the order their permanent randomization was executed."""
        return tuple(self._first_use_order)

    def snapshot(self) -> Dict[Hashable, object]:
        """A shallow copy of the memoized mapping (for attack simulations)."""
        return dict(self._table)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MemoizationTable(distinct_keys={len(self._table)}, max_keys={self.max_keys})"
