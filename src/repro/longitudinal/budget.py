"""Longitudinal privacy accounting.

Definition 3.2 of the paper measures the longitudinal privacy of a memoizing
mechanism by the total budget consumed once every distinct memoization key has
been permanently randomized: each fresh key costs ``eps_inf`` by sequential
composition (Proposition 2.3).  :class:`PrivacyOdometer` tracks exactly that
quantity per user, one charged key at a time, for client-level callers.  The
simulations do not use it: their ``eps_avg`` (Eq. (8) / Figure 4) is
:func:`repro.simulation.averaged_longitudinal_privacy_loss` of the engine's
``distinct_memoized_per_user()`` counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from .._validation import require_epsilon, require_int_at_least
from ..exceptions import PrivacyAccountingError

__all__ = ["PrivacyOdometer", "realized_budget_curve"]


@dataclass
class _UserLedger:
    """Per-user record of memoized keys and when they were first used."""

    keys: set = field(default_factory=set)
    first_use_rounds: List[int] = field(default_factory=list)


class PrivacyOdometer:
    """Tracks realized longitudinal budget per user.

    Parameters
    ----------
    eps_inf:
        Longitudinal budget charged for each fresh memoization key.
    worst_case_keys:
        The protocol's worst-case number of distinct keys (``g``, ``k`` or
        ``min(d + 1, b)``).  Charging more keys than this bound raises
        :class:`PrivacyAccountingError`, because it would mean the protocol
        violated its own theoretical guarantee.
    """

    def __init__(self, eps_inf: float, worst_case_keys: Optional[int] = None) -> None:
        self.eps_inf = require_epsilon(eps_inf, "eps_inf")
        if worst_case_keys is not None:
            worst_case_keys = require_int_at_least(worst_case_keys, 1, "worst_case_keys")
        self.worst_case_keys = worst_case_keys
        self._ledgers: Dict[Hashable, _UserLedger] = {}

    # ------------------------------------------------------------------ #
    # Charging
    # ------------------------------------------------------------------ #
    def charge(self, user: Hashable, key: Hashable, round_index: int = 0) -> bool:
        """Record that ``user`` memoized ``key`` at ``round_index``.

        Returns ``True`` when the key was fresh (budget was actually
        consumed) and ``False`` when it had already been charged.
        """
        ledger = self._ledgers.setdefault(user, _UserLedger())
        if key in ledger.keys:
            return False
        if self.worst_case_keys is not None and len(ledger.keys) >= self.worst_case_keys:
            raise PrivacyAccountingError(
                f"user {user!r} would exceed the worst-case bound of "
                f"{self.worst_case_keys} memoized keys"
            )
        ledger.keys.add(key)
        ledger.first_use_rounds.append(int(round_index))
        return True

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def users(self) -> List[Hashable]:
        """Users with at least one charged key."""
        return list(self._ledgers)

    def distinct_keys(self, user: Hashable) -> int:
        """Number of distinct keys charged to ``user`` (0 for unknown users)."""
        ledger = self._ledgers.get(user)
        return 0 if ledger is None else len(ledger.keys)

    def realized_epsilon(self, user: Hashable) -> float:
        """Realized longitudinal budget of ``user``: ``eps_inf * distinct keys``."""
        return self.eps_inf * self.distinct_keys(user)

    def worst_case_epsilon(self) -> Optional[float]:
        """Worst-case longitudinal budget, or ``None`` when unbounded."""
        if self.worst_case_keys is None:
            return None
        return self.eps_inf * self.worst_case_keys

    def average_epsilon(self, users: Optional[Sequence[Hashable]] = None) -> float:
        """Average realized budget over ``users`` (Eq. 8).

        When ``users`` is omitted, averages over every user that was charged
        at least once.  Users in ``users`` that never consumed budget
        contribute zero, matching the paper's convention that the average is
        taken over the full population.
        """
        if users is None:
            users = self.users()
        users = list(users)
        if not users:
            raise PrivacyAccountingError("cannot average the budget of an empty user set")
        return float(np.mean([self.realized_epsilon(user) for user in users]))

    def realized_epsilon_by_round(self, user: Hashable, n_rounds: int) -> np.ndarray:
        """Cumulative realized budget of ``user`` after each round ``t`` in ``[0..n_rounds)``."""
        n_rounds = require_int_at_least(n_rounds, 1, "n_rounds")
        ledger = self._ledgers.get(user)
        curve = np.zeros(n_rounds, dtype=np.float64)
        if ledger is None:
            return curve
        for first_round in ledger.first_use_rounds:
            if first_round < n_rounds:
                curve[first_round:] += self.eps_inf
        return curve

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PrivacyOdometer(eps_inf={self.eps_inf}, users={len(self._ledgers)}, "
            f"worst_case_keys={self.worst_case_keys})"
        )


def realized_budget_curve(
    odometer: PrivacyOdometer, users: Sequence[Hashable], n_rounds: int
) -> np.ndarray:
    """Population-average cumulative budget after each round.

    Returns an array of length ``n_rounds`` whose entry ``t`` is the average
    over ``users`` of the realized budget after round ``t`` — the curve whose
    final point is the ``eps_avg`` reported in Figure 4.
    """
    users = list(users)
    if not users:
        raise PrivacyAccountingError("cannot compute a budget curve for an empty user set")
    total = np.zeros(n_rounds, dtype=np.float64)
    for user in users:
        total += odometer.realized_epsilon_by_round(user, n_rounds)
    return total / len(users)
