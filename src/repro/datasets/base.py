"""Container for longitudinal categorical datasets.

A :class:`LongitudinalDataset` is an ``(n, tau)`` matrix of categorical values
in ``[0..k)`` plus the metadata the simulation harness needs: the domain size,
a human-readable name and per-round true frequencies (the ground truth against
which estimates are scored).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

import numpy as np

from ..exceptions import DatasetError

__all__ = ["LongitudinalDataset"]


@dataclass
class LongitudinalDataset:
    """An evolving categorical dataset.

    Attributes
    ----------
    name:
        Dataset identifier (``"syn"``, ``"adult"``, ``"db_mt"``, ``"db_de"``
        or any custom name).
    values:
        Integer matrix of shape ``(n, tau)``; ``values[u, t]`` is the value
        held by user ``u`` at collection round ``t``.
    k:
        Domain size; every entry of ``values`` lies in ``[0..k)``.
    metadata:
        Free-form generator parameters recorded for provenance.
    """

    name: str
    values: np.ndarray
    k: int
    metadata: Dict[str, object] = field(default_factory=dict)
    _once_visited: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _truth: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise DatasetError(
                f"values must be a 2-D (n, tau) matrix, got shape {self.values.shape}"
            )
        if not np.issubdtype(self.values.dtype, np.integer):
            raise DatasetError("values must be integers")
        if self.values.size == 0:
            raise DatasetError("the dataset must contain at least one user and one round")
        if self.k < 2:
            raise DatasetError(f"domain size k must be at least 2, got {self.k}")
        if self.values.min() < 0 or self.values.max() >= self.k:
            raise DatasetError(
                f"values must lie in [0, {self.k}); observed range "
                f"[{self.values.min()}, {self.values.max()}]"
            )

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def n_users(self) -> int:
        """Number of users ``n``."""
        return int(self.values.shape[0])

    @property
    def n_rounds(self) -> int:
        """Number of collection rounds ``tau``."""
        return int(self.values.shape[1])

    def round_values(self, t: int) -> np.ndarray:
        """The values held by every user at round ``t``."""
        if not 0 <= t < self.n_rounds:
            raise DatasetError(f"round index {t} out of range [0, {self.n_rounds})")
        return self.values[:, t]

    def iter_rounds(self) -> Iterator[np.ndarray]:
        """Iterate over per-round value vectors."""
        for t in range(self.n_rounds):
            yield self.values[:, t]

    # ------------------------------------------------------------------ #
    # Ground truth
    # ------------------------------------------------------------------ #
    def true_frequencies(self, t: int) -> np.ndarray:
        """Normalized ``k``-bin histogram of the values at round ``t``."""
        counts = np.bincount(self.round_values(t), minlength=self.k)
        return counts / self.n_users

    def true_frequency_matrix(self) -> np.ndarray:
        """Matrix of shape ``(tau, k)`` with the true histogram of every round.

        Computed on first use and cached on this object, read-only, as
        :meth:`once_visited_mask` is: every simulation of the dataset scores
        against the same matrix.
        """
        if self._truth is None:
            truth = np.stack([self.true_frequencies(t) for t in range(self.n_rounds)])
            truth.setflags(write=False)
            self._truth = truth
        return self._truth

    def change_counts(self) -> np.ndarray:
        """Per-user number of value changes across consecutive rounds."""
        if self.n_rounds < 2:
            return np.zeros(self.n_users, dtype=np.int64)
        return (self.values[:, 1:] != self.values[:, :-1]).sum(axis=1)

    def distinct_values_per_user(self) -> np.ndarray:
        """Per-user number of distinct values across the whole horizon."""
        return np.asarray([np.unique(row).size for row in self.values], dtype=np.int64)

    def once_visited_mask(self) -> np.ndarray:
        """``(n, tau)`` mask, True where ``values[u, t]`` occurs in no other
        round of user ``u``.

        Computed on first use and cached on this object.  Each row is sorted
        as one narrow key ``value * tau + round``, so equal values sit side by
        side and the round of each entry rides along in the low digits.
        """
        if self._once_visited is None:
            n, tau = self.values.shape
            dtype = np.min_scalar_type(self.k * tau - 1)
            rounds = np.arange(tau, dtype=dtype)
            ordered = np.sort(self.values.astype(dtype) * dtype.type(tau) + rounds, axis=1)
            ordered_values = ordered // dtype.type(tau)
            repeated = ordered_values[:, 1:] == ordered_values[:, :-1]
            once = np.ones((n, tau), dtype=bool)
            once[:, 1:] &= ~repeated
            once[:, :-1] &= ~repeated
            mask = np.empty((n, tau), dtype=bool)
            mask[np.arange(n)[:, None], ordered % dtype.type(tau)] = once
            self._once_visited = mask
        return self._once_visited

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def subsample(
        self,
        n_users: Optional[int] = None,
        n_rounds: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "LongitudinalDataset":
        """Return a smaller dataset with the first rounds of a random user subset.

        Used by the scaled-down benchmark defaults; the subsample keeps the
        original domain size so protocol configuration is unchanged.
        """
        n_users = self.n_users if n_users is None else min(n_users, self.n_users)
        n_rounds = self.n_rounds if n_rounds is None else min(n_rounds, self.n_rounds)
        if n_users < 1 or n_rounds < 1:
            raise DatasetError("subsample sizes must be at least 1")
        if rng is None:
            selected = np.arange(n_users)
        else:
            selected = rng.choice(self.n_users, size=n_users, replace=False)
        return LongitudinalDataset(
            name=self.name,
            values=self.values[selected, :n_rounds].copy(),
            k=self.k,
            metadata={**self.metadata, "subsampled_from": (self.n_users, self.n_rounds)},
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LongitudinalDataset(name={self.name!r}, n={self.n_users}, "
            f"tau={self.n_rounds}, k={self.k})"
        )
