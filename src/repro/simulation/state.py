"""Per-population memoization state for the vectorized engines.

The longitudinal protocols memoize one *permanent randomization* per
(user, memoization key) pair.  The reference clients keep that state in
per-user dictionaries; at population scale the engines instead use the dense
and sparse table types of this module:

``DenseSymbolMemo``
    One memoized *symbol* per (user, key) — GRR-style chains (L-GRR, LOLOHA),
    where the permanent randomization of a key is a single integer.

``PackedBitMemo``
    One memoized *bit vector* per (user, key) — UE-style chains (RAPPOR,
    L-OSUE) and dBitFlipPM, where the permanent randomization is a row of
    ``n_bits`` randomized bits.  Rows are stored bit-packed
    (``ceil(n_bits / 8)`` bytes per row), an 8x saving over the naive
    ``uint8`` tensor.  Dense over (user, key): every possible pair has a
    pre-allocated row slot.

``SparsePackedBitMemo``
    The row-sparse sibling of :class:`PackedBitMemo` for large key domains:
    a hashed (user, key) index over only the pairs actually memoized plus a
    chunked, geometrically grown pool holding their rows.  At UE scale
    (``n_keys = n_bits = k``) the footprint is ~``12`` bytes per *memoized*
    pair instead of ``ceil(k / 8)`` bytes per *possible* pair — and, unlike
    the earlier dense int32 pointer table (``4 n k`` bytes, 80 MiB at
    ``n = 10^4, k = 2048``), it no longer scales with the key domain at all.

:func:`make_packed_bit_memo` picks between the two behind one interface:
dense up to the :data:`_DENSE_ALLOCATION_WARN_BYTES` projection, sparse
above it (construct either class directly to force it).  Both variants
resolve rows bit-identically (misses are created in the same order through
the same ``fresh`` callback), so the switch never changes simulation
results.

All tables are *lazily batch-initialized*: the backing arrays are allocated
on first use, and missing entries are created for whole batches of users at
once through a ``fresh`` callback — the engines' round loop contains no
per-user Python code.  The symbol engines read their table through
:meth:`DenseSymbolMemo.resolve`.  The packed engines create missing rows with
:meth:`~_PackedBitMemoBase.ensure_rows`, gather the rows a round reports with
:meth:`~_PackedBitMemoBase.packed_rows`, and fold those packed bytes into
per-bit-position support counts with the kernel backend's
``packed_column_sums`` — a round never materializes the unpacked
``(n_users, n_bits)`` matrix.  No engine calls the packed tables'
``resolve`` / ``_resolve_packed`` or ``column_sums``: ``resolve`` stays
because ``perfbench/tracing.py`` wraps it, ``column_sums`` because
``tests/test_state_and_sinks.py`` checks the packed fold against it, until
perfbench moves off them (ROADMAP item 1).
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from typing import Callable, Optional

import numpy as np

from .._validation import require_int_at_least
from ..exceptions import ParameterError
from .kernels import packed_column_sums_kernel

__all__ = [
    "DenseSymbolMemo",
    "PackedBitMemo",
    "SparsePackedBitMemo",
    "make_packed_bit_memo",
]

#: Dense-allocation size above which :func:`make_packed_bit_memo` switches to
#: the sparse layout (and an explicitly dense :class:`PackedBitMemo` warns).
#: Measured on the paper datasets (L-OSUE, scale 1.0): db_mt (1.7 GB
#: projected) and db_de (1.05 GB) run faster sparse, syn (165 MB) and adult
#: (56 MB) faster dense.
_DENSE_ALLOCATION_WARN_BYTES = 512 * 1024**2

#: ``fresh(user_indices, keys) -> symbols`` — batch-create missing entries.
FreshSymbols = Callable[[np.ndarray, np.ndarray], np.ndarray]
#: ``fresh(user_indices, keys) -> (len(user_indices), n_bits) uint8 rows``.
FreshRows = Callable[[np.ndarray, np.ndarray], np.ndarray]


class DenseSymbolMemo:
    """Dense ``(n_users, n_keys)`` table of memoized integer symbols.

    Entries are ``-1`` until the (user, key) pair is first resolved.  The
    table is allocated lazily on the first :meth:`resolve` call.
    """

    def __init__(self, n_users: int, n_keys: int, dtype=np.int32) -> None:
        self.n_users = require_int_at_least(n_users, 1, "n_users")
        self.n_keys = require_int_at_least(n_keys, 1, "n_keys")
        self._dtype = np.dtype(dtype)
        self._table: Optional[np.ndarray] = None
        #: Offset of each user's row in the flattened table.
        self._row_offsets = np.arange(self.n_users, dtype=np.int64) * self.n_keys

    def _ensure_allocated(self) -> np.ndarray:
        if self._table is None:
            self._table = np.full((self.n_users, self.n_keys), -1, dtype=self._dtype)
        return self._table

    def resolve(self, keys: np.ndarray, fresh: FreshSymbols) -> np.ndarray:
        """Memoized symbol of every user for its current key.

        ``keys`` holds one memoization key per user.  Missing (user, key)
        pairs are created in one batch by calling
        ``fresh(user_indices, keys[user_indices])``, which must return one
        symbol per missing user; the result is written to the table and
        reused forever after.  The table is read and written through flat
        takes at ``user * n_keys + key``.
        """
        table = self._ensure_allocated().reshape(-1)
        flat = self._row_offsets + keys
        memoized = table.take(flat)
        missing = memoized < 0
        if missing.any():
            missing_users = np.flatnonzero(missing)
            missing_slots = flat[missing_users]
            table[missing_slots] = fresh(missing_users, keys[missing_users])
            memoized[missing_users] = table.take(missing_slots)
        return memoized.astype(np.int64)

    def distinct_per_user(self) -> np.ndarray:
        """Number of memoized keys per user (the eps_avg accounting input)."""
        if self._table is None:
            return np.zeros(self.n_users, dtype=np.int64)
        return (self._table >= 0).sum(axis=1, dtype=np.int64)


def _require_present(present: np.ndarray, users: np.ndarray, keys: np.ndarray) -> None:
    """Refuse to read rows of (user, key) pairs that were never memoized."""
    if not present.all():
        first = int(np.flatnonzero(~present)[0])
        raise ParameterError(
            f"{int((~present).sum())} requested memo row(s) were never memoized "
            f"(first: user {int(users[first])}, key {int(keys[first])}); "
            f"call ensure_rows for them first"
        )


class _PackedBitMemoBase(ABC):
    """Shared contract of the packed memoization tables.

    Subclasses differ only in how packed rows are stored; the order in
    which :meth:`ensure_rows` creates missing rows (and therefore the
    randomness consumption order) is identical, which is what makes dense
    and sparse layouts bit-identical.
    """

    def __init__(self, n_users: int, n_keys: int, n_bits: int) -> None:
        self.n_users = require_int_at_least(n_users, 1, "n_users")
        self.n_keys = require_int_at_least(n_keys, 1, "n_keys")
        self.n_bits = require_int_at_least(n_bits, 1, "n_bits")
        self._n_bytes = -(-n_bits // 8)

    @property
    @abstractmethod
    def nbytes_allocated(self) -> int:
        """Bytes currently held by the backing arrays (0 before first use)."""

    def widen_rows(self, n_bits: int) -> None:
        """Widen the rows to ``n_bits`` bits; only before the first row exists."""
        if self.nbytes_allocated:
            raise ParameterError("cannot widen the rows of a memo table in use")
        self.n_bits = require_int_at_least(n_bits, self.n_bits, "n_bits")
        self._n_bytes = -(-self.n_bits // 8)

    @abstractmethod
    def ensure_rows(
        self, keys: np.ndarray, fresh: FreshRows, users: Optional[np.ndarray] = None
    ) -> None:
        """Create every missing (``users[i]``, ``keys[i]``) row through ``fresh``.

        ``users`` defaults to every user, in order (one key per user).
        Misses are batched exactly as in :meth:`resolve` (one ``fresh`` call
        in the order of ``users``), so the randomness consumption is
        identical whichever entry point triggers creation.
        """

    @abstractmethod
    def packed_rows(self, users: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Packed rows of the given (user, key) pairs, which must all have
        been memoized already (see :meth:`ensure_rows`); an absent pair
        raises :class:`~repro.exceptions.ParameterError`."""

    def _resolve_packed(self, keys: np.ndarray, fresh: FreshRows) -> np.ndarray:
        self.ensure_rows(keys, fresh)
        return self.packed_rows(np.arange(self.n_users), keys)

    @abstractmethod
    def distinct_per_user(self) -> np.ndarray:
        """Number of memoized keys per user."""

    @abstractmethod
    def get_row(self, user: int, key: int) -> Optional[np.ndarray]:
        """The memoized bits of one (user, key) pair, or ``None`` if absent."""

    def _pack_fresh(self, fresh: FreshRows, users: np.ndarray, keys: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(fresh(users, keys), dtype=np.uint8)
        return np.packbits(rows, axis=1)

    def resolve(self, keys: np.ndarray, fresh: FreshRows) -> np.ndarray:
        """Memoized ``(n_users, n_bits)`` rows for every user's current key.

        Missing pairs are created in one batch via
        ``fresh(user_indices, keys[user_indices])`` (shape
        ``(n_missing, n_bits)``, dtype coercible to uint8), packed and stored.
        """
        packed_rows = self._resolve_packed(keys, fresh)
        return np.unpackbits(packed_rows, axis=1, count=self.n_bits)

    def column_sums(self, keys: np.ndarray, fresh: FreshRows) -> np.ndarray:
        """Per-bit-position sums of every user's current memoized row.

        Equivalent to ``resolve(keys, fresh).sum(axis=0)`` — including the
        randomness consumed for missing pairs — but computed on the packed
        bytes, so the full ``(n_users, n_bits)`` matrix is never unpacked.
        """
        packed_rows = self._resolve_packed(keys, fresh)
        return packed_column_sums_kernel(packed_rows, self.n_bits)


class PackedBitMemo(_PackedBitMemoBase):
    """Dense bit-packed ``(n_users, n_keys, n_bits)`` table of memoized rows.

    Rows are stored packed along the last axis; a boolean presence mask marks
    which (user, key) pairs have been permanently randomized.  Storage is
    allocated lazily on first use.
    """

    def __init__(self, n_users: int, n_keys: int, n_bits: int) -> None:
        super().__init__(n_users, n_keys, n_bits)
        self._packed: Optional[np.ndarray] = None
        self._present: Optional[np.ndarray] = None

    @property
    def nbytes_allocated(self) -> int:
        if self._packed is None:
            return 0
        return self._packed.nbytes + self._present.nbytes

    def _ensure_allocated(self) -> None:
        if self._packed is None:
            projected = self.n_users * self.n_keys * (self._n_bytes + 1)
            if projected > _DENSE_ALLOCATION_WARN_BYTES:
                # The table is dense over (user, key), unlike the reference
                # clients' per-visited-pair dicts; at very large domains that
                # is a real footprint.  make_packed_bit_memo switches to
                # SparsePackedBitMemo above this threshold.
                warnings.warn(
                    f"PackedBitMemo is allocating "
                    f"{projected / 1024**3:.1f} GiB for {self.n_users} users x "
                    f"{self.n_keys} keys x {self.n_bits} bits; consider "
                    f"SparsePackedBitMemo (make_packed_bit_memo) to bound "
                    f"peak memory",
                    ResourceWarning,
                    stacklevel=4,
                )
            self._packed = np.zeros(
                (self.n_users, self.n_keys, self._n_bytes), dtype=np.uint8
            )
            self._present = np.zeros((self.n_users, self.n_keys), dtype=bool)

    def ensure_rows(
        self, keys: np.ndarray, fresh: FreshRows, users: Optional[np.ndarray] = None
    ) -> None:
        """Create every missing (``users[i]``, ``keys[i]``) row through ``fresh``.

        One flat index ``users * n_keys + keys`` serves the presence read
        and both writes, through the flat views of the table and the mask.
        """
        self._ensure_allocated()
        if users is None:
            users = np.arange(self.n_users)
        flat = np.asarray(users, dtype=np.int64) * self.n_keys + keys
        missing = ~self._present.reshape(-1).take(flat)
        if missing.any():
            new = flat[missing]
            packed = self._pack_fresh(fresh, users[missing], keys[missing])
            self._packed.reshape(-1, self._n_bytes)[new] = packed
            self._present.reshape(-1)[new] = True

    def packed_rows(self, users: np.ndarray, keys: np.ndarray) -> np.ndarray:
        self._ensure_allocated()
        # One flat take per gather: cheaper than the 2-D fancy index.
        flat = np.asarray(users, dtype=np.int64) * self.n_keys + keys
        _require_present(self._present.reshape(-1).take(flat), users, keys)
        return self._packed.reshape(-1, self._n_bytes).take(flat, axis=0)

    def distinct_per_user(self) -> np.ndarray:
        if self._present is None:
            return np.zeros(self.n_users, dtype=np.int64)
        return self._present.sum(axis=1, dtype=np.int64)

    def get_row(self, user: int, key: int) -> Optional[np.ndarray]:
        if self._present is None or not self._present[user, key]:
            return None
        return np.unpackbits(self._packed[user, key], count=self.n_bits)


class _PairHashIndex:
    """Vectorized open-addressing map from int64 pair ids to int32 row slots.

    The sparse memo previously kept a dense ``int32`` pointer table over
    every possible (user, key) pair — ``4 n k`` bytes even when almost no
    pair is memoized (80 MiB at ``n = 10^4, k = 2048``).  This index stores
    only the pairs that exist: linear-probed open addressing over two flat
    arrays (int64 key, int32 value), grown at 2/3 load, with batched lookups
    and inserts that stay fully vectorized — the probe loop iterates over
    *probe distance*, not over entries, so a whole round's worth of keys is
    resolved in a handful of gathers.
    """

    _EMPTY = np.int64(-1)

    def __init__(self, min_capacity: int = 1024) -> None:
        capacity = 1 << max(int(min_capacity) - 1, 1).bit_length()
        self._keys = np.full(capacity, self._EMPTY, dtype=np.int64)
        self._values = np.empty(capacity, dtype=np.int32)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def nbytes(self) -> int:
        return self._keys.nbytes + self._values.nbytes

    @staticmethod
    def _hash(pair_ids: np.ndarray) -> np.ndarray:
        """SplitMix64-style avalanche so consecutive pair ids spread out."""
        h = pair_ids.astype(np.uint64)
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return h ^ (h >> np.uint64(31))

    def lookup(self, pair_ids: np.ndarray) -> np.ndarray:
        """Row slot of each pair id, ``-1`` where the pair is absent."""
        pair_ids = np.asarray(pair_ids, dtype=np.int64)
        mask = np.uint64(self._keys.size - 1)
        slots = (self._hash(pair_ids) & mask).astype(np.int64)
        result = np.full(pair_ids.shape, -1, dtype=np.int32)
        pending = np.arange(pair_ids.size)
        while pending.size:
            stored = self._keys[slots[pending]]
            hits = stored == pair_ids[pending]
            empty = stored == self._EMPTY
            if hits.any():
                found = pending[hits]
                result[found] = self._values[slots[found]]
            pending = pending[~(hits | empty)]
            if pending.size:
                slots[pending] = (slots[pending] + 1) & np.int64(mask)
        return result

    def insert(self, pair_ids: np.ndarray, rows: np.ndarray) -> None:
        """Insert distinct, currently-absent pair ids mapping to row slots."""
        pair_ids = np.asarray(pair_ids, dtype=np.int64)
        if not pair_ids.size:
            return
        if 3 * (self._n + pair_ids.size) >= 2 * self._keys.size:
            self._grow(self._n + pair_ids.size)
        mask = np.uint64(self._keys.size - 1)
        slots = (self._hash(pair_ids) & mask).astype(np.int64)
        pending = np.arange(pair_ids.size)
        while pending.size:
            stored = self._keys[slots[pending]]
            empty = stored == self._EMPTY
            if empty.any():
                claimants = pending[empty]
                targets = slots[claimants]
                # Several claimants may race for one slot within the batch;
                # the write below keeps the last one, the read-back keeps the
                # rest probing.
                self._keys[targets] = pair_ids[claimants]
                self._values[targets] = rows[claimants]
                won = self._keys[targets] == pair_ids[claimants]
                pending = np.concatenate([pending[~empty], claimants[~won]])
            else:
                pending = pending[~empty]
            if pending.size:
                slots[pending] = (slots[pending] + 1) & np.int64(mask)
        self._n += pair_ids.size

    def _grow(self, needed: int) -> None:
        present = self._keys != self._EMPTY
        old_keys, old_values = self._keys[present], self._values[present]
        capacity = self._keys.size
        while 3 * needed >= 2 * capacity:
            capacity *= 2
        self._keys = np.full(capacity, self._EMPTY, dtype=np.int64)
        self._values = np.empty(capacity, dtype=np.int32)
        self._n = 0
        self.insert(old_keys, old_values)


class SparsePackedBitMemo(_PackedBitMemoBase):
    """Row-sparse packed memoization table for large key domains.

    Storage is a hashed (user, key) index (:class:`_PairHashIndex` — ~12
    bytes per *memoized* pair instead of the previous dense ``4 n k``-byte
    int32 pointer table spanning every possible pair) plus a packed-row pool
    that only holds rows actually created, grown geometrically in chunks
    (amortized O(1) per appended row).  Resolve order (and so randomness
    consumption) stays bit-identical to :class:`PackedBitMemo`.
    """

    def __init__(self, n_users: int, n_keys: int, n_bits: int) -> None:
        super().__init__(n_users, n_keys, n_bits)
        self._index: Optional[_PairHashIndex] = None
        self._pool: Optional[np.ndarray] = None
        self._per_user: Optional[np.ndarray] = None
        self._n_rows = 0

    @property
    def nbytes_allocated(self) -> int:
        if self._index is None:
            return 0
        return self._index.nbytes + self._pool.nbytes + self._per_user.nbytes

    @property
    def n_rows_memoized(self) -> int:
        """Rows currently held in the pool (distinct memoized pairs)."""
        return self._n_rows

    def _pair_ids(self, users: np.ndarray, keys: np.ndarray) -> np.ndarray:
        return np.asarray(users, dtype=np.int64) * self.n_keys + np.asarray(
            keys, dtype=np.int64
        )

    def _ensure_allocated(self) -> None:
        if self._index is None:
            self._index = _PairHashIndex(min_capacity=2 * self.n_users)
            self._pool = np.empty((max(self.n_users, 1), self._n_bytes), dtype=np.uint8)
            self._per_user = np.zeros(self.n_users, dtype=np.int64)

    def _append_rows(self, packed: np.ndarray) -> np.ndarray:
        """Append packed rows to the pool, growing geometrically; returns the
        new rows' pool indices."""
        n_new = packed.shape[0]
        needed = self._n_rows + n_new
        if needed > self._pool.shape[0]:
            capacity = max(needed, 2 * self._pool.shape[0])
            grown = np.empty((capacity, self._n_bytes), dtype=np.uint8)
            grown[: self._n_rows] = self._pool[: self._n_rows]
            self._pool = grown
        indices = np.arange(self._n_rows, needed, dtype=np.int32)
        self._pool[self._n_rows : needed] = packed
        self._n_rows = needed
        return indices

    def ensure_rows(
        self, keys: np.ndarray, fresh: FreshRows, users: Optional[np.ndarray] = None
    ) -> None:
        self._ensure_allocated()
        if users is None:
            users = np.arange(self.n_users)
        missing = self._index.lookup(self._pair_ids(users, keys)) < 0
        if missing.any():
            missing_users = users[missing]
            missing_keys = keys[missing]
            packed = self._pack_fresh(fresh, missing_users, missing_keys)
            self._index.insert(
                self._pair_ids(missing_users, missing_keys), self._append_rows(packed)
            )
            self._per_user[missing_users] += 1

    def packed_rows(self, users: np.ndarray, keys: np.ndarray) -> np.ndarray:
        self._ensure_allocated()
        slots = self._index.lookup(self._pair_ids(users, keys))
        _require_present(slots >= 0, users, keys)
        return self._pool[slots]

    def distinct_per_user(self) -> np.ndarray:
        if self._per_user is None:
            return np.zeros(self.n_users, dtype=np.int64)
        return self._per_user.copy()

    def get_row(self, user: int, key: int) -> Optional[np.ndarray]:
        if self._index is None:
            return None
        slot = int(self._index.lookup(np.asarray([user * self.n_keys + key]))[0])
        if slot < 0:
            return None
        return np.unpackbits(self._pool[slot], count=self.n_bits)


def make_packed_bit_memo(n_users: int, n_keys: int, n_bits: int) -> _PackedBitMemoBase:
    """Create a packed memoization table, picking the layout for the scale.

    Selects :class:`SparsePackedBitMemo` whenever the dense table would
    exceed the :data:`_DENSE_ALLOCATION_WARN_BYTES` threshold, and the dense
    :class:`PackedBitMemo` otherwise.  Both layouts resolve bit-identically,
    so the choice never changes simulation results.
    """
    n_bytes = -(-n_bits // 8)
    projected = n_users * n_keys * (n_bytes + 1)
    if projected > _DENSE_ALLOCATION_WARN_BYTES:
        return SparsePackedBitMemo(n_users, n_keys, n_bits)
    return PackedBitMemo(n_users, n_keys, n_bits)
