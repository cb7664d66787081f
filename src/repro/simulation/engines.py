"""Vectorized population engines: thin kernel + state compositions.

Driving one Python client object per user is the clearest way to run a
protocol, but for the paper-sized populations (up to 45k users over 260
rounds) the per-call overhead dominates.  Each engine in this module
re-implements one protocol family's *entire client population* while
preserving the same randomized behaviour, by composing exactly two layers:

* a *perturbation kernel* from :mod:`repro.simulation.kernels` — the pure,
  stateless numpy function that realizes the protocol's randomization;
* a *memoization state* from :mod:`repro.simulation.state` — a dense or
  row-sparse table holding the permanent randomization of each (user, key)
  pair, created in batches the first time a pair occurs.

Neither the round loop nor any constructor contains a per-user Python loop,
and — since the aggregated-sampling pass — the *instantaneous* randomization
of every engine is sampled in aggregate: the per-round randomness cost is a
function of the (hashed) domain size alone, never of ``n_users``
(``docs/architecture.md`` tabulates the per-engine round complexity).  The
UE engine also draws the *permanent* randomization of once-visited (user,
value) pairs in aggregate: given a round's ``once`` mask (from
:meth:`~repro.datasets.LongitudinalDataset.once_visited_mask`, which the
offline drivers pass), only pairs that recur get a memo row.  The only
per-round outputs are the support counts, which the aggregation sinks of
:mod:`repro.simulation.sinks` fold incrementally.

Every engine exposes the same protocol:

``run_round(values_t, rng) -> support_counts``
    Process one collection round for all users and return the support counts
    the server aggregates for that round.  :class:`UnaryChainEngine` (and its
    ``run_rounds``) also takes ``once=``, one boolean per user; without it
    every pair is treated as reused.

``run_rounds(values_t, n_rounds, rng) -> (n_rounds, m) support counts``
    Process ``n_rounds`` consecutive rounds in which every user holds the
    same value, collapsing the per-round kernel calls into one batched
    draw.  **Bit-identical** to calling :meth:`run_round` ``n_rounds``
    times with the same generator: the batched binomial kernels consume the
    underlying bit stream in exactly the sequential order (see
    :func:`repro.simulation.kernels.ue_binomial_counts_batch_kernel`), so
    callers — the window-batching runner above all — can mix the two freely.

``distinct_memoized_per_user() -> np.ndarray``
    Per-user count of permanently randomized keys so far (the input of the
    ``eps_avg`` metric).

The deterministic hot folds (packed column sums of the UE and dBitFlipPM
memo rows, the LOLOHA support fold, the GRR symbol bincount) are routed
through a :class:`~repro.simulation.kernels_backend.KernelBackend`; the
optional compiled backend changes wall-clock time only, never results, and
the randomness-consuming kernels always stay on the numpy ``Generator``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import Callable, List, Optional, Union

import numpy as np

from .._validation import as_rng, require_int_at_least
from ..exceptions import ExperimentError, ParameterError
from ..hashing.families import hashed_domain_dtype
from ..longitudinal.base import LongitudinalProtocol
from ..longitudinal.dbitflip import DBitFlipPM
from ..longitudinal.l_grr import LGRR
from ..longitudinal.l_ue import LongitudinalUnaryEncoding
from ..longitudinal.loloha import LOLOHA
from ..obs.metrics import default_registry
from ..rng import RngLike
from .kernels import (
    dbitflip_fresh_bits_kernel,
    grr_kernel,
    grr_mixing_counts_batch_kernel,
    grr_mixing_counts_kernel,
    sample_buckets_kernel,
    ue_binomial_counts_batch_kernel,
    ue_binomial_counts_kernel,
    ue_fresh_rows_kernel,
)
from .kernels_backend import KernelBackend, resolve_backend
from .sinks import estimate_support_counts
from .state import DenseSymbolMemo, _PackedBitMemoBase, make_packed_bit_memo

__all__ = [
    "PopulationEngine",
    "GRRChainEngine",
    "UnaryChainEngine",
    "DBitFlipEngine",
    "LOLOHAEngine",
    "engine_for",
]

#: Byte budget above which :class:`LOLOHAEngine` skips precomputing the
#: packed per-hash-symbol support planes and falls back to the dense
#: compare-based fold.
_SUPPORT_PLANES_MAX_BYTES = 1024**3

#: Bytes of hashed-domain table per row block when :class:`LOLOHAEngine`
#: packs its support planes: a block stays in cache for its ``g``
#: compare-and-pack passes.
_SUPPORT_PLANES_BLOCK_BYTES = 1 << 18

#: Rows per chunk of the flat index that scatters fresh dBitFlipPM bits
#: into bucket coordinates when ``d < b`` (see :func:`_bucket_rows`).
_SCATTER_CHUNK_ROWS = 4096


# Cached (registry, delta counter, full counter) triple for the fold cache —
# re-resolved when a test swaps the default registry, otherwise one identity
# check per update keeps the hot path free of registry lookups.
_fold_counters_cache = None


def _fold_counters():
    global _fold_counters_cache
    registry = default_registry()
    if _fold_counters_cache is None or _fold_counters_cache[0] is not registry:
        _fold_counters_cache = (
            registry,
            registry.counter(
                "repro_sim_delta_folds_total",
                "Rounds folded incrementally (only changed users refolded).",
            ),
            registry.counter(
                "repro_sim_full_refolds_total",
                "Rounds that fell back to a full population refold.",
            ),
        )
    return _fold_counters_cache


class _DeltaFoldCache:
    """Incremental per-round fold of immutable per-(user, key) contributions.

    ``fold(users, keys)`` must return the summed contribution vector of the
    given users under the given keys.  Contributions never change once a
    (user, key) pair exists, so between rounds only users whose key changed
    need refolding.  Two refinements keep the delta path cheap and stable:

    * ``fold_delta(users, new_keys, old_keys)``, when given, computes the
      ``+ new − old`` adjustment in **one fused pass** instead of two folds
      (the packed engines — UE, dBitFlipPM and LOLOHA's support planes —
      fold ``[new_rows, ~old_rows]`` together and subtract the row count,
      using ``colsum(~r) = 1 − colsum(r)`` per column);
    * the full-refold cutover has *hysteresis*: the cache enters the delta
      path when at most half the population moved (the naive break-even for
      the two-fold delta) but, once in it, tolerates up to 5/8 before
      falling back.  Workloads hovering around the 50 % churn mark
      previously flip-flopped between the two costs every round; the band
      keeps them on one side.

    Longitudinal values are sticky across rounds, making the delta path the
    common case.

    The engines build their folds with :func:`functools.partial` over the
    memo table and backend, never as bound methods: a cache holding the
    engine's own methods would put every engine in a reference cycle, and
    its memo (hundreds of MB at paper scale) would outlive the engine until
    the cyclic collector happened to run.
    """

    def __init__(
        self,
        n_users: int,
        fold: Callable[[np.ndarray, np.ndarray], np.ndarray],
        fold_delta: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None,
    ) -> None:
        self._n_users = n_users
        self._fold = fold
        self._fold_delta = fold_delta
        self._last_keys: Optional[np.ndarray] = None
        self._sums: Optional[np.ndarray] = None
        self._delta_mode = False

    def update(self, keys: np.ndarray) -> np.ndarray:
        if self._sums is not None:
            changed = np.flatnonzero(keys != self._last_keys)
            threshold = (
                (5 * self._n_users) // 8 if self._delta_mode else self._n_users // 2
            )
            if changed.size <= threshold:
                if changed.size:
                    if self._fold_delta is not None:
                        self._sums += self._fold_delta(
                            changed, keys[changed], self._last_keys[changed]
                        )
                    else:
                        self._sums += self._fold(changed, keys[changed])
                        self._sums -= self._fold(changed, self._last_keys[changed])
                    self._last_keys[changed] = keys[changed]
                self._delta_mode = True
                _fold_counters()[1].inc()
                return self._sums
        self._sums = self._fold(np.arange(self._n_users), keys)
        self._last_keys = keys.copy()
        self._delta_mode = False
        _fold_counters()[2].inc()
        return self._sums


def _validated_memo(memo, memo_type, expected, engine_name: str):
    """Check an injected memo table against the engine's required geometry."""
    if not isinstance(memo, memo_type):
        raise ParameterError(
            f"{engine_name} requires a {memo_type.__name__} memo table, "
            f"got {type(memo).__name__}"
        )
    actual = tuple(getattr(memo, name) for name in expected)
    wanted = tuple(expected.values())
    if actual != wanted:
        described = ", ".join(
            f"{name}={value}" for name, value in zip(expected, actual)
        )
        needed = ", ".join(f"{name}={value}" for name, value in expected.items())
        raise ParameterError(
            f"injected memo table geometry ({described}) does not match what "
            f"{engine_name} needs ({needed})"
        )
    return memo


class PopulationEngine(ABC):
    """Base class: a vectorized population of clients for one protocol.

    ``backend`` selects the :class:`~repro.simulation.kernels_backend
    .KernelBackend` for the deterministic hot folds — ``None`` defers to the
    process default (``REPRO_KERNEL_BACKEND``), a name or a backend object
    overrides it for this engine alone.  Backends never touch the
    randomness stream, so simulations are bit-identical across them.
    """

    def __init__(
        self,
        protocol: LongitudinalProtocol,
        n_users: int,
        rng: RngLike = None,
        backend: Union[str, KernelBackend, None] = None,
    ) -> None:
        self.protocol = protocol
        self.n_users = require_int_at_least(n_users, 1, "n_users")
        self._rng = as_rng(rng)
        self._backend = resolve_backend(backend)
        # Info-style gauge: which kernel backend actually serves the folds —
        # the visible trace of a `native` request silently falling back.
        default_registry().gauge(
            "repro_sim_backend_info",
            "Kernel backend serving engine folds (value is always 1).",
        ).labels(backend=self._backend.name).set(1)

    @property
    def backend_name(self) -> str:
        """Name of the kernel backend serving this engine's hot folds."""
        return self._backend.name

    def memo_nbytes(self) -> Optional[int]:
        """Bytes currently held by this engine's memo table, if it has one.

        Packed memos report lazily materialized storage
        (``nbytes_allocated``), dense ones their array sizes (``nbytes``);
        engines without a table answer ``None``.
        """
        state = getattr(self, "_state", None)
        if state is None:
            return None
        for attr in ("nbytes_allocated", "nbytes"):
            value = getattr(state, attr, None)
            if callable(value):
                return int(value())
            if value is not None:
                return int(value)
        return None

    @abstractmethod
    def run_round(self, values_t: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Process one round of values (one per user) and return support counts."""

    def run_rounds(
        self,
        values_t: np.ndarray,
        n_rounds: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Process ``n_rounds`` consecutive rounds of identical values.

        Returns the stacked support counts, shape ``(n_rounds, m)``; row
        ``r`` is exactly what the ``r``-th sequential :meth:`run_round` call
        would have returned with the same generator.  The base implementation
        is that sequential loop; engines whose steady-round randomness can be
        drawn in one batch override it.
        """
        n_rounds = require_int_at_least(n_rounds, 1, "n_rounds")
        generator = self._round_rng(rng)
        return np.stack(
            [self.run_round(values_t, generator) for _ in range(n_rounds)]
        )

    @abstractmethod
    def distinct_memoized_per_user(self) -> np.ndarray:
        """Per-user number of permanently randomized memoization keys."""

    def estimate_round(
        self, values_t: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Run one round and return the unbiased frequency estimate."""
        counts = self.run_round(values_t, rng)
        return estimate_support_counts(self.protocol, counts, self.n_users)

    def _validate_round(self, values_t: np.ndarray) -> np.ndarray:
        values_t = np.asarray(values_t, dtype=np.int64)
        if values_t.shape != (self.n_users,):
            raise ExperimentError(
                f"expected one value per user (shape ({self.n_users},)), got {values_t.shape}"
            )
        if values_t.min() < 0 or values_t.max() >= self.protocol.k:
            raise ExperimentError(
                f"round values must lie in [0, {self.protocol.k})"
            )
        return values_t

    def _round_rng(self, rng: Optional[np.random.Generator]) -> np.random.Generator:
        return self._rng if rng is None else as_rng(rng)


class GRRChainEngine(PopulationEngine):
    """Vectorized population for :class:`repro.longitudinal.LGRR`.

    The memoization key of L-GRR is the value itself, so the state is one
    memoized symbol per (user, value) pair.  The instantaneous GRR is sampled
    in aggregate per memoized symbol (:func:`grr_mixing_counts_kernel`):
    after the O(n) memoization lookup, the round consumes ``O(k)`` randomness
    regardless of the population size.
    """

    def __init__(
        self,
        protocol: LGRR,
        n_users: int,
        rng: RngLike = None,
        backend: Union[str, KernelBackend, None] = None,
        memo: Optional[DenseSymbolMemo] = None,
    ) -> None:
        if not isinstance(protocol, LGRR):
            raise ParameterError("GRRChainEngine requires an LGRR protocol")
        super().__init__(protocol, n_users, rng, backend=backend)
        if memo is None:
            memo = DenseSymbolMemo(n_users, protocol.k)
        self._state = _validated_memo(
            memo,
            DenseSymbolMemo,
            {"n_users": n_users, "n_keys": protocol.k},
            "GRRChainEngine",
        )

    def _memoized_symbol_counts(
        self, values_t: np.ndarray, generator: np.random.Generator
    ) -> np.ndarray:
        params = self.protocol.chained_parameters
        k = self.protocol.k
        memoized = self._state.resolve(
            values_t, lambda users, keys: grr_kernel(keys, k, params.p1, generator)
        )
        return self._backend.symbol_bincount(memoized, k)

    def run_round(self, values_t: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        values_t = self._validate_round(values_t)
        generator = self._round_rng(rng)
        symbol_counts = self._memoized_symbol_counts(values_t, generator)
        return grr_mixing_counts_kernel(
            symbol_counts, self.protocol.k, self.protocol.chained_parameters.p2, generator
        )

    def run_rounds(
        self,
        values_t: np.ndarray,
        n_rounds: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        n_rounds = require_int_at_least(n_rounds, 1, "n_rounds")
        values_t = self._validate_round(values_t)
        generator = self._round_rng(rng)
        # With unchanged values only the first round can memoize fresh pairs;
        # the remaining rounds' GRR mixing collapses into one batched draw.
        symbol_counts = self._memoized_symbol_counts(values_t, generator)
        return grr_mixing_counts_batch_kernel(
            symbol_counts,
            self.protocol.k,
            self.protocol.chained_parameters.p2,
            n_rounds,
            generator,
        )

    def distinct_memoized_per_user(self) -> np.ndarray:
        return self._state.distinct_per_user()


#: Fold key of a user whose current (user, value) pair is visited once: its
#: row never enters the memo, so it adds nothing to the folded column sums.
_ONCE_KEY = -1


def _memo_rows(rows, users, keys):
    """``rows(users, keys)`` of the users whose key is not :data:`_ONCE_KEY`."""
    held = keys != _ONCE_KEY
    return rows(users[held], keys[held])


def _packed_fold(backend, rows, n_bits, users, keys):
    """Column sums of the packed rows ``rows(users, keys)``."""
    return backend.packed_column_sums(_memo_rows(rows, users, keys), n_bits)


def _packed_fold_delta(backend, rows, n_bits, users, new_keys, old_keys):
    # colsum(new) − colsum(old) == colsum([new, ~old]) − n_old per column:
    # inverting the packed bytes turns each old row into its complement (the
    # byte tail pad lands in truncated columns >= n_bits), so one fused fold
    # replaces the two-pass add/subtract.
    old_rows = _memo_rows(rows, users, old_keys)
    fused = np.concatenate([_memo_rows(rows, users, new_keys), np.invert(old_rows)])
    return backend.packed_column_sums(fused, n_bits) - old_rows.shape[0]


def _plane_rows(flat_planes, n_users, users, symbols):
    """Packed support rows of ``users`` under their memoized ``symbols``:
    one flat take from the ``(g * n_users, width)`` view of the planes."""
    return flat_planes.take(symbols * n_users + users, axis=0)


def _compare_fold(backend, hashed_domain, users, symbols):
    """``sum_u [H_u(v) == symbols[u]]`` per value ``v``, compared per round."""
    return backend.support_fold(hashed_domain[users], symbols)


def _bucket_rows(sampled_buckets, b, users, bits):
    """Scatter sample-order dBitFlipPM bits into ``b``-bit rows in bucket order.

    Only ``d < b`` needs it: with ``d == b`` the engine draws the row in
    bucket order directly.  Row ``i`` gets ``bits[i, l]`` at column
    ``sampled_buckets[users[i], l]`` and zeros outside the user's sample.
    The scatter runs through a flat 1-D index built per chunk of rows, which
    bounds the index's memory.
    """
    rows = np.zeros((users.size, b), dtype=np.uint8)
    flat = rows.reshape(-1)
    for start in range(0, users.size, _SCATTER_CHUNK_ROWS):
        stop = min(start + _SCATTER_CHUNK_ROWS, users.size)
        index = sampled_buckets[users[start:stop]] + np.arange(start * b, stop * b, b)[:, None]
        flat[index.ravel()] = bits[start:stop].ravel()
    return rows


class UnaryChainEngine(PopulationEngine):
    """Vectorized population for the longitudinal UE protocols.

    The permanently randomized ``k``-bit vectors of reused (user, value)
    pairs are held in a bit-packed memo table indexed by (user, value),
    materialized lazily in batches; the layout (dense up to a 512 MiB
    projection, row-sparse above) is picked by
    :func:`repro.simulation.state.make_packed_bit_memo`, or the table itself
    injected with ``memo=`` (which also forces a layout).  The round path
    folds the packed rows straight into per-column sums — the full
    ``(n_users, k)`` bit matrix is never unpacked — and samples the
    instantaneous flips in aggregate (two binomials per column).

    ``once`` (a boolean mask over users, passed per round by the offline
    drivers from :meth:`~repro.datasets.LongitudinalDataset
    .once_visited_mask`) marks users whose current pair occurs in this round
    only.  Such a row would add to one round's column sums and never be
    read again, so it is never drawn: with ``s`` once-visited users, ``s_j``
    of them at value ``j``, their memoized ones in column ``j`` are
    ``Binomial(s_j, p1) + Binomial(s - s_j, q1)`` — exact in joint
    distribution, since the bits of a UE row are independent.  Without a
    mask every pair is treated as reused.
    """

    def __init__(
        self,
        protocol: LongitudinalUnaryEncoding,
        n_users: int,
        rng: RngLike = None,
        backend: Union[str, KernelBackend, None] = None,
        memo: Optional[_PackedBitMemoBase] = None,
    ) -> None:
        if not isinstance(protocol, LongitudinalUnaryEncoding):
            raise ParameterError("UnaryChainEngine requires a longitudinal UE protocol")
        super().__init__(protocol, n_users, rng, backend=backend)
        if memo is not None:
            self._state = _validated_memo(
                memo,
                _PackedBitMemoBase,
                {"n_users": n_users, "n_keys": protocol.k, "n_bits": protocol.k},
                "UnaryChainEngine",
            )
        else:
            self._state = make_packed_bit_memo(n_users, protocol.k, protocol.k)
        #: Per-user count of once-visited pairs, which the memo never holds.
        self._once_per_user = np.zeros(n_users, dtype=np.int64)
        fold_args = (self._backend, self._state.packed_rows, protocol.k)
        self._column_sums = _DeltaFoldCache(
            n_users, partial(_packed_fold, *fold_args), partial(_packed_fold_delta, *fold_args)
        )

    def _memoized_column_sums(
        self,
        values_t: np.ndarray,
        generator: np.random.Generator,
        once: Optional[np.ndarray],
    ) -> np.ndarray:
        params = self.protocol.chained_parameters
        k = self.protocol.k
        if once is None:
            once = np.zeros(self.n_users, dtype=bool)
        once = np.asarray(once, dtype=bool)
        if once.shape != (self.n_users,):
            raise ExperimentError(
                f"expected one once-visited flag per user (shape ({self.n_users},)), "
                f"got {once.shape}"
            )
        reused = np.flatnonzero(~once)
        self._state.ensure_rows(
            values_t[reused],
            lambda users, keys: ue_fresh_rows_kernel(
                keys, k, params.p1, params.q1, generator
            ),
            users=reused,
        )
        # Column sums of the memoized rows, folded on the packed bytes (the
        # full (n_users, k) bit matrix is never unpacked) and updated
        # incrementally across rounds.
        memo_ones = self._column_sums.update(np.where(once, _ONCE_KEY, values_t))
        once_values = values_t[once]
        if not once_values.size:
            return memo_ones
        self._once_per_user += once
        return memo_ones + ue_binomial_counts_kernel(
            np.bincount(once_values, minlength=k), once_values.size,
            params.p1, params.q1, generator,
        )

    def run_round(
        self,
        values_t: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        once: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        values_t = self._validate_round(values_t)
        generator = self._round_rng(rng)
        params = self.protocol.chained_parameters
        memo_ones = self._memoized_column_sums(values_t, generator, once)
        # The instantaneous bit flips are independent across users, so the
        # column support counts can be sampled in aggregate (two binomials
        # per column) instead of flipping the full (n_users, k) matrix.
        return ue_binomial_counts_kernel(
            memo_ones, self.n_users, params.p2, params.q2, generator
        )

    def run_rounds(
        self,
        values_t: np.ndarray,
        n_rounds: int,
        rng: Optional[np.random.Generator] = None,
        once: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        n_rounds = require_int_at_least(n_rounds, 1, "n_rounds")
        values_t = self._validate_round(values_t)
        generator = self._round_rng(rng)
        params = self.protocol.chained_parameters
        memo_ones = self._memoized_column_sums(values_t, generator, once)
        return ue_binomial_counts_batch_kernel(
            memo_ones, self.n_users, params.p2, params.q2, n_rounds, generator
        )

    def distinct_memoized_per_user(self) -> np.ndarray:
        return self._state.distinct_per_user() + self._once_per_user


class DBitFlipEngine(PopulationEngine):
    """Vectorized population for :class:`repro.longitudinal.DBitFlipPM`.

    A memo row is one user's permanent response for one indicator key, held
    as ``b`` bits in bucket coordinates (zero outside the user's sample), so
    the round folds packed rows into bucket sums as the UE engine does.
    With ``d == b``, ``sampled_buckets`` is every bucket in bucket order, a
    user's key is its bucket, and a fresh row is a UE row over the ``b``
    buckets, the key its true column.  With ``d < b`` the ``d`` bits are
    drawn in sample order and scattered into the row, and a user's key, the
    position of its bucket among its ``d`` sampled buckets or ``d`` when
    none matches, is one flat ``take`` from an ``(n_users, b)`` table.

    With ``record_key_history=True`` the engine additionally records, per
    round, the memoization key used by each user — which is what the
    data-change detection attack of Table 2 observes.  Recording is opt-in
    because the history grows by one ``(n_users,)`` array per round forever,
    which long-horizon monitoring simulations must not pay for.
    """

    def __init__(
        self,
        protocol: DBitFlipPM,
        n_users: int,
        rng: RngLike = None,
        record_key_history: bool = False,
        backend: Union[str, KernelBackend, None] = None,
        memo: Optional[_PackedBitMemoBase] = None,
    ) -> None:
        if not isinstance(protocol, DBitFlipPM):
            raise ParameterError("DBitFlipEngine requires a DBitFlipPM protocol")
        super().__init__(protocol, n_users, rng, backend=backend)
        d, b = protocol.d, protocol.b
        #: Sampled buckets, fixed per user (without replacement) — one batched
        #: draw for the whole population.
        self.sampled_buckets = sample_buckets_kernel(n_users, b, d, self._rng)
        # Memoized b-bit rows per (user, indicator key); key d means "no
        # sampled bucket matches".
        if memo is None:
            memo = make_packed_bit_memo(n_users, d + 1, b)
        elif isinstance(memo, _PackedBitMemoBase) and memo.n_bits == d < b:
            # perfbench's tracing still injects tables sized for d-bit rows;
            # an unused one is widened to b bits.
            memo.widen_rows(b)
        self._state = _validated_memo(
            memo,
            _PackedBitMemoBase,
            {"n_users": n_users, "n_keys": d + 1, "n_bits": b},
            "DBitFlipEngine",
        )
        if d < b:
            # key_of[u, bucket]: position of the bucket in u's sample, or d;
            # read at the flat offset u * b + bucket.
            self._key_of = np.full((n_users, b), d, dtype=np.min_scalar_type(d))
            self._key_of[np.arange(n_users)[:, None], self.sampled_buckets] = np.arange(d)
            self._key_offsets = np.arange(n_users, dtype=np.int64) * b
        #: Per-round memoization keys used by each user, recorded only when
        #: ``record_key_history=True`` (``None`` otherwise); consumed by the
        #: change-detection attack.
        self.key_history: Optional[List[np.ndarray]] = [] if record_key_history else None
        fold_args = (self._backend, self._state.packed_rows, b)
        self._bucket_sums = _DeltaFoldCache(
            n_users, partial(_packed_fold, *fold_args), partial(_packed_fold_delta, *fold_args)
        )

    def _fresh_rows(self, users, keys, generator):
        p, q = self.protocol.bit_probabilities
        d, b = self.protocol.d, self.protocol.b
        if d == b:  # a UE row over the buckets, the key (the bucket) its true column
            return ue_fresh_rows_kernel(keys, b, p, q, generator)
        # The d bits are drawn in sample order, then scattered to buckets.
        bits = dbitflip_fresh_bits_kernel(keys, d, p, q, generator)
        return _bucket_rows(self.sampled_buckets, b, users, bits)

    def run_round(self, values_t: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        values_t = self._validate_round(values_t)
        generator = self._round_rng(rng)
        buckets = self.protocol.bucket_of(values_t)
        if self.protocol.d == self.protocol.b:
            keys = buckets
        else:
            keys = self._key_of.reshape(-1).take(self._key_offsets + buckets).astype(np.int64)
        if self.key_history is not None:
            self.key_history.append(keys)
        self._state.ensure_rows(
            keys, lambda users, kk: self._fresh_rows(users, kk, generator)
        )
        # astype copies: the cache updates its sums in place.
        return self._bucket_sums.update(keys).astype(np.float64)

    def distinct_memoized_per_user(self) -> np.ndarray:
        return self._state.distinct_per_user()

    def memoized_bits(self, user: int, key: int) -> Optional[np.ndarray]:
        """The memoized response of ``user`` for indicator ``key`` (or ``None``).

        The ``d`` bits come in the order of the user's sampled buckets.
        """
        row = self._state.get_row(user, key)
        return None if row is None else row[self.sampled_buckets[user]]


class LOLOHAEngine(PopulationEngine):
    """Vectorized population for :class:`repro.longitudinal.LOLOHA`.

    The per-user hash tables Algorithm 2 needs are drawn in one batched call
    through :meth:`repro.hashing.UniversalHashFamily.sample_hashed_domains`.
    The round is fully aggregated: the support fold counts, per candidate
    value ``v``, the users whose hash of ``v`` equals their *memoized* symbol
    — regrouped per (memoized symbol, hash bucket) as bit-packed support
    planes folded by popcount — and the instantaneous GRR is then sampled as
    two binomials per value on top of those counts, so the per-round
    randomness is ``O(k)`` draws instead of one GRR report per user.
    """

    def __init__(
        self,
        protocol: LOLOHA,
        n_users: int,
        rng: RngLike = None,
        support_layout: str = "auto",
        backend: Union[str, KernelBackend, None] = None,
        memo: Optional[DenseSymbolMemo] = None,
    ) -> None:
        if not isinstance(protocol, LOLOHA):
            raise ParameterError("LOLOHAEngine requires a LOLOHA protocol")
        super().__init__(protocol, n_users, rng, backend=backend)
        #: Pre-hashed domain per user: ``hashed_domain[u, v] = H_u(v)``.
        #: Always drawn from this engine's own stream — never shared state —
        #: so a run reproduces the identical tables in every execution
        #: mode.  The families return it in this dtype already, so
        #: ``astype`` copies only a custom family's wider table.
        self.hashed_domain = protocol.family.sample_hashed_domains(
            n_users, protocol.k, self._rng
        ).astype(hashed_domain_dtype(protocol.g), copy=False)
        #: Offset of each user's row in the flattened ``hashed_domain``.
        self._domain_offsets = np.arange(n_users, dtype=np.int64) * protocol.k
        if memo is None:
            memo = DenseSymbolMemo(n_users, protocol.g)
        self._state = _validated_memo(
            memo,
            DenseSymbolMemo,
            {"n_users": n_users, "n_keys": protocol.g},
            "LOLOHAEngine",
        )
        if support_layout not in ("auto", "packed", "compare"):
            raise ParameterError(
                f"support layout must be 'auto', 'packed' or 'compare', "
                f"got {support_layout!r}"
            )
        planes_bytes = protocol.g * n_users * (-(-protocol.k // 8))
        use_planes = support_layout == "packed" or (
            support_layout == "auto" and planes_bytes <= _SUPPORT_PLANES_MAX_BYTES
        )
        #: Bit-packed support planes: plane ``h``, row ``u`` packs the k-bit
        #: indicator row ``H_u(v) == h`` — the (memoized symbol, hash bucket)
        #: regrouping of the support fold.  ``None`` when the planes would
        #: exceed the byte budget; the fold then compares per round instead.
        self._support_planes: Optional[np.ndarray] = None
        if use_planes:
            self._support_planes = _packed_support_planes(self.hashed_domain, protocol.g)
        # A user's support row depends only on its memoized symbol (the hash
        # tables are fixed), so the fold is delta-cached on those symbols;
        # the packed-plane layout additionally gets the fused delta pass.
        if use_planes:
            flat_planes = self._support_planes.reshape(protocol.g * n_users, -1)
            fold_args = (
                self._backend, partial(_plane_rows, flat_planes, n_users), protocol.k
            )
            self._memoized_support = _DeltaFoldCache(
                n_users,
                partial(_packed_fold, *fold_args),
                partial(_packed_fold_delta, *fold_args),
            )
        else:
            self._memoized_support = _DeltaFoldCache(
                n_users, partial(_compare_fold, self._backend, self.hashed_domain)
            )

    def _memoized_support_counts(
        self, values_t: np.ndarray, generator: np.random.Generator
    ) -> np.ndarray:
        params = self.protocol.chained_parameters
        g = self.protocol.g
        hashed = self.hashed_domain.reshape(-1).take(self._domain_offsets + values_t)
        memoized = self._state.resolve(
            hashed, lambda u, keys: grr_kernel(keys, g, params.p1, generator)
        )
        return self._memoized_support.update(memoized)

    def run_round(self, values_t: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        values_t = self._validate_round(values_t)
        generator = self._round_rng(rng)
        params = self.protocol.chained_parameters
        # A user supports value v iff its report equals H_u(v); the report is
        # the memoized symbol with probability p2 and any fixed other symbol
        # with probability q2 = (1 - p2) / (g - 1), independently across
        # users.  Conditional on the memoized support counts D[v], the round's
        # support counts therefore marginalize per value to
        # Binomial(D[v], p2) + Binomial(n - D[v], q2) — the same aggregated
        # form as the UE round (cross-value covariance through shared reports
        # is not reproduced; every downstream consumer is per-value).
        memo_support = self._memoized_support_counts(values_t, generator)
        return ue_binomial_counts_kernel(
            memo_support, self.n_users, params.p2, params.q2, generator
        )

    def run_rounds(
        self,
        values_t: np.ndarray,
        n_rounds: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        n_rounds = require_int_at_least(n_rounds, 1, "n_rounds")
        values_t = self._validate_round(values_t)
        generator = self._round_rng(rng)
        params = self.protocol.chained_parameters
        memo_support = self._memoized_support_counts(values_t, generator)
        return ue_binomial_counts_batch_kernel(
            memo_support, self.n_users, params.p2, params.q2, n_rounds, generator
        )

    def distinct_memoized_per_user(self) -> np.ndarray:
        return self._state.distinct_per_user()


def _packed_support_planes(hashed_domain: np.ndarray, g: int) -> np.ndarray:
    """The ``(g, n, ceil(k/8))`` planes ``np.packbits(hashed_domain == h,
    axis=1)`` for every ``h``, filled one row block of about
    :data:`_SUPPORT_PLANES_BLOCK_BYTES` of table at a time."""
    n_users, k = hashed_domain.shape
    planes = np.empty((g, n_users, -(-k // 8)), dtype=np.uint8)
    block_rows = max(1, _SUPPORT_PLANES_BLOCK_BYTES // (hashed_domain.itemsize * max(k, 1)))
    matches = np.empty((min(block_rows, n_users), k), dtype=bool)
    for start in range(0, n_users, block_rows):
        stop = min(start + block_rows, n_users)
        block = hashed_domain[start:stop]
        for h in range(g):
            np.equal(block, h, out=matches[: stop - start])
            planes[h, start:stop] = np.packbits(matches[: stop - start], axis=1)
    return planes


#: Options each engine constructor accepts beyond ``(protocol, n_users,
#: rng)``.  ``engine_for`` validates against this so an override that an
#: engine would silently ignore (for instance ``support_layout`` on the
#: packed-memo engines) is an explicit error instead.
_ENGINE_OPTIONS = {
    GRRChainEngine: ("backend", "memo"),
    UnaryChainEngine: ("backend", "memo"),
    DBitFlipEngine: ("backend", "memo", "record_key_history"),
    LOLOHAEngine: ("backend", "memo", "support_layout"),
}


def engine_for(
    protocol: LongitudinalProtocol, n_users: int, rng: RngLike = None, **options
) -> PopulationEngine:
    """Instantiate the vectorized engine matching ``protocol``'s family.

    Keyword ``options`` are forwarded to the engine constructor after being
    validated against the engine's accepted set (see the per-engine
    signatures): passing an option the selected engine does not understand
    — e.g. ``support_layout`` for :class:`GRRChainEngine`, which has no
    LOLOHA support table to lay out — raises a
    :class:`~repro.exceptions.ParameterError` naming the valid options
    instead of being silently ignored.
    """
    for protocol_type, engine_type in (
        (LOLOHA, LOLOHAEngine),
        (LGRR, GRRChainEngine),
        (LongitudinalUnaryEncoding, UnaryChainEngine),
        (DBitFlipPM, DBitFlipEngine),
    ):
        if isinstance(protocol, protocol_type):
            allowed = _ENGINE_OPTIONS[engine_type]
            unknown = sorted(set(options) - set(allowed))
            if unknown:
                raise ParameterError(
                    f"{engine_type.__name__} (for {type(protocol).__name__}) "
                    f"does not accept engine option(s) "
                    f"{', '.join(repr(name) for name in unknown)}; "
                    f"valid options: {', '.join(sorted(allowed))}"
                )
            return engine_type(protocol, n_users, rng, **options)
    raise ParameterError(
        f"no vectorized engine is registered for protocol type {type(protocol).__name__}"
    )
