"""Pure, stateless perturbation kernels shared across the library.

This module is the bottom layer of the kernel / state / sink architecture of
the simulation subsystem (see ``docs/architecture.md``).  Every function here
is a fully vectorized numpy transformation with no protocol objects, no
memoization state and no aggregation logic:

* the one-shot oracles in :mod:`repro.freq_oneshot` call these kernels from
  their ``privatize_batch`` implementations;
* the longitudinal population engines in
  :mod:`repro.simulation.engines` compose them with the dense memoization
  tables of :mod:`repro.simulation.state`;
* the server-side estimators (Eq. 1 and Eq. 3 of the paper) are exposed as
  debiasing kernels so client and server share one implementation.

To keep the module importable from every layer (including
:mod:`repro.freq_oneshot`, which sits below :mod:`repro.longitudinal`), it
must only depend on numpy and :mod:`repro.exceptions` (a dependency-free
leaf module) — never on any other ``repro`` module.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError

__all__ = [
    "grr_kernel",
    "grr_mixing_counts_kernel",
    "grr_mixing_counts_batch_kernel",
    "one_hot_kernel",
    "symbol_bincount_kernel",
    "ue_flip_kernel",
    "ue_fresh_rows_kernel",
    "ue_binomial_counts_kernel",
    "ue_binomial_counts_batch_kernel",
    "packed_column_sums_kernel",
    "dbitflip_fresh_bits_kernel",
    "sample_buckets_kernel",
    "debias_kernel",
    "chained_debias_kernel",
    "support_from_hashes_kernel",
]


def _require_grr_domain(domain: int) -> int:
    """GRR needs at least two symbols: a "kept or replaced by another" response
    is undefined over a single-symbol domain (and numpy would otherwise die
    with an opaque ``ValueError: high <= 0`` from the noise draw)."""
    if domain < 2:
        raise ParameterError(
            f"GRR requires a domain of at least 2 symbols, got domain={domain}"
        )
    return int(domain)


def grr_kernel(
    values: np.ndarray, domain: int, keep_probability: float, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized Generalized Randomized Response over ``[0..domain)``.

    Each entry is kept with probability ``keep_probability``; otherwise it is
    replaced by a symbol drawn uniformly from the other ``domain - 1`` values.
    Consumes exactly one uniform array and one integer array from ``rng``.
    """
    domain = _require_grr_domain(domain)
    values = np.asarray(values, dtype=np.int64)
    keep = rng.random(values.shape) < keep_probability
    # Draw from [0, domain-1) and shift draws >= the true value by one so the
    # noise symbol is uniform over the domain \ {value}.
    noise = rng.integers(0, domain - 1, size=values.shape)
    noise = noise + (noise >= values)
    return np.where(keep, values, noise).astype(np.int64)


def one_hot_kernel(values: np.ndarray, k: int) -> np.ndarray:
    """One-hot encode an integer array into a ``(len(values), k)`` 0/1 matrix."""
    values = np.asarray(values, dtype=np.int64)
    encoded = np.zeros((values.size, k), dtype=np.uint8)
    encoded[np.arange(values.size), values.ravel()] = 1
    return encoded


def ue_flip_kernel(
    bits: np.ndarray, p: float, q: float, rng: np.random.Generator
) -> np.ndarray:
    """Flip every bit of a 0/1 matrix independently with UE probabilities.

    A 1-bit stays 1 with probability ``p``; a 0-bit becomes 1 with
    probability ``q``.  The per-bit threshold is computed arithmetically
    (``q + bit * (p - q)``) rather than with ``np.where`` — measurably faster
    on the population-scale matrices the engines feed through here.
    """
    threshold = q + bits * (p - q)
    return (rng.random(bits.shape) < threshold).astype(np.uint8)


def _uint32_threshold(probability: float) -> np.uint32:
    """``floor(probability * 2**32)`` capped at ``2**32 - 1`` (so ``p = 1.0`` fits)."""
    return np.uint32(min(int(probability * 2.0**32), 2**32 - 1))


def _raw_uint32(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniform 32-bit words: two per raw 64-bit generator word."""
    bit_generator = rng.bit_generator
    if isinstance(bit_generator, np.random.MT19937):  # its raw words carry 32 bits
        return bit_generator.random_raw(size).astype(np.uint32)
    return bit_generator.random_raw((size + 1) // 2).view(np.uint32)[:size]


def ue_fresh_rows_kernel(
    values: np.ndarray, k: int, p: float, q: float, rng: np.random.Generator
) -> np.ndarray:
    """Fused one-hot + UE flip: randomized ``k``-bit rows for a value batch.

    Distributed as ``ue_flip_kernel(one_hot_kernel(values, k), p, q, rng)``,
    but drawn from raw generator words (stream contract 3): one uint32 per
    bit, ``ceil(m * k / 2)`` 64-bit words for ``m`` rows, compared with
    ``floor(q * 2**32)`` and, on a row's true column, ``floor(p * 2**32)``.
    A value outside ``[0, k)`` has no true column and yields an all-``q``
    row.
    """
    values = np.asarray(values, dtype=np.int64)
    words = _raw_uint32(rng, values.size * k).reshape(values.size, k)
    rows = words < _uint32_threshold(q)
    with_true = np.flatnonzero((values >= 0) & (values < k))
    true_bits = with_true * k + values[with_true]
    rows.reshape(-1)[true_bits] = words.reshape(-1)[true_bits] < _uint32_threshold(p)
    return rows.view(np.uint8)


def _chained_binomial_batch(
    ones: np.ndarray,
    totals: int,
    p: float,
    q: float,
    n_rounds: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``n_rounds`` repetitions of the two-binomial support-count draw.

    Both aggregated instantaneous rounds (UE flips, GRR mixing) reduce to the
    same pair of draws per round: ``Binomial(ones, p) + Binomial(totals -
    ones, q)`` per column.  This helper collapses ``n_rounds`` such rounds
    into ONE numpy call by stacking the per-round parameter pairs as an
    ``(n_rounds, 2, k)`` array: numpy fills element-wise binomial draws in C
    order, so round ``r`` consumes its ``p``-draws then its ``q``-draws
    before round ``r + 1`` touches the stream — exactly the order of
    ``n_rounds`` sequential kernel calls.  The result is therefore
    *bit-identical* to the one-round-at-a-time path (asserted by the
    execution-tier tests), while the Python-level per-round loop disappears.
    """
    ones = np.asarray(ones, dtype=np.int64)
    pair = np.stack([ones, totals - ones])
    trials = np.broadcast_to(pair, (n_rounds,) + pair.shape)
    probabilities = np.array([p, q])[None, :, None]
    draws = rng.binomial(trials, probabilities)
    return draws.sum(axis=1, dtype=np.int64).astype(np.float64)


def symbol_bincount_kernel(values: np.ndarray, minlength: int) -> np.ndarray:
    """Counts of each symbol in an int64 value array (``np.bincount``).

    The deterministic half of the aggregated GRR round: the per-symbol
    population sizes that parameterize :func:`grr_mixing_counts_kernel`.
    Split out as a kernel so the compiled backend can replace it.
    """
    return np.bincount(values, minlength=minlength)


def ue_binomial_counts_kernel(
    memo_ones: np.ndarray, n_users: int, p: float, q: float, rng: np.random.Generator
) -> np.ndarray:
    """Support counts of one UE round, sampled in aggregate.

    The instantaneous randomization flips every (user, bit) independently, so
    the support count of column ``v`` is a sum of independent Bernoullis:
    ``Binomial(m1[v], p) + Binomial(n_users - m1[v], q)`` where ``m1[v]`` is
    the number of users whose *memoized* bit ``v`` is 1.  Sampling the two
    binomials per column draws from exactly the same distribution as flipping
    the full ``(n_users, k)`` bit matrix — at ``O(k)`` randomness cost
    instead of ``O(n_users * k)``.
    """
    memo_ones = np.asarray(memo_ones, dtype=np.int64)
    kept = rng.binomial(memo_ones, p)
    flipped = rng.binomial(n_users - memo_ones, q)
    return (kept + flipped).astype(np.float64)


def ue_binomial_counts_batch_kernel(
    memo_ones: np.ndarray,
    n_users: int,
    p: float,
    q: float,
    n_rounds: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``n_rounds`` steady UE rounds in one draw: ``(n_rounds, k)`` counts.

    Bit-identical to ``n_rounds`` sequential calls of
    :func:`ue_binomial_counts_kernel` with the same generator (see
    :func:`_chained_binomial_batch` for why the stream order matches), at one
    numpy dispatch instead of a Python-level round loop.  Only valid while
    the memoized column sums are unchanged across the window — the engines
    guarantee that by batching only windows of identical value rounds.
    """
    return _chained_binomial_batch(memo_ones, n_users, p, q, n_rounds, rng)


def grr_mixing_counts_kernel(
    symbol_counts: np.ndarray,
    domain: int,
    keep_probability: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Support counts of one GRR round, sampled per memoized symbol in aggregate.

    ``symbol_counts[s]`` users hold memoized symbol ``s``; each reports through
    an independent GRR (keep with probability ``p``, otherwise uniform over the
    ``domain - 1`` other symbols), so the reports of the group holding ``s``
    form a multinomial over the domain with mass ``p`` on ``s`` and
    ``q = (1 - p) / (domain - 1)`` elsewhere.  Summing those per-symbol
    multinomial mixtures, the support count of symbol ``v`` marginalizes to::

        Binomial(m[v], p) + Binomial(n - m[v], q)

    (the kept mass of group ``v`` plus the stray mass of every other group,
    which collapses because binomials with equal success probability add).
    This kernel samples exactly those per-symbol marginals — ``O(domain)``
    randomness instead of one draw per user.  Cross-symbol covariance within a
    round is *not* reproduced (true GRR support counts sum to ``n`` exactly;
    these only do in expectation), but every downstream consumer — the Eq. (3)
    estimator, per-round MSE in expectation, privacy accounting — depends only
    on the per-symbol marginals.
    """
    domain = _require_grr_domain(domain)
    symbol_counts = np.asarray(symbol_counts, dtype=np.int64)
    n_users = int(symbol_counts.sum())
    stray_probability = (1.0 - keep_probability) / (domain - 1)
    kept = rng.binomial(symbol_counts, keep_probability)
    strayed_in = rng.binomial(n_users - symbol_counts, stray_probability)
    return (kept + strayed_in).astype(np.float64)


def grr_mixing_counts_batch_kernel(
    symbol_counts: np.ndarray,
    domain: int,
    keep_probability: float,
    n_rounds: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``n_rounds`` steady GRR rounds in one draw: ``(n_rounds, k)`` counts.

    Bit-identical to ``n_rounds`` sequential calls of
    :func:`grr_mixing_counts_kernel` with the same generator (see
    :func:`_chained_binomial_batch`).  Only valid while the memoized symbol
    counts are unchanged across the window.
    """
    domain = _require_grr_domain(domain)
    symbol_counts = np.asarray(symbol_counts, dtype=np.int64)
    n_users = int(symbol_counts.sum())
    stray_probability = (1.0 - keep_probability) / (domain - 1)
    return _chained_binomial_batch(
        symbol_counts, n_users, keep_probability, stray_probability, n_rounds, rng
    )


#: Rows per bit-sliced accumulation batch of
#: :func:`packed_column_sums_kernel`.  Each uint64 word holds eight one-byte
#: lanes accumulating one 0/1 bit per row, so a batch must stay <= 255 rows
#: for the lanes not to carry into each other; 248 keeps batches
#: word-aligned.
_SWAR_BATCH_ROWS = 248

_SWAR_LANE_MASK = np.uint64(0x0101010101010101)


def packed_column_sums_kernel(packed_rows: np.ndarray, n_bits: int) -> np.ndarray:
    """Per-bit-position column sums of bit-packed rows, without unpacking.

    ``packed_rows`` has shape ``(n_rows, n_bytes)`` (``np.packbits`` layout,
    MSB first); the result is the length-``n_bits`` vector of column sums of
    the unpacked ``(n_rows, 8 * n_bytes)`` bit matrix.  The fold is
    bit-sliced (SWAR): the bytes are viewed as uint64 words, each of the 8
    bit positions is masked out across all words at once, and the resulting
    0/1 byte lanes are accumulated in batches of
    :data:`_SWAR_BATCH_ROWS` <= 255 rows (the lane width) before widening to
    int64 — eight masked passes over the packed bytes instead of
    materializing (and then reducing) the 8x larger unpacked matrix.
    """
    packed_rows = np.ascontiguousarray(packed_rows, dtype=np.uint8)
    if packed_rows.ndim != 2:
        raise ParameterError(
            f"packed rows must be a 2-D (n_rows, n_bytes) array, got shape "
            f"{packed_rows.shape}"
        )
    n_rows, n_bytes = packed_rows.shape
    if n_bits > 8 * n_bytes:
        raise ParameterError(
            f"{n_bytes} packed bytes hold at most {8 * n_bytes} bits, "
            f"got n_bits={n_bits}"
        )
    if n_rows == 0 or n_bytes == 0:
        return np.zeros(n_bits, dtype=np.int64)
    batch_rows = _SWAR_BATCH_ROWS
    pad_cols = (-n_bytes) % 8
    pad_rows = (-n_rows) % batch_rows
    if pad_cols or pad_rows:
        # Zero padding contributes nothing to any column sum.
        packed_rows = np.pad(packed_rows, ((0, pad_rows), (0, pad_cols)))
    n_words = packed_rows.shape[1] // 8
    grouped = packed_rows.view(np.uint64).reshape(-1, batch_rows, n_words)
    #: ``totals[j, c]`` accumulates the column sum of bit ``j`` (MSB first)
    #: of byte column ``c``.
    totals = np.zeros((8, n_words * 8), dtype=np.int64)
    scratch = np.empty_like(grouped)
    for shift in range(8):
        np.right_shift(grouped, np.uint64(shift), out=scratch)
        np.bitwise_and(scratch, _SWAR_LANE_MASK, out=scratch)
        lanes = scratch.sum(axis=1)  # per-batch byte-lane sums, each <= 255
        totals[7 - shift] += lanes.view(np.uint8).reshape(lanes.shape[0], -1).sum(
            axis=0, dtype=np.int64
        )
    return totals.T.reshape(-1)[:n_bits]


def dbitflip_fresh_bits_kernel(
    keys: np.ndarray, d: int, p: float, q: float, rng: np.random.Generator
) -> np.ndarray:
    """Randomized dBitFlipPM indicator bits for a batch of memoization keys.

    Bit ``l`` of a row indicates "my current bucket is my ``l``-th sampled
    bucket"; it is kept with probability ``p`` exactly when ``l`` equals the
    row's key.  This is :func:`ue_fresh_rows_kernel` over ``d`` positions,
    raw-word stream included; key ``d`` (no sampled bucket matches) falls
    outside ``[0, d)`` and therefore yields an all-``q`` row.
    """
    return ue_fresh_rows_kernel(keys, d, p, q, rng)


#: Bytes of float64 uniforms per row block of :func:`sample_buckets_kernel`;
#: the block, not the ``(n_users, b)`` draw, bounds its transients.
_BUCKET_DRAW_BLOCK_BYTES = 1 << 20


def sample_buckets_kernel(
    n_users: int, b: int, d: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``d`` of ``b`` buckets without replacement for every user.

    A batched draw: ranking one uniform per (user, bucket) yields a
    uniformly random permutation per row, of which the first ``d`` entries
    are an unordered without-replacement sample — no per-user
    ``rng.choice`` loop.  Only ``1 < d < b`` sorts: ``d = 1`` takes each
    row's minimum (the first column of the ranking), and ``d = b`` samples
    every bucket, returned in bucket order as a read-only broadcast of
    ``arange(b)``.  The uniforms are drawn in consecutive row blocks of
    about :data:`_BUCKET_DRAW_BLOCK_BYTES`, which yields the same doubles
    and leaves the generator in the same state as one ``(n_users, b)``
    draw; every ``d`` makes that draw (``d = b`` only to advance the
    generator), so the generator advances the same way whatever ``d`` is.
    """
    if d > b:
        raise ValueError(f"cannot sample {d} buckets from {b} without replacement")
    block_rows = max(1, _BUCKET_DRAW_BLOCK_BYTES // (8 * b))
    draws = np.empty((min(block_rows, n_users), b))
    sampled = np.empty((n_users, d), dtype=np.int64) if d < b else None
    for start in range(0, n_users, block_rows):
        stop = min(start + block_rows, n_users)
        block = draws[: stop - start]
        rng.random(out=block)
        if d == 1:
            sampled[start:stop, 0] = block.argmin(axis=1)
        elif d < b:
            sampled[start:stop] = np.argsort(block, axis=1)[:, :d]
    if sampled is None:
        return np.broadcast_to(np.arange(b, dtype=np.int64), (n_users, b))
    return sampled


def debias_kernel(counts: np.ndarray, n: float, p: float, q: float) -> np.ndarray:
    """Eq. (1): unbiased one-shot frequency estimate from support counts."""
    counts = np.asarray(counts, dtype=np.float64)
    return (counts - n * q) / (n * (p - q))


def chained_debias_kernel(
    counts: np.ndarray, n: float, p1: float, q1: float, p2: float, q2: float
) -> np.ndarray:
    """Eq. (3): unbiased longitudinal frequency estimate from support counts."""
    counts = np.asarray(counts, dtype=np.float64)
    numerator = counts - n * q1 * (p2 - q2) - n * q2
    denominator = n * (p1 - q1) * (p2 - q2)
    return numerator / denominator


def support_from_hashes_kernel(
    hashed_domain: np.ndarray, reports: np.ndarray
) -> np.ndarray:
    """Local-hashing support counts: how many users' hash of each candidate
    value equals their reported symbol.

    ``hashed_domain`` has shape ``(n_users, k)`` (each user's hash of the
    whole domain) and ``reports`` shape ``(n_users,)``.
    """
    support = hashed_domain == reports[:, None].astype(hashed_domain.dtype)
    return support.sum(axis=0, dtype=np.float64)
