"""Tests for the pure perturbation kernels of ``repro.simulation.kernels``."""

import math

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.longitudinal import LGRR, LOSUE, OLOLOHA, DBitFlipPM
from repro.longitudinal.base import longitudinal_estimate
from repro.longitudinal.parameters import ChainedParameters
from repro.simulation import engine_for
from repro.simulation.kernels import (
    chained_debias_kernel,
    dbitflip_fresh_bits_kernel,
    debias_kernel,
    grr_kernel,
    grr_mixing_counts_kernel,
    one_hot_kernel,
    packed_column_sums_kernel,
    sample_buckets_kernel,
    support_from_hashes_kernel,
    symbol_bincount_kernel,
    ue_binomial_counts_kernel,
    ue_flip_kernel,
    ue_fresh_rows_kernel,
)
from repro.simulation.kernels_backend import native_available, resolve_backend
from test_statistical_properties import _Z_ALPHA_1E4, chi_square_critical


def raw_threshold_reference(values, k, p, q, seed):
    """Fresh rows drawn entry by entry: bit ``j`` of row ``i`` is raw 32-bit
    word ``i * k + j`` (the low half of each 64-bit generator word first)
    below ``floor(p * 2**32)`` on the row's true column, ``floor(q * 2**32)``
    elsewhere."""
    rng = np.random.default_rng(seed)
    words = [
        int(word) >> shift & 0xFFFFFFFF
        for word in rng.bit_generator.random_raw(math.ceil(len(values) * k / 2))
        for shift in (0, 32)
    ]
    rows = np.zeros((len(values), k), dtype=np.uint8)
    for i, value in enumerate(values):
        for j in range(k):
            rows[i, j] = words[i * k + j] < math.floor((p if j == value else q) * 2**32)
    return rows


class TestGRRKernel:
    def test_output_stays_in_domain(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 16, size=5_000)
        out = grr_kernel(values, 16, 0.5, np.random.default_rng(1))
        assert out.min() >= 0 and out.max() < 16

    def test_deterministic_given_seed(self):
        values = np.arange(100) % 7
        a = grr_kernel(values, 7, 0.6, np.random.default_rng(3))
        b = grr_kernel(values, 7, 0.6, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_keep_rate_matches_probability(self):
        values = np.zeros(50_000, dtype=np.int64)
        out = grr_kernel(values, 10, 0.7, np.random.default_rng(5))
        kept = (out == values).mean()
        assert kept == pytest.approx(0.7, abs=0.02)

    def test_noise_uniform_over_other_symbols(self):
        values = np.full(90_000, 4, dtype=np.int64)
        out = grr_kernel(values, 5, 0.0, np.random.default_rng(7))
        counts = np.bincount(out, minlength=5)
        assert counts[4] == 0
        assert counts[:4].min() > 0.2 * 90_000 / 4

    def test_single_symbol_domain_rejected_clearly(self):
        """domain=1 raises a ParameterError, not numpy's 'high <= 0'."""
        with pytest.raises(ParameterError, match="at least 2 symbols"):
            grr_kernel(np.zeros(4, dtype=np.int64), 1, 0.5, np.random.default_rng(0))
        with pytest.raises(ParameterError, match="at least 2 symbols"):
            grr_mixing_counts_kernel(np.asarray([4]), 1, 0.5, np.random.default_rng(0))


class TestGRRMixingCountsKernel:
    """Aggregated GRR round sampling vs. per-user GRR reports."""

    def test_matches_per_user_grr_distribution(self):
        """Per-symbol mean and variance agree with bincounted GRR reports."""
        domain, p = 6, 0.65
        memoized = np.repeat(np.arange(domain), [0, 50, 100, 200, 400, 250])
        symbol_counts = np.bincount(memoized, minlength=domain)
        n_trials = 3_000
        rng = np.random.default_rng(41)
        aggregated = np.stack(
            [
                grr_mixing_counts_kernel(symbol_counts, domain, p, rng)
                for _ in range(n_trials)
            ]
        )
        per_user = np.stack(
            [
                np.bincount(grr_kernel(memoized, domain, p, rng), minlength=domain)
                for _ in range(n_trials)
            ]
        )
        assert np.allclose(aggregated.mean(axis=0), per_user.mean(axis=0), rtol=0.05, atol=2.0)
        assert np.allclose(aggregated.var(axis=0), per_user.var(axis=0), rtol=0.2, atol=4.0)

    def test_matches_closed_form_marginals(self):
        domain, p = 4, 0.7
        q = (1 - p) / (domain - 1)
        symbol_counts = np.asarray([0, 300, 500, 200])
        n_users = symbol_counts.sum()
        rng = np.random.default_rng(43)
        draws = np.stack(
            [grr_mixing_counts_kernel(symbol_counts, domain, p, rng) for _ in range(4_000)]
        )
        expected_mean = symbol_counts * p + (n_users - symbol_counts) * q
        expected_var = symbol_counts * p * (1 - p) + (n_users - symbol_counts) * q * (1 - q)
        assert np.allclose(draws.mean(axis=0), expected_mean, rtol=0.03, atol=1.0)
        assert np.allclose(draws.var(axis=0), expected_var, rtol=0.15, atol=2.0)

    def test_deterministic_given_seed(self):
        counts = np.asarray([10, 20, 30])
        a = grr_mixing_counts_kernel(counts, 3, 0.6, np.random.default_rng(5))
        b = grr_mixing_counts_kernel(counts, 3, 0.6, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestPackedColumnSumsKernel:
    @pytest.mark.parametrize("n_rows,n_bits", [(1, 1), (7, 8), (40, 11), (513, 64), (200, 130)])
    def test_matches_unpacked_ground_truth(self, n_rows, n_bits):
        rng = np.random.default_rng(n_rows + n_bits)
        bits = (rng.random((n_rows, n_bits)) < 0.4).astype(np.uint8)
        packed = np.packbits(bits, axis=1)
        assert np.array_equal(
            packed_column_sums_kernel(packed, n_bits),
            bits.sum(axis=0, dtype=np.int64),
        )

    def test_empty_rows(self):
        assert np.array_equal(
            packed_column_sums_kernel(np.zeros((0, 3), dtype=np.uint8), 20),
            np.zeros(20, dtype=np.int64),
        )

    def test_batched_accumulation_matches_single_pass(self, monkeypatch):
        """Row batching is an implementation detail: tiny batches, same sums
        (and lanes can never be pushed past their 255-row carry limit)."""
        import repro.simulation.kernels as kernels

        rng = np.random.default_rng(99)
        bits = (rng.random((1_000, 23)) < 0.9).astype(np.uint8)
        packed = np.packbits(bits, axis=1)
        expected = bits.sum(axis=0, dtype=np.int64)
        monkeypatch.setattr(kernels, "_SWAR_BATCH_ROWS", 8)
        assert np.array_equal(packed_column_sums_kernel(packed, 23), expected)

    def test_many_rows_exceeding_one_lane_batch(self):
        """> 255 rows of all-ones exercises the cross-batch widening."""
        bits = np.ones((1_024, 9), dtype=np.uint8)
        packed = np.packbits(bits, axis=1)
        assert np.array_equal(
            packed_column_sums_kernel(packed, 9), np.full(9, 1_024, dtype=np.int64)
        )

    def test_too_many_bits_rejected(self):
        with pytest.raises(ParameterError, match="at most"):
            packed_column_sums_kernel(np.zeros((2, 1), dtype=np.uint8), 9)

    def test_non_2d_rejected(self):
        with pytest.raises(ParameterError, match="2-D"):
            packed_column_sums_kernel(np.zeros(8, dtype=np.uint8), 8)


class TestUEKernels:
    def test_fresh_rows_equals_one_hot_plus_flip(self):
        """Stream contract 3: the fused kernel is bitwise the raw-threshold
        compare below, and equals one-hot + flip in distribution only."""
        values = np.random.default_rng(0).integers(0, 12, size=300)
        fused = ue_fresh_rows_kernel(values, 12, 0.75, 0.25, np.random.default_rng(9))
        assert fused.dtype == np.uint8
        assert np.array_equal(fused, raw_threshold_reference(values, 12, 0.75, 0.25, 9))

        values = np.random.default_rng(1).integers(0, 12, size=20_000)
        true_column = one_hot_kernel(values, 12).astype(bool)
        rates = {}
        for path, rows in (
            ("fused", ue_fresh_rows_kernel(values, 12, 0.75, 0.25, np.random.default_rng(2))),
            ("two-step", ue_flip_kernel(true_column, 0.75, 0.25, np.random.default_rng(3))),
        ):
            rates[path] = (rows[true_column].mean(), rows[~true_column].mean())
        for rate, probability, n in (
            (0, 0.75, values.size), (1, 0.25, values.size * 11)
        ):
            standard_error = math.sqrt(probability * (1 - probability) / n)
            for path in rates:
                assert abs(rates[path][rate] - probability) < _Z_ALPHA_1E4 * standard_error
            gap = rates["fused"][rate] - rates["two-step"][rate]
            assert abs(gap) < _Z_ALPHA_1E4 * math.sqrt(2) * standard_error

    def test_flip_probabilities(self):
        bits = np.zeros((20_000, 4), dtype=np.uint8)
        bits[:, 0] = 1
        out = ue_flip_kernel(bits, 0.8, 0.1, np.random.default_rng(11))
        assert out[:, 0].mean() == pytest.approx(0.8, abs=0.02)
        assert out[:, 1:].mean() == pytest.approx(0.1, abs=0.02)

    def test_binomial_counts_match_bitwise_distribution(self):
        """The aggregated sampler has the same mean/variance as bit flipping."""
        n_users, p, q = 4_000, 0.75, 0.2
        memo_ones = np.asarray([0, 1_000, 2_500, 4_000])
        rng = np.random.default_rng(13)
        draws = np.stack(
            [ue_binomial_counts_kernel(memo_ones, n_users, p, q, rng) for _ in range(3_000)]
        )
        expected_mean = memo_ones * p + (n_users - memo_ones) * q
        expected_var = memo_ones * p * (1 - p) + (n_users - memo_ones) * q * (1 - q)
        assert np.allclose(draws.mean(axis=0), expected_mean, rtol=0.02)
        assert np.allclose(draws.var(axis=0), expected_var, rtol=0.15)


class TestRawThresholdDraw:
    """Moments of the raw 32-bit threshold draw behind every fresh memo row.

    ``k`` and the row count are odd, so the last 64-bit word is split; the
    rows whose key is ``k`` (dBitFlipPM's "no sampled bucket matches") have
    no true column.
    """

    K, P, Q, N_SEEDS = 7, 0.7, 0.2, 300

    @pytest.mark.parametrize(
        "bit_generator, words_per_bit",
        [(np.random.PCG64, 0.5), (np.random.MT19937, 1)],
        ids=["PCG64", "MT19937"],
    )
    def test_rates_column_moments_and_stream_advance(self, bit_generator, words_per_bit):
        k, p, q = self.K, self.P, self.Q
        values = np.random.default_rng(4).integers(0, k + 1, size=41)
        rows = []
        for seed in range(self.N_SEEDS):
            rng = np.random.Generator(bit_generator(seed))
            rows.append(dbitflip_fresh_bits_kernel(values, k, p, q, rng))
            advanced = np.random.Generator(bit_generator(seed))
            advanced.bit_generator.random_raw(math.ceil(values.size * k * words_per_bit))
            assert np.array_equal(
                rng.bit_generator.random_raw(3), advanced.bit_generator.random_raw(3)
            )
        rows = np.stack(rows)

        true_column = np.zeros((values.size, k), dtype=bool)
        matched = np.flatnonzero(values < k)
        true_column[matched, values[matched]] = True
        no_match = values == k
        assert 0 < no_match.sum() < values.size
        for bits, probability in (
            (rows[:, true_column], p),
            (rows[:, ~true_column], q),
            (rows[:, no_match], q),
        ):
            standard_error = math.sqrt(probability * (1 - probability) / bits.size)
            assert abs(bits.mean() - probability) < _Z_ALPHA_1E4 * standard_error

        holding = true_column.sum(axis=0)
        mean = holding * p + (values.size - holding) * q
        variance = holding * p * (1 - p) + (values.size - holding) * q * (1 - q)
        sums = rows.sum(axis=1, dtype=np.float64)
        z = (sums.mean(axis=0) - mean) / np.sqrt(variance / self.N_SEEDS)
        assert np.abs(z).max() < _Z_ALPHA_1E4, z
        df = self.N_SEEDS - 1
        ratio = sums.var(axis=0, ddof=1) / variance
        assert (ratio < chi_square_critical(df) / df).all(), ratio
        assert (ratio > chi_square_critical(df, z=-_Z_ALPHA_1E4) / df).all(), ratio

    def test_probability_one_and_zero(self):
        """Large budgets round ``p`` to 1.0 and ``q`` to ~0 in float64."""
        values = np.arange(5)
        rows = ue_fresh_rows_kernel(values, 5, 1.0, 0.0, np.random.default_rng(3))
        assert np.array_equal(rows, np.eye(5, dtype=np.uint8))


class TestDBitFlipKernels:
    def test_sample_buckets_without_replacement(self):
        sampled = sample_buckets_kernel(500, 20, 6, np.random.default_rng(17))
        assert sampled.shape == (500, 6)
        assert sampled.min() >= 0 and sampled.max() < 20
        for row in sampled:
            assert len(set(row.tolist())) == 6

    def test_sample_buckets_marginal_uniform(self):
        sampled = sample_buckets_kernel(20_000, 8, 2, np.random.default_rng(19))
        counts = np.bincount(sampled.ravel(), minlength=8)
        assert counts.min() > 0.8 * 20_000 * 2 / 8

    @pytest.mark.parametrize("d", [1, 3, 12])
    def test_sample_buckets_draws_one_uniform_per_user_bucket(self, d):
        """Every ``d`` advances the generator by one ``(n, b)`` float draw."""
        sampled_rng, reference_rng = np.random.default_rng(31), np.random.default_rng(31)
        sample_buckets_kernel(40, 12, d, sampled_rng)
        reference_rng.random((40, 12))
        assert sampled_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_sample_buckets_single_bucket_is_first_of_ranking(self):
        sampled = sample_buckets_kernel(500, 20, 1, np.random.default_rng(37))
        draws = np.random.default_rng(37).random((500, 20))
        assert np.array_equal(sampled, np.argsort(draws, axis=1)[:, :1])

    def test_sample_buckets_all_buckets_in_bucket_order(self):
        sampled = sample_buckets_kernel(50, 20, 20, np.random.default_rng(41))
        assert sampled.shape == (50, 20)
        assert (sampled == np.arange(20)).all()

    def test_fresh_bits_key_position(self):
        keys = np.full(30_000, 2, dtype=np.int64)
        bits = dbitflip_fresh_bits_kernel(keys, 5, 0.9, 0.1, np.random.default_rng(23))
        assert bits[:, 2].mean() == pytest.approx(0.9, abs=0.02)
        assert bits[:, [0, 1, 3, 4]].mean() == pytest.approx(0.1, abs=0.02)

    def test_fresh_bits_no_match_key(self):
        """Key ``d`` (no sampled bucket matches) uses ``q`` for every bit."""
        keys = np.full(30_000, 3, dtype=np.int64)
        bits = dbitflip_fresh_bits_kernel(keys, 3, 0.9, 0.1, np.random.default_rng(29))
        assert bits.mean() == pytest.approx(0.1, abs=0.02)


class TestDebiasKernels:
    def test_debias_inverts_expected_counts(self):
        f = np.asarray([0.1, 0.3, 0.6])
        n, p, q = 1_000, 0.7, 0.2
        counts = n * (q + f * (p - q))
        assert np.allclose(debias_kernel(counts, n, p, q), f)

    def test_chained_debias_matches_longitudinal_estimate(self):
        params = ChainedParameters(
            p1=0.8, q1=0.2, p2=0.7, q2=0.3, eps_inf=2.0, eps_1=1.0
        )
        counts = np.asarray([100.0, 250.0, 400.0])
        via_kernel = chained_debias_kernel(
            counts, 500, params.p1, params.estimator_q1, params.p2, params.q2
        )
        assert np.allclose(via_kernel, longitudinal_estimate(counts, 500, params))


class TestSupportKernel:
    def test_support_counts_match_naive_loop(self):
        rng = np.random.default_rng(31)
        hashed = rng.integers(0, 4, size=(200, 10)).astype(np.int16)
        reports = rng.integers(0, 4, size=200)
        naive = np.zeros(10)
        for u in range(200):
            naive += hashed[u] == reports[u]
        assert np.array_equal(support_from_hashes_kernel(hashed, reports), naive)


#: Protocols whose engines dispatch a kernel through the backend, at ``k = 16``.
BACKEND_ENGINES = {
    "L-GRR": lambda: LGRR(16, 3.0, 1.5),
    "L-OSUE": lambda: LOSUE(16, 3.0, 1.5),
    "OLOLOHA": lambda: OLOLOHA(16, 3.0, 1.5),
    "dBitFlipPM": lambda: DBitFlipPM(16, 3.0, d=4),
}


@pytest.mark.skipif(not native_available(), reason="no C compiler")
class TestNativeOracle:
    """Compiled kernels must match the numpy oracle exactly."""

    def test_packed_column_sums_property(self):
        native = resolve_backend("native")
        rng = np.random.default_rng(11)
        for _ in range(25):
            n_rows = int(rng.integers(0, 400))
            n_bits = int(rng.integers(1, 300))
            packed = rng.integers(
                0, 256, size=(n_rows, (n_bits + 7) // 8), dtype=np.uint8
            )
            assert np.array_equal(
                native.packed_column_sums(packed, n_bits),
                packed_column_sums_kernel(packed, n_bits),
            )

    @pytest.mark.parametrize("fill", ["ones", "random"])
    @pytest.mark.parametrize("n_rows", [0, 1, 255, 256, 511])
    @pytest.mark.parametrize("n_bytes", range(1, 18))
    def test_packed_column_sums_every_row_width(self, n_bytes, n_rows, fill):
        """Whole and partial last words, on both sides of the 255-row lane
        flush: all-ones rows fill every lane to its carry limit."""
        native = resolve_backend("native")
        if fill == "ones":
            packed = np.full((n_rows, n_bytes), 0xFF, dtype=np.uint8)
        else:
            rng = np.random.default_rng(n_bytes * 1000 + n_rows)
            packed = rng.integers(0, 256, size=(n_rows, n_bytes), dtype=np.uint8)
        assert np.array_equal(
            native.packed_column_sums(packed, 8 * n_bytes),
            packed_column_sums_kernel(packed, 8 * n_bytes),
        )

    def test_support_fold_property(self):
        native = resolve_backend("native")
        rng = np.random.default_rng(12)
        for dtype in (np.int16, np.int32, np.int64):
            n_users, k, g = 130, 37, 5
            hashed = rng.integers(0, g, size=(n_users, k)).astype(dtype)
            reports = rng.integers(0, g, size=n_users).astype(np.int64)
            expected = (hashed == reports[:, None]).sum(axis=0, dtype=np.int64)
            assert np.array_equal(native.support_fold(hashed, reports), expected)

    def test_symbol_bincount_property(self):
        native = resolve_backend("native")
        rng = np.random.default_rng(13)
        for _ in range(20):
            k = int(rng.integers(1, 60))
            symbols = rng.integers(0, k, size=int(rng.integers(0, 500)))
            assert np.array_equal(
                native.symbol_bincount(symbols, k),
                symbol_bincount_kernel(symbols, k),
            )

    def test_empty_packed_rows(self):
        native = resolve_backend("native")
        packed = np.zeros((0, 4), dtype=np.uint8)
        assert np.array_equal(
            native.packed_column_sums(packed, 30), np.zeros(30, dtype=np.int64)
        )

    @pytest.mark.parametrize(
        "protocol_factory", list(BACKEND_ENGINES.values()), ids=list(BACKEND_ENGINES)
    )
    def test_round_counts_identical_across_backends(self, protocol_factory):
        """Backends never change results: numpy and native engines draw
        the same stream and emit identical counts."""
        n_users = 70
        values = np.random.default_rng(14).integers(0, 16, size=n_users)
        a = engine_for(protocol_factory(), n_users, rng=3, backend="numpy")
        b = engine_for(protocol_factory(), n_users, rng=3, backend="native")
        for seed in range(3):
            assert np.array_equal(
                a.run_round(values, np.random.default_rng(seed)),
                b.run_round(values, np.random.default_rng(seed)),
            )
