"""Tests for the universal hash families."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.hashing import (
    BlakeHashFamily,
    MultiplyShiftHashFamily,
    PolynomialHashFamily,
    TabulationHashFamily,
    family_from_name,
)
from repro.hashing.families import (
    _MULTIPLY_SHIFT_BLOCK_BYTES,
    _MultiplyShiftFunction,
    hashed_domain_dtype,
)

ALL_FAMILIES = [
    MultiplyShiftHashFamily,
    PolynomialHashFamily,
    TabulationHashFamily,
    BlakeHashFamily,
]


@pytest.mark.parametrize("family_cls", ALL_FAMILIES)
class TestFamilyBasics:
    def test_outputs_in_range(self, family_cls):
        family = family_cls(g=5)
        function = family.sample(rng=0)
        hashes = function.hash_all(200)
        assert hashes.min() >= 0
        assert hashes.max() < 5

    def test_function_is_deterministic(self, family_cls):
        family = family_cls(g=7)
        function = family.sample(rng=1)
        first = function.hash_all(100)
        second = function.hash_all(100)
        assert np.array_equal(first, second)

    def test_scalar_and_vector_agree(self, family_cls):
        family = family_cls(g=4)
        function = family.sample(rng=2)
        values = np.arange(50)
        vectorized = function.hash_array(values)
        scalars = np.asarray([function(int(v)) for v in values])
        assert np.array_equal(vectorized, scalars)

    def test_same_seed_same_function(self, family_cls):
        family = family_cls(g=6)
        a = family.sample(rng=3)
        b = family.sample(rng=3)
        assert a == b
        assert hash(a) == hash(b)

    def test_different_seeds_usually_differ(self, family_cls):
        family = family_cls(g=6)
        functions = {family.sample(rng=seed) for seed in range(8)}
        assert len(functions) > 1

    def test_rejects_domain_below_two(self, family_cls):
        with pytest.raises(ParameterError):
            family_cls(g=1)


class TestBatchedDomainHashing:
    @pytest.mark.parametrize("family_cls", ALL_FAMILIES)
    def test_sample_hashed_domains_shape_and_range(self, family_cls):
        family = family_cls(g=5)
        matrix = family.sample_hashed_domains(6, 40, rng=0)
        assert matrix.shape == (6, 40)
        assert matrix.dtype == hashed_domain_dtype(5) == np.int16
        assert matrix.min() >= 0 and matrix.max() < 5

    def test_blake_batch_rows_match_per_function_hashing(self):
        """The vectorized Blake batch draw must agree with scalar hashing."""
        from repro.hashing.families import _BlakeFunction

        family = BlakeHashFamily(g=7)
        matrix = family.sample_hashed_domains(4, 30, rng=3)
        seeds = np.random.default_rng(3).integers(0, 2**63 - 1, size=4)
        for row, seed in zip(matrix, seeds):
            function = _BlakeFunction(seed=int(seed), g=7)
            assert np.array_equal(row, [function(v) for v in range(30)])

    def test_blake_counter_blocks_are_independent(self):
        """Values inside one digest block must still hash independently."""
        function = BlakeHashFamily(g=64).sample(rng=9)
        hashes = function.hash_all(8)  # exactly one counter block
        assert len(set(int(h) for h in hashes)) > 1

    @pytest.mark.parametrize("family_cls", ALL_FAMILIES)
    def test_empty_input_returns_empty_array(self, family_cls):
        function = family_cls(g=4).sample(rng=0)
        out = function.hash_array(np.array([], dtype=np.int64))
        assert out.shape == (0,)


#: Rows of one block of the batched multiply-shift draw at ``k = 300``; the
#: ``ragged-blocks`` shape spans two whole blocks and a partial third.
_BLOCK_ROWS_300 = _MULTIPLY_SHIFT_BLOCK_BYTES // (8 * 300)


class TestMultiplyShiftBatchDraw:
    """The blocked batch draw reproduces the per-function hash row by row."""

    @pytest.mark.parametrize("g", [2, 3, 2**15 - 1, 2**15, 70_001])
    @pytest.mark.parametrize(
        "n, k",
        [(1, 1), (1, 300), (5, 1), (2 * _BLOCK_ROWS_300 + 17, 300)],
        ids=["n1-k1", "n1", "k1", "ragged-blocks"],
    )
    def test_rows_equal_per_function_hashing(self, n, k, g):
        matrix = MultiplyShiftHashFamily(g).sample_hashed_domains(n, k, rng=11)
        assert matrix.shape == (n, k)
        assert matrix.dtype == (np.int16 if g < 2**15 else np.int32)
        # The same (a, b) draws, in the same order, as the batch draw.
        generator = np.random.default_rng(11)
        a = generator.integers(1, 2**63, size=n, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
        b = generator.integers(0, 2**63, size=n, dtype=np.uint64)
        for row, a_i, b_i in zip(matrix, a, b):
            function = _MultiplyShiftFunction(a=int(a_i), b=int(b_i), g=g)
            assert np.array_equal(row, function.hash_all(k))

    def test_peak_memory_is_the_table_plus_one_block(self):
        family = MultiplyShiftHashFamily(g=2)
        tracemalloc.start()
        try:
            matrix = family.sample_hashed_domains(4096, 2048, rng=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrix.nbytes + 8 * 1024**2, peak


#: Shape of the tables the statistical checks draw.  A tabulation member
#: costs four 2^16-entry tables, so that family gets fewer rows.
_STAT_G, _STAT_K = 4, 64
_STAT_ROWS = {
    MultiplyShiftHashFamily: 2000,
    PolynomialHashFamily: 2000,
    TabulationHashFamily: 100,
    BlakeHashFamily: 2000,
}


@functools.lru_cache(maxsize=None)
def _stat_table(family_cls):
    """One ``sample_hashed_domains`` table per family, the LOLOHAEngine path."""
    return family_cls(_STAT_G).sample_hashed_domains(_STAT_ROWS[family_cls], _STAT_K, rng=0)


def _pair_collision_fractions(table, pairs):
    """Fraction of a table's rows (sampled members) hashing each pair alike."""
    return (table[:, pairs[:, 0]] == table[:, pairs[:, 1]]).mean(axis=0)


def _binomial_sigma(family_cls):
    bound = 1.0 / _STAT_G
    return np.sqrt(bound * (1 - bound) / _STAT_ROWS[family_cls])


@pytest.mark.parametrize("family_cls", ALL_FAMILIES)
class TestUniversality:
    """Each row of ``sample_hashed_domains`` is an independently drawn member,
    so over the rows a distinct pair collides at a rate of at most ``1/g``,
    up to binomial sampling noise."""

    def test_pair_collisions_within_inverse_g(self, family_cls):
        generator = np.random.default_rng(1)
        pairs = np.asarray(
            [generator.choice(_STAT_K, size=2, replace=False) for _ in range(10)]
        )
        rates = _pair_collision_fractions(_stat_table(family_cls), pairs)
        threshold = 1.0 / _STAT_G + 4.0 * _binomial_sigma(family_cls)
        assert rates.max() <= threshold, (rates, threshold)

    def test_fixed_pair_collides_near_inverse_g(self, family_cls):
        (rate,) = _pair_collision_fractions(_stat_table(family_cls), np.asarray([[3, 17]]))
        assert abs(rate - 1.0 / _STAT_G) <= 4.0 * _binomial_sigma(family_cls), rate


@pytest.mark.parametrize("family_cls", ALL_FAMILIES)
class TestUniformity:
    def test_pooled_histogram_roughly_uniform(self, family_cls):
        counts = np.bincount(_stat_table(family_cls).ravel(), minlength=_STAT_G)
        expected = counts.sum() / _STAT_G
        statistic = ((counts - expected) ** 2 / expected).sum()
        # Pearson chi-square against uniform with g - 1 degrees of freedom;
        # allow a generous multiple.
        assert statistic < 20 * (_STAT_G - 1), counts


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["multiply-shift", "polynomial", "tabulation", "blake"]
    )
    def test_family_from_name(self, name):
        family = family_from_name(name, g=3)
        assert family.g == 3

    def test_unknown_name_raises(self):
        with pytest.raises(ParameterError):
            family_from_name("md5", g=3)

    def test_polynomial_accepts_degree(self):
        family = family_from_name("polynomial", g=3, degree=3)
        assert family.degree == 3


class TestPropertyBased:
    @given(
        g=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        values=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_multiply_shift_range_property(self, g, seed, values):
        """Every hash output lies in [0, g) for arbitrary inputs and seeds."""
        function = MultiplyShiftHashFamily(g).sample(rng=seed)
        hashes = function.hash_array(np.asarray(values, dtype=np.int64))
        assert hashes.min() >= 0
        assert hashes.max() < g

    @given(
        g=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        value=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_polynomial_determinism_property(self, g, seed, value):
        """The same member function always maps a value to the same hash."""
        function = PolynomialHashFamily(g).sample(rng=seed)
        assert function(value) == function(value)
