"""Unit tests for the RNG-stream derivation utilities."""

import numpy as np
import pytest

from repro.rng import derive_generators


class TestDeriveGenerators:
    def test_returns_requested_count(self):
        assert len(derive_generators(0, 5)) == 5

    def test_zero_count_is_allowed(self):
        assert derive_generators(0, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            derive_generators(0, -1)

    def test_same_seed_gives_same_streams(self):
        first = [g.integers(0, 10**6) for g in derive_generators(123, 4)]
        second = [g.integers(0, 10**6) for g in derive_generators(123, 4)]
        assert first == second

    def test_streams_are_distinct(self):
        draws = [g.integers(0, 2**62) for g in derive_generators(7, 8)]
        assert len(set(draws)) == len(draws)

    def test_accepts_seed_sequence(self):
        seq = np.random.SeedSequence(5)
        generators = derive_generators(seq, 2)
        assert all(isinstance(g, np.random.Generator) for g in generators)

    def test_accepts_existing_generator(self):
        generators = derive_generators(np.random.default_rng(0), 3)
        assert len(generators) == 3
