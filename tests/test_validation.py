"""Unit tests for the internal validation helpers."""

from fractions import Fraction

import numpy as np
import pytest

from repro._validation import (
    as_rng,
    require_domain_size,
    require_epsilon,
    require_epsilon_pair,
    require_int_at_least,
    require_positive,
    require_probability,
    validate_value_in_domain,
    validate_values_array,
)
from repro.exceptions import DomainError, ParameterError


class TestScalarValidators:
    def test_require_positive_accepts_positive(self):
        assert require_positive(1.5, "x") == 1.5

    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
    def test_require_positive_rejects_invalid(self, value):
        with pytest.raises(ParameterError):
            require_positive(value, "x")

    def test_require_probability_inclusive_bounds(self):
        assert require_probability(0.0, "p") == 0.0
        assert require_probability(1.0, "p") == 1.0

    def test_require_probability_exclusive_bounds(self):
        with pytest.raises(ParameterError):
            require_probability(0.0, "p", inclusive=False)
        with pytest.raises(ParameterError):
            require_probability(1.0, "p", inclusive=False)

    def test_require_probability_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            require_probability(1.2, "p")

    @pytest.mark.parametrize("validator", [require_positive, require_probability])
    @pytest.mark.parametrize(
        "value", ["0.5", True, np.True_, None], ids=["str", "bool", "numpy-bool", "none"]
    )
    def test_real_number_validators_refuse_non_numbers(self, validator, value):
        """A string, a boolean or ``None`` is refused, never coerced to a float."""
        with pytest.raises(ParameterError, match="x must be a real number"):
            validator(value, "x")

    @pytest.mark.parametrize("validator", [require_positive, require_probability])
    @pytest.mark.parametrize(
        "value",
        [np.float32(0.5), np.int64(1), Fraction(1, 2)],
        ids=["float32", "int64", "fraction"],
    )
    def test_real_number_validators_accept_numeric_scalars(self, validator, value):
        result = validator(value, "x")
        assert type(result) is float
        assert result == float(value)


class TestIntegerValidators:
    def test_require_int_at_least_accepts_numpy_integers(self):
        assert require_int_at_least(np.int64(5), 2, "k") == 5

    def test_require_int_at_least_rejects_bool(self):
        with pytest.raises(ParameterError):
            require_int_at_least(True, 0, "k")

    def test_require_int_at_least_rejects_float(self):
        with pytest.raises(ParameterError):
            require_int_at_least(3.0, 1, "k")

    def test_require_int_at_least_rejects_below_minimum(self):
        with pytest.raises(ParameterError):
            require_int_at_least(1, 2, "k")

    def test_require_domain_size_default_minimum_is_two(self):
        assert require_domain_size(2) == 2
        with pytest.raises(ParameterError):
            require_domain_size(1)


class TestEpsilonValidators:
    def test_require_epsilon_accepts_positive(self):
        assert require_epsilon(0.5) == 0.5

    def test_require_epsilon_rejects_zero(self):
        with pytest.raises(ParameterError):
            require_epsilon(0.0)

    def test_epsilon_pair_requires_strict_order(self):
        assert require_epsilon_pair(1.0, 2.0) == (1.0, 2.0)
        with pytest.raises(ParameterError):
            require_epsilon_pair(2.0, 2.0)
        with pytest.raises(ParameterError):
            require_epsilon_pair(3.0, 2.0)


class TestDomainValidators:
    def test_validate_value_in_domain_accepts_boundaries(self):
        assert validate_value_in_domain(0, 10) == 0
        assert validate_value_in_domain(9, 10) == 9

    def test_validate_value_in_domain_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            validate_value_in_domain(10, 10)
        with pytest.raises(DomainError):
            validate_value_in_domain(-1, 10)

    def test_validate_value_in_domain_rejects_non_integers(self):
        with pytest.raises(DomainError):
            validate_value_in_domain(1.5, 10)

    def test_validate_values_array_accepts_integer_like_floats(self):
        result = validate_values_array(np.asarray([1.0, 2.0]), 5)
        assert result.dtype == np.int64
        assert list(result) == [1, 2]

    def test_validate_values_array_rejects_fractional(self):
        with pytest.raises(DomainError):
            validate_values_array(np.asarray([1.5]), 5)

    def test_validate_values_array_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            validate_values_array([0, 5], 5)

    def test_validate_values_array_empty_passthrough(self):
        assert validate_values_array([], 5).size == 0


class TestAsRng:
    def test_none_returns_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_integer_seed_is_deterministic(self):
        a = as_rng(42).integers(0, 1000, size=5)
        b = as_rng(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_existing_generator_is_returned_unchanged(self):
        generator = np.random.default_rng(0)
        assert as_rng(generator) is generator

    def test_invalid_type_raises(self):
        with pytest.raises(ParameterError):
            as_rng("not-an-rng")
