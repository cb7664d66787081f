"""Tests for histogram post-processing (clipping, simplex projection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ParameterError
from repro.freq_oneshot import clip_and_normalize, project_onto_simplex


class TestClipAndNormalize:
    def test_result_is_a_distribution(self):
        result = clip_and_normalize(np.asarray([0.5, -0.1, 0.7]))
        assert result.min() >= 0
        assert result.sum() == pytest.approx(1.0)

    def test_all_negative_falls_back_to_uniform(self):
        result = clip_and_normalize(np.asarray([-1.0, -2.0, -3.0, -4.0]))
        assert np.allclose(result, 0.25)

    def test_already_normalized_input_unchanged(self):
        values = np.asarray([0.25, 0.25, 0.5])
        assert np.allclose(clip_and_normalize(values), values)


class TestSimplexProjection:
    def test_result_is_a_distribution(self):
        result = project_onto_simplex(np.asarray([0.9, -0.4, 0.6]))
        assert result.min() >= -1e-12
        assert result.sum() == pytest.approx(1.0)

    def test_projection_of_distribution_is_identity(self):
        values = np.asarray([0.1, 0.2, 0.3, 0.4])
        assert np.allclose(project_onto_simplex(values), values)

    def test_rejects_matrices(self):
        with pytest.raises(ParameterError):
            project_onto_simplex(np.zeros((2, 2)))

    @given(
        arrays(
            np.float64,
            st.integers(min_value=2, max_value=30),
            elements=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_projection_properties(self, values):
        """Projection output is always a point of the probability simplex and
        is never farther (in L2) from the input than any other simplex point
        we can cheaply construct (the uniform distribution)."""
        projected = project_onto_simplex(values)
        assert projected.min() >= -1e-9
        assert projected.sum() == pytest.approx(1.0, abs=1e-9)
        uniform = np.full_like(values, 1.0 / values.size)
        assert np.linalg.norm(projected - values) <= np.linalg.norm(uniform - values) + 1e-9
