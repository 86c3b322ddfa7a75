"""Tests for streaming statistics and sample sets."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.histogram import SampleSet
from repro.metrics.stats import StreamingStats

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestStreamingStats:
    def test_empty(self):
        stats = StreamingStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.min == math.inf
        assert stats.max == -math.inf

    def test_single_value(self):
        stats = StreamingStats()
        stats.add(5.0)
        assert stats.mean == 5.0
        assert stats.variance == 0.0
        assert stats.min == stats.max == 5.0

    def test_rejects_nonfinite(self):
        stats = StreamingStats()
        with pytest.raises(ValueError):
            stats.add(float("nan"))
        with pytest.raises(ValueError):
            stats.add(float("inf"))

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_matches_numpy_property(self, values):
        stats = StreamingStats()
        stats.extend(values)
        assert stats.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert stats.variance == pytest.approx(
            np.var(values), rel=1e-6, abs=1e-4
        )
        assert stats.sample_variance == pytest.approx(
            np.var(values, ddof=1), rel=1e-6, abs=1e-4
        )
        assert stats.min == min(values)
        assert stats.max == max(values)

    @given(
        st.lists(finite_floats, min_size=1, max_size=50),
        st.lists(finite_floats, min_size=1, max_size=50),
    )
    def test_merge_equals_sequential_property(self, a, b):
        merged = StreamingStats()
        merged.extend(a)
        other = StreamingStats()
        other.extend(b)
        merged.merge(other)

        sequential = StreamingStats()
        sequential.extend(a + b)
        assert merged.count == sequential.count
        assert merged.mean == pytest.approx(
            sequential.mean, rel=1e-9, abs=1e-6
        )
        assert merged.variance == pytest.approx(
            sequential.variance, rel=1e-6, abs=1e-4
        )

    def test_merge_with_empty(self):
        stats = StreamingStats()
        stats.extend([1.0, 2.0])
        stats.merge(StreamingStats())
        assert stats.count == 2
        empty = StreamingStats()
        empty.merge(stats)
        assert empty.count == 2
        assert empty.mean == pytest.approx(1.5)


class TestSampleSet:
    def test_median_odd(self):
        samples = SampleSet([3.0, 1.0, 2.0])
        assert samples.median() == 2.0

    def test_median_even_interpolates(self):
        samples = SampleSet([1.0, 2.0, 3.0, 4.0])
        assert samples.median() == pytest.approx(2.5)

    def test_quantiles_match_numpy(self):
        values = [float(i) for i in range(101)]
        samples = SampleSet(values)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert samples.quantile(q) == pytest.approx(
                np.quantile(values, q)
            )

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SampleSet().median()
        with pytest.raises(ValueError):
            SampleSet().mean()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SampleSet([float("nan")])

    def test_quantile_domain(self):
        samples = SampleSet([1.0])
        with pytest.raises(ValueError):
            samples.quantile(1.5)

    def test_summary_statistics(self):
        samples = SampleSet([1.0, 2.0, 3.0])
        assert samples.mean() == pytest.approx(2.0)
        assert samples.min() == 1.0
        assert samples.max() == 3.0
        assert samples.stdev() == pytest.approx(1.0)
        assert len(samples) == 3
