"""Unit tests for distribution helpers."""

import numpy
import pytest

from repro.analysis.stats import (
    ccdf,
    cdf,
    fraction_at_most,
    percentile_bands,
)


class TestCdf:
    def test_simple(self):
        xs, fractions = cdf([3, 1, 2])
        assert list(xs) == [1, 2, 3]
        assert list(fractions) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empty(self):
        xs, fractions = cdf([])
        assert xs.size == 0 and fractions.size == 0

    def test_last_fraction_is_one(self):
        _, fractions = cdf(numpy.random.default_rng(0).normal(size=100))
        assert fractions[-1] == 1.0

    def test_monotone(self):
        xs, fractions = cdf([5, 1, 1, 9, 3])
        assert all(numpy.diff(xs) >= 0)
        assert all(numpy.diff(fractions) > 0)


class TestCcdf:
    def test_complement(self):
        xs, cc = ccdf([1, 2, 3, 4])
        _, fractions = cdf([1, 2, 3, 4])
        assert list(cc) == pytest.approx(list(1 - fractions))

    def test_last_is_zero(self):
        _, cc = ccdf([1, 2, 3])
        assert cc[-1] == 0.0


class TestFractionAtMost:
    def test_basic(self):
        assert fraction_at_most([1, 2, 3, 4], 2) == 0.5

    def test_inclusive(self):
        assert fraction_at_most([1, 1, 1], 1) == 1.0

    def test_empty(self):
        assert fraction_at_most([], 5) == 0.0


class TestPercentiles:
    def test_figure5a_set(self):
        values = list(range(101))
        bands = percentile_bands(values)
        assert bands[50.0] == 50
        assert bands[1.0] == pytest.approx(1.0)
        assert bands[99.0] == pytest.approx(99.0)

    def test_empty_gives_nan(self):
        bands = percentile_bands([])
        assert all(numpy.isnan(v) for v in bands.values())

    def test_custom_percentiles(self):
        bands = percentile_bands([1, 2, 3], percentiles=(0.0, 100.0))
        assert bands[0.0] == 1 and bands[100.0] == 3
