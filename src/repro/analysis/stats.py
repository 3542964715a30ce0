"""Distribution helpers: CDFs, CCDFs, percentile bands."""

from __future__ import annotations

import numpy


def cdf(values) -> tuple[numpy.ndarray, numpy.ndarray]:
    """Empirical CDF: returns (sorted values, cumulative fractions).

    The fraction at index i is the probability of a value <= values[i].
    """
    data = numpy.sort(numpy.asarray(values, dtype=float))
    if data.size == 0:
        return numpy.empty(0), numpy.empty(0)
    fractions = numpy.arange(1, data.size + 1) / data.size
    return data, fractions


def ccdf(values) -> tuple[numpy.ndarray, numpy.ndarray]:
    """Complementary CDF: (sorted values, fraction strictly greater).

    This is the quantity of Figure 4c: the fraction of routers whose
    degree exceeds x.
    """
    data, fractions = cdf(values)
    return data, 1.0 - fractions


def fraction_at_most(values, threshold: float) -> float:
    """Fraction of values <= threshold (paper statements like "75 % of
    the loads are below 33 %")."""
    data = numpy.asarray(values, dtype=float)
    if data.size == 0:
        return 0.0
    return float(numpy.mean(data <= threshold))


def percentile_bands(
    values, percentiles: tuple[float, ...] = (1, 25, 50, 75, 99)
) -> dict[float, float]:
    """Named percentiles of a sample (the Figure 5a whisker set)."""
    data = numpy.asarray(values, dtype=float)
    if data.size == 0:
        return {p: float("nan") for p in percentiles}
    results = numpy.percentile(data, percentiles)
    return {p: float(v) for p, v in zip(percentiles, results)}
