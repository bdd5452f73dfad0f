"""Exact quantiles from raw samples.

Every timing the benchmark reports goes through :func:`quantile`: the
nearest-rank quantile of the raw samples (no buckets, no interpolation),
so a reported percentile is always one of the measured values and never
lies outside ``[min, max]``.  A percentile is refused unless at least
:data:`MIN_BEYOND` samples lie beyond it, because a p99 over 200 samples
is just the third-largest value.
"""

from __future__ import annotations

import math

#: Samples that must lie strictly above a reported percentile's rank.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def rank(q: float, n: int) -> int:
    """1-based nearest rank of the ``q``-th percentile (0 < q <= 100)."""
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return max(1, math.ceil(q / 100.0 * n))


def quantile(samples, q: float):
    """The nearest-rank ``q``-th percentile of ``samples``.

    Returns ``(value, n)``: the sample value and the sample count it was
    taken from.  Raises :class:`TooFewSamples` when fewer than
    :data:`MIN_BEYOND` samples lie beyond the percentile's rank.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0 or n - rank(q, n) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} needs {MIN_BEYOND} samples beyond its rank; "
            f"have {n} samples")
    return ordered[rank(q, n) - 1], n


def geomean(values) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
