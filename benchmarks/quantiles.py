"""Exact quantiles from raw samples, shared by the benchmarks.

A reported percentile is one of the recorded samples, so it never lies
outside ``[min, max]`` -- unlike ``Histogram.percentile``, which can
only estimate a quantile from bucket counts.
"""

from __future__ import annotations


def percentile(values, q: float):
    """The ``q``-quantile (``0 <= q <= 1``) of the raw ``values``: the
    sample at sorted index ``floor(q * n)``, clamped to the largest.
    None when there are no samples."""
    ordered = sorted(values)
    if not ordered:
        return None
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]
