"""Tail-latency metrics (paper Section 3.2).

The paper reports tail latency as **the mean of all requests beyond a
percentile** (default the 95th), not the percentile itself: adaptive
schemes could game a pure percentile by sacrificing only requests past
the measurement point, whereas the tail mean includes the entire tail.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..numeric import mean, percentile

__all__ = [
    "tail_mean",
    "percentile_latency",
    "tail_degradation",
    "LatencySummary",
    "summarize_latencies",
]

from dataclasses import dataclass

DEFAULT_TAIL_PCT = 95.0


def _as_array(latencies: Sequence[float]) -> np.ndarray:
    arr = np.asarray(latencies, dtype=float)
    if arr.size == 0:
        raise ValueError("no latencies to summarize")
    if np.any(arr < 0):
        raise ValueError("latencies must be non-negative")
    return arr


def _as_floats(latencies: Sequence[float]) -> List[float]:
    """:func:`_as_array`'s checks, on the latencies as Python floats.

    An array converts through ``tolist``: bootstrap resamples
    (:mod:`repro.analysis.stats`) arrive as arrays.
    """
    if isinstance(latencies, np.ndarray):
        values = latencies.astype(float).tolist()
    else:
        values = list(map(float, latencies))
    if not values:
        raise ValueError("no latencies to summarize")
    for value in values:
        if value < 0:
            raise ValueError("latencies must be non-negative")
    return values


def percentile_latency(latencies: Sequence[float], pct: float = DEFAULT_TAIL_PCT) -> float:
    """The ``pct``-th percentile latency, ``np.percentile``'s bits."""
    if not 0 < pct < 100:
        raise ValueError("pct must be in (0, 100)")
    return percentile(_as_floats(latencies), pct)


def tail_mean(latencies: Sequence[float], pct: float = DEFAULT_TAIL_PCT) -> float:
    """Mean latency of all requests at or beyond the ``pct`` percentile.

    This is the paper's tail metric: it cannot be gamed by degrading
    only the requests beyond the measured percentile.  The threshold is
    :func:`repro.numeric.percentile` and the mean
    :func:`repro.numeric.mean` over the tail in request order, so the
    result is the NumPy computation's to the bit without its per-call
    overhead.  A NaN threshold (any NaN latency, or an infinite one
    NumPy's lerp turns into NaN) selects no request, and the empty
    tail's mean is NaN, as NumPy's is.
    """
    values = _as_floats(latencies)
    threshold = percentile(values, pct)
    tail = [value for value in values if value >= threshold]
    if not tail:
        return math.nan
    return mean(tail)


def tail_degradation(
    latencies: Sequence[float],
    baseline_latencies: Sequence[float],
    pct: float = DEFAULT_TAIL_PCT,
) -> float:
    """Tail latency normalized to a baseline run (1.0 = unchanged)."""
    return tail_mean(latencies, pct) / tail_mean(baseline_latencies, pct)


@dataclass(frozen=True)
class LatencySummary:
    """Mean / percentile / tail-mean summary of one run."""

    count: int
    mean: float
    p50: float
    p95: float
    tail95: float
    max: float

    def scaled(self, factor: float) -> "LatencySummary":
        """Unit conversion helper (e.g. cycles -> ms)."""
        return LatencySummary(
            count=self.count,
            mean=self.mean * factor,
            p50=self.p50 * factor,
            p95=self.p95 * factor,
            tail95=self.tail95 * factor,
            max=self.max * factor,
        )


def summarize_latencies(latencies: Sequence[float]) -> LatencySummary:
    """Build a :class:`LatencySummary` from raw latencies."""
    arr = _as_array(latencies)
    return LatencySummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        tail95=tail_mean(arr, DEFAULT_TAIL_PCT),
        max=float(arr.max()),
    )
