"""Float reductions in NumPy's summation order, without NumPy.

:func:`pairwise_sum` adds a vector in exactly the order
``np.add.reduce`` does, so its bits equal ``np.sum``'s at every length;
:func:`mean` divides that sum by the count, as ``np.mean`` does.  Every
sweep reduction and the simulator's hot sums use these, which lets a
store-served run average its records without importing NumPy while
printing the bytes a NumPy reduction would.  :func:`percentile` is
``np.percentile``'s default (linear) method in the same sense; the
tail metrics of :mod:`repro.server.latency` use it, where NumPy's
per-call overhead outweighed the few dozen latencies of an interval.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["mean", "pairwise_sum", "percentile"]

#: NumPy's pairwise-summation block: runs up to this length are summed
#: with eight running partial sums, longer ones are split in two.
_PW_BLOCKSIZE = 128


def pairwise_sum(values: Sequence[float]) -> float:
    """``np.add.reduce`` of a float64 vector, in NumPy's summation order.

    Below eight elements NumPy adds left to right.  From eight up to
    128 it keeps eight running partial sums (element ``i`` goes to sum
    ``i % 8``), combines them as ``((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7))``
    and adds the leftover tail left to right; longer vectors are split
    at half (rounded down to a multiple of eight) and summed
    recursively.  A plain left fold differs from NumPy in the last ulp
    from eight elements on.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    return 0.0 + _blocked_sum(values, 0, n)


def _blocked_sum(a: Sequence[float], lo: int, n: int) -> float:
    """NumPy's pairwise sum of ``a[lo:lo+n]`` for ``n >= 8``."""
    if n > _PW_BLOCKSIZE:
        half = n // 2
        half -= half % 8
        return _blocked_sum(a, lo, half) + _blocked_sum(a, lo + half, n - half)
    r0, r1, r2, r3, r4, r5, r6, r7 = a[lo:lo + 8]
    stop = lo + n - n % 8
    for i in range(lo + 8, stop, 8):
        r0 += a[i]
        r1 += a[i + 1]
        r2 += a[i + 2]
        r3 += a[i + 3]
        r4 += a[i + 4]
        r5 += a[i + 5]
        r6 += a[i + 6]
        r7 += a[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(stop, lo + n):
        total += a[i]
    return total


def mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))``, bit for bit, for a non-empty sequence.

    NumPy's mean is its pairwise sum divided by the count, so this is
    :func:`pairwise_sum` over ``len(values)``.  Booleans average as
    0 and 1, which makes ``mean`` of a predicate list the fraction that
    holds.
    """
    return pairwise_sum(values) / len(values)


def percentile(values: Sequence[float], pct: float) -> float:
    """``float(np.percentile(values, pct))``, bit for bit, for a
    non-empty sequence of floats.

    NumPy's linear method sorts the values, takes the virtual index
    ``(n - 1) * (pct / 100)`` and interpolates between the neighbouring
    order statistics ``a`` and ``b`` (the last value at or past the
    end) with weight ``t``, the index's fractional part.  Its lerp is
    two-sided: ``a + (b - a) * t``, but ``b - (b - a) * (1 - t)`` from
    ``t >= 0.5`` on.  This performs those operations in that order.  A
    NaN anywhere gives NaN, as NumPy's does.  NumPy's order of equal
    values is unspecified, so with zeros of both signs the sign of a
    zero result may differ.
    """
    q = pct / 100
    if not 0.0 <= q <= 1.0:
        raise ValueError("Percentiles must be in the range [0, 100]")
    n = len(values)
    if n == 0:
        raise ValueError("percentile of an empty sequence")
    for value in values:
        if value != value:
            return value
    ordered = sorted(values)
    index = (n - 1) * q
    if index >= n - 1:
        # Past the last order statistic NumPy reads it on both sides,
        # with the weight measured from index -1.
        a = b = ordered[-1]
        t = index + 1
    else:
        lo = math.floor(index)
        a = ordered[lo]
        b = ordered[lo + 1]
        t = index - lo
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t
