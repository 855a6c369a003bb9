"""Float reductions in NumPy's summation order, without NumPy.

:func:`pairwise_sum` adds a vector in exactly the order
``np.add.reduce`` does, so its bits equal ``np.sum``'s at every length;
:func:`mean` divides that sum by the count, as ``np.mean`` does.  Every
sweep reduction and the simulator's hot sums use these, which lets a
store-served run average its records without importing NumPy while
printing the bytes a NumPy reduction would.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["mean", "pairwise_sum"]

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
