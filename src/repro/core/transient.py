"""Analytical transient bounds (paper Section 5.1).

When a Vantage partition grows from ``s1`` to ``s2`` lines, every miss
adds one line and nothing is evicted, so with miss-probability curve
``p(s)`` and per-access timing ``Taccess = c + p*M``:

* time between misses at size ``s``:  ``Tmiss(s) = c/p(s) + M``
* transient length:                  ``T = sum_{s=s1}^{s2-1} c/p(s) + M``
* conservative upper bound:          ``T <= (s2-s1) * (c/p(s2) + M)``
* cycles lost versus starting at s2: ``L = M * sum (1 - p(s2)/p(s))``
* conservative upper bound:          ``L <= M * (s2-s1) * (1 - p(s2)/p(s1))``

Ubik's controller uses the *upper bounds* (safe sizing); the exact sums
are provided for validation and for quantifying the controller's
conservatism.  All functions integrate over the piecewise-linear miss
curve rather than literally summing per line, which is exact in the
fluid limit and fast.  Every curve read is one scalar
:meth:`~repro.monitor.miss_curve.MissCurve.at`, bit-equal to
``float(curve(s))`` without ``np.interp``'s per-call overhead.
"""

from __future__ import annotations

import numpy as np

from ..monitor.miss_curve import MissCurve

__all__ = [
    "transient_length_bound",
    "transient_length_exact",
    "lost_cycles_bound",
    "lost_cycles_exact",
    "gain_rate_per_cycle",
]

_P_FLOOR = 1e-9


def _check_sizes(curve: MissCurve, s1: float, s2: float) -> None:
    if not 0 <= s1 <= s2:
        raise ValueError("need 0 <= s1 <= s2")
    if s2 > curve.max_size + 1e-9:
        raise ValueError("s2 beyond the sampled curve")


def _segment_grid(curve: MissCurve, s1: float, s2: float) -> np.ndarray:
    """Knots of the curve within [s1, s2], including both endpoints."""
    inner = curve.sizes[(curve.sizes > s1) & (curve.sizes < s2)]
    return np.concatenate([[s1], inner, [s2]])


def transient_length_bound(
    curve: MissCurve, s1: float, s2: float, c: float, M: float
) -> float:
    """Upper bound on cycles to grow from ``s1`` to ``s2`` lines.

    Uses the paper's conservative form with the *final* (smallest) miss
    probability: ``(s2-s1) * (c/p(s2) + M)``.  Infinite if the curve
    reaches zero at ``s2`` (growth cannot complete on misses alone).
    """
    _check_sizes(curve, s1, s2)
    if s2 == s1:
        return 0.0
    p2 = curve.at(s2)
    if p2 <= _P_FLOOR:
        return float("inf")
    return (s2 - s1) * (c / p2 + M)


def transient_length_exact(
    curve: MissCurve, s1: float, s2: float, c: float, M: float
) -> float:
    """Exact transient length: integral of ``c/p(s) + M`` over lines.

    On a linear segment from ``(sa, pa)`` to ``(sb, pb)``,
    ``int c/p ds = c * (sb-sa) / (pb-pa) * ln(pb/pa)`` (or
    ``c*(sb-sa)/pa`` when flat).
    """
    _check_sizes(curve, s1, s2)
    if s2 == s1:
        return 0.0
    grid = _segment_grid(curve, s1, s2)
    total = M * (s2 - s1)
    for sa, sb in zip(grid[:-1], grid[1:]):
        pa, pb = curve.at(sa), curve.at(sb)
        if pa <= _P_FLOOR or pb <= _P_FLOOR:
            return float("inf")
        if abs(pb - pa) < 1e-12 * pa:
            total += c * (sb - sa) / pa
        else:
            total += c * (sb - sa) / (pb - pa) * np.log(pb / pa)
    return float(total)


def lost_cycles_bound(
    curve: MissCurve, s1: float, s2: float, M: float
) -> float:
    """Upper bound on cycles lost in the transient vs starting at s2.

    ``L <= M * (s2 - s1) * (1 - p(s2)/p(s1))`` — the paper's bound,
    which assumes none of the extra reuse is enjoyed until the fill
    completes.  Zero when the curve is flat over the range.
    """
    _check_sizes(curve, s1, s2)
    if s2 == s1:
        return 0.0
    p1, p2 = curve.at(s1), curve.at(s2)
    if p1 <= _P_FLOOR:
        return 0.0
    return M * (s2 - s1) * max(0.0, 1.0 - p2 / p1)


def lost_cycles_exact(
    curve: MissCurve, s1: float, s2: float, M: float
) -> float:
    """Exact lost cycles: ``M * int (1 - p(s2)/p(s)) ds`` over [s1, s2]."""
    _check_sizes(curve, s1, s2)
    if s2 == s1:
        return 0.0
    p2 = curve.at(s2)
    grid = _segment_grid(curve, s1, s2)
    total = 0.0
    for sa, sb in zip(grid[:-1], grid[1:]):
        pa, pb = curve.at(sa), curve.at(sb)
        if pa <= _P_FLOOR:
            continue  # no misses here: nothing lost, and no growth either
        if abs(pb - pa) < 1e-12 * pa:
            total += (sb - sa) * (1.0 - p2 / pa)
        else:
            # int (1 - p2/p) ds over linear p: (sb-sa) - p2*(sb-sa)/(pb-pa)*ln(pb/pa)
            total += (sb - sa) - p2 * (sb - sa) / (pb - pa) * np.log(pb / pa)
    return float(M * max(0.0, total))


def gain_rate_per_cycle(
    curve: MissCurve, s_active: float, s_boost: float, c: float, M: float
) -> float:
    """Cycles gained per cycle executed at ``s_boost`` vs ``s_active``.

    At the boosted size, each access saves ``(p_active - p_boost) * M``
    stall cycles and takes ``c + p_boost*M`` cycles, so the recovery
    rate is their ratio.  Used to size the boost so the transient's
    lost cycles are repaid by the deadline (Section 5.1.1).
    """
    if s_boost < s_active:
        raise ValueError("boost size must be at least the active size")
    p_active = curve.at(s_active)
    p_boost = curve.at(s_boost)
    denom = c + p_boost * M
    if denom <= 0:
        raise ValueError("non-positive access interval")
    return max(0.0, (p_active - p_boost)) * M / denom
