"""Occupancy dynamics of an *unmanaged* shared LRU cache.

With no partitioning, co-runners contend for LLC capacity through the
replacement policy.  The standard fluid approximation: each app inserts
lines at its miss rate, and once the cache is full every insertion
evicts a line belonging to app ``i`` with probability proportional to
app ``i``'s occupancy share.  This yields, for constant rates over an
interval, the linear ODE

    do_i/dt = r_i - R * o_i / C,      R = sum_j r_j

whose closed-form solution this module implements.  The model captures
exactly the inertia effect of paper Figures 2 and 4: an idle
latency-critical app (``r_i = 0``) sees its footprint decay
exponentially as batch apps insert, and must rebuild it at its own miss
rate when the next request arrives.

The stepper runs once per epoch of the unmanaged replay on vectors of
a handful of apps, where NumPy's per-call overhead dwarfs the
arithmetic, so it works on Python floats.  Its bits are those of the
NumPy body it replaced (kept as
:class:`repro.cache.reference.NaiveSharedOccupancyModel`): every
element-wise expression keeps NumPy's operation order, sums follow
NumPy's summation order (:func:`repro.numeric.pairwise_sum`), and the
decay factor still comes from ``np.exp``, whose last ulp differs from
``math.exp`` on some hosts.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..numeric import pairwise_sum

__all__ = ["SharedOccupancyModel"]


class SharedOccupancyModel:
    """Closed-form stepper for shared-LRU occupancy competition."""

    def __init__(self, capacity_lines: float):
        if capacity_lines <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_lines!r}")
        self.capacity = float(capacity_lines)

    def step(
        self,
        occupancies: Sequence[float],
        insertion_rates: Sequence[float],
        dt: float,
    ) -> List[float]:
        """Advance occupancies by ``dt`` with constant insertion rates.

        ``occupancies`` (lines) and ``insertion_rates`` (misses per
        cycle) hold one float per app.  Returns the new occupancies as
        a list; total occupancy never exceeds capacity and individual
        occupancies never go negative.
        """
        n = len(occupancies)
        if len(insertion_rates) != n:
            raise ValueError(
                f"{n} occupancies but {len(insertion_rates)} insertion rates"
            )
        for field, values in (
            ("occupancy", occupancies),
            ("insertion rate", insertion_rates),
        ):
            for i, value in enumerate(values):
                if value < 0:
                    raise ValueError(f"{field} of app {i} is negative: {value!r}")
        if dt < 0:
            raise ValueError(f"dt must be non-negative, got {dt!r}")
        if dt == 0 or not any(insertion_rates):
            return list(occupancies)

        capacity = self.capacity
        total_occ = pairwise_sum(occupancies)
        if total_occ > capacity + 1e-6:
            raise ValueError(
                f"occupancies sum to {total_occ!r} lines, "
                f"over the capacity of {capacity!r}"
            )

        # Phase 1: cache not yet full -- insertions land in free space.
        occ = occupancies
        remaining = dt
        free = capacity - total_occ
        total_rate = pairwise_sum(insertion_rates)
        if free > 1e-9:
            fill_time = free / total_rate
            phase = min(fill_time, remaining)
            occ = [o + r * phase for o, r in zip(occ, insertion_rates)]
            remaining -= phase
            if remaining <= 1e-12:
                return occ

        # Phase 2: full cache -- exponential approach to the
        # proportional-share fixed point o_i* = (r_i / R) * C.
        decay = float(np.exp(-total_rate * remaining / capacity))
        new = []
        for o, r in zip(occ, insertion_rates):
            fixed_point = r / total_rate * capacity
            v = fixed_point + (o - fixed_point) * decay
            # np.clip(v, 0.0, None): -0.0 becomes 0.0, NaN passes.
            new.append(0.0 if v <= 0.0 else v)
        # Numerical guard: renormalize tiny drift.
        total = pairwise_sum(new)
        if abs(total - capacity) > 1e-6:
            scale = capacity / total
            new = [v * scale for v in new]
        return new

    def equilibrium(self, insertion_rates: np.ndarray) -> np.ndarray:
        """Fixed-point occupancies for constant insertion rates."""
        rates = np.asarray(insertion_rates, dtype=float)
        if np.any(rates < 0):
            raise ValueError("rates must be non-negative")
        total = rates.sum()
        if total == 0:
            raise ValueError("at least one app must insert")
        return rates / total * self.capacity
