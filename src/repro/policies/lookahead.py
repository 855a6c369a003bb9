"""UCP's Lookahead partitioning algorithm (Qureshi & Patt, MICRO 2006).

Lookahead greedily assigns cache space in bucket quanta: at each step
it finds, over all applications, the allocation increment with the
highest *marginal utility* (expected miss-reduction per unit of space,
scaled by each app's access intensity) and grants it.  Considering
multi-bucket increments lets it see past plateaus in non-convex miss
curves, which plain hill-climbing cannot.

Both UCP and Ubik use this routine: UCP over all apps, Ubik and
StaticLC/OnOff over the batch apps only (paper Sections 4 and 5.1.2).

Only the winner of a greedy round changes its allocation, so each
app's marginal-utility array is kept from round to round and rebuilt
only after that app wins.  A losing app's next scan would cover the
same values over a shorter prefix (the budget ``remaining`` shrank),
and the first maximum of a prefix that still holds the kept index
cannot change, so ``np.argmax`` reruns only when ``remaining`` cuts the
prefix below it.  Every utility, comparison and tie is the full
rescan's, kept as the oracle
:func:`repro.core.reference.naive_lookahead_partition`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..monitor.miss_curve import MissCurve

__all__ = ["lookahead_partition"]


def lookahead_partition(
    curves: Sequence[MissCurve],
    weights: Sequence[float],
    total_lines: float,
    buckets: int = 256,
    min_buckets: Sequence[int] | None = None,
) -> List[float]:
    """Partition ``total_lines`` among apps to minimize weighted misses.

    Parameters
    ----------
    curves:
        Per-app miss curves (miss ratio vs lines).
    weights:
        Per-app access intensities (accesses per cycle).  Weighting by
        intensity makes the objective *misses per cycle*, the paper's
        MLP-enhanced UCP objective.
    total_lines:
        Space to distribute.
    buckets:
        Allocation quanta (the paper uses 256).
    min_buckets:
        Optional per-app lower bounds (already-reserved space).

    Returns
    -------
    Per-app allocations in lines, summing to ``total_lines`` (up to
    bucket rounding).
    """
    num_apps = len(curves)
    if num_apps == 0:
        return []
    if len(weights) != num_apps:
        raise ValueError("one weight per curve required")
    if total_lines < 0:
        raise ValueError("total_lines must be non-negative")
    if buckets < 1:
        raise ValueError("need at least one bucket")
    weight_arr = np.asarray(weights, dtype=float)
    if np.any(weight_arr < 0):
        raise ValueError("weights must be non-negative")

    bucket_lines = total_lines / buckets
    if bucket_lines == 0:
        return [0.0] * num_apps

    # Precompute each app's weighted miss rate at every bucket count.
    grid = np.arange(buckets + 1) * bucket_lines
    miss_tables = [w * np.asarray(c(grid)) for c, w in zip(curves, weight_arr)]

    alloc = [0] * num_apps
    if min_buckets is not None:
        if len(min_buckets) != num_apps:
            raise ValueError("one minimum per app required")
        minimums = np.asarray(min_buckets, dtype=int)
        if np.any(minimums < 0):
            raise ValueError("minimums must be non-negative")
        if minimums.sum() > buckets:
            raise ValueError("minimum allocations exceed the budget")
        alloc = minimums.tolist()

    remaining = buckets - sum(alloc)
    # An app's feasible increments are 1..remaining: remaining is the
    # budget minus every allocation, so it never exceeds buckets - here.
    deltas = np.arange(1, remaining + 1)
    mus: List[Optional[np.ndarray]] = [None] * num_apps  # None: rebuild
    tops = [0] * num_apps  # index of the first maximum of mus[i]
    top_mus = [0.0] * num_apps
    while remaining > 0:
        best_app = -1
        best_mu = 0.0
        best_delta = 0
        for i in range(num_apps):
            app_mus = mus[i]
            if app_mus is None:
                # Marginal utility of each feasible increment, vectorized.
                table = miss_tables[i]
                here = alloc[i]
                gains = table[here] - table[here + 1 : here + remaining + 1]
                app_mus = mus[i] = gains / deltas[:remaining]
                j = tops[i] = int(np.argmax(app_mus))
                top_mus[i] = float(app_mus[j])
            elif tops[i] >= remaining:
                # The shorter prefix lost the kept maximum: rescan it.
                app_mus = mus[i] = app_mus[:remaining]
                j = tops[i] = int(np.argmax(app_mus))
                top_mus[i] = float(app_mus[j])
            if top_mus[i] > best_mu:
                best_mu = top_mus[i]
                best_app = i
                best_delta = tops[i] + 1
        if best_app < 0:
            # No one benefits from more space: spread the remainder
            # round-robin so the budget is fully assigned.
            order = np.argsort(-weight_arr)
            k = 0
            while remaining > 0:
                candidate = int(order[k % num_apps])
                if alloc[candidate] < buckets:
                    alloc[candidate] += 1
                    remaining -= 1
                k += 1
            break
        alloc[best_app] += best_delta
        remaining -= best_delta
        mus[best_app] = None

    # ``int * float`` rounds exactly as ``int64 * float64`` does.
    return [float(a * bucket_lines) for a in alloc]
