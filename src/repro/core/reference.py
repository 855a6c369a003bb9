"""Reference decision paths — the oracles for Ubik's table and Lookahead.

Mirrors the ``repro.cache.reference`` and ``repro.sim.reference``
pattern: when a hot loop is rewritten, the original survives here as
the behavioural oracle.

* :func:`naive_lookahead_partition` is
  :func:`~repro.policies.lookahead.lookahead_partition` as it stood
  before it kept marginal utilities across rounds: every greedy round
  rebuilds every app's utility array and reruns its ``np.argmax``.
  ``tests/policies/test_lookahead_equivalence.py`` holds the
  production Lookahead to it bit for bit.
* :class:`NaiveRepartitionTable` is
  :class:`~repro.core.repartition.RepartitionTable` as it stood before
  the float rewrite: the down and up greedy walks build a list of NumPy
  scalars per level and pick the app with ``np.argmin``/``np.argmax``,
  the rows live in an ``int`` ndarray, and the Lookahead baseline comes
  from :func:`naive_lookahead_partition`.  The decision wall
  (``tests/core/test_decision_equivalence.py``) builds both tables from
  the same inputs and asserts identical rows and bit-identical
  allocations, and ``repro bench`` times the two
  (``repartition_table``).

Neither is exported from :mod:`repro.core`, and nothing in the policy
stack calls them.  Keep them naive: they must stay the pre-rewrite
code, so they share no helper with the code they check.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..monitor.miss_curve import MissCurve

__all__ = ["NaiveRepartitionTable", "naive_lookahead_partition"]


def naive_lookahead_partition(
    curves: Sequence[MissCurve],
    weights: Sequence[float],
    total_lines: float,
    buckets: int = 256,
    min_buckets: Sequence[int] | None = None,
) -> List[float]:
    """:func:`~repro.policies.lookahead.lookahead_partition` with a full
    rescan of every app in every greedy round."""
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

    alloc = np.zeros(num_apps, dtype=int)
    if min_buckets is not None:
        if len(min_buckets) != num_apps:
            raise ValueError("one minimum per app required")
        alloc = np.asarray(min_buckets, dtype=int).copy()
        if np.any(alloc < 0):
            raise ValueError("minimums must be non-negative")
        if alloc.sum() > buckets:
            raise ValueError("minimum allocations exceed the budget")

    remaining = buckets - int(alloc.sum())
    while remaining > 0:
        best_app = -1
        best_mu = 0.0
        best_delta = 0
        for i in range(num_apps):
            table = miss_tables[i]
            here = alloc[i]
            max_delta = min(remaining, buckets - here)
            if max_delta <= 0:
                continue
            # Marginal utility of each feasible increment, vectorized.
            deltas = np.arange(1, max_delta + 1)
            gains = table[here] - table[here + 1 : here + max_delta + 1]
            mus = gains / deltas
            j = int(np.argmax(mus))
            if mus[j] > best_mu:
                best_mu = float(mus[j])
                best_app = i
                best_delta = int(deltas[j])
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

    return [float(a * bucket_lines) for a in alloc]


class NaiveRepartitionTable:
    """:class:`~repro.core.repartition.RepartitionTable` with the NumPy
    greedy walks: one ``np.argmin``/``np.argmax`` per level."""

    def __init__(
        self,
        curves: Sequence[MissCurve],
        weights: Sequence[float],
        llc_lines: float,
        avg_batch_lines: float,
        buckets: int = 256,
    ):
        if len(curves) != len(weights):
            raise ValueError("one weight per curve required")
        if llc_lines <= 0:
            raise ValueError("llc_lines must be positive")
        if not 0 <= avg_batch_lines <= llc_lines:
            raise ValueError("avg_batch_lines out of range")
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.num_apps = len(curves)
        self.buckets = buckets
        self.bucket_lines = llc_lines / buckets

        if self.num_apps == 0:
            self._table = np.zeros((buckets + 1, 0), dtype=int)
            return

        weight_arr = np.maximum(np.asarray(weights, dtype=float), 1e-12)
        grid = np.arange(buckets + 1) * self.bucket_lines
        miss_tables = [w * np.asarray(c(grid)) for c, w in zip(curves, weight_arr)]

        avg_buckets = int(round(avg_batch_lines / self.bucket_lines))
        avg_buckets = min(max(avg_buckets, 0), buckets)

        base_lines = naive_lookahead_partition(
            curves, weight_arr, avg_buckets * self.bucket_lines, buckets=max(avg_buckets, 1)
        )
        base = np.asarray(
            [int(round(b / self.bucket_lines)) for b in base_lines], dtype=int
        )
        # Rounding guard: force the baseline row to sum exactly.
        drift = avg_buckets - int(base.sum())
        if drift != 0 and self.num_apps > 0:
            base[int(np.argmax(base))] += drift
            base = np.maximum(base, 0)

        table = np.zeros((self.buckets + 1, self.num_apps), dtype=int)
        table[avg_buckets] = base

        # Walk down: shrink batch space one bucket at a time, taking
        # from the app losing the least utility.
        row = base.copy()
        for level in range(avg_buckets - 1, -1, -1):
            losses = [
                miss_tables[i][row[i] - 1] - miss_tables[i][row[i]]
                if row[i] > 0
                else np.inf
                for i in range(self.num_apps)
            ]
            victim = int(np.argmin(losses))
            row[victim] -= 1
            table[level] = row

        # Walk up: grow batch space, giving to the app gaining the most.
        row = base.copy()
        for level in range(avg_buckets + 1, self.buckets + 1):
            gains = [
                miss_tables[i][row[i]] - miss_tables[i][row[i] + 1]
                if row[i] < self.buckets
                else -np.inf
                for i in range(self.num_apps)
            ]
            winner = int(np.argmax(gains))
            row[winner] += 1
            table[level] = row

        self._table = table

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def level_for(self, batch_lines: float) -> int:
        """Bucket row covering ``batch_lines`` of batch space."""
        level = int(batch_lines // self.bucket_lines)
        return min(max(level, 0), self.buckets)

    def allocations_at(self, batch_lines: float) -> List[float]:
        """Per-app batch allocations (lines) for a given batch space."""
        row = self._table[self.level_for(batch_lines)]
        return [float(b * self.bucket_lines) for b in row]

    def row(self, level: int) -> np.ndarray:
        """Raw bucket row (for tests and introspection)."""
        if not 0 <= level <= self.buckets:
            raise ValueError("level out of range")
        return self._table[level].copy()
