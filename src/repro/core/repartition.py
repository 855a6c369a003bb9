"""The repartitioning table (paper Section 5.1.2, Figure 8).

Running Lookahead at every latency-critical resize would be too slow,
and precomputing every combination (as OnOff does) is infeasible when
idle/boost/active sizes vary continuously.  Instead, at each
coarse-grained interval the Ubik runtime:

1. computes the *average* space batch apps held over the last interval,
2. runs Lookahead at that size to fix the baseline batch allocations,
3. greedily extends that solution up and down, one bucket at a time:
   growing batch space gives the next bucket to the app with the
   highest marginal utility; shrinking takes it from the app with the
   lowest marginal loss.

The result is a table with one row per possible batch-space bucket
count; event-time resizes just walk rows, which is O(distance) with
tiny constants.  Greedy extension is suboptimal for non-convex curves,
but batch space stays near the average in practice (the paper makes
the same argument).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from ..monitor.miss_curve import MissCurve
from ..policies.lookahead import lookahead_partition

__all__ = ["RepartitionTable"]


class RepartitionTable:
    """Bucket-indexed batch allocations around a Lookahead baseline.

    The greedy walks run over Python floats with every bit of the
    NumPy walks they replaced (kept as the oracle
    :class:`repro.core.reference.NaiveRepartitionTable`): each app's
    weighted miss table is one ``tolist`` of the same float64 product,
    a marginal is one float subtraction, and a scan from app 0 with a
    strict ``<`` (``>`` walking up) picks the first of tied apps, as
    ``np.argmin`` (``np.argmax``) does.  An app at a bound reads
    ``inf`` (``-inf``), so it is picked only when every app is.

    Building the table fixes the baseline row; the walks run on demand.
    Each keeps its cursor, and a lookup extends the down (up) walk only
    as far as the row it reads, with the same steps in the same order
    as a full walk, so every row read equals the full walk's.  Ubik's
    decisions read about 15 of the 257 rows between two rebuilds.
    """

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
        self.num_apps = num_apps = len(curves)
        self.buckets = buckets
        self.bucket_lines = llc_lines / buckets
        self._allocs: Dict[int, List[float]] = {}  # level -> its allocations

        if num_apps == 0:
            self._rows: List[List[int]] = [[]] * (buckets + 1)
            self._low, self._high = 0, buckets
            return

        weight_arr = np.maximum(np.asarray(weights, dtype=float), 1e-12)
        grid = np.arange(buckets + 1) * self.bucket_lines
        miss_tables = [
            (w * np.asarray(c(grid))).tolist() for c, w in zip(curves, weight_arr)
        ]

        avg_buckets = int(round(avg_batch_lines / self.bucket_lines))
        avg_buckets = min(max(avg_buckets, 0), buckets)

        base_lines = lookahead_partition(
            curves, weight_arr, avg_buckets * self.bucket_lines, buckets=max(avg_buckets, 1)
        )
        base = [int(round(b / self.bucket_lines)) for b in base_lines]
        # Rounding guard: force the baseline row to sum exactly.
        drift = avg_buckets - sum(base)
        if drift != 0:
            base[base.index(max(base))] += drift
            base = [b if b > 0 else 0 for b in base]

        rows: List = [None] * (buckets + 1)
        rows[avg_buckets] = base
        self._rows = rows
        self._miss_tables = miss_tables
        inf = math.inf
        # Each walk keeps its cursor: the last row it built, that row,
        # and every app's marginal there.  A lookup extends a walk only
        # as far as the row it reads.
        self._low = self._high = avg_buckets
        self._down_row = base[:]
        self._losses = [
            t[b - 1] - t[b] if b > 0 else inf for t, b in zip(miss_tables, base)
        ]
        self._up_row = base[:]
        self._gains = [
            t[b] - t[b + 1] if b < buckets else -inf for t, b in zip(miss_tables, base)
        ]

    def _walk_down(self, level: int) -> None:
        """Shrink batch space one bucket at a time down to ``level``,
        taking from the app losing the least utility.  Only the
        victim's row entry moves, so only its marginal is recomputed."""
        rows = self._rows
        miss_tables = self._miss_tables
        row = self._down_row
        losses = self._losses
        others = range(1, self.num_apps)
        inf = math.inf
        for lvl in range(self._low - 1, level - 1, -1):
            victim = 0
            least = losses[0]
            for i in others:
                if losses[i] < least:
                    victim = i
                    least = losses[i]
            b = row[victim] - 1
            row[victim] = b
            t = miss_tables[victim]
            losses[victim] = t[b - 1] - t[b] if b > 0 else inf
            rows[lvl] = row[:]
        self._low = level

    def _walk_up(self, level: int) -> None:
        """Grow batch space one bucket at a time up to ``level``, giving
        to the app gaining the most."""
        rows = self._rows
        miss_tables = self._miss_tables
        buckets = self.buckets
        row = self._up_row
        gains = self._gains
        others = range(1, self.num_apps)
        inf = math.inf
        for lvl in range(self._high + 1, level + 1):
            winner = 0
            most = gains[0]
            for i in others:
                if gains[i] > most:
                    winner = i
                    most = gains[i]
            b = row[winner] + 1
            row[winner] = b
            t = miss_tables[winner]
            gains[winner] = t[b] - t[b + 1] if b < buckets else -inf
            rows[lvl] = row[:]
        self._high = level

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def level_for(self, batch_lines: float) -> int:
        """Bucket row covering ``batch_lines`` of batch space."""
        level = int(batch_lines // self.bucket_lines)
        return min(max(level, 0), self.buckets)

    def allocations_at(self, batch_lines: float) -> List[float]:
        """Per-app batch allocations (lines) for a given batch space.

        ``int * float`` rounds exactly as ``int64 * float64`` does.
        Each row's list is built once and returned to every later
        lookup of that row: treat it as read-only.
        """
        bucket_lines = self.bucket_lines
        # level_for inlined, clamping only past the walked rows: Ubik
        # looks rows up at every event.  Lists are kept by unclamped level.
        level = int(batch_lines // bucket_lines)
        allocs = self._allocs.get(level)
        if allocs is None:
            row = level
            if not self._low <= row <= self._high:
                row = min(max(row, 0), self.buckets)
                if row < self._low:
                    self._walk_down(row)
                elif row > self._high:
                    self._walk_up(row)
            allocs = self._allocs[level] = [b * bucket_lines for b in self._rows[row]]
        return allocs

    def row(self, level: int) -> np.ndarray:
        """Raw bucket row (for tests and introspection)."""
        if not 0 <= level <= self.buckets:
            raise ValueError("level out of range")
        if level < self._low:
            self._walk_down(level)
        elif level > self._high:
            self._walk_up(level)
        return np.array(self._rows[level], dtype=int)
