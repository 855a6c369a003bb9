"""Reference decision paths — the oracles for Ubik's option search,
its table and Lookahead.

Mirrors the ``repro.cache.reference`` and ``repro.sim.reference``
pattern: when a hot loop is rewritten, the original survives here as
the behavioural oracle.

* :func:`naive_evaluate_options` is
  :func:`~repro.core.boost.evaluate_options` as it stood before the
  one-pass search: every candidate idle size runs its own smallest
  feasible boost search, calling
  :func:`~repro.core.transient.transient_length_bound` (or the exact
  integral) and :func:`~repro.core.transient.gain_rate_per_cycle` at
  each grid point it visits, each of which re-reads the curve.
  ``tests/core/test_decision_equivalence.py`` holds the production
  option tables to it, errors included.
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
  every row is walked when the table is built, the rows live in an
  ``int`` ndarray, and the Lookahead baseline comes from
  :func:`naive_lookahead_partition`.  The decision wall
  (``tests/core/test_decision_equivalence.py``) builds both tables from
  the same inputs and asserts identical rows and bit-identical
  allocations, read in level order and shuffled, and ``repro bench``
  times the two (``repartition_table``).

None is exported from :mod:`repro.core`, and nothing in the policy
stack calls them.  Keep them naive: they must stay the pre-rewrite
code, so they share no helper with the code they check.  The option
search calls the :mod:`repro.core.transient` bounds whose values the
one-pass search computes once, and returns the same
:class:`~repro.core.boost.SizingOption` rows.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..monitor.miss_curve import MissCurve
from .boost import BOOST_GRID, DEFAULT_OPTIONS, SizingOption
from .transient import (
    gain_rate_per_cycle,
    lost_cycles_bound,
    lost_cycles_exact,
    transient_length_bound,
    transient_length_exact,
)

__all__ = [
    "NaiveRepartitionTable",
    "naive_evaluate_options",
    "naive_lookahead_partition",
]


def _smallest_feasible_boost(
    curve: MissCurve,
    c: float,
    M: float,
    idle_lines: float,
    active_lines: float,
    boost_max: float,
    deadline: float,
    lost: float,
    transient_fn: Callable[..., float],
) -> Optional[Tuple[float, float]]:
    """Smallest boost that repays ``lost`` cycles by the deadline.

    Returns ``(boost, transient)``, the transient being
    ``transient_fn(curve, idle_lines, boost, c, M)``, or ``None`` when
    no boost up to ``boost_max`` works.  ``transient_fn`` is the
    paper's conservative bound or, as an ablation, the exact integral.
    """
    if lost <= 0.0:
        return active_lines, transient_fn(curve, idle_lines, active_lines, c, M)
    boost_max = min(boost_max, curve.max_size)
    if boost_max <= active_lines:
        return None
    step = (boost_max - active_lines) / BOOST_GRID
    for k in range(1, BOOST_GRID + 1):
        boost = active_lines + k * step
        transient = transient_fn(curve, idle_lines, boost, c, M)
        if transient >= deadline:
            # Larger boosts only lengthen the fill; nothing further works.
            return None
        rate = gain_rate_per_cycle(curve, active_lines, boost, c, M)
        if rate <= 0.0:
            continue
        if (deadline - transient) * rate >= lost:
            return boost, transient
    return None


def naive_evaluate_options(
    curve: MissCurve,
    c: float,
    M: float,
    active_lines: float,
    deadline_cycles: float,
    boost_max_lines: float,
    batch_delta_hit_rate: Callable[[float], float],
    idle_fraction: float,
    activation_rate: float,
    num_options: int = DEFAULT_OPTIONS,
    use_exact_bounds: bool = False,
) -> List[SizingOption]:
    """:func:`~repro.core.boost.evaluate_options` with a boost search
    per option: every candidate re-reads the curve at each grid point it
    visits and recomputes each bound and gain rate."""
    options: List[SizingOption] = [
        SizingOption(
            idle_lines=active_lines,
            boost_lines=active_lines,
            active_lines=active_lines,
            lost_cycles=0.0,
            transient_cycles=0.0,
            net_gain=0.0,
            feasible=True,
        )
    ]
    lost_fn = lost_cycles_exact if use_exact_bounds else lost_cycles_bound
    transient_fn = (
        transient_length_exact if use_exact_bounds else transient_length_bound
    )
    for k in range(1, num_options + 1):
        idle = active_lines * (num_options - k) / num_options
        lost = lost_fn(curve, idle, active_lines, M)
        found = _smallest_feasible_boost(
            curve, c, M, idle, active_lines, boost_max_lines, deadline_cycles,
            lost, transient_fn,
        )
        if found is None:
            options.append(
                SizingOption(
                    idle_lines=idle,
                    boost_lines=float("nan"),
                    active_lines=active_lines,
                    lost_cycles=lost,
                    transient_cycles=float("inf"),
                    net_gain=float("-inf"),
                    feasible=False,
                )
            )
            break  # options only get more aggressive from here
        boost, transient = found
        benefit = idle_fraction * batch_delta_hit_rate(active_lines - idle)
        boosted_fraction = min(1.0, activation_rate * deadline_cycles)
        cost = boosted_fraction * -batch_delta_hit_rate(-(boost - active_lines))
        options.append(
            SizingOption(
                idle_lines=idle,
                boost_lines=boost,
                active_lines=active_lines,
                lost_cycles=lost,
                transient_cycles=transient,
                net_gain=benefit - cost,
                feasible=True,
                benefit=benefit,
                cost=cost,
            )
        )
    return options


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
