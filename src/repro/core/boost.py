"""Idle/boost sizing for latency-critical partitions (Section 5.1.1).

At every reconfiguration interval, for each latency-critical app, Ubik
evaluates N candidate idle sizes ``s_idle = s_active * (N-k)/N``.  For
each candidate it computes (all from the measured miss curve and the
paper's conservative bounds):

* the worst-case cycles **lost** during the refill transient,
* the smallest **boost** size whose extra hit rate repays those cycles
  within the deadline (boost capped at ``llc / num_lc`` so boosted LC
  apps can never interfere with each other),
* a **cost/benefit** comparison priced with the batch apps' miss
  curves: benefit = extra batch hits while the app is idle, cost =
  extra batch misses while it is boosted (Figure 7).

The option with the highest net gain wins; infeasible options (the
transient cannot be repaid by the deadline) terminate the search, since
options only get more aggressive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..monitor.miss_curve import MissCurve
from .transient import (
    _P_FLOOR,
    _check_sizes,
    lost_cycles_exact,
    transient_length_exact,
)

__all__ = ["SizingOption", "choose_sizes", "evaluate_options"]

#: Candidate idle sizes evaluated per app (paper: N = 16).
DEFAULT_OPTIONS = 16

#: Boost-size search resolution between s_active and s_boost_max.
BOOST_GRID = 32


@dataclass(frozen=True)
class SizingOption:
    """One evaluated (idle, boost) pair with its accounting."""

    idle_lines: float
    boost_lines: float
    active_lines: float
    lost_cycles: float
    transient_cycles: float
    net_gain: float  # benefit - cost, in batch hits per cycle of wall time
    feasible: bool = True
    benefit: float = 0.0
    cost: float = 0.0

    @property
    def downsizes(self) -> bool:
        return self.idle_lines < self.active_lines


def choose_sizes(
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
) -> SizingOption:
    """Pick the best (idle, boost) pair for one latency-critical app.

    Parameters
    ----------
    curve, c, M:
        The app's measured miss curve, all-hit access interval, and
        effective miss penalty.
    active_lines:
        The app's steady target size (``s_active``).
    deadline_cycles:
        Time by which transient losses must be repaid — the 95th
        percentile latency at the target size.
    boost_max_lines:
        Boost ceiling (``llc / num_lc_apps``).
    batch_delta_hit_rate:
        ``f(delta_lines)`` — change in total batch hits per cycle if
        batch space changes by ``delta_lines`` (from the repartition
        table's miss curves); positive deltas give batch more space.
    idle_fraction, activation_rate:
        Measured duty-cycle statistics of the app, used to weight
        benefit (accrues while idle) against cost (accrues while
        boosted, at most ``deadline`` per activation).
    """
    if active_lines <= 0:
        raise ValueError("active size must be positive")
    if deadline_cycles <= 0:
        raise ValueError("deadline must be positive")
    if not 0.0 <= idle_fraction <= 1.0:
        raise ValueError("idle fraction must be in [0, 1]")
    if activation_rate < 0:
        raise ValueError("activation rate must be non-negative")
    if num_options < 1:
        raise ValueError("need at least one option")

    options = evaluate_options(
        curve=curve,
        c=c,
        M=M,
        active_lines=active_lines,
        deadline_cycles=deadline_cycles,
        boost_max_lines=boost_max_lines,
        batch_delta_hit_rate=batch_delta_hit_rate,
        idle_fraction=idle_fraction,
        activation_rate=activation_rate,
        num_options=num_options,
        use_exact_bounds=use_exact_bounds,
    )
    return max(
        (o for o in options if o.feasible),
        key=lambda o: o.net_gain,
    )


def evaluate_options(
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
    """The full option table of Figure 7: every candidate with its
    cost/benefit accounting, ending at the first infeasible one.

    Option 0 (keep the full allocation) is always present and always
    feasible; the remaining options downsize progressively.  The
    search stops after the first infeasible option, which is included
    (flagged) so callers can render the paper's INFEASIBLE row.

    Each candidate idle size takes the smallest boost on the grid
    ``active + j * step`` (``j = 1 ... BOOST_GRID``, up to
    ``min(boost_max_lines, curve.max_size)``) whose extra hit rate
    repays the transient's lost cycles (the paper's bound, or the exact
    integral with ``use_exact_bounds``) before the deadline.  The grid
    is the same for every candidate, so one pass reads each grid point
    on first use and keeps its miss ratio ``p``, its bound term
    ``c/p + M`` and its gain rate; ``p(active)`` is read once too.  A
    candidate's bound transient is ``(boost - idle) * term``, the float
    operations of
    :func:`~repro.core.transient.transient_length_bound` in its order,
    and a size or access-interval error is raised where the per-option
    search (:func:`repro.core.reference.naive_evaluate_options`, the
    oracle) raises it.  The exact integral depends on the idle size and
    is still taken per (idle, boost) pair.
    """
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
    at = curve.at
    active = active_lines
    deadline = deadline_cycles
    p_active = at(active)
    term_active = math.inf if p_active <= _P_FLOOR else c / p_active + M
    boosts: Optional[List[float]] = None  # the grid, built on first need
    ps: List[float] = []
    terms: List[Optional[float]] = []
    rates: List[Optional[float]] = []
    boosted_fraction = min(1.0, activation_rate * deadline)
    for k in range(1, num_options + 1):
        idle = active * (num_options - k) / num_options
        if use_exact_bounds:
            lost = lost_cycles_exact(curve, idle, active, M)
        else:
            # lost_cycles_bound, with p(active) read once.
            _check_sizes(curve, idle, active)
            p_idle = at(idle)
            if idle == active or p_idle <= _P_FLOOR:
                lost = 0.0
            else:
                lost = M * (active - idle) * max(0.0, 1.0 - p_active / p_idle)

        found = False
        if lost <= 0.0:
            # Nothing to repay: no boost, only the fill up to active.
            boost = active
            found = True
            if use_exact_bounds:
                transient = transient_length_exact(curve, idle, active, c, M)
            elif idle == active:
                transient = 0.0
            else:
                transient = (active - idle) * term_active
        else:
            if boosts is None:
                top = min(boost_max_lines, curve.max_size)
                if top <= active:
                    boosts = []
                else:
                    step = (top - active) / BOOST_GRID
                    boosts = [active + j * step for j in range(1, BOOST_GRID + 1)]
                ps = [math.nan] * len(boosts)
                terms = [None] * len(boosts)
                rates = [None] * len(boosts)
            # Here idle < active <= boost: the bound's s1 == s2 branch
            # never applies, and a grid point that passed the size
            # check for one idle size passes it for every other.
            for j, boost in enumerate(boosts):
                term = terms[j]
                if term is None:
                    _check_sizes(curve, idle, boost)
                    p = ps[j] = at(boost)
                    term = terms[j] = math.inf if p <= _P_FLOOR else c / p + M
                if use_exact_bounds:
                    transient = transient_length_exact(curve, idle, boost, c, M)
                else:
                    transient = (boost - idle) * term
                if transient >= deadline:
                    # Larger boosts only lengthen the fill; nothing
                    # further works.
                    break
                rate = rates[j]
                if rate is None:
                    # gain_rate_per_cycle(curve, active, boost, c, M).
                    p = ps[j]
                    denom = c + p * M
                    if denom <= 0:
                        raise ValueError("non-positive access interval")
                    rate = rates[j] = max(0.0, (p_active - p)) * M / denom
                if rate <= 0.0:
                    continue
                if (deadline - transient) * rate >= lost:
                    found = True
                    break

        if not found:
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
        benefit = idle_fraction * batch_delta_hit_rate(active_lines - idle)
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
