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

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..monitor.miss_curve import MissCurve
from .transient import (
    gain_rate_per_cycle,
    lost_cycles_bound,
    lost_cycles_exact,
    transient_length_bound,
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
