"""The slack controller (paper Section 5.2).

Strict Ubik never lets tail latency exceed the target.  Ubik-with-slack
accepts a configurable tail degradation (e.g. 5%) and converts it into
a **miss slack**: the number of additional misses a request can absorb
while staying within the relaxed target.  The miss slack is adapted by
a proportional feedback controller driven by measured request
latencies, and is then spent by lowering ``s_active`` below the target
size wherever the miss curve is flat enough — freeing space for batch
apps even for applications whose transients make strict downsizing
unattractive (e.g. moses at 2 MB).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..monitor.miss_curve import MissCurve
from ..server.latency import tail_mean

__all__ = ["SlackController"]


class SlackController:
    """Proportional feedback from tail latency to miss slack."""

    def __init__(
        self,
        slack: float,
        target_tail_cycles: float,
        miss_penalty: float,
        gain: float = 0.3,
        tail_smoothing: float = 0.5,
    ):
        if slack < 0:
            raise ValueError("slack must be non-negative")
        if target_tail_cycles <= 0:
            raise ValueError("target tail must be positive")
        if miss_penalty <= 0:
            raise ValueError("miss penalty must be positive")
        if gain <= 0:
            raise ValueError("controller gain must be positive")
        if not 0.0 < tail_smoothing <= 1.0:
            raise ValueError("tail_smoothing must be in (0, 1]")
        self.slack = slack
        self.target_tail_cycles = target_tail_cycles
        self.miss_penalty = miss_penalty
        self.gain = gain
        self.tail_smoothing = tail_smoothing
        # The static budget: extra misses per request whose stall cost
        # equals the slack fraction of the tail target.  Spending it on
        # *every* request lengthens service times, which queueing
        # amplifies superlinearly (the paper's Observation 3), so the
        # ceiling is derated and the controller starts low and adapts
        # within [0, ceiling].
        self._static_budget = slack * target_tail_cycles / miss_penalty
        self._max_miss_slack = 0.6 * self._static_budget
        self.miss_slack = 0.15 * self._static_budget
        self._tail_estimate: float | None = None

    def update(
        self,
        recent_latencies: Sequence[float],
        load_hint: float | None = None,
    ) -> float:
        """Adapt the miss slack from recently observed latencies.

        The allowed tail is ``target * (1 + slack)``; positive error
        (headroom) grows the slack budget, negative error shrinks it.
        Per-interval tails are noisy (few requests land in an interval),
        so the measurement is smoothed before feedback.  ``load_hint``
        (the app's busy fraction) derates the ceiling at high load,
        where queueing amplification is steepest.  Returns the new miss
        slack (misses per request).
        """
        if self.slack == 0:
            self.miss_slack = 0.0
            return 0.0
        if load_hint is not None and 0.0 <= load_hint <= 1.0:
            self._max_miss_slack = (
                0.6 * self._static_budget * max(0.15, 1.0 - load_hint)
            )
        if len(recent_latencies) == 0:
            self.miss_slack = min(self.miss_slack, self._max_miss_slack)
            return self.miss_slack
        sample = tail_mean(recent_latencies)
        if self._tail_estimate is None:
            self._tail_estimate = sample
        else:
            self._tail_estimate += self.tail_smoothing * (
                sample - self._tail_estimate
            )
        allowed = self.target_tail_cycles * (1.0 + self.slack)
        # Normalized proportional step: a 10% tail error moves the
        # budget by gain*10%.  Violations shrink the budget three times
        # faster than headroom grows it — tails are asymmetric risks.
        relative_error = (allowed - self._tail_estimate) / self.target_tail_cycles
        step_gain = self.gain if relative_error > 0 else 3.0 * self.gain
        self.miss_slack += step_gain * relative_error * self._static_budget
        self.miss_slack = float(np.clip(self.miss_slack, 0.0, self._max_miss_slack))
        return self.miss_slack

    def active_size(
        self,
        curve: MissCurve,
        target_lines: float,
        accesses_per_request: float,
        floor_fraction: float = 1.0 / 16.0,
    ) -> float:
        """Smallest ``s_active`` affordable within the miss slack.

        Finds the smallest size whose per-request extra misses versus
        the target stay within budget:
        ``(m(s) - m(target)) * accesses_per_request <= miss_slack``.
        ``floor_fraction`` keeps a minimal allocation (one step of the
        idle-size grid) so the partition never vanishes entirely.
        """
        if target_lines <= 0:
            raise ValueError("target must be positive")
        if self.slack == 0 or self.miss_slack <= 0 or accesses_per_request <= 0:
            return target_lines
        allowed_ratio = curve.at(target_lines) + self.miss_slack / accesses_per_request
        sizes = curve.sizes
        ratios = curve.miss_ratios
        eligible = sizes[(ratios <= allowed_ratio) & (sizes <= target_lines)]
        floor = target_lines * floor_fraction
        if eligible.size == 0:
            return target_lines
        return float(max(eligible.min(), floor))

    @property
    def watermark_factor(self) -> float:
        """Low-watermark threshold for the de-boost circuit."""
        return 1.0 + self.slack
