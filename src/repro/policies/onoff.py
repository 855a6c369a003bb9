"""OnOff: full allocation while active, nothing while idle (Section 4).

Whenever a latency-critical app is active it receives its full target
allocation; when it goes idle its space is handed to the batch apps.
Running Lookahead at every transition would be too expensive, so at
each periodic reconfiguration the policy *precomputes* batch partition
sizes for every possible number of active LC apps (N+1 cases), and
transitions just look up the precomputed row — exactly the paper's
construction.

OnOff is space-efficient but unsafe: idle LC apps lose their warm
working set (the cross-request reuse of Figure 2), so the next request
pays the refill transient, degrading tail latency.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .base import Decision, Policy, PolicyContext
from .lookahead import lookahead_partition

__all__ = ["OnOffPolicy"]


class OnOffPolicy(Policy):
    """Event-driven on/off allocations with precomputed batch rows."""

    name = "OnOff"

    def __init__(self, buckets: int = 256):
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.buckets = buckets
        self._rows: Dict[int, List[float]] = {}
        self._batch_order: List[int] = []
        self._lc_targets: List[Tuple[int, float]] = []

    # ------------------------------------------------------------------
    # Periodic: precompute batch allocations for each activity level
    # ------------------------------------------------------------------
    def _precompute(self, ctx: PolicyContext) -> None:
        batch = ctx.batch_apps
        lc = ctx.lc_apps
        self._batch_order = [a.index for a in batch]
        self._lc_targets = [(a.index, a.target_lines) for a in lc]
        self._rows = {}
        curves = [a.curve for a in batch]
        weights = [max(a.access_rate, 1e-12) for a in batch]
        # Active LC apps hold their full targets; idle ones hold zero.
        # Batch rows are indexed by the number of active LC apps, which
        # suffices because each mix runs instances of one LC workload
        # with identical targets (paper Section 6).
        for active_count in range(len(lc) + 1):
            reserved = sum(a.target_lines for a in lc[:active_count])
            available = max(0.0, ctx.llc_lines - reserved)
            if batch:
                self._rows[active_count] = lookahead_partition(
                    curves, weights, available, buckets=self.buckets
                )
            else:
                self._rows[active_count] = []

    def _decision(self, ctx: PolicyContext) -> Decision:
        """Targets for the current activity, from the last precompute's
        LC targets, so an event hook reads no app view."""
        lc_active = ctx.lc_active
        active_count = sum(
            1 for index, __ in self._lc_targets if lc_active.get(index, False)
        )
        row = self._rows[active_count]
        targets: Dict[int, float] = {}
        for index, target_lines in self._lc_targets:
            is_active = lc_active.get(index, False)
            targets[index] = target_lines if is_active else 0.0
        for index, alloc in zip(self._batch_order, row):
            targets[index] = alloc
        return Decision(targets=targets)

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    def initialize(self, ctx: PolicyContext) -> Decision:
        self._precompute(ctx)
        return self._decision(ctx)

    def on_interval(self, ctx: PolicyContext) -> Decision:
        self._precompute(ctx)
        return self._decision(ctx)

    def on_lc_idle(self, ctx: PolicyContext, app_index: int) -> Decision:
        return self._decision(ctx)

    def on_lc_active(self, ctx: PolicyContext, app_index: int) -> Decision:
        return self._decision(ctx)
