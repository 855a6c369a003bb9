"""Ubik: inertia-aware cache partitioning (paper Section 5).

The policy combines the pieces of this package:

* every coarse interval (~50 ms) it reads monitors, updates each LC
  app's slack controller and (idle, boost) sizing
  (:mod:`repro.core.boost`), runs Lookahead for batch apps at their
  average space, and rebuilds the repartitioning table
  (:mod:`repro.core.repartition`);
* on an LC app's **idle** transition it downsizes that partition to
  ``s_idle`` and gives the space to batch apps via the table;
* on an **active** transition it boosts the partition to ``s_boost``
  and arms the de-boost circuit (:mod:`repro.core.deboost`);
* on the **de-boost interrupt** it drops the partition to ``s_active``
  and returns the space to batch apps;
* with slack, a **watermark interrupt** falls back to the conservative
  no-slack sizing for requests suffering atypically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..monitor.miss_curve import MissCurve
from ..policies.base import (
    AppView,
    BoostPlan,
    Decision,
    Policy,
    PolicyContext,
)
from .boost import DEFAULT_OPTIONS, SizingOption, choose_sizes
from .repartition import RepartitionTable
from .slack import SlackController

__all__ = ["UbikPolicy"]

#: De-boost guard for UMON sampling error (paper Section 5.1.1).
GUARD_FRACTION = 0.02


class UbikPolicy(Policy):
    """Strict Ubik (``slack=0``) or Ubik-with-slack (``slack>0``)."""

    def __init__(
        self,
        slack: float = 0.0,
        buckets: int = 256,
        num_options: int = DEFAULT_OPTIONS,
        boost_enabled: bool = True,
        deboost_enabled: bool = True,
        use_exact_bounds: bool = False,
    ):
        """Build Ubik; the last three flags are ablation knobs.

        ``boost_enabled=False`` downsizes idle apps but never boosts on
        wakeup (transient losses are never repaid -> tails degrade);
        ``deboost_enabled=False`` holds the boost for the whole active
        period instead of releasing it when repaid (tails safe, batch
        throughput wasted); ``use_exact_bounds=True`` replaces the
        paper's conservative bounds with exact transient integrals.
        """
        if slack < 0:
            raise ValueError("slack must be non-negative")
        if buckets < 1:
            raise ValueError(f"buckets must be at least 1, got {buckets}")
        if num_options < 1:
            raise ValueError(f"num_options must be at least 1, got {num_options}")
        self.slack = slack
        self.buckets = buckets
        self.num_options = num_options
        self.boost_enabled = boost_enabled
        self.deboost_enabled = deboost_enabled
        self.use_exact_bounds = use_exact_bounds
        self.name = "Ubik" if slack == 0 else f"Ubik-{slack:.0%}"
        if not boost_enabled:
            self.name += "-noboost"
        if not deboost_enabled:
            self.name += "-nodeboost"
        if use_exact_bounds:
            self.name += "-exact"
        self._sizing: Dict[int, SizingOption] = {}
        self._strict_sizing: Dict[int, SizingOption] = {}
        self._slack_ctrl: Dict[int, SlackController] = {}
        self._armed: Dict[int, BoostPlan] = {}
        self._forced_strict: Set[int] = set()
        self._table: Optional[RepartitionTable] = None
        self._batch_order: List[int] = []
        self._batch_weights: List[float] = []
        self._batch_curves: List[MissCurve] = []
        self._lc_order: List[int] = []

    # ------------------------------------------------------------------
    # Periodic reconfiguration
    # ------------------------------------------------------------------
    def _batch_hit_rate(self, batch_lines: float) -> float:
        """Total batch hits per cycle at a given batch space."""
        if self._table is None or not self._batch_order:
            return 0.0
        allocs = self._table.allocations_at(batch_lines)
        total = 0.0
        for curve, weight, alloc in zip(
            self._batch_curves, self._batch_weights, allocs
        ):
            total += weight * (1.0 - curve.at(alloc))
        return total

    def _rebuild(self, ctx: PolicyContext) -> None:
        batch = ctx.batch_apps
        self._batch_order = [a.index for a in batch]
        self._batch_curves = [a.curve for a in batch]
        self._batch_weights = [max(a.access_rate, 1e-12) for a in batch]
        self._table = RepartitionTable(
            self._batch_curves,
            self._batch_weights,
            ctx.llc_lines,
            avg_batch_lines=ctx.avg_batch_lines,
            buckets=self.buckets,
        )
        avg = ctx.avg_batch_lines
        table = self._table
        # A batch space's hit rate depends only on the table row that
        # covers it, so each row is priced once per rebuild.
        level_rates: Dict[int, float] = {}

        def batch_hit_rate(batch_lines: float) -> float:
            level = table.level_for(batch_lines)
            rate = level_rates.get(level)
            if rate is None:
                rate = level_rates[level] = self._batch_hit_rate(batch_lines)
            return rate

        base_rate = batch_hit_rate(avg)

        def batch_delta_hit_rate(delta_lines: float) -> float:
            return batch_hit_rate(avg + delta_lines) - base_rate

        lc_apps = ctx.lc_apps
        self._lc_order = [a.index for a in lc_apps]
        boost_max = ctx.llc_lines / max(1, len(lc_apps))
        self._forced_strict.clear()
        for app in lc_apps:
            active_lines = self._active_size(app)
            self._sizing[app.index] = self._size_app(
                app, active_lines, boost_max, batch_delta_hit_rate
            )
            if self.slack > 0:
                self._strict_sizing[app.index] = self._size_app(
                    app, app.target_lines, boost_max, batch_delta_hit_rate
                )
            else:
                self._strict_sizing[app.index] = self._sizing[app.index]

    def _active_size(self, app: AppView) -> float:
        """``s_active`` for one LC app (slack-adjusted if enabled)."""
        if self.slack == 0:
            return app.target_lines
        ctrl = self._slack_ctrl.get(app.index)
        if ctrl is None:
            target_tail = app.target_tail_cycles or app.deadline_cycles
            ctrl = SlackController(
                self.slack, target_tail, max(app.miss_penalty, 1.0)
            )
            self._slack_ctrl[app.index] = ctrl
        ctrl.update(app.recent_latencies, load_hint=1.0 - app.idle_fraction)
        # Budget the shrink against *tail* requests' access counts: a
        # smaller s_active taxes every access, and tail requests have
        # the most accesses, so averaging would concentrate the damage
        # exactly where the QoS bound lives.
        accesses = app.tail_accesses_per_request or app.accesses_per_request
        return ctrl.active_size(app.curve, app.target_lines, accesses)

    def _size_app(self, app, active_lines, boost_max, batch_delta_hit_rate):
        return choose_sizes(
            curve=app.curve,
            c=app.hit_interval,
            M=app.miss_penalty,
            active_lines=active_lines,
            deadline_cycles=max(app.deadline_cycles, 1.0),
            boost_max_lines=boost_max,
            batch_delta_hit_rate=batch_delta_hit_rate,
            idle_fraction=app.idle_fraction,
            activation_rate=app.activation_rate,
            num_options=self.num_options,
            use_exact_bounds=self.use_exact_bounds,
        )

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _lc_target(self, ctx: PolicyContext, app: AppView) -> float:
        """Steady-state target for an LC app given its current phase."""
        sizing = self._sizing[app.index]
        if not ctx.lc_active.get(app.index, False):
            return sizing.idle_lines
        if ctx.lc_boosted.get(app.index, False):
            # Leave an in-flight boost alone; the de-boost interrupt
            # will bring it down.
            return ctx.current_targets.get(app.index, sizing.boost_lines)
        return sizing.active_lines

    def _with_batch(
        self, ctx: PolicyContext, lc_targets: Dict[int, float]
    ) -> Decision:
        """Complete a decision by filling batch targets from the table."""
        batch_space = ctx.llc_lines - sum(lc_targets.values())
        batch_space = max(0.0, batch_space)
        targets = dict(lc_targets)
        if self._table is not None:
            for index, alloc in zip(
                self._batch_order, self._table.allocations_at(batch_space)
            ):
                targets[index] = alloc
        return Decision(targets=targets)

    def _full_decision(self, ctx: PolicyContext) -> Decision:
        lc_targets = {a.index: self._lc_target(ctx, a) for a in ctx.lc_apps}
        return self._with_batch(ctx, lc_targets)

    def initialize(self, ctx: PolicyContext) -> Decision:
        self._rebuild(ctx)
        return self._full_decision(ctx)

    def on_interval(self, ctx: PolicyContext) -> Decision:
        self._rebuild(ctx)
        return self._full_decision(ctx)

    # ------------------------------------------------------------------
    # Event-driven transitions
    # ------------------------------------------------------------------
    def _lc_targets_now(self, ctx: PolicyContext) -> Dict[int, float]:
        """Current LC targets, preserving in-flight boosts.

        The LC order comes from the last rebuild, so an event hook
        reads no app view.
        """
        targets: Dict[int, float] = {}
        for index in self._lc_order:
            targets[index] = ctx.current_targets.get(
                index, self._sizing[index].idle_lines
            )
        return targets

    def on_lc_idle(self, ctx: PolicyContext, app_index: int) -> Decision:
        self._armed.pop(app_index, None)
        lc_targets = self._lc_targets_now(ctx)
        lc_targets[app_index] = self._sizing[app_index].idle_lines
        return self._with_batch(ctx, lc_targets)

    def on_lc_active(self, ctx: PolicyContext, app_index: int) -> Decision:
        use_strict = app_index in self._forced_strict
        sizing = (
            self._strict_sizing[app_index] if use_strict else self._sizing[app_index]
        )
        lc_targets = self._lc_targets_now(ctx)
        if not self.boost_enabled:
            # Ablation: wake up straight to s_active; transient losses
            # are never repaid.
            lc_targets[app_index] = sizing.active_lines
            return self._with_batch(ctx, lc_targets)
        lc_targets[app_index] = sizing.boost_lines
        decision = self._with_batch(ctx, lc_targets)
        if sizing.boost_lines > sizing.active_lines and self.deboost_enabled:
            watermark = None
            if self.slack > 0 and not use_strict:
                ctrl = self._slack_ctrl.get(app_index)
                watermark = ctrl.watermark_factor if ctrl else 1.0 + self.slack
            plan = BoostPlan(
                boost_lines=sizing.boost_lines,
                active_lines=sizing.active_lines,
                guard_fraction=GUARD_FRACTION,
                watermark_factor=watermark,
            )
            self._armed[app_index] = plan
            decision.boost_plans[app_index] = plan
        return decision

    def on_deboost(self, ctx: PolicyContext, app_index: int) -> Decision:
        plan = self._armed.pop(app_index, None)
        active = (
            plan.active_lines if plan else self._sizing[app_index].active_lines
        )
        lc_targets = self._lc_targets_now(ctx)
        lc_targets[app_index] = active
        return self._with_batch(ctx, lc_targets)

    def on_watermark(self, ctx: PolicyContext, app_index: int) -> Decision:
        """Fall back to the conservative sizing for a suffering request."""
        self._forced_strict.add(app_index)
        self._armed.pop(app_index, None)
        strict = self._strict_sizing[app_index]
        lc_targets = self._lc_targets_now(ctx)
        lc_targets[app_index] = strict.boost_lines
        decision = self._with_batch(ctx, lc_targets)
        if strict.boost_lines > strict.active_lines:
            plan = BoostPlan(
                boost_lines=strict.boost_lines,
                active_lines=strict.active_lines,
                guard_fraction=GUARD_FRACTION,
                watermark_factor=None,
            )
            self._armed[app_index] = plan
            decision.boost_plans[app_index] = plan
        return decision

    # ------------------------------------------------------------------
    # Introspection (tests, examples)
    # ------------------------------------------------------------------
    def sizing_for(self, app_index: int) -> SizingOption:
        """Last computed sizing for an LC app."""
        return self._sizing[app_index]
