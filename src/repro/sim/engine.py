"""Event-driven six-app mix simulator (paper Sections 6-7).

The engine executes one workload mix — three instances of a
latency-critical (LC) workload plus three batch apps — on a shared LLC
under a partitioning policy.  It is *analytic at the access level*
(miss curves + the fill-state transient model of :mod:`repro.sim.fill`)
but *exact at the event level*: request arrivals, FIFO queueing,
idle/active transitions, periodic reconfigurations, de-boost and
watermark interrupts are all discrete events in one global timeline.

Two execution modes:

* **Partitioned** (UCP/StaticLC/OnOff/Ubik/Fixed): each app owns a
  partition with Vantage-style fill transients; policies set targets.
* **Unmanaged** (LRU): the shared-occupancy fluid model replaces
  partitions; apps contend through insertion rates.

The policy only sees monitor data (noisy UMON curves, counters), never
engine-internal state, so policy decisions carry hardware-realistic
information error.

One engine run is a single sequential event timeline: the six apps
are coupled through policy decisions, the shared batch-space integral,
and one RNG, so a *joint* mix replay cannot be split without changing
its semantics.  Each LC instance's isolated baseline run
(:meth:`MixEngine.isolated`) is its own engine: one instance, no batch
apps, a fixed partition, its own seed.

This module's heap loop is the **scalar oracle**.  Production replays
run through its subclass :class:`~repro.sim.lockstep.LockstepEngine`,
which reads arrivals from its replay group's shared schedule and shares
group-constant values (curve segments, initial rates, stream
statistics) through a :class:`~repro.sim.grid_replay.GroupShared`
context passed as ``shared``.  The oracle runs without one: plain
:class:`~repro.sim.fill.FillState` fills and the NumPy service walk.
The equivalence walls pin the two bit-identical.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cache.schemes import SchemeModel
from ..cache.sharing import SharedOccupancyModel, pairwise_sum
from ..core.deboost import DeBoostTracker
from .bandwidth import BandwidthModel
from ..cpu import CoreModel, make_core_model
from ..monitor.miss_curve import MissCurve, interp_float
from ..policies.base import AppView, BoostPlan, Decision, Policy, PolicyContext
from ..workloads.batch import BatchWorkload
from ..workloads.latency_critical import LCWorkload
from .config import CMPConfig
from .fill import FillState, GroupFillState
from .grid_replay import GroupShared
from .results import BatchAppResult, LCInstanceResult, MixResult

__all__ = ["LCInstanceSpec", "MixEngine"]

#: Chunks per service walk used to localize de-boost crossings.
_WALK_CHUNKS = 12

#: Epoch cap for the unmanaged (LRU) occupancy integration, cycles.
_LRU_EPOCH = 320_000  # 100 us at 3.2 GHz

_COMPLETION_TOL = 1e-6


@dataclass(frozen=True)
class LCInstanceSpec:
    """One LC instance: its workload model and pre-drawn request stream."""

    workload: LCWorkload
    arrivals: np.ndarray  # visible arrival times, cycles, sorted
    works: np.ndarray  # instructions per request
    deadline_cycles: float  # Ubik deadline: 95p latency at target size
    target_tail_cycles: float  # baseline tail target (mean beyond p95)
    load: float  # offered load, for initial estimates

    def __post_init__(self) -> None:
        if len(self.arrivals) != len(self.works):
            raise ValueError("arrivals and works must have equal length")
        if len(self.arrivals) == 0:
            raise ValueError("need at least one request")


@dataclass
class _IntervalStats:
    """Per-app counters over one reconfiguration interval."""

    accesses: float = 0.0
    misses: float = 0.0
    idle_time: float = 0.0
    activations: int = 0
    latencies: List[float] = field(default_factory=list)

    def reset(self) -> None:
        self.accesses = 0.0
        self.misses = 0.0
        self.idle_time = 0.0
        self.activations = 0
        self.latencies = []


class _App:
    """Engine-internal per-app state."""

    def __init__(
        self,
        index: int,
        name: str,
        kind: str,
        curve: MissCurve,
        profile,
        core: CoreModel,
        scheme: Optional[SchemeModel],
        shared: Optional[GroupShared] = None,
    ):
        self.index = index
        self.name = name
        self.kind = kind
        self.curve = curve
        self.profile = profile
        self.hit_interval = core.hit_interval(profile)
        self.miss_penalty = core.miss_penalty(profile)
        self.base_miss_penalty = self.miss_penalty  # before contention
        self.base_cpi = core.base_cpi(profile)
        if shared is None:
            self.fill = FillState(
                curve, self.hit_interval, self.miss_penalty, scheme=scheme
            )
        else:
            # Segment scope pins the exact (curve, scheme) pair, so
            # cells with different schemes never alias each other's
            # segments; retaining both keeps the ids stable.
            shared.retain(curve, scheme)
            self.fill = GroupFillState(
                curve,
                self.hit_interval,
                self.miss_penalty,
                scheme=scheme,
                shared_segments=shared.segments,
                seg_scope=(id(curve), id(scheme)),
            )
        self.last_commit = 0.0
        self.stats = _IntervalStats()
        self.total_accesses = 0.0
        self.total_misses = 0.0
        self.measured_curve = curve  # refreshed with noise each interval

    @property
    def is_lc(self) -> bool:
        return self.kind == "lc"


class _LCApp(_App):
    def __init__(self, index, name, spec: LCInstanceSpec, core, scheme, shared=None):
        super().__init__(
            index, name, "lc", spec.workload.miss_curve, spec.workload.profile,
            core, scheme, shared,
        )
        self.spec = spec
        apki = spec.workload.profile.apki
        # Stream-constant statistics, computed once per stream: within
        # a replay group every cell replays the same frozen work array,
        # so the group context serves these to all siblings (the first
        # cell computes the same expressions the ungrouped path runs).
        stats = (
            shared.stream_stats.get((id(spec.works), apki))
            if shared is not None
            else None
        )
        if stats is not None:
            self.req_accesses, self.mean_req_accesses, self.tail_req_accesses = stats
        else:
            self.req_accesses = spec.works * apki / 1000.0
            self.mean_req_accesses = float(np.mean(self.req_accesses))
            self.tail_req_accesses = float(np.percentile(self.req_accesses, 95))
            if shared is not None:
                shared.retain(spec.works)
                shared.stream_stats[(id(spec.works), apki)] = (
                    self.req_accesses,
                    self.mean_req_accesses,
                    self.tail_req_accesses,
                )
        self.arrival_ptr = 0
        self.queue: List[int] = []
        self.serving: Optional[int] = None
        self.remaining = 0.0
        self.active = False
        self.version = 0
        self.tracker: Optional[DeBoostTracker] = None
        self.result = LCInstanceResult(name=name)
        self.requests_done = 0
        self._fixed_end = float("inf")  # completion time of zero-access requests

    @property
    def exhausted(self) -> bool:
        return (
            self.arrival_ptr >= len(self.spec.arrivals)
            and not self.queue
            and self.serving is None
        )


class _BatchApp(_App):
    def __init__(self, index, workload: BatchWorkload, core, scheme, baseline_ipc,
                 shared=None):
        super().__init__(
            index, workload.name, "batch", workload.miss_curve,
            workload.profile, core, scheme, shared,
        )
        self.result = BatchAppResult(name=workload.name, baseline_ipc=baseline_ipc)


class MixEngine:
    """Runs one mix under one policy; see module docstring."""

    def __init__(
        self,
        lc_specs: List[LCInstanceSpec],
        batch_workloads: List[BatchWorkload],
        policy: Policy,
        config: CMPConfig,
        scheme: Optional[SchemeModel] = None,
        seed: int = 0,
        umon_noise: float = 0.02,
        warmup_fraction: float = 0.05,
        baseline_lines: Optional[float] = None,
        mix_id: str = "mix",
        trace_partitions: bool = False,
        bandwidth: Optional[BandwidthModel] = None,
        shared: Optional[GroupShared] = None,
    ):
        if not lc_specs:
            raise ValueError("need at least one LC instance")
        if umon_noise < 0:
            raise ValueError("umon_noise must be non-negative")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.config = config
        self.policy = policy
        self.scheme = scheme if policy.uses_partitioning else None
        self.rng = np.random.default_rng(seed)
        self.umon_noise = umon_noise
        self.warmup_fraction = warmup_fraction
        self.mix_id = mix_id
        self.bandwidth = bandwidth
        self.shared = shared
        self.llc_lines = config.llc_lines
        core = make_core_model(config.core_kind, config.mem_latency_cycles)
        self.core = core
        base_lines = (
            baseline_lines
            if baseline_lines is not None
            else lc_specs[0].workload.target_lines
        )

        self.apps: List[_App] = []
        self.lc_apps: List[_LCApp] = []
        self.batch_apps: List[_BatchApp] = []
        for i, spec in enumerate(lc_specs):
            app = _LCApp(
                len(self.apps), f"{spec.workload.name}#{i}", spec, core,
                self.scheme, shared,
            )
            self.apps.append(app)
            self.lc_apps.append(app)
        for workload in batch_workloads:
            baseline_ipc = core.ipc(
                workload.profile, float(workload.miss_curve(base_lines))
            )
            app = _BatchApp(
                len(self.apps), workload, core, self.scheme, baseline_ipc, shared
            )
            self.apps.append(app)
            self.batch_apps.append(app)

        self.now = 0.0
        self._events: List[Tuple[float, int, str, int, int]] = []
        self._seq = itertools.count()
        self._interval_start = 0.0
        self._batch_space_integral = 0.0
        self._batch_space_last_t = 0.0
        self._avg_batch_lines = self._batch_space_now()
        self._first_interval = True
        #: Optional (time, target, resident) samples per app index,
        #: recorded at every commit — the raw data of paper Figs 4/6.
        self.trace_partitions = trace_partitions
        self.partition_trace: Dict[int, List[Tuple[float, float, float]]] = (
            {a.index: [] for a in self.apps} if trace_partitions else {}
        )

    @classmethod
    def isolated(
        cls,
        spec: LCInstanceSpec,
        config: CMPConfig,
        target_lines: float,
        seed: int,
        warmup_fraction: float = 0.05,
        mix_id: str = "isolated",
    ) -> "MixEngine":
        """An engine running one LC instance alone at a fixed partition.

        This is the paper's private-LLC baseline configuration (noise
        off, no batch apps, a :class:`~repro.policies.fixed.FixedPolicy`
        pinned at ``target_lines``).  Both
        :meth:`repro.sim.mix_runner.MixRunner.baseline_instance` and the
        scaleout study's baseline build their engines here (through
        :class:`~repro.sim.lockstep.LockstepEngine`, which inherits
        it).
        """
        from ..policies.fixed import FixedPolicy

        return cls(
            lc_specs=[spec],
            batch_workloads=[],
            policy=FixedPolicy({0: float(target_lines)}),
            config=config,
            scheme=None,
            seed=seed,
            umon_noise=0.0,
            warmup_fraction=warmup_fraction,
            mix_id=mix_id,
        )

    # ------------------------------------------------------------------
    # Event queue helpers
    # ------------------------------------------------------------------
    def _push(self, time: float, kind: str, app_idx: int = -1, version: int = 0):
        heapq.heappush(self._events, (time, next(self._seq), kind, app_idx, version))

    # ------------------------------------------------------------------
    # Policy interfacing
    # ------------------------------------------------------------------
    def _refresh_measured_curves(self) -> None:
        for app in self.apps:
            if self.umon_noise > 0:
                app.measured_curve = app.curve.with_noise(self.rng, self.umon_noise)
            else:
                app.measured_curve = app.curve

    def _make_views(self) -> List[AppView]:
        duration = max(self.now - self._interval_start, 1.0)
        views: List[AppView] = []
        for app in self.apps:
            if self._first_interval:
                access_rate = self._initial_access_rate(app)
            else:
                access_rate = app.stats.accesses / duration
            view = AppView(
                index=app.index,
                name=app.name,
                kind=app.kind,
                curve=app.measured_curve,
                apki=app.profile.apki,
                hit_interval=app.hit_interval,
                miss_penalty=app.miss_penalty,
                access_rate=access_rate,
            )
            if isinstance(app, _LCApp):
                view.target_lines = app.spec.workload.target_lines
                view.deadline_cycles = app.spec.deadline_cycles
                view.target_tail_cycles = app.spec.target_tail_cycles
                view.idle_fraction = (
                    1.0 - app.spec.load
                    if self._first_interval
                    else min(1.0, app.stats.idle_time / duration)
                )
                view.activation_rate = (
                    app.spec.load / max(app.spec.workload.mean_service_cycles(self.core), 1.0)
                    * (1.0 - app.spec.load)
                    if self._first_interval
                    else app.stats.activations / duration
                )
                view.recent_latencies = tuple(app.stats.latencies)
                served = max(app.requests_done, 1)
                view.accesses_per_request = (
                    app.mean_req_accesses
                    if self._first_interval
                    else app.total_accesses / served
                )
                view.tail_accesses_per_request = app.tail_req_accesses
            views.append(view)
        return views

    def _initial_access_rate(self, app: _App) -> float:
        if isinstance(app, _LCApp):
            target = app.spec.workload.target_lines
            busy_rate = 1.0 / self.core.access_interval(
                app.profile, float(app.curve(target))
            )
            return app.spec.load * busy_rate
        share = self.llc_lines / max(1, len(self.apps))
        return 1.0 / self.core.access_interval(app.profile, float(app.curve(share)))

    def _make_context(self) -> PolicyContext:
        return PolicyContext(
            llc_lines=self.llc_lines,
            apps=self._make_views(),
            current_targets={a.index: a.fill.target for a in self.apps},
            now=self.now,
            avg_batch_lines=self._avg_batch_lines,
            lc_active={a.index: a.active for a in self.lc_apps},
            rng=self.rng,
            lc_boosted={
                a.index: a.tracker is not None and not a.tracker.fired
                for a in self.lc_apps
            },
        )

    # ------------------------------------------------------------------
    # Committing progress
    # ------------------------------------------------------------------
    def _commit(self, app: _App, upto: float) -> None:
        dt = upto - app.last_commit
        if dt < -1e-6:
            raise RuntimeError("time went backwards in commit")
        if dt <= 0:
            app.last_commit = upto
            return
        if isinstance(app, _BatchApp):
            adv = app.fill.advance_cycles(dt)
            instr = adv.accesses * app.profile.instructions_per_access
            app.result.instructions += instr
            app.result.cycles += dt
            app.stats.accesses += adv.accesses
            app.stats.misses += adv.misses
        else:
            lc = app  # type: _LCApp
            if lc.serving is not None and lc.remaining > 0:
                adv = lc.fill.advance_cycles(dt)
                done = min(adv.accesses, lc.remaining)
                lc.remaining -= done
                self._note_lc_progress(lc, adv.accesses, adv.misses)
                if lc.tracker is not None and not lc.tracker.fired:
                    lc.tracker.accumulate(adv.accesses, adv.misses, lc.fill.resident)
            elif lc.serving is None:
                lc.stats.idle_time += dt
            # Serving with zero LLC accesses: busy but cache-silent.
        app.last_commit = upto
        if self.trace_partitions:
            self.partition_trace[app.index].append(
                (upto, app.fill.target, app.fill.resident)
            )

    def _note_lc_progress(self, lc: _LCApp, accesses: float, misses: float):
        lc.stats.accesses += accesses
        lc.stats.misses += misses
        lc.total_accesses += accesses
        lc.total_misses += misses

    def _commit_batch(self, upto: float) -> None:
        for app in self.batch_apps:
            self._commit(app, upto)

    def _batch_space_now(self) -> float:
        lc_held = sum(a.fill.target for a in self.lc_apps)
        return max(0.0, self.llc_lines - lc_held)

    def _note_batch_space(self) -> None:
        dt = self.now - self._batch_space_last_t
        if dt > 0:
            self._batch_space_integral += self._batch_space_now() * dt
            self._batch_space_last_t = self.now

    # ------------------------------------------------------------------
    # Decision application
    # ------------------------------------------------------------------
    def _apply_decision(self, decision: Optional[Decision]) -> None:
        if decision is None:
            return
        self._note_batch_space()
        changed_lc: List[_LCApp] = []
        for idx, lines in decision.targets.items():
            app = self.apps[idx]
            if abs(app.fill.target - lines) < 1e-9:
                continue
            self._commit(app, self.now)
            app.fill.set_target(lines)
            if isinstance(app, _LCApp) and app.serving is not None:
                changed_lc.append(app)
        for idx, plan in decision.boost_plans.items():
            app = self.apps[idx]
            if not isinstance(app, _LCApp):
                raise ValueError("boost plans only apply to LC apps")
            active_ratio = float(app.curve(plan.active_lines))
            app.tracker = DeBoostTracker(plan, active_ratio)
        self._note_batch_space()
        for lc in changed_lc:
            lc.version += 1
            self._schedule_service(lc)

    # ------------------------------------------------------------------
    # Service walking
    # ------------------------------------------------------------------
    def _schedule_service(self, lc: _LCApp) -> None:
        """Walk the in-flight request and schedule its future events.

        The walk advances a detached fill clone through the request in
        ``_WALK_CHUNKS`` chunks, checking the de-boost and watermark
        crossings after each.  Chunks inside a fill transient integrate
        one at a time (residency, and hence the miss ratio, moves every
        chunk); once the partition sits at its target the miss ratio is
        constant, so all remaining chunks are evaluated **in one numpy
        batch**: the per-chunk cycle/projection/actual accumulators
        become seeded prefix sums (``np.cumsum`` over ``[seed, inc...]``
        is exactly the sequential ``+=`` recurrence, element for
        element) and the crossing checks become boolean masks.  The
        first triggered index reproduces the scalar loop's break
        behaviour, so event times are bit-identical to the chunked
        walk the golden suite pinned.
        """
        if lc.serving is None:
            return
        fill = lc.fill.clone()
        remaining = lc.remaining
        t = self.now
        tracker = lc.tracker
        proj = tracker.projected if tracker and not tracker.fired else 0.0
        actual = tracker.actual if tracker and not tracker.fired else 0.0
        filled = tracker.filled if tracker and not tracker.fired else False
        armed = tracker is not None and not tracker.fired
        limit = self._next_reconfig_time()

        if remaining <= 0:
            self._push(t, "complete", lc.index, lc.version)
            return

        chunk = max(remaining / _WALK_CHUNKS, 1.0)
        deboost_at: Optional[float] = None
        watermark_at: Optional[float] = None
        while remaining > _COMPLETION_TOL:
            if fill.filling:
                # Transient: exact closed-form integration, one chunk
                # at a time (each chunk moves the resident count).
                step = min(chunk, remaining)
                adv = fill.advance_accesses(step)
                t += adv.cycles
                remaining -= step
                if armed:
                    plan = tracker.plan
                    proj += step * tracker.active_miss_ratio
                    actual += adv.misses
                    if fill.resident >= plan.boost_lines * (1.0 - 1e-9):
                        filled = True
                    guard = plan.guard_fraction * proj
                    if proj >= actual + guard and proj > 0:
                        deboost_at = t
                        fill.set_target(plan.active_lines)
                        armed = False
                    elif (
                        plan.watermark_factor is not None
                        and filled
                        and proj > 0
                        and actual > proj * plan.watermark_factor
                    ):
                        watermark_at = t
                        break
                if t >= limit:
                    break
                continue

            # Steady state: replay the remaining chunk sequence (the
            # same min/subtract recurrence the scalar loop runs), then
            # batch the accumulators and crossing checks.
            p = fill.miss_ratio()
            k_deboost = None
            k_water = None
            steps: List[float] = []
            rems: List[float] = []
            r = remaining
            while r > _COMPLETION_TOL:
                s = min(chunk, r)
                steps.append(s)
                r -= s
                rems.append(r)
            step_arr = np.asarray(steps)
            miss_arr = step_arr * p
            cyc_arr = step_arr * fill.hit_interval + miss_arr * fill.miss_penalty
            t_seq = np.cumsum(np.concatenate(((t,), cyc_arr)))[1:]
            limit_mask = t_seq >= limit
            k_limit = int(np.argmax(limit_mask)) if limit_mask.any() else None
            if armed:
                plan = tracker.plan
                if not filled and fill.resident >= plan.boost_lines * (1.0 - 1e-9):
                    filled = True
                proj_arr = np.cumsum(
                    np.concatenate(((proj,), step_arr * tracker.active_miss_ratio))
                )[1:]
                act_arr = np.cumsum(np.concatenate(((actual,), miss_arr)))[1:]
                deboost_mask = (
                    proj_arr >= act_arr + plan.guard_fraction * proj_arr
                ) & (proj_arr > 0)
                if deboost_mask.any():
                    k_deboost = int(np.argmax(deboost_mask))
                if plan.watermark_factor is not None and filled:
                    water_mask = (
                        ~deboost_mask
                        & (proj_arr > 0)
                        & (act_arr > proj_arr * plan.watermark_factor)
                    )
                    if water_mask.any():
                        k_water = int(np.argmax(water_mask))

            if armed:
                # A crossing is only live while the walk is still going
                # and still armed: a watermark (or the reconfig limit)
                # at an earlier chunk ends/disarms the walk first.
                if k_water is not None and k_deboost is not None:
                    if k_water < k_deboost:
                        k_deboost = None
                    else:
                        k_water = None
                if k_deboost is not None and k_limit is not None and k_limit < k_deboost:
                    k_deboost = None
                if k_water is not None and k_limit is not None and k_limit < k_water:
                    k_water = None

            if k_deboost is not None:
                deboost_at = float(t_seq[k_deboost])
                fill.set_target(tracker.plan.active_lines)
                armed = False
                t = float(t_seq[k_deboost])
                remaining = rems[k_deboost]
                if k_limit is not None and k_limit == k_deboost:
                    break
                # Re-enter: the de-boost may have moved the target (and
                # the miss ratio), so later chunks need a fresh batch.
                continue
            if k_water is not None:
                watermark_at = float(t_seq[k_water])
                break
            if k_limit is not None:
                t = float(t_seq[k_limit])
                remaining = rems[k_limit]
                break
            t = float(t_seq[-1])
            remaining = rems[-1]

        if deboost_at is not None:
            self._push(deboost_at, "deboost", lc.index, lc.version)
        if watermark_at is not None:
            self._push(watermark_at, "watermark", lc.index, lc.version)
            return
        if remaining <= _COMPLETION_TOL and t <= limit:
            self._push(t, "complete", lc.index, lc.version)
        # Otherwise the reconfig event will re-walk this app.

    def _next_reconfig_time(self) -> float:
        interval = self.config.reconfig_interval_cycles
        k = int(self.now // interval) + 1
        return k * interval

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _start_request(self, lc: _LCApp, req_idx: int) -> None:
        lc.serving = req_idx
        lc.remaining = float(lc.req_accesses[req_idx])
        if lc.remaining <= 0:
            # App with negligible LLC traffic: fixed-duration service.
            duration = float(lc.spec.works[req_idx]) * lc.base_cpi
            lc.version += 1
            self._push(self.now + duration, "complete", lc.index, lc.version)
            return
        lc.version += 1
        self._schedule_service(lc)

    def _handle_arrival(self, lc: _LCApp, req_idx: int) -> None:
        self._commit(lc, self.now)
        lc.arrival_ptr = max(lc.arrival_ptr, req_idx + 1)
        lc.queue.append(req_idx)
        if not lc.active:
            lc.active = True
            lc.stats.activations += 1
            lc.result.activations += 1
            lc.fill.apply_idle_loss(self.rng)
            lc.fill.begin_transient(self.rng)
            decision = self.policy.on_lc_active(self._make_context(), lc.index)
            self._apply_decision(decision)
            next_req = lc.queue.pop(0)
            self._start_request(lc, next_req)

    def _handle_complete(self, lc: _LCApp) -> None:
        self._commit(lc, self.now)
        lc.remaining = 0.0
        req_idx = lc.serving
        lc.serving = None
        arrival = float(lc.spec.arrivals[req_idx])
        latency = self.now - arrival
        lc.requests_done += 1
        warmup = int(len(lc.spec.arrivals) * self.warmup_fraction)
        if req_idx >= warmup:
            lc.result.latencies.append(latency)
            lc.stats.latencies.append(latency)
        lc.result.requests_served += 1
        if lc.queue:
            self._start_request(lc, lc.queue.pop(0))
            return
        lc.active = False
        if lc.tracker is not None:
            lc.tracker = None
        decision = self.policy.on_lc_idle(self._make_context(), lc.index)
        self._apply_decision(decision)

    def _handle_deboost(self, lc: _LCApp) -> None:
        self._commit(lc, self.now)
        if lc.tracker is not None:
            lc.tracker.fired = True
        lc.result.deboosts += 1
        decision = self.policy.on_deboost(self._make_context(), lc.index)
        self._apply_decision(decision)

    def _handle_watermark(self, lc: _LCApp) -> None:
        self._commit(lc, self.now)
        if lc.tracker is not None:
            lc.tracker.fired = True
        lc.result.watermarks += 1
        decision = self.policy.on_watermark(self._make_context(), lc.index)
        self._apply_decision(decision)
        if lc.serving is not None:
            lc.version += 1
            self._schedule_service(lc)

    def _apply_bandwidth_contention(self, duration: float) -> None:
        """Inflate effective miss penalties from last-interval traffic.

        Bandwidth has no inertia (Section 2.1): the channel reacts in
        tens of cycles, so updating the effective penalty once per
        reconfiguration interval is a faithful coarse-grained model.
        The MLP profiler would measure the inflated penalty, so
        policies see it too (through AppView.miss_penalty).
        """
        if self.bandwidth is None:
            return
        total_miss_rate = sum(app.stats.misses for app in self.apps) / duration
        multiplier = self.bandwidth.penalty_multiplier(total_miss_rate)
        for app in self.apps:
            app.miss_penalty = app.base_miss_penalty * multiplier
            app.fill.miss_penalty = app.miss_penalty

    def _handle_reconfig(self) -> None:
        for app in self.apps:
            self._commit(app, self.now)
        self._note_batch_space()
        duration = max(self.now - self._interval_start, 1.0)
        self._avg_batch_lines = self._batch_space_integral / duration
        self._apply_bandwidth_contention(duration)
        self._refresh_measured_curves()
        decision = self.policy.on_interval(self._make_context())
        self._first_interval = False
        self._apply_decision(decision)
        for app in self.apps:
            app.stats.reset()
        self._interval_start = self.now
        self._batch_space_integral = 0.0
        self._batch_space_last_t = self.now
        # Re-walk every serving app: the reconfig may have moved targets
        # and always moves the walk limit to the next boundary.
        for lc in self.lc_apps:
            if lc.serving is not None and lc.remaining > 0:
                lc.version += 1
                self._schedule_service(lc)

    # ------------------------------------------------------------------
    # Main loops
    # ------------------------------------------------------------------
    def run(self) -> MixResult:
        if not self.policy.uses_partitioning:
            return self._run_unmanaged()
        return self._run_partitioned()

    def _initial_bandwidth_estimate(self) -> None:
        """Seed the contention model before any interval has elapsed.

        Memory pressure exists from cycle zero; estimate each app's
        steady miss rate at its initial allocation and apply the
        multiplier so short runs see contention too.
        """
        if self.bandwidth is None:
            return
        total = 0.0
        for app in self.apps:
            p = min(1.0, float(app.curve(app.fill.target)))
            total += self._initial_access_rate(app) * p
        multiplier = self.bandwidth.penalty_multiplier(total)
        for app in self.apps:
            app.miss_penalty = app.base_miss_penalty * multiplier
            app.fill.miss_penalty = app.miss_penalty

    def _run_partitioned(self) -> MixResult:
        self._refresh_measured_curves()
        decision = self.policy.initialize(self._make_context())
        self._apply_decision(decision)
        # Warm start: resident working sets match the initial targets
        # (the paper fast-forwards through warmup before the ROI).
        for app in self.apps:
            app.fill.resident = app.fill.effective_target
        self._initial_bandwidth_estimate()
        for lc in self.lc_apps:
            for req_idx, t in enumerate(lc.spec.arrivals):
                self._push(float(t), "arrival", lc.index, req_idx)
        self._push(self._next_reconfig_time(), "reconfig")

        while self._events:
            time, __, kind, app_idx, version = heapq.heappop(self._events)
            if kind == "reconfig":
                if all(lc.exhausted for lc in self.lc_apps):
                    continue
                self.now = time
                self._handle_reconfig()
                self._push(self._next_reconfig_time(), "reconfig")
                continue
            if kind == "arrival":
                self.now = time
                lc = self.apps[app_idx]
                self._handle_arrival(lc, version)  # version slot = req idx
                continue
            lc = self.apps[app_idx]
            if version != lc.version:
                continue  # stale event
            self.now = time
            if kind == "complete":
                self._handle_complete(lc)
            elif kind == "deboost":
                self._handle_deboost(lc)
            elif kind == "watermark":
                self._handle_watermark(lc)
            else:  # pragma: no cover
                raise RuntimeError(f"unknown event {kind}")
            if kind == "complete" and all(lc2.exhausted for lc2 in self.lc_apps):
                break

        self._commit_batch(self.now)
        return self._collect()

    # ------------------------------------------------------------------
    # Unmanaged (shared LRU) mode
    # ------------------------------------------------------------------
    def _run_unmanaged(self) -> MixResult:
        """Shared-LRU replay: epochs of frozen occupancies, over floats.

        Each epoch evaluates every app's miss ratio at its current
        occupancy, advances all apps to the next arrival, completion or
        epoch cap at those frozen ratios, then steps the occupancies
        through the fluid model.  With a handful of apps NumPy's
        per-call overhead dwarfs the arithmetic, so the whole epoch is
        one pass over Python floats whose bits equal the NumPy loop it
        replaced (kept as the oracle :func:`repro.sim.reference.run_unmanaged`):
        curve lookups go through :func:`~repro.monitor.miss_curve.interp_float`,
        the exact scalar copy of ``np.interp``; sums keep NumPy's order
        (:func:`~repro.cache.sharing.pairwise_sum`); ``min``/``max``
        become comparisons returning the same operand the builtins do.
        """
        step = SharedOccupancyModel(self.llc_lines).step
        apps = self.apps
        lc_apps = self.lc_apps
        n = len(apps)
        occ = [self.llc_lines / n] * n
        curve_sizes, curve_ratios = zip(*(app.curve.float_tables for app in apps))
        hit_intervals = [app.hit_interval for app in apps]
        penalties = [app.miss_penalty for app in apps]
        batch = [
            (app.index, app.result, app.profile.instructions_per_access)
            for app in self.batch_apps
        ]
        # Per-LC streams as plain floats, materialized once: the
        # request index is the list position.
        arrival_times = [lc.spec.arrivals.tolist() for lc in lc_apps]
        req_accesses = [lc.req_accesses.tolist() for lc in lc_apps]
        counts = [len(times) for times in arrival_times]
        ptrs = [0] * len(lc_apps)
        lc_range = range(len(lc_apps))
        now = self.now

        # Every LC instance has at least one request, so the first
        # epoch always runs; later ones run until every instance has
        # drained its stream (checked at the end of each epoch).
        exhausted = False
        while not exhausted:
            # Miss ratio and time per access at the frozen occupancies;
            # ``p if p < 1.0 else 1.0`` is ``min(1.0, p)``.
            p_vals = [
                p if p < 1.0 else 1.0
                for p in map(interp_float, occ, curve_sizes, curve_ratios)
            ]
            per_access = [
                h + p * m for h, p, m in zip(hit_intervals, p_vals, penalties)
            ]

            # Candidate event times.
            t_next = now + _LRU_EPOCH
            for k in lc_range:
                if ptrs[k] < counts[k]:
                    t = arrival_times[k][ptrs[k]]
                    if t < t_next:
                        t_next = t
                lc = lc_apps[k]
                if lc.serving is not None:
                    if lc.remaining > 0:
                        t = now + lc.remaining * per_access[lc.index]
                    else:
                        t = lc._fixed_end
                    if t < t_next:
                        t_next = t
            dt = t_next - now
            if dt < 0.0:  # max(dt, 0.0)
                dt = 0.0

            # Advance everyone by dt at the frozen occupancies.
            rates = [0.0] * n
            for lc in lc_apps:
                i = lc.index
                if lc.serving is not None:
                    remaining = lc.remaining
                    if remaining > 0:
                        p = p_vals[i]
                        pa = per_access[i]
                        accesses = dt / pa
                        if remaining < accesses:
                            accesses = remaining
                        lc.remaining = remaining - accesses
                        misses = accesses * p
                        stats = lc.stats
                        stats.accesses += accesses
                        stats.misses += misses
                        lc.total_accesses += accesses
                        lc.total_misses += misses
                        rates[i] = p / pa
                else:
                    lc.stats.idle_time += dt
            for i, result, instructions_per_access in batch:
                pa = per_access[i]
                result.instructions += dt / pa * instructions_per_access
                result.cycles += dt
                rates[i] = p_vals[i] / pa
            if dt > 0:
                occ = step(occ, rates, dt)
                if self.bandwidth is not None:
                    multiplier = self.bandwidth.penalty_multiplier(
                        pairwise_sum(rates)
                    )
                    for app in apps:
                        app.miss_penalty = app.base_miss_penalty * multiplier
                    penalties = [app.miss_penalty for app in apps]
            now = t_next
            self.now = now

            # Completions.
            for k in lc_range:
                lc = lc_apps[k]
                if lc.serving is None:
                    continue
                if req_accesses[k][lc.serving] > 0:
                    done = lc.remaining <= _COMPLETION_TOL
                else:
                    done = now >= lc._fixed_end - 1e-6
                if done:
                    self._complete_unmanaged(lc)

            # Arrivals.
            horizon = now + 1e-9
            exhausted = True
            for k in lc_range:
                lc = lc_apps[k]
                times = arrival_times[k]
                ptr = ptrs[k]
                while ptr < counts[k] and times[ptr] <= horizon:
                    lc.queue.append(ptr)
                    ptr += 1
                if ptr != ptrs[k]:
                    ptrs[k] = ptr
                    lc.arrival_ptr = ptr
                if lc.serving is None and lc.queue:
                    if not lc.active:
                        lc.active = True
                        lc.stats.activations += 1
                        lc.result.activations += 1
                    self._start_unmanaged(lc, lc.queue.pop(0))
                if exhausted and (
                    ptr < counts[k] or lc.queue or lc.serving is not None
                ):
                    exhausted = False
        return self._collect()

    def _start_unmanaged(self, lc: _LCApp, req_idx: int) -> None:
        lc.serving = req_idx
        lc.remaining = float(lc.req_accesses[req_idx])
        if lc.remaining <= 0:
            duration = float(lc.spec.works[req_idx]) * lc.base_cpi
            lc._fixed_end = self.now + duration
        else:
            lc._fixed_end = float("inf")

    def _complete_unmanaged(self, lc: _LCApp) -> None:
        req_idx = lc.serving
        lc.serving = None
        lc.remaining = 0.0
        arrival = float(lc.spec.arrivals[req_idx])
        latency = self.now - arrival
        lc.requests_done += 1
        warmup = int(len(lc.spec.arrivals) * self.warmup_fraction)
        if req_idx >= warmup:
            lc.result.latencies.append(latency)
        lc.result.requests_served += 1
        if lc.queue:
            self._start_unmanaged(lc, lc.queue.pop(0))
        else:
            lc.active = False

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _collect(self) -> MixResult:
        return MixResult(
            mix_id=self.mix_id,
            policy=self.policy.name,
            lc_instances=[lc.result for lc in self.lc_apps],
            batch_apps=[b.result for b in self.batch_apps],
            duration_cycles=self.now,
        )
