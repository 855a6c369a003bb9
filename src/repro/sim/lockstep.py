"""The production replay engine: one cell over its group's arrival schedule.

Every partitioned replay the runtime runs goes through
:class:`LockstepEngine`: sweep cells (one
:meth:`~repro.sim.mix_runner.MixRunner.run_mix_group` call per mix),
isolated baselines, and the scaleout and bandwidth points.  It is a
:class:`~repro.sim.engine.MixEngine` whose per-cell hot paths are
restructured around the invariants of a *replay group* — the cells of
one sweep that replay the same request streams over the same miss
curves (see :mod:`repro.sim.grid_replay` for the planning rules).  The
parent's heap loop stays as the scalar oracle
(:meth:`~repro.sim.mix_runner.MixRunner.run_mix`), and every override
here either replays the parent's float operations in the parent's order
or falls back to the parent outright.

What is shared and what stays per cell:

* **Shared arrival schedule** (per group, built once): the LC
  instances' arrival arrays merged into one ``(time, seq, app, req)``
  stream.  A stable argsort of the concatenated arrays reproduces
  exactly the ``(time, seq)`` order in which the oracle's heap pops its
  arrival events, because the oracle pushes arrivals app-major before
  anything else — seq *is* the concatenation position.
* **Group memos** (:class:`~repro.sim.grid_replay.GroupShared`): curve
  segments behind :class:`~repro.sim.fill.GroupFillState`, initial
  access rates, stream statistics, first-interval view statics, and the
  streams as Python float lists.  Each is a pure value memo, so the
  first cell computes what every sibling would have.
* **Per cell**: the dynamic events (completions, reconfigurations,
  de-boosts, watermarks) in the parent's heap, numbered after the
  arrivals; fill and partition state; interval stats; queues; boost
  trackers; and every policy callback.  Cells in one group run
  *different policies*, so their states diverge at once and no float
  arithmetic is batched across cells.

The per-cell fast paths, each bit-exact against the parent:

* first-interval policy contexts reuse one cached view list (only
  ``recent_latencies`` and the post-refresh ``measured_curve`` can
  change before the first reconfiguration);
* steady-state commits inline :meth:`FillState.advance_cycles`' tail
  (the transient falls back to the closed-form parent path);
* service walks reuse a per-app scratch fill instead of cloning, and
  the steady-state chunk scan exits at the *first* crossing — sound
  because the parent's reconciliation always resolves to the earliest
  triggered chunk (see :meth:`LockstepEngine._schedule_service`);
* stream indexing reads group-cached Python float lists instead of
  numpy scalars (``tolist`` coercions are exact).

``tests/sim/test_lockstep_equivalence.py`` pins every production path
— group replays, baselines, bandwidth and scaleout points — bit-identical
to the oracle, and checks that production never reaches the oracle's
event loop.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional

from ..policies.base import AppView, PolicyContext
from .engine import _COMPLETION_TOL, _WALK_CHUNKS, MixEngine, _App, _LCApp
from .fill import _EPS
from .grid_replay import GroupShared
from .results import MixResult

__all__ = ["LockstepEngine"]


class LockstepEngine(MixEngine):
    """A :class:`MixEngine` driven from its group's shared arrival schedule.

    Takes the parent's arguments.  ``shared`` is the replay group's
    :class:`~repro.sim.grid_replay.GroupShared` context; a standalone
    run (a baseline instance, a scaleout or bandwidth point) passes
    none and gets a group of its own.  Non-partitioning policies (LRU)
    run the parent's unmanaged loop unchanged.
    """

    def __init__(self, *args, shared: Optional[GroupShared] = None, **kwargs):
        super().__init__(
            *args, shared=shared if shared is not None else GroupShared(), **kwargs
        )
        shared = self.shared
        for lc in self.lc_apps:
            lc._ls_arrivals = shared.floats_for(lc.spec.arrivals)
            lc._ls_works = shared.floats_for(lc.spec.works)
            lc._ls_req_accesses = shared.floats_for(lc.req_accesses)
            lc._ls_warmup = int(len(lc.spec.arrivals) * self.warmup_fraction)
            lc._ls_scratch_fill = None
        self._ls_views = None
        self._ls_lc_views = []

    def _run_partitioned(self) -> MixResult:
        """The parent's event loop with arrivals read from the schedule.

        The set-up is the parent's.  After it, the heap holds only
        dynamic events, and their seqs start at the arrival count, so
        every push receives exactly the seq the oracle's shared counter
        would have assigned after pushing all arrivals.  Each step then
        takes whichever comes first by ``(time, seq)``: the heap's top
        or the schedule's next arrival.  An arrival's seq is below
        every dynamic seq, so it wins a tie in time — as in the oracle.
        """
        self._refresh_measured_curves()
        decision = self.policy.initialize(self._make_context())
        self._apply_decision(decision)
        # Warm start: resident working sets match the initial targets
        # (the paper fast-forwards through warmup before the ROI).
        for app in self.apps:
            app.fill.resident = app.fill.effective_target
        self._initial_bandwidth_estimate()
        if self.bandwidth is not None:
            # Contention moved the penalties the cached views carry.
            self._ls_views = None
        arrivals = [lc.spec.arrivals for lc in self.lc_apps]
        times, __, apps, reqs = self.shared.lockstep_schedule_for(arrivals)
        events = self._events = []
        self._seq = itertools.count(sum(len(a) for a in arrivals))
        self._push(self._next_reconfig_time(), "reconfig")

        lc_apps = self.lc_apps
        n_arrivals = len(times)
        k = 0
        while True:
            if k < n_arrivals and not (events and events[0][0] < times[k]):
                self.now = times[k]
                self._handle_arrival(lc_apps[apps[k]], reqs[k])
                k += 1
                continue
            if not events:
                break
            time, __, kind, app_idx, version = heapq.heappop(events)
            if kind == "reconfig":
                if all(lc.exhausted for lc in lc_apps):
                    continue
                self.now = time
                self._handle_reconfig()
                self._push(self._next_reconfig_time(), "reconfig")
                continue
            lc = self.apps[app_idx]
            if version != lc.version:
                continue  # stale event
            self.now = time
            if kind == "complete":
                self._handle_complete(lc)
                # Still active means a next request started, so this
                # LC is not exhausted and the all() scan is False.
                if not lc.active and all(lc2.exhausted for lc2 in lc_apps):
                    break
            elif kind == "deboost":
                self._handle_deboost(lc)
            elif kind == "watermark":
                self._handle_watermark(lc)
            else:  # pragma: no cover
                raise RuntimeError(f"unknown event {kind}")

        self._commit_batch(self.now)
        return self._collect()

    # ------------------------------------------------------------------
    # Per-cell fast paths (each bit-exact against the parent)
    # ------------------------------------------------------------------
    def _refresh_measured_curves(self) -> None:
        # New noise draws invalidate the cached first-interval views
        # (their ``curve`` field is the measured curve by reference).
        self._ls_views = None
        super()._refresh_measured_curves()

    def _initial_access_rate(self, app: _App) -> float:
        """The parent's estimate, computed once per group and app."""
        rates = self.shared.rates
        rate = rates.get(app.index)
        if rate is None:
            rate = rates[app.index] = super()._initial_access_rate(app)
        return rate

    def _make_first_interval_views(self) -> List[AppView]:
        """First-interval views from group-shared statics.

        Until the first reconfiguration every view field except
        ``recent_latencies``, the noisy ``measured_curve`` and the miss
        penalty is a pure function of the specs — identical across the
        cells of a replay group — so the tuple of those fields is
        computed once per group and reused.  Each entry holds exactly
        the values the parent's :meth:`MixEngine._make_views` derives on
        its first-interval branches.
        """
        view_static = self.shared.view_static
        views: List[AppView] = []
        for app in self.apps:
            static = view_static.get(app.index)
            if static is None:
                rate = self._initial_access_rate(app)
                if app.is_lc:
                    static = (
                        rate,
                        1.0 - app.spec.load,
                        app.spec.load
                        / max(app.spec.workload.mean_service_cycles(self.core), 1.0)
                        * (1.0 - app.spec.load),
                        app.mean_req_accesses,
                        app.tail_req_accesses,
                        app.spec.workload.target_lines,
                        app.spec.deadline_cycles,
                        app.spec.target_tail_cycles,
                    )
                else:
                    static = (rate,)
                view_static[app.index] = static
            view = AppView(
                index=app.index,
                name=app.name,
                kind=app.kind,
                curve=app.measured_curve,
                apki=app.profile.apki,
                hit_interval=app.hit_interval,
                miss_penalty=app.miss_penalty,
                access_rate=static[0],
            )
            if app.is_lc:
                view.idle_fraction = static[1]
                view.activation_rate = static[2]
                view.accesses_per_request = static[3]
                view.tail_accesses_per_request = static[4]
                view.target_lines = static[5]
                view.deadline_cycles = static[6]
                view.target_tail_cycles = static[7]
                view.recent_latencies = tuple(app.stats.latencies)
            views.append(view)
        return views

    def _make_context(self) -> PolicyContext:
        """First-interval contexts from one cached view list.

        Until the first reconfiguration every view field except
        ``recent_latencies`` is constant (the measured curves refresh
        only at initialize/reconfig, and a refresh drops the cache), so
        the AppView objects are built once and only the latency tuples
        are rewritten per call.  Policies treat views and context as
        read-only inputs — the equivalence suite would catch any
        mutation as a divergence from the oracle.
        """
        if not self._first_interval:
            return super()._make_context()
        views = self._ls_views
        if views is None:
            views = self._make_first_interval_views()
            self._ls_views = views
            self._ls_lc_views = [
                (view, app)
                for view, app in zip(views, self.apps)
                if app.is_lc
            ]
        else:
            for view, app in self._ls_lc_views:
                view.recent_latencies = tuple(app.stats.latencies)
        return PolicyContext(
            llc_lines=self.llc_lines,
            apps=views,
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

    def _commit(self, app, upto: float) -> None:
        """Steady-state commits without the ``advance_cycles`` call.

        Once a partition sits at its target the advance reduces to the
        closing branch of :meth:`FillState.advance_cycles` — one miss
        ratio, one division.  That tail is inlined here (same
        expressions, same order); any transient falls back to the
        parent's closed-form integration.
        """
        dt = upto - app.last_commit
        if dt < -1e-6:
            raise RuntimeError("time went backwards in commit")
        if dt <= 0:
            app.last_commit = upto
            return
        fill = app.fill
        if app.is_lc:
            lc = app
            if lc.serving is not None and lc.remaining > 0:
                r = fill.resident
                if r < fill._eff_target - _EPS:  # filling
                    super()._commit(app, upto)
                    return
                if dt > 1e-12:
                    # fill.miss_ratio() with the memo check inlined.
                    base = (
                        fill._p_val
                        if fill._p_key == r
                        else fill.base_miss_ratio()
                    )
                    p = base * fill._miss_multiplier
                    if p > 1.0:
                        p = 1.0
                    per_access = fill.hit_interval + p * fill.miss_penalty
                    if per_access <= 0:
                        raise RuntimeError(
                            "app makes no progress: zero access interval"
                        )
                    accesses = dt / per_access
                    misses = accesses * p
                else:
                    accesses = 0.0
                    misses = 0.0
                done = accesses if accesses <= lc.remaining else lc.remaining
                lc.remaining -= done
                stats = lc.stats  # _note_lc_progress, inlined
                stats.accesses += accesses
                stats.misses += misses
                lc.total_accesses += accesses
                lc.total_misses += misses
                tracker = lc.tracker
                if tracker is not None and not tracker.fired:
                    tracker.accumulate(accesses, misses, r)
            elif lc.serving is None:
                lc.stats.idle_time += dt
            # Serving with zero LLC accesses: busy but cache-silent.
        else:
            r = fill.resident
            if r < fill._eff_target - _EPS:  # filling
                super()._commit(app, upto)
                return
            if dt > 1e-12:
                base = (
                    fill._p_val
                    if fill._p_key == r
                    else fill.base_miss_ratio()
                )
                p = base * fill._miss_multiplier
                if p > 1.0:
                    p = 1.0
                per_access = fill.hit_interval + p * fill.miss_penalty
                if per_access <= 0:
                    raise RuntimeError(
                        "app makes no progress: zero access interval"
                    )
                accesses = dt / per_access
                misses = accesses * p
            else:
                accesses = 0.0
                misses = 0.0
            app.result.instructions += (
                accesses * app.profile.instructions_per_access
            )
            app.result.cycles += dt
            app.stats.accesses += accesses
            app.stats.misses += misses
        app.last_commit = upto
        if self.trace_partitions:
            self.partition_trace[app.index].append(
                (upto, fill.target, fill.resident)
            )

    def _ls_scratch(self, lc: _LCApp):
        """The walk's detached fill, reused across walks.

        A clone resets exactly these fields; copying them into a kept
        instance is the same operation without the allocation.  The
        curve/scheme/shared wiring never changes over an app's life.
        """
        scratch = lc._ls_scratch_fill
        fill = lc.fill
        if scratch is None:
            scratch = lc._ls_scratch_fill = fill.clone()
            return scratch
        scratch.hit_interval = fill.hit_interval
        scratch.miss_penalty = fill.miss_penalty
        scratch._fill_efficiency = fill._fill_efficiency
        scratch._miss_multiplier = fill._miss_multiplier
        scratch.resident = fill.resident
        scratch.target = fill.target
        scratch._eff_target = fill._eff_target
        scratch._p_key = None
        scratch._seg_key = None
        return scratch

    def _schedule_service(self, lc: _LCApp) -> None:
        """The parent walk with a first-crossing steady-state scan.

        The parent scans every steady chunk, records the first de-boost
        / watermark / limit indices, then reconciles: the earliest one
        wins (watermark requires no de-boost at its own chunk, and ties
        with the limit resolve in favour of the crossing).  Stopping at
        the first chunk where *any* of the three triggers therefore
        reproduces the reconciled outcome — every earlier chunk
        computed the identical accumulator values and triggered
        nothing.  No per-chunk time/remaining lists are needed.
        """
        if lc.serving is None:
            return
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

        fill = lc.fill
        if armed or fill.resident < fill._eff_target - _EPS:
            # Only an armed walk (de-boost may retarget) or a transient
            # (advance moves the resident count) mutates the fill; the
            # unarmed steady walk is read-only, so the committed state
            # can be used directly and the scratch copy skipped.
            fill = self._ls_scratch(lc)

        chunk = max(remaining / _WALK_CHUNKS, 1.0)
        deboost_at: Optional[float] = None
        watermark_at: Optional[float] = None
        while remaining > _COMPLETION_TOL:
            if fill.resident < fill._eff_target - _EPS:  # filling
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

            # Steady state: one fused scan, first crossing decides.
            r0 = fill.resident  # fill.miss_ratio(), memo check inlined
            p = (
                fill._p_val if fill._p_key == r0 else fill.base_miss_ratio()
            ) * fill._miss_multiplier
            if p > 1.0:
                p = 1.0
            hit_c, mp = fill.hit_interval, fill.miss_penalty
            if not armed:
                # No tracker: the only possible crossing is the
                # reconfig limit, and every full chunk adds the same
                # ``s * hit_c + (s * p) * mp`` — identical operands
                # give identical bits, so the increment is hoisted.
                crossing = None
                t_cur = t
                r = remaining
                full_cost = chunk * hit_c + (chunk * p) * mp
                while r > _COMPLETION_TOL:
                    if chunk < r:
                        r -= chunk
                        t_cur = t_cur + full_cost
                    else:
                        s = r
                        r -= s
                        t_cur = t_cur + (s * hit_c + (s * p) * mp)
                    if t_cur >= limit:
                        crossing = "limit"
                        break
                t = t_cur
                remaining = r
                break  # limit or completion
            if armed:
                plan = tracker.plan
                if not filled and fill.resident >= plan.boost_lines * (1.0 - 1e-9):
                    filled = True
                amr = tracker.active_miss_ratio
                guard_f = plan.guard_fraction
                wf = plan.watermark_factor
            crossing = None
            at_limit = False
            t_cur, proj_cur, act_cur = t, proj, actual
            r = remaining
            while r > _COMPLETION_TOL:
                s = chunk if chunk < r else r
                r -= s
                miss = s * p
                t_cur = t_cur + (s * hit_c + miss * mp)
                at_limit = t_cur >= limit
                if armed:
                    proj_cur = proj_cur + s * amr
                    act_cur = act_cur + miss
                    db = (proj_cur >= act_cur + guard_f * proj_cur) and proj_cur > 0
                    if db:
                        crossing = "deboost"
                        break
                    if (wf is not None and filled
                            and proj_cur > 0 and act_cur > proj_cur * wf):
                        crossing = "watermark"
                        break
                if at_limit:
                    crossing = "limit"
                    break
            t = t_cur
            remaining = r
            if crossing == "deboost":
                deboost_at = t_cur
                fill.set_target(tracker.plan.active_lines)
                armed = False
                if at_limit:
                    break
                # Re-enter: the de-boost may have moved the target (and
                # the miss ratio), so later chunks need a fresh scan.
                continue
            if crossing == "watermark":
                watermark_at = t_cur
            break  # watermark, limit, or completion

        if deboost_at is not None:
            self._push(deboost_at, "deboost", lc.index, lc.version)
        if watermark_at is not None:
            self._push(watermark_at, "watermark", lc.index, lc.version)
            return
        if remaining <= _COMPLETION_TOL and t <= limit:
            self._push(t, "complete", lc.index, lc.version)
        # Otherwise the reconfig event will re-walk this app.

    def _start_request(self, lc: _LCApp, req_idx: int) -> None:
        lc.serving = req_idx
        lc.remaining = lc._ls_req_accesses[req_idx]
        if lc.remaining <= 0:
            # App with negligible LLC traffic: fixed-duration service.
            duration = lc._ls_works[req_idx] * lc.base_cpi
            lc.version += 1
            self._push(self.now + duration, "complete", lc.index, lc.version)
            return
        lc.version += 1
        self._schedule_service(lc)

    def _handle_complete(self, lc: _LCApp) -> None:
        self._commit(lc, self.now)
        lc.remaining = 0.0
        req_idx = lc.serving
        lc.serving = None
        latency = self.now - lc._ls_arrivals[req_idx]
        lc.requests_done += 1
        if req_idx >= lc._ls_warmup:
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

