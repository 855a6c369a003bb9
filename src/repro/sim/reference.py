"""Reference replay paths — the oracles the engine is held to.

Mirrors the ``repro.cache.reference`` pattern: when a hot loop is
rewritten, the original survives here as the behavioural oracle.

* :class:`NaiveFillState` keeps the plain fill integrators and
  retargets: ``np.interp`` and ``np.searchsorted`` curve reads, one
  method per integration step, the full 80-step time inversion, and
  the scheme's answer recomputed at every retarget.
  ``tests/sim/test_fill_equivalence.py`` holds
  :class:`~repro.sim.fill.FillState` to it.
* :class:`NaiveMixEngine` is the heap-loop engine: it pushes every
  arrival into one event heap, walks service with NumPy prefix sums,
  commits through :meth:`~repro.sim.fill.FillState.advance_cycles`,
  builds every policy view and the ``lc_active``/``lc_boosted`` maps
  afresh, for every hook before it runs, and reads the streams as
  NumPy scalars, all over :class:`NaiveFillState` fills.
  :meth:`~repro.sim.mix_runner.MixRunner.run_mix`,
  :meth:`~repro.sim.mix_runner.MixRunner.mix_engine` and
  :func:`~repro.runtime.work.execute_spec` replay through it, and
  ``tests/sim/test_engine_equivalence.py`` holds every production path
  to it bit for bit.
* :func:`run_unmanaged` is the shared-LRU epoch loop as it stood before
  the float rewrite — per-epoch ``np.interp`` lookups, NumPy rate
  vectors, and the NumPy occupancy stepper kept as
  :class:`~repro.cache.reference.NaiveSharedOccupancyModel`;
  ``tests/sim/test_unmanaged_equivalence.py`` holds the engine's loop
  to it.

Nothing here is exported from :mod:`repro.sim`, and no production path
imports this module.  Keep it naive: it must stay the pre-rewrite code.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional

import numpy as np

from ..cache.reference import NaiveSharedOccupancyModel
from ..policies.base import AppView, PolicyContext
from .engine import _COMPLETION_TOL, _WALK_CHUNKS, MixEngine, _App, _BatchApp, _LCApp
from .fill import _EPS, FillState
from .results import MixResult

__all__ = ["NaiveFillState", "NaiveMixEngine", "run_unmanaged"]

#: Epoch cap for the unmanaged (LRU) occupancy integration, cycles.
_LRU_EPOCH = 320_000  # 100 us at 3.2 GHz


class NaiveFillState(FillState):
    """:class:`~repro.sim.fill.FillState` with the plain integrators."""

    def base_miss_ratio(self) -> float:
        """Miss ratio from the curve at current residency (no penalty)."""
        if self._p_key != self.resident:
            self._p_val = float(self.curve(self.resident))
            self._p_key = self.resident
        return self._p_val

    def set_target(self, lines: float) -> None:
        """Retarget the partition; shrinking releases lines immediately."""
        if lines < 0:
            raise ValueError("target must be non-negative")
        scheme = self.scheme
        if scheme is not None and lines > 0:
            lines = float(scheme.quantize(lines))
            self._miss_multiplier = scheme.miss_multiplier(
                lines, self.curve.max_size
            )
        else:
            self._miss_multiplier = 1.0
        self.target = float(lines)
        self._eff_target = (
            self.target if scheme is None else scheme.effective_target(self.target)
        )
        if self.resident > self._eff_target:
            self.resident = self._eff_target

    def advance_accesses(self, accesses: float) -> tuple[float, float, float]:
        """Execute ``accesses`` LLC accesses from the current state."""
        if accesses < 0:
            raise ValueError("accesses must be non-negative")
        remaining = float(accesses)
        cycles = 0.0
        misses = 0.0
        while remaining > _EPS and self.filling:
            step = self._growth_step(max_accesses=remaining)
            if step is None:
                break  # growth stalled: behave as steady
            seg_n, seg_dr = step
            seg_misses = seg_dr / self._fill_efficiency * self._miss_multiplier
            cycles += self.hit_interval * seg_n + self.miss_penalty * seg_misses
            misses += seg_misses
            self.resident += seg_dr
            remaining -= seg_n
        if remaining > _EPS:
            p = self.miss_ratio()
            seg_misses = remaining * p
            cycles += remaining * self.hit_interval + seg_misses * self.miss_penalty
            misses += seg_misses
            remaining = 0.0
        return cycles, accesses, misses

    def advance_cycles(self, budget: float) -> tuple[float, float, float]:
        """Execute for ``budget`` cycles; returns work actually done."""
        if budget < 0:
            raise ValueError("budget must be non-negative")
        remaining = float(budget)
        accesses = 0.0
        misses = 0.0
        while remaining > _EPS and self.filling:
            step = self._growth_step(max_accesses=None)
            if step is None:
                break
            seg_n, seg_dr = step
            seg_misses = seg_dr / self._fill_efficiency * self._miss_multiplier
            seg_cycles = self.hit_interval * seg_n + self.miss_penalty * seg_misses
            if seg_cycles <= remaining:
                remaining -= seg_cycles
                accesses += seg_n
                misses += seg_misses
                self.resident += seg_dr
                continue
            part_n = self._invert_segment_time(remaining)
            part_dr = self._growth_over(part_n)
            part_misses = part_dr / self._fill_efficiency * self._miss_multiplier
            accesses += part_n
            misses += part_misses
            self.resident += part_dr
            remaining = 0.0
        if remaining > _EPS:
            p = self.miss_ratio()
            per_access = self.hit_interval + p * self.miss_penalty
            if per_access <= 0:
                raise RuntimeError("app makes no progress: zero access interval")
            seg_n = remaining / per_access
            accesses += seg_n
            misses += seg_n * p
            remaining = 0.0
        return budget - remaining, accesses, misses

    def _segment(self):
        """Current curve segment: (p0, slope b, lines to segment end)."""
        key = (self.resident, self.target)
        if key == self._seg_key:
            return self._seg_val
        sizes = self.curve.sizes
        ratios = self.curve.miss_ratios
        idx = int(np.searchsorted(sizes, self.resident, side="right")) - 1
        idx = max(0, min(idx, sizes.size - 2))
        s_lo, s_hi = float(sizes[idx]), float(sizes[idx + 1])
        m_lo, m_hi = float(ratios[idx]), float(ratios[idx + 1])
        b = (m_hi - m_lo) / (s_hi - s_lo)
        p0 = m_lo + b * (self.resident - s_lo)
        seg_end = min(s_hi, self.effective_target)
        result = (p0, b, max(0.0, seg_end - self.resident))
        self._seg_key = key
        self._seg_val = result
        return result

    def _growth_step(self, max_accesses: Optional[float]):
        """One growth step within the current segment, or ``None``."""
        p0, b, dr_seg = self._segment()
        e = self._fill_efficiency
        if p0 <= _EPS:
            return None
        if dr_seg <= _EPS:
            self.resident = self.effective_target
            return None
        p1 = p0 + b * dr_seg
        if abs(p1 - p0) < 1e-9 * max(p0, 1e-30):
            n_full = dr_seg / (e * p0)
            if max_accesses is None or n_full <= max_accesses:
                return n_full, dr_seg
            return max_accesses, e * p0 * max_accesses
        if p1 <= _EPS:
            p1 = _EPS
            dr_seg = (p1 - p0) / b
            if self.resident + dr_seg == self.resident:
                return None
        n_full = math.log(p1 / p0) / (e * b)
        if max_accesses is None or n_full <= max_accesses:
            return n_full, dr_seg
        dr = self._growth_over(max_accesses)
        return max_accesses, dr

    def _growth_over(self, n: float) -> float:
        """Lines grown after ``n`` accesses within the current segment."""
        p0, b, dr_seg = self._segment()
        e = self._fill_efficiency
        if p0 <= _EPS or n <= 0:
            return 0.0
        if abs(b) < 1e-30:
            return min(e * p0 * n, dr_seg)
        grown = (p0 / b) * (math.exp(e * b * n) - 1.0)
        return min(max(grown, 0.0), dr_seg)

    def _invert_segment_time(self, budget: float) -> float:
        """Accesses achievable in ``budget`` cycles within this segment."""
        p0, __, __ = self._segment()
        per_access_max = self.hit_interval + p0 * self.miss_penalty
        if per_access_max <= 0:
            raise RuntimeError("zero-cost access: cannot invert time")
        lo, hi = 0.0, budget / max(self.hit_interval, _EPS) if self.hit_interval else 0.0
        if hi == 0.0:
            hi = budget / per_access_max * 4 + 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            dr = self._growth_over(mid)
            cost = (
                self.hit_interval * mid
                + self.miss_penalty * dr / self._fill_efficiency * self._miss_multiplier
            )
            if cost < budget:
                lo = mid
            else:
                hi = mid
        return lo


class NaiveMixEngine(MixEngine):
    """:class:`~repro.sim.engine.MixEngine` on its scalar oracle paths.

    Takes the engine's arguments and runs LRU cells through the
    engine's unmanaged loop.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for app in self.apps:
            app.fill = NaiveFillState(
                app.curve, app.hit_interval, app.miss_penalty, scheme=self.scheme
            )

    def _run_partitioned(self) -> MixResult:
        self._start_partitioned()
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

    def _make_context(self) -> PolicyContext:
        # Every hook's views and maps are built up front.
        context = super()._make_context()
        context.apps = self._make_views()
        context.lc_active = {a.index: a.active for a in self.lc_apps}
        context.lc_boosted = {
            a.index: a.tracker is not None and not a.tracker.fired
            for a in self.lc_apps
        }
        return context

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

    def _commit(self, app: _App, upto: float) -> None:
        dt = upto - app.last_commit
        if dt < -1e-6:
            raise RuntimeError("time went backwards in commit")
        if dt <= 0:
            app.last_commit = upto
            return
        if isinstance(app, _BatchApp):
            __, accesses, misses = app.fill.advance_cycles(dt)
            instr = accesses * app.profile.instructions_per_access
            app.result.instructions += instr
            app.result.cycles += dt
            app.stats.accesses += accesses
            app.stats.misses += misses
        else:
            lc = app  # type: _LCApp
            if lc.serving is not None and lc.remaining > 0:
                __, accesses, misses = lc.fill.advance_cycles(dt)
                done = min(accesses, lc.remaining)
                lc.remaining -= done
                _note_progress(lc, accesses, misses)
                if lc.tracker is not None and not lc.tracker.fired:
                    lc.tracker.accumulate(accesses, misses, lc.fill.resident)
            elif lc.serving is None:
                lc.stats.idle_time += dt
            # Serving with zero LLC accesses: busy but cache-silent.
        app.last_commit = upto
        if self.trace_partitions:
            self.partition_trace[app.index].append(
                (upto, app.fill.target, app.fill.resident)
            )

    def _schedule_service(self, lc: _LCApp) -> None:
        """Walk the in-flight request and schedule its future events.

        The walk advances a detached fill clone through the request in
        ``_WALK_CHUNKS`` chunks, checking the de-boost and watermark
        crossings after each.  Chunks inside a fill transient integrate
        one at a time; once the partition sits at its target the miss
        ratio is constant, so all remaining chunks are evaluated in one
        NumPy batch: the per-chunk cycle/projection/actual accumulators
        become seeded prefix sums (``np.cumsum`` over ``[seed, inc...]``
        is exactly the sequential ``+=`` recurrence, element for
        element) and the crossing checks become boolean masks.
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
                step = min(chunk, remaining)
                cycles, __, misses = fill.advance_accesses(step)
                t += cycles
                remaining -= step
                if armed:
                    plan = tracker.plan
                    proj += step * tracker.active_miss_ratio
                    actual += misses
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

            # Steady state: replay the remaining chunk sequence, then
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

    def _start_request(self, lc: _LCApp, req_idx: int) -> None:
        lc.serving = req_idx
        lc.remaining = float(lc.req_accesses[req_idx])
        if lc.remaining <= 0:
            duration = float(lc.spec.works[req_idx]) * lc.base_cpi
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


def run_unmanaged(engine):
    """Replay ``engine``'s mix under shared LRU with the NumPy loop.

    ``engine`` is a fresh :class:`~repro.sim.engine.MixEngine` whose
    policy does not partition; it is consumed exactly as
    :meth:`~repro.sim.engine.MixEngine.run` would consume it.
    """
    self = engine
    model = NaiveSharedOccupancyModel(self.llc_lines)
    n = len(self.apps)
    occ = np.full(n, self.llc_lines / n, dtype=float)
    arrival_times = [lc.spec.arrivals.tolist() for lc in self.lc_apps]
    ptrs = [0] * len(self.lc_apps)

    while not all(lc.exhausted for lc in self.lc_apps):
        p_vals = [0.0] * n
        per_access_vals = [0.0] * n
        for app in self.apps:
            p = min(1.0, float(app.curve(occ[app.index])))
            p_vals[app.index] = p
            per_access_vals[app.index] = app.hit_interval + p * app.miss_penalty

        # Candidate event times.
        t_next = self.now + _LRU_EPOCH
        for k, lc in enumerate(self.lc_apps):
            if ptrs[k] < len(arrival_times[k]):
                t_next = min(t_next, arrival_times[k][ptrs[k]])
            if lc.serving is not None:
                if lc.remaining > 0:
                    per_access = per_access_vals[lc.index]
                    t_next = min(t_next, self.now + lc.remaining * per_access)
                else:
                    t_next = min(t_next, lc._fixed_end)
        dt = max(t_next - self.now, 0.0)

        # Advance everyone by dt at frozen occupancies.
        rates = np.zeros(n)
        for app in self.apps:
            p = p_vals[app.index]
            per_access = per_access_vals[app.index]
            if isinstance(app, _BatchApp):
                accesses = dt / per_access
                app.result.instructions += (
                    accesses * app.profile.instructions_per_access
                )
                app.result.cycles += dt
                rates[app.index] = p / per_access
            else:
                lc = app
                if lc.serving is not None and lc.remaining > 0:
                    accesses = min(dt / per_access, lc.remaining)
                    lc.remaining -= accesses
                    _note_progress(lc, accesses, accesses * p)
                    rates[lc.index] = p / per_access
                elif lc.serving is None:
                    lc.stats.idle_time += dt
        if dt > 0:
            occ = model.step(occ, rates, dt)
            if self.bandwidth is not None:
                multiplier = self.bandwidth.penalty_multiplier(float(rates.sum()))
                for app in self.apps:
                    app.miss_penalty = app.base_miss_penalty * multiplier
        self.now = t_next

        # Completions.
        for lc in self.lc_apps:
            if lc.serving is None:
                continue
            if float(lc.req_accesses[lc.serving]) > 0:
                done = lc.remaining <= _COMPLETION_TOL
            else:
                done = self.now >= lc._fixed_end - 1e-6
            if done:
                _complete(self, lc)

        # Arrivals.
        for k, lc in enumerate(self.lc_apps):
            times = arrival_times[k]
            while ptrs[k] < len(times) and times[ptrs[k]] <= self.now + 1e-9:
                req_idx = ptrs[k]
                ptrs[k] += 1
                lc.arrival_ptr = ptrs[k]
                lc.queue.append(req_idx)
            if lc.serving is None and lc.queue:
                if not lc.active:
                    lc.active = True
                    lc.stats.activations += 1
                    lc.result.activations += 1
                _start(self, lc, lc.queue.pop(0))
    return self._collect()


def _note_progress(lc, accesses: float, misses: float) -> None:
    lc.stats.accesses += accesses
    lc.stats.misses += misses
    lc.total_accesses += accesses
    lc.total_misses += misses


def _start(self, lc, req_idx: int) -> None:
    lc.serving = req_idx
    lc.remaining = float(lc.req_accesses[req_idx])
    if lc.remaining <= 0:
        duration = float(lc.spec.works[req_idx]) * lc.base_cpi
        lc._fixed_end = self.now + duration
    else:
        lc._fixed_end = float("inf")


def _complete(self, lc) -> None:
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
        _start(self, lc, lc.queue.pop(0))
    else:
        lc.active = False
