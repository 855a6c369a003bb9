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

An engine replays one cell and owns its memos.  The cells of one
replay group (:meth:`~repro.sim.mix_runner.MixRunner.run_mix_group`)
share their baseline and LC instance specs, but nothing passes from one
cell's engine to the next.  Each LC app computes its per-request
accesses, their mean and p95, and its streams as Python float lists
once; the fills over one miss curve share one segment table (the three
LC instances run one workload, so theirs is one); and the partitioned
loop merges the arrivals into one schedule before its first event.
The hot paths perform the oracle's float operations in the oracle's
order:

* the event loop merges that arrival schedule with a heap of the
  cell's own dynamic events;
* a policy hook's context builds its app views, through one builder
  (:meth:`MixEngine._make_views`), and its ``lc_active`` and
  ``lc_boosted`` maps only when the hook first reads them; no shipped
  policy's event hook (active, idle, de-boost, watermark) reads the
  views, and Ubik's reads neither map;
* scalar curve reads go through
  :meth:`~repro.monitor.miss_curve.MissCurve.at`;
* the fill integrators return plain tuples, a retarget reads its
  scheme's answer from the fill's memo, Ubik's table builds each row's
  allocations once, and a noisy UMON curve is validated once;
* steady-state commits inline the closing branch of
  :meth:`FillState.advance_cycles`;
* the service walk reuses a per-app scratch fill, and its steady-state
  chunk scan stops at the first crossing.

The scalar oracle is :class:`repro.sim.reference.NaiveMixEngine`: the
heap loop that pushes every arrival, the NumPy service walk and the
plain fill integrators.  ``tests/sim/test_engine_equivalence.py`` holds
every production path to it bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cache.schemes import SchemeModel
from ..cache.sharing import SharedOccupancyModel
from ..core.deboost import DeBoostTracker
from .bandwidth import BandwidthModel
from ..cpu import CoreModel, make_core_model
from ..monitor.miss_curve import MissCurve, interp_float
from ..numeric import mean, pairwise_sum, percentile
from ..policies.base import AppView, Decision, Policy, PolicyContext
from ..workloads.batch import BatchWorkload
from ..workloads.latency_critical import LCWorkload
from .config import CMPConfig
from .fill import _EPS, FillState
from .results import BatchAppResult, LCInstanceResult, MixResult

__all__ = ["LCInstanceSpec", "MixEngine"]

#: Chunks per service walk used to localize de-boost crossings.
_WALK_CHUNKS = 12

#: Epoch cap for the unmanaged (LRU) occupancy integration, cycles.
_LRU_EPOCH = 320_000  # 100 us at 3.2 GHz

_COMPLETION_TOL = 1e-6


@dataclass(frozen=True)
class LCInstanceSpec:
    """One LC instance: its workload model and pre-drawn request stream.

    The engine replays the stream in arrival order, so ``arrivals``
    must be finite and non-decreasing and ``works`` finite and
    non-negative.
    """

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
        arrivals = np.asarray(self.arrivals, dtype=float)
        works = np.asarray(self.works, dtype=float)
        if not np.isfinite(arrivals).all():
            raise ValueError("arrivals must be finite")
        if (np.diff(arrivals) < 0).any():
            raise ValueError("arrivals must be non-decreasing")
        if not np.isfinite(works).all():
            raise ValueError("works must be finite")
        if (works < 0).any():
            raise ValueError("works must be non-negative")


def _arrival_schedule(arrival_arrays: List[np.ndarray]) -> Tuple[list, list, list]:
    """The LC instances' arrivals as one stream, in the oracle's order.

    Returns ``(times, app_positions, req_indices)`` as Python lists,
    sorted by ``(time, seq)`` where ``seq`` is the position in the
    app-major concatenation of ``arrival_arrays``.  The scalar oracle
    pushes its arrival events app-major before any other event, so its
    heap assigns exactly these seqs and pops arrivals in exactly this
    order: a stable argsort of the concatenated times *is* the oracle's
    arrival ordering.
    """
    times = np.concatenate(arrival_arrays)
    order = np.argsort(times, kind="stable")
    lengths = [len(array) for array in arrival_arrays]
    apps = np.repeat(np.arange(len(arrival_arrays)), lengths)
    reqs = np.concatenate([np.arange(length) for length in lengths])
    return times[order].tolist(), apps[order].tolist(), reqs[order].tolist()


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
        segments: Dict[int, dict],
    ):
        self.index = index
        self.name = name
        self.kind = kind
        self.is_lc = kind == "lc"
        self.curve = curve
        self.profile = profile
        self.hit_interval = core.hit_interval(profile)
        self.miss_penalty = core.miss_penalty(profile)
        self.base_miss_penalty = self.miss_penalty  # before contention
        self.base_cpi = core.base_cpi(profile)
        self.fill = FillState(
            curve, self.hit_interval, self.miss_penalty, scheme=scheme
        )
        # One segment table per curve: every fill of an engine has the
        # engine's scheme, and the engine keeps its curves alive, so no
        # other object takes a curve's id while its table is in use.
        self.fill.segments = segments.setdefault(id(curve), {})
        self.last_commit = 0.0
        self.stats = _IntervalStats()
        self.total_accesses = 0.0
        self.total_misses = 0.0
        self.measured_curve = curve  # refreshed with noise each interval


class _LCApp(_App):
    def __init__(self, index, name, spec: LCInstanceSpec, core, scheme,
                 segments, warmup_fraction: float):
        super().__init__(
            index, name, "lc", spec.workload.miss_curve, spec.workload.profile,
            core, scheme, segments,
        )
        self.spec = spec
        self.req_accesses = spec.works * spec.workload.profile.apki / 1000.0
        # The streams as Python floats, read once per event: ``tolist``
        # gives exactly the ``float(x)`` of every element.
        self.arrival_list = spec.arrivals.tolist()
        self.work_list = spec.works.tolist()
        self.access_list = self.req_accesses.tolist()
        # Stream-constant statistics, computed once per engine; the
        # helpers equal np.mean and np.percentile bit for bit.
        self.mean_req_accesses = mean(self.access_list)
        self.tail_req_accesses = percentile(self.access_list, 95)
        self.warmup = int(len(spec.arrivals) * warmup_fraction)
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
        self.scratch_fill: Optional[FillState] = None  # the walk's fill
        # The workload's mean service cycles on the engine's core, set
        # by the first view build (initialize and the first
        # reconfiguration both read it).
        self.mean_service: Optional[float] = None

    @property
    def exhausted(self) -> bool:
        return (
            self.arrival_ptr >= len(self.spec.arrivals)
            and not self.queue
            and self.serving is None
        )


class _BatchApp(_App):
    def __init__(self, index, workload: BatchWorkload, core, scheme, baseline_ipc,
                 segments):
        super().__init__(
            index, workload.name, "batch", workload.miss_curve,
            workload.profile, core, scheme, segments,
        )
        self.result = BatchAppResult(name=workload.name, baseline_ipc=baseline_ipc)


class _LazyContext(PolicyContext):
    """A :class:`PolicyContext` whose ``apps``, ``lc_active`` and
    ``lc_boosted`` are built on first read.

    Until one of them is set, reading it (``apps`` directly or through
    ``lc_apps``, ``batch_apps`` or :meth:`~PolicyContext.app`) calls
    the engine's builder for it once and keeps the value as a plain
    attribute, which later reads find first.
    """

    def __init__(self, engine, current_targets):
        self._engine = engine
        self.llc_lines = engine.llc_lines
        self.current_targets = current_targets
        self.now = engine.now
        self.avg_batch_lines = engine._avg_batch_lines
        self.rng = engine.rng

    def __getattr__(self, name):
        # Reached only for attributes the instance lacks.
        if name == "apps":
            value = self._engine._make_views()
        elif name == "lc_active":
            value = self._engine._lc_active()
        elif name == "lc_boosted":
            value = self._engine._lc_boosted()
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value


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
        segments: Dict[int, dict] = {}  # id(curve) -> its fills' segments
        for i, spec in enumerate(lc_specs):
            app = _LCApp(
                len(self.apps), f"{spec.workload.name}#{i}", spec, core,
                self.scheme, segments, warmup_fraction,
            )
            self.apps.append(app)
            self.lc_apps.append(app)
        for workload in batch_workloads:
            baseline_ipc = core.ipc(
                workload.profile, workload.miss_curve.at(base_lines)
            )
            app = _BatchApp(
                len(self.apps), workload, core, self.scheme, baseline_ipc,
                segments,
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
        scaleout study's baseline build their engines here.
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
        """What the policy sees of each app: curves and counters.

        Rates, idle fractions and per-request accesses are measured
        over the interval so far; before the first reconfiguration
        they are estimates from the specs.
        """
        first = self._first_interval
        duration = max(self.now - self._interval_start, 1.0)
        views: List[AppView] = []
        for app in self.apps:
            view = AppView(
                index=app.index,
                name=app.name,
                kind=app.kind,
                curve=app.measured_curve,
                apki=app.profile.apki,
                hit_interval=app.hit_interval,
                miss_penalty=app.miss_penalty,
                access_rate=(
                    self._initial_access_rate(app)
                    if first
                    else app.stats.accesses / duration
                ),
            )
            if app.is_lc:
                spec = app.spec
                view.target_lines = spec.workload.target_lines
                view.deadline_cycles = spec.deadline_cycles
                view.target_tail_cycles = spec.target_tail_cycles
                if first:
                    mean_service = app.mean_service
                    if mean_service is None:
                        mean_service = app.mean_service = (
                            spec.workload.mean_service_cycles(self.core)
                        )
                    view.idle_fraction = 1.0 - spec.load
                    view.activation_rate = (
                        spec.load
                        / max(mean_service, 1.0)
                        * (1.0 - spec.load)
                    )
                    view.accesses_per_request = app.mean_req_accesses
                else:
                    view.idle_fraction = min(1.0, app.stats.idle_time / duration)
                    view.activation_rate = app.stats.activations / duration
                    view.accesses_per_request = app.total_accesses / max(
                        app.requests_done, 1
                    )
                view.recent_latencies = tuple(app.stats.latencies)
                view.tail_accesses_per_request = app.tail_req_accesses
            views.append(view)
        return views

    def _initial_access_rate(self, app: _App) -> float:
        """An app's access rate before any interval is measured.

        LC apps run at their offered load at the target allocation,
        batch apps at an even share of the LLC.
        """
        if app.is_lc:
            target = app.spec.workload.target_lines
            busy_rate = 1.0 / self.core.access_interval(
                app.profile, app.curve.at(target)
            )
            return app.spec.load * busy_rate
        share = self.llc_lines / max(1, len(self.apps))
        return 1.0 / self.core.access_interval(app.profile, app.curve.at(share))

    def _lc_active(self) -> Dict[int, bool]:
        """Which LC apps are serving a request, by app index."""
        return {a.index: a.active for a in self.lc_apps}

    def _lc_boosted(self) -> Dict[int, bool]:
        """Which LC apps hold an armed, unfired boost, by app index."""
        return {
            a.index: a.tracker is not None and not a.tracker.fired
            for a in self.lc_apps
        }

    def _make_context(self) -> PolicyContext:
        """What a policy hook sees.

        The app views and the ``lc_active``/``lc_boosted`` maps are
        built when the hook first reads them; no shipped policy's event
        hook reads the views, and Ubik's reads neither map.  The hook
        runs before the engine moves again, so those are the values an
        up-front build would give.  ``current_targets`` is built up
        front: Ubik's event hooks read it.
        """
        return _LazyContext(self, {a.index: a.fill.target for a in self.apps})

    # ------------------------------------------------------------------
    # Committing progress
    # ------------------------------------------------------------------
    def _commit(self, app: _App, upto: float) -> None:
        """Advance ``app``'s execution from its last commit to ``upto``.

        Once a partition sits at its target the advance reduces to the
        closing branch of :meth:`FillState.advance_cycles` — one miss
        ratio, one division — which is inlined here with the same
        expressions in the same order; a transient takes the
        closed-form integration.
        """
        dt = upto - app.last_commit
        if dt < -1e-6:
            raise RuntimeError("time went backwards in commit")
        if dt <= 0:
            app.last_commit = upto
            return
        fill = app.fill
        if app.is_lc and not (app.serving is not None and app.remaining > 0):
            if app.serving is None:
                app.stats.idle_time += dt
            # Serving with zero LLC accesses: busy but cache-silent.
        else:
            r = fill.resident
            if r < fill._eff_target - _EPS:  # filling
                __, accesses, misses = fill.advance_cycles(dt)
            elif dt > _EPS:
                # fill.miss_ratio() with the memo check inlined.
                base = fill._p_val if fill._p_key == r else fill.base_miss_ratio()
                p = base * fill._miss_multiplier
                if p > 1.0:
                    p = 1.0
                per_access = fill.hit_interval + p * fill.miss_penalty
                if per_access <= 0:
                    raise RuntimeError("app makes no progress: zero access interval")
                accesses = dt / per_access
                misses = accesses * p
            else:
                accesses = misses = 0.0
            stats = app.stats
            stats.accesses += accesses
            stats.misses += misses
            if app.is_lc:
                app.remaining -= (
                    accesses if accesses <= app.remaining else app.remaining
                )
                app.total_accesses += accesses
                app.total_misses += misses
                tracker = app.tracker
                if tracker is not None and not tracker.fired:
                    tracker.accumulate(accesses, misses, fill.resident)
            else:
                app.result.instructions += (
                    accesses * app.profile.instructions_per_access
                )
                app.result.cycles += dt
        app.last_commit = upto
        if self.trace_partitions:
            self.partition_trace[app.index].append(
                (upto, fill.target, fill.resident)
            )

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
            active_ratio = app.curve.at(plan.active_lines)
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

        The walk advances a detached copy of the fill through the
        request in ``_WALK_CHUNKS`` chunks, checking the de-boost and
        watermark crossings after each.  Chunks inside a fill transient
        integrate one at a time (residency, and hence the miss ratio,
        moves every chunk); once the partition sits at its target the
        miss ratio is constant and one scan covers the remaining
        chunks.  The scan stops at the *first* chunk where a de-boost,
        a watermark or the reconfig limit triggers: every earlier chunk
        triggered nothing, so that chunk is the earliest crossing the
        oracle's batched walk reconciles to (a watermark needs no
        de-boost at its own chunk, and a tie with the limit goes to the
        crossing).
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
            # unarmed steady walk reads the committed state directly.
            scratch = lc.scratch_fill
            if scratch is None:
                scratch = lc.scratch_fill = fill.clone()
            else:
                scratch.copy_from(fill)
            fill = scratch

        chunk = max(remaining / _WALK_CHUNKS, 1.0)
        deboost_at: Optional[float] = None
        watermark_at: Optional[float] = None
        while remaining > _COMPLETION_TOL:
            if fill.resident < fill._eff_target - _EPS:  # filling
                # Transient: exact closed-form integration, one chunk
                # at a time (each chunk moves the resident count).
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

            # Steady state: fill.miss_ratio(), memo check inlined.
            r0 = fill.resident
            p = (
                fill._p_val if fill._p_key == r0 else fill.base_miss_ratio()
            ) * fill._miss_multiplier
            if p > 1.0:
                p = 1.0
            hit_c, mp = fill.hit_interval, fill.miss_penalty
            t_cur = t
            r = remaining
            if not armed:
                # The only possible crossing is the reconfig limit, and
                # every full chunk adds the same ``s * hit_c + (s * p) *
                # mp`` — identical operands, identical bits — so the
                # increment is hoisted.
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
                        break
                t = t_cur
                remaining = r
                break  # limit or completion
            plan = tracker.plan
            if not filled and fill.resident >= plan.boost_lines * (1.0 - 1e-9):
                filled = True
            amr = tracker.active_miss_ratio
            guard_f = plan.guard_fraction
            wf = plan.watermark_factor
            crossing = None
            at_limit = False
            proj_cur, act_cur = proj, actual
            while r > _COMPLETION_TOL:
                s = chunk if chunk < r else r
                r -= s
                miss = s * p
                t_cur = t_cur + (s * hit_c + miss * mp)
                at_limit = t_cur >= limit
                proj_cur = proj_cur + s * amr
                act_cur = act_cur + miss
                if (proj_cur >= act_cur + guard_f * proj_cur) and proj_cur > 0:
                    crossing = "deboost"
                    break
                if (wf is not None and filled
                        and proj_cur > 0 and act_cur > proj_cur * wf):
                    crossing = "watermark"
                    break
                if at_limit:
                    break
            t = t_cur
            remaining = r
            if crossing == "deboost":
                deboost_at = t_cur
                fill.set_target(plan.active_lines)
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

    def _next_reconfig_time(self) -> float:
        interval = self.config.reconfig_interval_cycles
        k = int(self.now // interval) + 1
        return k * interval

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _start_request(self, lc: _LCApp, req_idx: int) -> None:
        lc.serving = req_idx
        lc.remaining = lc.access_list[req_idx]
        if lc.remaining <= 0:
            # App with negligible LLC traffic: fixed-duration service.
            duration = lc.work_list[req_idx] * lc.base_cpi
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
        latency = self.now - lc.arrival_list[req_idx]
        lc.requests_done += 1
        if req_idx >= lc.warmup:
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
            p = min(1.0, app.curve.at(app.fill.target))
            total += self._initial_access_rate(app) * p
        multiplier = self.bandwidth.penalty_multiplier(total)
        for app in self.apps:
            app.miss_penalty = app.base_miss_penalty * multiplier
            app.fill.miss_penalty = app.miss_penalty

    def _start_partitioned(self) -> None:
        """Initial decision and warm start, before the first event."""
        self._refresh_measured_curves()
        decision = self.policy.initialize(self._make_context())
        self._apply_decision(decision)
        # Warm start: resident working sets match the initial targets
        # (the paper fast-forwards through warmup before the ROI).
        for app in self.apps:
            app.fill.resident = app.fill.effective_target
        self._initial_bandwidth_estimate()

    def _run_partitioned(self) -> MixResult:
        """The partitioned event loop over the merged arrival schedule.

        :func:`_arrival_schedule` merges the LC instances' arrival
        arrays into one ``(time, seq)``-sorted schedule, where ``seq``
        is the position in their app-major concatenation: exactly the
        seqs and order in which a heap that pushed every arrival first
        would pop them.  The heap holds only dynamic events, whose seqs
        continue after the arrivals', so each step takes whichever
        comes first by ``(time, seq)`` — an arrival wins a tie in time.
        """
        self._start_partitioned()
        times, apps, reqs = _arrival_schedule(
            [lc.spec.arrivals for lc in self.lc_apps]
        )
        events = self._events = []
        self._seq = itertools.count(len(times))
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
        (:func:`~repro.numeric.pairwise_sum`); ``min``/``max``
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
        # The request index is the list position.
        arrival_times = [lc.arrival_list for lc in lc_apps]
        req_accesses = [lc.access_list for lc in lc_apps]
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
        lc.remaining = lc.access_list[req_idx]
        if lc.remaining <= 0:
            duration = lc.work_list[req_idx] * lc.base_cpi
            lc._fixed_end = self.now + duration
        else:
            lc._fixed_end = float("inf")

    def _complete_unmanaged(self, lc: _LCApp) -> None:
        req_idx = lc.serving
        lc.serving = None
        lc.remaining = 0.0
        latency = self.now - lc.arrival_list[req_idx]
        lc.requests_done += 1
        if req_idx >= lc.warmup:
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
