"""Partition fill state: the engine's transient model (paper Sec 5.1).

Under Vantage, a partition below its target grows by **one line per
miss** and loses nothing until it reaches the target.  An application's
instantaneous miss ratio is therefore its miss curve evaluated at its
*resident* line count, and execution obeys

    dr/dn     = e * p(r)          (growth: e = fill efficiency, 1 for Vantage)
    dT/dn     = c + p(r) * M      (cycles per access)

where ``n`` counts LLC accesses, ``c`` is the all-hit access interval
and ``M`` the effective miss penalty.  Because miss curves are
piecewise linear, both equations integrate in closed form per segment:
on a segment with ``p(r) = p0 * exp(e*b*n)`` (slope ``b``), the misses
in a growth step equal ``delta_r / e`` exactly — each miss adds one
line — and cycles follow as ``c*n + M*misses``.

The engine uses the *exact* integral; Ubik's controller uses the
paper's conservative upper bounds (:mod:`repro.core.transient`), so the
simulation exposes the controller's real safety margin.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..cache.schemes import SchemeModel
from ..monitor.miss_curve import MissCurve, interp_float

__all__ = ["Advance", "FillState", "GroupFillState"]

_EPS = 1e-12


@dataclass(frozen=True)
class Advance:
    """Result of advancing an app: cycles spent, work done, misses seen."""

    cycles: float
    accesses: float
    misses: float

    def merged(self, other: "Advance") -> "Advance":
        return Advance(
            cycles=self.cycles + other.cycles,
            accesses=self.accesses + other.accesses,
            misses=self.misses + other.misses,
        )


class FillState:
    """Resident-lines tracker with closed-form execution advancement.

    Parameters
    ----------
    curve:
        The app's true steady-state miss curve.
    hit_interval:
        Cycles between LLC accesses when all hit (the paper's ``c``).
    miss_penalty:
        Effective stall cycles per miss (the paper's ``M``).
    scheme:
        Partitioning-scheme imperfection model; defaults to ideal
        (Vantage-on-zcache) behaviour.
    """

    def __init__(
        self,
        curve: MissCurve,
        hit_interval: float,
        miss_penalty: float,
        scheme: SchemeModel | None = None,
        resident: float = 0.0,
        target: float = 0.0,
    ):
        if hit_interval < 0 or miss_penalty < 0:
            raise ValueError("c and M must be non-negative")
        self.curve = curve
        self.hit_interval = float(hit_interval)
        self.miss_penalty = float(miss_penalty)
        self.scheme = scheme
        self._fill_efficiency = 1.0
        self._miss_multiplier = 1.0
        self.resident = float(resident)
        self.target = 0.0
        # Value-keyed memos for the two curve lookups on the engine's
        # event hot path.  Keys are the exact state values the result
        # depends on, so staleness is impossible: any state change
        # changes the key and forces a recompute of the same expression
        # the uncached code evaluated — cached results are bit-identical
        # by construction.
        self._p_key: float | None = None  # resident -> base miss ratio
        self._p_val = 0.0
        self._seg_key: tuple | None = None  # (resident, target) -> segment
        self._seg_val: tuple = (0.0, 0.0, 0.0)
        self.set_target(target)
        if resident > self.effective_target:
            self.resident = self.effective_target

    def clone(self) -> "FillState":
        """A detached copy for projection walks (no shared mutable state).

        The engine's service walk advances a clone to *predict* event
        times without disturbing the committed state; memos start cold
        (they are value-keyed, so warm and cold caches agree exactly).
        """
        clone = FillState.__new__(FillState)
        clone.curve = self.curve
        clone.hit_interval = self.hit_interval
        clone.miss_penalty = self.miss_penalty
        clone.scheme = self.scheme
        clone._fill_efficiency = self._fill_efficiency
        clone._miss_multiplier = self._miss_multiplier
        clone.resident = self.resident
        clone.target = self.target
        clone._p_key = None
        clone._p_val = 0.0
        clone._seg_key = None
        clone._seg_val = (0.0, 0.0, 0.0)
        return clone

    # ------------------------------------------------------------------
    # Target management
    # ------------------------------------------------------------------
    def set_target(self, lines: float) -> None:
        """Retarget the partition; shrinking releases lines immediately."""
        if lines < 0:
            raise ValueError("target must be non-negative")
        if self.scheme is not None and lines > 0:
            lines = float(self.scheme.quantize(lines))
            self._miss_multiplier = self.scheme.miss_multiplier(
                lines, self.curve.max_size
            )
        else:
            self._miss_multiplier = 1.0
        self.target = float(lines)
        if self.resident > self.effective_target:
            self.resident = self.effective_target

    @property
    def effective_target(self) -> float:
        """Lines the scheme actually lets the partition retain."""
        if self.scheme is None:
            return self.target
        return self.scheme.effective_target(self.target)

    def begin_transient(self, rng: np.random.Generator | None = None) -> None:
        """Start a fill transient; draws the scheme's fill efficiency."""
        if self.scheme is None or rng is None:
            self._fill_efficiency = 1.0
        else:
            self._fill_efficiency = self.scheme.draw_fill_efficiency(rng)

    def apply_idle_loss(self, rng: np.random.Generator | None = None) -> None:
        """Soft-partitioning leakage accrued over an idle period."""
        if self.scheme is None or rng is None:
            return
        loss = self.scheme.draw_idle_loss(rng)
        if loss > 0:
            self.resident *= 1.0 - loss

    # ------------------------------------------------------------------
    # Miss-ratio evaluation
    # ------------------------------------------------------------------
    def base_miss_ratio(self) -> float:
        """Miss ratio from the curve at current residency (no penalty)."""
        if self._p_key != self.resident:
            self._p_val = float(self.curve(self.resident))
            self._p_key = self.resident
        return self._p_val

    def miss_ratio(self) -> float:
        """Observed miss ratio, including associativity penalties."""
        return min(1.0, self.base_miss_ratio() * self._miss_multiplier)

    @property
    def filling(self) -> bool:
        """True while the partition is still growing toward its target."""
        return self.resident < self.effective_target - _EPS

    # ------------------------------------------------------------------
    # Advancement
    # ------------------------------------------------------------------
    def advance_accesses(self, accesses: float) -> Advance:
        """Execute ``accesses`` LLC accesses from the current state."""
        if accesses < 0:
            raise ValueError("accesses must be non-negative")
        remaining = float(accesses)
        cycles = 0.0
        misses = 0.0
        while remaining > _EPS and self.filling:
            step = self._growth_step(max_accesses=remaining)
            if step is None:
                break  # zero miss ratio: growth stalled, behave as steady
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
        return Advance(cycles=cycles, accesses=accesses, misses=misses)

    def advance_cycles(self, budget: float) -> Advance:
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
        return Advance(cycles=budget - remaining, accesses=accesses, misses=misses)

    # ------------------------------------------------------------------
    # Segment machinery
    # ------------------------------------------------------------------
    def _segment(self):
        """Current curve segment: (p0, slope b, lines to segment end).

        Memoized on ``(resident, target)`` — the exact values the
        result depends on — because one growth step queries the same
        segment several times (:meth:`_growth_step`,
        :meth:`_growth_over`, :meth:`_invert_segment_time`).
        """
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

    def _growth_step(self, max_accesses: float | None):
        """One growth step within the current segment.

        Returns ``(accesses, lines_grown)`` for growing to the segment
        end (or target), clipped to ``max_accesses``; ``None`` if the
        miss ratio is zero (no growth possible).
        """
        p0, b, dr_seg = self._segment()
        e = self._fill_efficiency
        if p0 <= _EPS:
            return None
        if dr_seg <= _EPS:
            # Floating-point corner: effectively at target already.
            # Snap and treat the remainder as steady-state execution.
            self.resident = self.effective_target
            return None
        p1 = p0 + b * dr_seg
        if abs(p1 - p0) < 1e-9 * max(p0, 1e-30):
            # Effectively constant miss ratio on this stretch.
            n_full = dr_seg / (e * p0)
            if max_accesses is None or n_full <= max_accesses:
                return n_full, dr_seg
            return max_accesses, e * p0 * max_accesses
        if p1 <= _EPS:
            # Curve hits zero inside the segment: solve growth to the
            # zero crossing, which takes unbounded accesses; clip.
            p1 = _EPS
            dr_seg = (p1 - p0) / b
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


class GroupFillState(FillState):
    """A :class:`FillState` wired into a replay group's shared memos.

    The production engine (:class:`~repro.sim.lockstep.LockstepEngine`)
    replays many sweep cells that share the same miss curves over the
    same request streams (:mod:`repro.sim.grid_replay`), so their fill
    states keep asking for the same curve segments.  This subclass
    performs the *identical float operations in the identical order*
    as the parent — its results are bit-equal by construction — while
    removing the redundancy:

    * the per-instance ``(resident, target)`` segment memo falls back
      to a **group-shared** table keyed by ``(scope, resident, target)``
      where ``scope`` pins the exact curve/scheme objects, so a segment
      computed by one cell is served to every sibling;
    * segment misses binary-search the curve's
      :attr:`~repro.monitor.miss_curve.MissCurve.float_tables`
      (``bisect_right`` equals ``np.searchsorted(side="right")``, and
      the list entries are the same ``float(sizes[i])`` values the
      parent coerced per lookup);
    * :meth:`base_miss_ratio` evaluates the curve with
      :func:`~repro.monitor.miss_curve.interp_float` (a scalar
      ``bisect`` + lerp) over the same float tables instead of calling
      ``np.interp`` on a Python scalar — for an ascending knot grid the
      interpolant is the one multiply-add ``np.interp`` performs on the
      same segment, so the result is bit-equal (clamping included);
    * ``effective_target`` is maintained as the plain attribute
      ``_eff_target``, recomputed in :meth:`set_target` — the only
      place the target (and hence the value) can change — so the
      ``filling`` check and the advance loops skip the property
      dispatch and the scheme branch;
    * the advance/inversion loops hoist attribute reads to locals and
      replace ``min``/``max``/``abs`` builtins with conditional
      expressions that replicate their semantics exactly (first
      argument returned on equality, ``-0.0`` handling included);
    * the 80-iteration time inversion exits early once the bisection
      interval stops moving: when ``mid == lo`` (or ``mid == hi``) the
      midpoint can never change again, so ``lo`` is already the value
      the remaining iterations would return.

    ``tests/sim/test_lockstep_equivalence.py`` pins the bit identity
    against the parent class across policies, loads, and seeds.
    """

    def __init__(
        self,
        curve: MissCurve,
        hit_interval: float,
        miss_penalty: float,
        scheme: SchemeModel | None = None,
        resident: float = 0.0,
        target: float = 0.0,
        *,
        shared_segments: dict,
        seg_scope: tuple,
    ):
        # The shared refs must exist before the parent constructor runs
        # (it may touch the segment machinery via ``set_target``).
        self._shared_segments = shared_segments
        self._seg_scope = seg_scope
        self._curve_tables = curve.float_tables
        super().__init__(
            curve, hit_interval, miss_penalty,
            scheme=scheme, resident=resident, target=target,
        )

    def clone(self) -> "GroupFillState":
        """Parent :meth:`FillState.clone`, preserving the group wiring."""
        clone = GroupFillState.__new__(GroupFillState)
        clone.curve = self.curve
        clone.hit_interval = self.hit_interval
        clone.miss_penalty = self.miss_penalty
        clone.scheme = self.scheme
        clone._fill_efficiency = self._fill_efficiency
        clone._miss_multiplier = self._miss_multiplier
        clone.resident = self.resident
        clone.target = self.target
        clone._p_key = None
        clone._p_val = 0.0
        clone._seg_key = None
        clone._seg_val = (0.0, 0.0, 0.0)
        clone._shared_segments = self._shared_segments
        clone._seg_scope = self._seg_scope
        clone._curve_tables = self._curve_tables
        clone._eff_target = self._eff_target
        return clone

    def set_target(self, lines: float) -> None:
        """Parent :meth:`FillState.set_target`, then refresh ``_eff_target``.

        ``effective_target`` depends only on the (immutable) scheme and
        the target, and ``set_target`` is the sole writer of the
        target, so recomputing the cached value here keeps it exact.
        """
        super().set_target(lines)
        self._eff_target = self.effective_target

    @property
    def filling(self) -> bool:
        """Parent :meth:`FillState.filling` over the cached target."""
        return self.resident < self._eff_target - _EPS

    def base_miss_ratio(self) -> float:
        """Parent :meth:`FillState.base_miss_ratio` without ``np.interp``.

        :func:`~repro.monitor.miss_curve.interp_float` over the cached
        float tables is the exact scalar copy of ``np.interp``, so the
        memo stores bit-identical ratios.
        """
        r = self.resident
        if self._p_key != r:
            sizes_l, ratios_l = self._curve_tables
            self._p_val = interp_float(r, sizes_l, ratios_l)
            self._p_key = r
        return self._p_val

    def _segment(self):
        """Parent :meth:`FillState._segment` through the shared table.

        The instance memo stays authoritative (same key, same result);
        only its misses consult the group table, and only *its* misses
        recompute — with ``bisect_right`` over the cached float list in
        place of ``np.searchsorted`` and conditional expressions in
        place of ``min``/``max``, both exact replicas.
        """
        key = (self.resident, self.target)
        if key == self._seg_key:
            return self._seg_val
        skey = (self._seg_scope, self.resident, self.target)
        result = self._shared_segments.get(skey)
        if result is None:
            sizes_l, ratios_l = self._curve_tables[0], self._curve_tables[1]
            idx = bisect_right(sizes_l, self.resident) - 1
            n = len(sizes_l)
            if idx < 0:
                idx = 0
            elif idx > n - 2:
                idx = n - 2
            s_lo, s_hi = sizes_l[idx], sizes_l[idx + 1]
            m_lo, m_hi = ratios_l[idx], ratios_l[idx + 1]
            b = (m_hi - m_lo) / (s_hi - s_lo)
            p0 = m_lo + b * (self.resident - s_lo)
            eff = self._eff_target
            seg_end = s_hi if s_hi < eff else eff
            dr = seg_end - self.resident
            result = (p0, b, dr if dr > 0.0 else 0.0)
            self._shared_segments[skey] = result
        self._seg_key = key
        self._seg_val = result
        return result

    def advance_accesses(self, accesses: float) -> Advance:
        """Parent :meth:`FillState.advance_accesses`, loops fused.

        ``_growth_step``/``_growth_over`` are inlined with hoisted
        locals; every branch mirrors the parent's structure (including
        the near-flat-segment test and the zero-crossing clip), so the
        arithmetic — and hence every rounding — is unchanged.
        """
        if accesses < 0:
            raise ValueError("accesses must be non-negative")
        remaining = float(accesses)
        cycles = 0.0
        misses = 0.0
        hit, mp = self.hit_interval, self.miss_penalty
        e, mult = self._fill_efficiency, self._miss_multiplier
        eff_target = self._eff_target
        seg_key = self._seg_key
        seg_val = self._seg_val
        while remaining > _EPS and self.resident < eff_target - _EPS:
            key = (self.resident, self.target)
            if key == seg_key:
                p0, b, dr_seg = seg_val
            else:
                p0, b, dr_seg = seg_val = self._segment()
                seg_key = key
            if p0 <= _EPS:
                break
            if dr_seg <= _EPS:
                self.resident = eff_target
                break
            p1 = p0 + b * dr_seg
            ad = p1 - p0
            if ad < 0.0:
                ad = -ad
            thr = p0 if p0 > 1e-30 else 1e-30
            if ad < 1e-9 * thr:
                n_full = dr_seg / (e * p0)
                if n_full <= remaining:
                    seg_n, seg_dr = n_full, dr_seg
                else:
                    seg_n = remaining
                    g = e * p0 * remaining
                    seg_dr = g if g < dr_seg else dr_seg
            else:
                if p1 <= _EPS:
                    p1 = _EPS
                    dr_seg = (p1 - p0) / b
                n_full = math.log(p1 / p0) / (e * b)
                if n_full <= remaining:
                    seg_n, seg_dr = n_full, dr_seg
                else:
                    if p0 <= _EPS or remaining <= 0:
                        dr = 0.0
                    elif -1e-30 < b < 1e-30:
                        g = e * p0 * remaining
                        dr = g if g < dr_seg else dr_seg
                    else:
                        grown = (p0 / b) * (math.exp(e * b * remaining) - 1.0)
                        if grown < 0.0:
                            grown = 0.0
                        dr = grown if grown < dr_seg else dr_seg
                    seg_n, seg_dr = remaining, dr
            seg_misses = seg_dr / e * mult
            cycles += hit * seg_n + mp * seg_misses
            misses += seg_misses
            self.resident += seg_dr
            remaining -= seg_n
        if remaining > _EPS:
            p = self.miss_ratio()
            seg_misses = remaining * p
            cycles += remaining * hit + seg_misses * mp
            misses += seg_misses
            remaining = 0.0
        return Advance(cycles=cycles, accesses=accesses, misses=misses)

    def advance_cycles(self, budget: float) -> Advance:
        """Parent :meth:`FillState.advance_cycles`, loops fused."""
        if budget < 0:
            raise ValueError("budget must be non-negative")
        remaining = float(budget)
        accesses = 0.0
        misses = 0.0
        hit, mp = self.hit_interval, self.miss_penalty
        e, mult = self._fill_efficiency, self._miss_multiplier
        eff_target = self._eff_target
        while remaining > _EPS and self.resident < eff_target - _EPS:
            key = (self.resident, self.target)
            if key == self._seg_key:
                p0, b, dr_seg = self._seg_val
            else:
                p0, b, dr_seg = self._segment()
            if p0 <= _EPS:
                break
            if dr_seg <= _EPS:
                self.resident = eff_target
                break
            p1 = p0 + b * dr_seg
            ad = p1 - p0
            if ad < 0.0:
                ad = -ad
            thr = p0 if p0 > 1e-30 else 1e-30
            if ad < 1e-9 * thr:
                seg_n, seg_dr = dr_seg / (e * p0), dr_seg
            else:
                if p1 <= _EPS:
                    p1 = _EPS
                    dr_seg = (p1 - p0) / b
                seg_n, seg_dr = math.log(p1 / p0) / (e * b), dr_seg
            seg_misses = seg_dr / e * mult
            seg_cycles = hit * seg_n + mp * seg_misses
            if seg_cycles <= remaining:
                remaining -= seg_cycles
                accesses += seg_n
                misses += seg_misses
                self.resident += seg_dr
                continue
            part_n = self._invert_segment_time(remaining)
            if p0 <= _EPS or part_n <= 0:
                part_dr = 0.0
            elif -1e-30 < b < 1e-30:
                g = e * p0 * part_n
                part_dr = g if g < dr_seg else dr_seg
            else:
                grown = (p0 / b) * (math.exp(e * b * part_n) - 1.0)
                if grown < 0.0:
                    grown = 0.0
                part_dr = grown if grown < dr_seg else dr_seg
            part_misses = part_dr / e * mult
            accesses += part_n
            misses += part_misses
            self.resident += part_dr
            remaining = 0.0
        if remaining > _EPS:
            p = self.miss_ratio()
            per_access = hit + p * mp
            if per_access <= 0:
                raise RuntimeError("app makes no progress: zero access interval")
            seg_n = remaining / per_access
            accesses += seg_n
            misses += seg_n * p
            remaining = 0.0
        return Advance(cycles=budget - remaining, accesses=accesses, misses=misses)

    def _invert_segment_time(self, budget: float) -> float:
        """Parent inversion with hoisted constants and an early exit.

        Every ``mid``/``dr``/``cost`` the loop evaluates is the exact
        value the parent computes at the same iteration.  The exit is
        sound because once ``mid`` rounds to an endpoint the interval
        can no longer move: updating ``lo`` (or ``hi``) to ``mid``
        leaves ``0.5 * (lo + hi)`` — and therefore every subsequent
        comparison — unchanged, so the remaining iterations are
        no-ops and ``lo`` is already the parent's return value.
        """
        p0, b, dr_seg = self._segment()
        hit, mp = self.hit_interval, self.miss_penalty
        e, mult = self._fill_efficiency, self._miss_multiplier
        per_access_max = hit + p0 * mp
        if per_access_max <= 0:
            raise RuntimeError("zero-cost access: cannot invert time")
        lo, hi = 0.0, budget / max(hit, _EPS) if hit else 0.0
        if hi == 0.0:
            hi = budget / per_access_max * 4 + 1.0
        zero = p0 <= _EPS
        flat = -1e-30 < b < 1e-30
        ebe = e * b
        pob = 0.0 if flat else p0 / b
        ep0 = e * p0
        coeff = mp / e * mult
        exp = math.exp
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if zero or mid <= 0:
                dr = 0.0
            elif flat:
                g = ep0 * mid
                dr = g if g < dr_seg else dr_seg
            else:
                grown = pob * (exp(ebe * mid) - 1.0)
                if grown < 0.0:
                    grown = 0.0
                dr = grown if grown < dr_seg else dr_seg
            if hit * mid + coeff * dr < budget:
                if mid == lo:
                    break
                lo = mid
            else:
                if mid == hi:
                    break
                hi = mid
        return lo
