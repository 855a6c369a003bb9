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

:class:`FillState` runs the integrals as fused loops over Python
floats.  The plain integrators, one method per step, are kept as the
oracle :class:`repro.sim.reference.NaiveFillState`, and
``tests/sim/test_fill_equivalence.py`` holds the two bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from ..cache.schemes import SchemeModel
from ..monitor.miss_curve import MissCurve, interp_float

__all__ = ["FillState"]

_EPS = 1e-12


def _grown(p0: float, b: float, dr_seg: float, e: float, n: float) -> float:
    """Lines grown after ``n`` accesses on a segment ``(p0, b, dr_seg)``.

    Conditional expressions stand in for ``min``/``max``/``abs`` and
    return the operand the builtins would.
    """
    if p0 <= _EPS or n <= 0:
        return 0.0
    if -1e-30 < b < 1e-30:
        grown = e * p0 * n
    else:
        grown = (p0 / b) * (math.exp(e * b * n) - 1.0)
        if grown < 0.0:
            grown = 0.0
    return dr_seg if dr_seg < grown else grown


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

    The reads on the engine's event hot path are memoized on the exact
    values they depend on, so a hit returns exactly what a recompute
    would: the miss ratio on ``resident``; the curve segment on
    ``(resident, target)``, first in the instance and then in
    :attr:`segments`; and a retarget's ``(target, miss multiplier,
    effective target)`` on the requested line count, in a table this
    fill's clones share.  The segment table may be shared by every fill
    over the same curve and scheme; an engine gives its fills one table
    per curve, so a segment one LC instance computes serves its
    siblings.  Curve reads bisect the curve's
    :attr:`~repro.monitor.miss_curve.MissCurve.float_tables`
    (:func:`~repro.monitor.miss_curve.interp_float` is the exact scalar
    copy of ``np.interp``), and the integrators return plain
    ``(cycles, accesses, misses)`` tuples.
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
        self._curve_tables = curve.float_tables
        self._fill_efficiency = 1.0
        self._miss_multiplier = 1.0
        self.resident = float(resident)
        self.target = 0.0
        self._eff_target = 0.0
        self._p_key: float | None = None  # resident -> base miss ratio
        self._p_val = 0.0
        self._seg_key: tuple | None = None  # (resident, target) -> segment
        self._seg_val: tuple = (0.0, 0.0, 0.0)
        #: ``(resident, target)`` -> ``(p0, slope, lines to segment end)``.
        self.segments: dict = {}
        # Requested lines -> (target, miss multiplier, effective target).
        self._retargets: dict = {}
        self.set_target(target)

    def clone(self) -> "FillState":
        """A detached copy for projection walks.

        The engine's service walk advances a clone to *predict* event
        times without disturbing the committed state.  The copy shares
        only the curve, the scheme and the segment table, a value memo.
        """
        clone = object.__new__(type(self))
        clone.copy_from(self)
        return clone

    def copy_from(self, other: "FillState") -> None:
        """Make this fill a :meth:`clone` of ``other``, reusing the object."""
        self.__dict__.update(other.__dict__)

    # ------------------------------------------------------------------
    # Target management
    # ------------------------------------------------------------------
    def set_target(self, lines: float) -> None:
        """Retarget the partition; shrinking releases lines immediately.

        The scheme's answer depends only on ``lines``, so it is computed
        once per line count.  ``0.0`` and ``-0.0`` are one dict key but
        keep their sign as targets, so a zero is never memoized.
        """
        answer = self._retargets.get(lines)
        if answer is None:
            if lines < 0:
                raise ValueError("target must be non-negative")
            scheme = self.scheme
            target = float(lines)
            multiplier = 1.0
            if scheme is not None and lines > 0:
                target = float(scheme.quantize(lines))
                multiplier = scheme.miss_multiplier(target, self.curve.max_size)
            eff = target if scheme is None else scheme.effective_target(target)
            answer = (target, multiplier, eff)
            if lines:
                self._retargets[lines] = answer
        self.target, self._miss_multiplier, self._eff_target = answer
        if self.resident > self._eff_target:
            self.resident = self._eff_target

    @property
    def effective_target(self) -> float:
        """Lines the scheme actually lets the partition retain."""
        return self._eff_target

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
        r = self.resident
        if self._p_key != r:
            sizes, ratios = self._curve_tables
            self._p_val = interp_float(r, sizes, ratios)
            self._p_key = r
        return self._p_val

    def miss_ratio(self) -> float:
        """Observed miss ratio, including associativity penalties."""
        return min(1.0, self.base_miss_ratio() * self._miss_multiplier)

    @property
    def filling(self) -> bool:
        """True while the partition is still growing toward its target."""
        return self.resident < self._eff_target - _EPS

    # ------------------------------------------------------------------
    # Advancement
    # ------------------------------------------------------------------
    def advance_accesses(self, accesses: float) -> tuple[float, float, float]:
        """Execute ``accesses`` LLC accesses from the current state;
        returns ``(cycles spent, accesses, misses seen)``.

        Each growth step runs in closed form to the end of the current
        curve segment (or the target), clipped to the accesses left.
        Growth ends, and the rest runs at the steady miss ratio, once
        the ratio is zero, the partition is within ``_EPS`` of its
        target, or the step to the curve's zero crossing can no longer
        move the resident count.  The loop is the oracle's
        ``_growth_step`` inlined, with conditional expressions standing
        in for ``min``/``max``/``abs``.
        """
        if accesses < 0:
            raise ValueError("accesses must be non-negative")
        remaining = float(accesses)
        cycles = 0.0
        misses = 0.0
        hit, mp = self.hit_interval, self.miss_penalty
        e, mult = self._fill_efficiency, self._miss_multiplier
        eff_target = self._eff_target
        while remaining > _EPS and self.resident < eff_target - _EPS:
            p0, b, dr_seg = self._segment()
            if p0 <= _EPS:
                break  # zero miss ratio: growth stalled, behave as steady
            if dr_seg <= _EPS:
                # Floating-point corner: effectively at target already.
                self.resident = eff_target
                break
            p1 = p0 + b * dr_seg
            diff = p1 - p0
            if diff < 0.0:
                diff = -diff
            seg_dr = dr_seg
            if diff < 1e-9 * (1e-30 if 1e-30 > p0 else p0):
                # Effectively constant miss ratio on this stretch.
                seg_n = dr_seg / (e * p0)
                if not seg_n <= remaining:
                    seg_n, seg_dr = remaining, e * p0 * remaining
            else:
                if p1 <= _EPS:
                    # The curve hits zero inside the segment: growth to
                    # the crossing takes unbounded accesses, so clip.
                    p1 = _EPS
                    seg_dr = (p1 - p0) / b
                    if self.resident + seg_dr == self.resident:
                        break
                seg_n = math.log(p1 / p0) / (e * b)
                if not seg_n <= remaining:
                    # _grown(p0, b, dr_seg, e, remaining), inlined.
                    seg_n = remaining
                    if -1e-30 < b < 1e-30:
                        seg_dr = e * p0 * remaining
                    else:
                        seg_dr = (p0 / b) * (math.exp(e * b * remaining) - 1.0)
                        if seg_dr < 0.0:
                            seg_dr = 0.0
                    if dr_seg < seg_dr:
                        seg_dr = dr_seg
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
        return cycles, accesses, misses

    def advance_cycles(self, budget: float) -> tuple[float, float, float]:
        """Execute for ``budget`` cycles; returns the work actually done
        as ``(cycles spent, accesses, misses seen)``.

        The growth steps of :meth:`advance_accesses`, unclipped; the
        step the budget runs out in is inverted in time instead.
        """
        if budget < 0:
            raise ValueError("budget must be non-negative")
        remaining = float(budget)
        accesses = 0.0
        misses = 0.0
        hit, mp = self.hit_interval, self.miss_penalty
        e, mult = self._fill_efficiency, self._miss_multiplier
        eff_target = self._eff_target
        while remaining > _EPS and self.resident < eff_target - _EPS:
            p0, b, dr_seg = self._segment()
            if p0 <= _EPS:
                break
            if dr_seg <= _EPS:
                self.resident = eff_target
                break
            p1 = p0 + b * dr_seg
            diff = p1 - p0
            if diff < 0.0:
                diff = -diff
            seg_dr = dr_seg
            if diff < 1e-9 * (1e-30 if 1e-30 > p0 else p0):
                seg_n = dr_seg / (e * p0)
            else:
                if p1 <= _EPS:
                    p1 = _EPS
                    seg_dr = (p1 - p0) / b
                    if self.resident + seg_dr == self.resident:
                        break
                seg_n = math.log(p1 / p0) / (e * b)
            seg_misses = seg_dr / e * mult
            seg_cycles = hit * seg_n + mp * seg_misses
            if seg_cycles <= remaining:
                remaining -= seg_cycles
                accesses += seg_n
                misses += seg_misses
                self.resident += seg_dr
                continue
            part_n = self._invert_segment_time(remaining)
            part_dr = _grown(p0, b, dr_seg, e, part_n)
            accesses += part_n
            misses += part_dr / e * mult
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
        return budget - remaining, accesses, misses

    # ------------------------------------------------------------------
    # Segment machinery
    # ------------------------------------------------------------------
    def _segment(self):
        """Current curve segment: (p0, slope b, lines to segment end)."""
        key = (self.resident, self.target)
        if key == self._seg_key:
            return self._seg_val
        result = self.segments.get(key)
        if result is None:
            sizes, ratios = self._curve_tables
            idx = bisect_right(sizes, self.resident) - 1
            if idx < 0:
                idx = 0
            elif idx > len(sizes) - 2:
                idx = len(sizes) - 2
            s_lo, s_hi = sizes[idx], sizes[idx + 1]
            m_lo, m_hi = ratios[idx], ratios[idx + 1]
            b = (m_hi - m_lo) / (s_hi - s_lo)
            p0 = m_lo + b * (self.resident - s_lo)
            eff = self._eff_target
            seg_end = eff if eff < s_hi else s_hi
            dr = seg_end - self.resident
            result = (p0, b, dr if dr > 0.0 else 0.0)
            self.segments[key] = result
        self._seg_key = key
        self._seg_val = result
        return result

    def _invert_segment_time(self, budget: float) -> float:
        """Accesses achievable in ``budget`` cycles within this segment.

        An 80-step bisection that exits once the midpoint rounds to an
        endpoint: the interval can then never move again, so ``lo`` is
        already the value the remaining steps would return.
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
        # ``_grown`` inlined over hoisted constants: the hottest loop.
        # Dividing by 1.0 and multiplying by 1.0 are exact, so without
        # a scheme the misses' cost skips both.
        unit = e == 1.0 and mult == 1.0
        zero = p0 <= _EPS
        flat = -1e-30 < b < 1e-30
        pob = 0.0 if flat else p0 / b
        ebe = e * b
        ep0 = e * p0
        exp = math.exp
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if zero or mid <= 0:
                dr = 0.0
            else:
                if flat:
                    grown = ep0 * mid
                else:
                    grown = pob * (exp(ebe * mid) - 1.0)
                    if grown < 0.0:
                        grown = 0.0
                dr = dr_seg if dr_seg < grown else grown
            miss_cost = mp * dr
            if not unit:
                miss_cost = miss_cost / e * mult
            if hit * mid + miss_cost < budget:
                if mid == lo:
                    break
                lo = mid
            else:
                if mid == hi:
                    break
                hi = mid
        return lo
