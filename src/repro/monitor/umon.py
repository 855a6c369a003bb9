"""Utility monitors (UMONs) — sampled miss-curve profilers.

A UMON (Qureshi & Patt, MICRO 2006) is a small auxiliary tag array that
samples the address stream and maintains an LRU stack per monitored
set.  A hit at LRU stack depth ``d`` means the access *would have hit*
in any allocation of more than ``d`` ways, so per-depth hit counters
directly yield the miss curve.  The paper's configuration is 32 ways x
256 total tags (8 sets), sampling roughly one in 768 accesses
(Section 5.1.3); curves are linearly interpolated from 32 points to 256
for allocation decisions (Section 6).

Ubik extends UMONs with a comparator used for *accurate de-boosting*
(Section 5.1.1): UMON tags are not flushed while the app is idle, so
the monitor can report how many misses the current request would have
incurred at the undisturbed target size; :meth:`would_have_missed`
exposes that count via the mark/report interface the de-boost circuit
uses.

No simulation path runs this monitor.  The mix engine gives policies
each app's model curve with UMON-like sampling noise
(:meth:`~repro.monitor.miss_curve.MissCurve.with_noise`), and
``tests/integration/test_substrate_consistency.py`` holds a UMON fed
one access at a time to a real LRU cache's miss ratio.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .miss_curve import MissCurve

__all__ = ["UtilityMonitor"]

_HASH_MULT = 2654435761  # Knuth multiplicative hash
_HASH_MOD = 1 << 32


class UtilityMonitor:
    """Sampled LRU-stack miss-curve monitor.

    Parameters
    ----------
    ways:
        Monitored associativity: the resolution of the miss curve.
    sets:
        Number of monitored LRU stacks (ways * sets total tags).
    sample_shift:
        An address is sampled if ``hash(addr) % 2^sample_shift == 0``;
        the paper's 1-in-768 rate corresponds roughly to shift 10 with
        8 sets (we default to sampling 1/64 of the line address space
        into 8 stacks, i.e. 1/512 of accesses per stack).
    lines_per_way:
        Cache lines each monitored way stands for, i.e. cache capacity
        divided by UMON ways.
    """

    def __init__(
        self,
        ways: int = 32,
        sets: int = 8,
        sample_shift: int = 6,
        lines_per_way: float = 1.0,
    ):
        if ways < 1 or sets < 1:
            raise ValueError("ways and sets must be positive")
        if sample_shift < 0:
            raise ValueError("sample_shift must be non-negative")
        if lines_per_way <= 0:
            raise ValueError("lines_per_way must be positive")
        self.ways = ways
        self.sets = sets
        self.sample_mask = (1 << sample_shift) - 1
        self.lines_per_way = float(lines_per_way)
        self._stacks: List[List[int]] = [[] for _ in range(sets)]
        self.way_hits = np.zeros(ways, dtype=np.int64)
        self.miss_count = 0
        self.sampled = 0
        # Mark support for the de-boost comparator.
        self._mark_way_hits = np.zeros(ways, dtype=np.int64)
        self._mark_misses = 0

    @classmethod
    def for_cache(
        cls, cache_lines: int, ways: int = 32, sets: int = 8
    ) -> "UtilityMonitor":
        """Geometry-consistent UMON for a cache of ``cache_lines``.

        One monitored way must stand for ``cache_lines / ways`` lines,
        and the sampled address space spread over ``sets`` stacks must
        cover exactly that: ``lines_per_way = sets * 2^sample_shift``.
        This picks the sampling shift accordingly (the paper's 32x256
        UMON on a 12 MB LLC samples roughly one access in 768).
        """
        if cache_lines < ways * sets:
            raise ValueError("cache too small for this UMON geometry")
        lines_per_way = cache_lines / ways
        shift = max(0, int(round(np.log2(lines_per_way / sets))))
        return cls(
            ways=ways,
            sets=sets,
            sample_shift=shift,
            lines_per_way=sets * (1 << shift),
        )

    # ------------------------------------------------------------------
    # Sampling path
    # ------------------------------------------------------------------
    def _hash(self, addr: int) -> int:
        return (addr * _HASH_MULT) % _HASH_MOD

    def observe(self, addr: int) -> None:
        """Feed one access; only sampled addresses touch the stacks."""
        hashed = self._hash(addr)
        if hashed & self.sample_mask:
            return
        self.sampled += 1
        stack = self._stacks[(hashed >> 16) % self.sets]
        try:
            depth = stack.index(addr)
        except ValueError:
            depth = -1
        if depth >= 0:
            self.way_hits[depth] += 1
            del stack[depth]
            stack.insert(0, addr)
            return
        self.miss_count += 1
        stack.insert(0, addr)
        if len(stack) > self.ways:
            stack.pop()

    # ------------------------------------------------------------------
    # Miss-curve readout
    # ------------------------------------------------------------------
    def miss_curve(self, points: int = 257) -> MissCurve:
        """Current measured miss curve, interpolated to ``points``."""
        if self.sampled == 0:
            raise RuntimeError("no sampled accesses yet")
        curve = MissCurve.from_hit_counters(
            self.way_hits, self.miss_count, self.lines_per_way
        )
        return curve.resample(points)

    def reset(self) -> None:
        """Clear counters (tags are preserved, as in hardware)."""
        self.way_hits[:] = 0
        self.miss_count = 0
        self.sampled = 0

    # ------------------------------------------------------------------
    # De-boost comparator support (Ubik hardware extension)
    # ------------------------------------------------------------------
    def mark(self) -> None:
        """Snapshot counters at an idle->active transition."""
        self._mark_way_hits = self.way_hits.copy()
        self._mark_misses = self.miss_count

    def would_have_missed(self, allocation_lines: float) -> int:
        """Misses since :meth:`mark` if the app had ``allocation_lines``.

        Counts sampled accesses whose stack depth exceeded the given
        allocation — the quantity Ubik's de-boost comparator tracks.
        """
        ways_held = int(allocation_lines // self.lines_per_way)
        ways_held = min(ways_held, self.ways)
        delta_hits = self.way_hits - self._mark_way_hits
        deep_hits = int(delta_hits[ways_held:].sum())
        return deep_hits + (self.miss_count - self._mark_misses)

    def misses_since_mark(self) -> int:
        """Actual sampled misses since :meth:`mark`."""
        return self.miss_count - self._mark_misses
