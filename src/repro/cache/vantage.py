"""Trace-driven Vantage partitioning (ISCA 2011).

Vantage enforces fine-grained partitions statistically: every line is
tagged with its partition; on a miss, the replacement walk's candidates
are examined and the victim is drawn from partitions holding more lines
than their target ("over-target" partitions), via Vantage's two-stage
demotion/eviction.  The properties Ubik depends on (paper Section 5.1):

* a partition below its target size grows by **one line per miss** and
  suffers a negligible probability of losing a line, independent of the
  access pattern;
* partitions are isolated: one partition's insertions only displace
  lines of over-target partitions;
* resizing needs no moves or invalidations — just a new target.

This model reproduces those properties over a statistical candidate
array: each miss draws R uniform candidate slots, as a zcache's
replacement walk yields R candidates.  It is the reference that
``tests/integration/test_substrate_consistency.py`` holds the mix
engine's fill model (:class:`~repro.sim.fill.FillState`) against; no
simulation path runs it.

Slot state (tag, partition, LRU time) lives in flat preallocated
line-indexed lists, and each miss takes one draw from the NumPy RNG.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .set_assoc import AccessResult

__all__ = ["VantageCache"]


class VantageCache:
    """Vantage fine-grained partitioning over an R-candidate array."""

    def __init__(
        self,
        num_lines: int,
        num_partitions: int,
        ways: int = 4,
        candidates: int = 52,
        seed: int = 0,
    ):
        if num_lines < 1:
            raise ValueError("capacity must be positive")
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        if candidates < 1:
            raise ValueError("need at least one replacement candidate")
        self.num_lines = num_lines
        self.num_partitions = num_partitions
        self.ways = ways
        self.candidates = min(candidates, num_lines)
        self._rng = np.random.default_rng(seed)
        # Flat preallocated slot arrays (see module docstring).
        self._slot_addr: List[int] = [-1] * num_lines
        self._slot_part: List[int] = [-1] * num_lines
        self._slot_time: List[int] = [0] * num_lines
        self._where: Dict[int, int] = {}
        self._free = list(range(num_lines - 1, -1, -1))
        self._clock = 0
        self._targets: List[int] = [0] * num_partitions
        self._actual: List[int] = [0] * num_partitions
        self.hits = np.zeros(num_partitions, dtype=np.int64)
        self.misses = np.zeros(num_partitions, dtype=np.int64)
        #: Lines lost by under-target partitions (should stay ~0).
        self.under_target_evictions = np.zeros(num_partitions, dtype=np.int64)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def set_target(self, partition: int, lines: int) -> None:
        """Set a partition's target size; takes effect statistically."""
        self._check_partition(partition)
        if lines < 0:
            raise ValueError("target must be non-negative")
        self._targets[partition] = lines

    def target(self, partition: int) -> int:
        self._check_partition(partition)
        return int(self._targets[partition])

    def actual_size(self, partition: int) -> int:
        """Lines the partition currently holds."""
        self._check_partition(partition)
        return int(self._actual[partition])

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def _evict_slot(self) -> int:
        """Pick and clear a victim slot (two-stage Vantage selection).

        Among R uniform candidate slots: the LRU line of an over-target
        partition; else the LRU of an at-target partition; else the
        global LRU of the candidates.  Ties (impossible while the clock
        is strictly monotonic) would resolve to the first-drawn
        candidate, matching ``np.argmin``.
        """
        slot_time = self._slot_time
        slot_part = self._slot_part
        actual = self._actual
        targets = self._targets
        picks = self._rng.integers(0, self.num_lines, size=self.candidates).tolist()
        best_over = best_at = best_any = None
        t_over = t_at = t_any = None
        for pick in picks:
            tm = slot_time[pick]
            if t_any is None or tm < t_any:
                t_any, best_any = tm, pick
            part = slot_part[pick]
            occupied = actual[part]
            target = targets[part]
            if occupied >= target:
                if t_at is None or tm < t_at:
                    t_at, best_at = tm, pick
                if occupied > target and (t_over is None or tm < t_over):
                    t_over, best_over = tm, pick
        slot = (
            best_over
            if best_over is not None
            else best_at if best_at is not None else best_any
        )
        victim_part = slot_part[slot]
        if actual[victim_part] < targets[victim_part]:
            self.under_target_evictions[victim_part] += 1
        actual[victim_part] -= 1
        del self._where[self._slot_addr[slot]]
        return slot

    def access(self, partition: int, addr: int) -> AccessResult:
        """Access ``addr`` on behalf of ``partition``."""
        self._check_partition(partition)
        self._clock += 1
        slot = self._where.get(addr)
        if slot is not None:
            self._slot_time[slot] = self._clock
            self.hits[partition] += 1
            return AccessResult(hit=True)
        self.misses[partition] += 1
        evicted: Optional[int] = None
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._evict_slot()
            evicted = self._slot_addr[slot]  # unlinked, tag still readable
        self._slot_addr[slot] = addr
        self._slot_part[slot] = partition
        self._slot_time[slot] = self._clock
        self._where[addr] = slot
        self._actual[partition] += 1
        return AccessResult(hit=False, evicted=evicted)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, addr: int) -> bool:
        return addr in self._where

    @property
    def occupancy(self) -> int:
        return len(self._where)

    def partition_miss_ratio(self, partition: int) -> float:
        self._check_partition(partition)
        total = int(self.hits[partition] + self.misses[partition])
        return float(self.misses[partition]) / total if total else 0.0

    def partition_sizes(self) -> List[int]:
        return [int(x) for x in self._actual]

    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self.num_partitions:
            raise ValueError(f"partition {partition} out of range")
