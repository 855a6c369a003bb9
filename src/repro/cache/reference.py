"""Naive reference cache models — the behavioural oracles.

:class:`NaiveSetAssociativeCache` is the original per-access ``List`` +
``dict`` implementation of
:class:`~repro.cache.set_assoc.SetAssociativeCache`, kept verbatim
after the flat-array rewrite for two jobs:

* **equivalence testing** — the property suite
  (``tests/cache/test_cache_equivalence.py``) drives randomized address
  streams through both and asserts access-for-access identical hits,
  evictions, and final LRU state;
* **benchmark baselining** — ``repro bench`` times the naive trace
  replay alongside the optimized one, so every ``BENCH_*.json`` records
  the speedup against the same pre-optimization code path rather than
  against a number measured on different hardware.

The behavioural contract both implement: an access **hits** iff the
line is resident in its set; a hit makes the line the most recently
used of its set and evicts nothing; a miss fills an empty way first
and otherwise evicts the set's least recently used line.

:class:`NaiveSharedOccupancyModel` is the NumPy body of
:meth:`repro.cache.sharing.SharedOccupancyModel.step` from before the
float rewrite, kept the same way: ``tests/cache/test_sharing.py``
asserts the float stepper returns its exact bits, and the unmanaged
epoch-loop oracle (:mod:`repro.sim.reference`) steps with it.

Neither is exported from :mod:`repro.cache`: nothing in the simulation
stack should depend on them.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .set_assoc import AccessResult

__all__ = [
    "NaiveSetAssociativeCache",
    "NaiveSharedOccupancyModel",
]


class NaiveSetAssociativeCache:
    """Per-set ``List`` + ``dict`` LRU cache (pre-rewrite reference).

    Each set keeps its resident lines in LRU order (most recent last);
    a hit does an O(ways) ``list.remove`` + ``append``, a full-set miss
    pops index 0.  Semantically identical to
    :class:`~repro.cache.set_assoc.SetAssociativeCache` — only slower.
    """

    def __init__(self, num_lines: int, ways: int):
        if num_lines < 1 or ways < 1:
            raise ValueError("capacity and ways must be positive")
        if num_lines % ways != 0:
            raise ValueError("num_lines must be a multiple of ways")
        self.num_lines = num_lines
        self.ways = ways
        self.num_sets = num_lines // ways
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self._where: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def set_index(self, addr: int) -> int:
        """Set index for a line address (simple modulo hashing)."""
        return addr % self.num_sets

    def access(self, addr: int) -> AccessResult:
        """Access a line: LRU update on hit, LRU eviction on miss."""
        index = self.set_index(addr)
        lines = self._sets[index]
        if addr in self._where:
            lines.remove(addr)
            lines.append(addr)
            self.hits += 1
            return AccessResult(hit=True)
        self.misses += 1
        evicted = None
        if len(lines) >= self.ways:
            evicted = lines.pop(0)
            del self._where[evicted]
        lines.append(addr)
        self._where[addr] = index
        return AccessResult(hit=False, evicted=evicted)

    def __contains__(self, addr: int) -> bool:
        return addr in self._where

    @property
    def occupancy(self) -> int:
        """Lines currently resident."""
        return len(self._where)

    def lru_order(self, index: int) -> List[int]:
        """Resident lines of one set, least recently used first."""
        return list(self._sets[index])


class NaiveSharedOccupancyModel:
    """NumPy shared-LRU occupancy stepper (pre-rewrite reference).

    Semantically identical to
    :class:`~repro.cache.sharing.SharedOccupancyModel` — same closed
    form, same guards, same rounding — on ``np.ndarray`` vectors.
    """

    def __init__(self, capacity_lines: float):
        if capacity_lines <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = float(capacity_lines)

    def step(
        self,
        occupancies: np.ndarray,
        insertion_rates: np.ndarray,
        dt: float,
    ) -> np.ndarray:
        """Advance occupancies by ``dt`` with constant insertion rates."""
        occ = np.asarray(occupancies, dtype=float).copy()
        rates = np.asarray(insertion_rates, dtype=float)
        if occ.shape != rates.shape:
            raise ValueError("occupancies and rates must have matching shape")
        if np.any(occ < 0) or np.any(rates < 0):
            raise ValueError("occupancies and rates must be non-negative")
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if dt == 0 or not rates.any():
            return occ

        total_occ = occ.sum()
        if total_occ > self.capacity + 1e-6:
            raise ValueError("occupancies exceed capacity")

        # Phase 1: cache not yet full -- insertions land in free space.
        remaining = dt
        free = self.capacity - total_occ
        total_rate = rates.sum()
        if free > 1e-9:
            fill_time = free / total_rate
            phase = min(fill_time, remaining)
            occ += rates * phase
            remaining -= phase
            if remaining <= 1e-12:
                return occ

        # Phase 2: full cache -- exponential approach to the
        # proportional-share fixed point o_i* = (r_i / R) * C.
        fixed_point = rates / total_rate * self.capacity
        decay = np.exp(-total_rate * remaining / self.capacity)
        occ = fixed_point + (occ - fixed_point) * decay
        # Numerical guard: renormalize tiny drift.
        occ = np.clip(occ, 0.0, None)
        excess = occ.sum() - self.capacity
        if abs(excess) > 1e-6:
            occ *= self.capacity / occ.sum()
        return occ
