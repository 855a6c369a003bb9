"""Naive reference cache models — the behavioural oracles.

These are the original per-access, ``List`` + ``dict`` implementations
of :class:`~repro.cache.set_assoc.SetAssociativeCache` and
:class:`~repro.cache.way_partition.WayPartitionedCache`, kept verbatim
after the flat-array rewrite for two jobs:

* **equivalence testing** — the property suite
  (``tests/cache/test_cache_equivalence.py``) drives randomized address
  streams through a naive model and its optimized twin and asserts
  access-for-access identical hits, evictions, and final LRU state;
* **benchmark baselining** — ``repro bench`` times the naive trace
  replay alongside the optimized one, so every ``BENCH_*.json`` records
  the speedup against the same pre-optimization code path rather than
  against a number measured on different hardware.

They are deliberately *not* exported from :mod:`repro.cache`: nothing
in the simulation stack should depend on them.

The shared behavioural contract both generations implement:

* an access **hits** iff the line is resident anywhere in its set (for
  the partitioned model: anywhere in the set, regardless of owner);
* a hit makes the line the most recently used of its set and evicts
  nothing;
* a miss inserts into the accessing partition's ways (the whole set
  for the unpartitioned model), filling an empty way first and
  otherwise evicting the least recently used candidate line.

Eviction *order* is part of the contract — see
:mod:`repro.cache.way_partition` for the precise tie-breaking rules.

:class:`NaiveSharedOccupancyModel` is the NumPy body of
:meth:`repro.cache.sharing.SharedOccupancyModel.step` from before the
float rewrite, kept the same way: ``tests/cache/test_sharing.py``
asserts the float stepper returns its exact bits, and the unmanaged
epoch-loop oracle (:mod:`repro.sim.reference`) steps with it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .set_assoc import AccessResult

__all__ = [
    "NaiveSetAssociativeCache",
    "NaiveSharedOccupancyModel",
    "NaiveWayPartitionedCache",
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


class NaiveWayPartitionedCache:
    """Per-set tuple-table way-partitioned cache (pre-rewrite reference).

    Stores ``(addr, lru_time, owner)`` tuples per way and scans the
    partition's way range on every miss.  Semantically identical to
    :class:`~repro.cache.way_partition.WayPartitionedCache`.
    """

    def __init__(self, num_lines: int, ways: int, num_partitions: int):
        if num_lines < 1 or ways < 1:
            raise ValueError("capacity and ways must be positive")
        if num_lines % ways != 0:
            raise ValueError("num_lines must be a multiple of ways")
        if not 1 <= num_partitions <= ways:
            raise ValueError("way-partitioning supports at most `ways` partitions")
        self.num_lines = num_lines
        self.ways = ways
        self.num_sets = num_lines // ways
        self.num_partitions = num_partitions
        self._sets: List[List[Optional[tuple]]] = [
            [None] * ways for _ in range(self.num_sets)
        ]
        self._where: Dict[int, tuple] = {}
        self._clock = 0
        base = ways // num_partitions
        extra = ways % num_partitions
        self._way_count = [
            base + (1 if i < extra else 0) for i in range(num_partitions)
        ]
        self.hits = [0] * num_partitions
        self.misses = [0] * num_partitions

    def set_allocation(self, way_counts: List[int]) -> None:
        """Assign each partition a number of ways (must sum to <= ways)."""
        if len(way_counts) != self.num_partitions:
            raise ValueError("one way count per partition required")
        if any(w < 1 for w in way_counts):
            raise ValueError("each partition needs at least one way")
        if sum(way_counts) > self.ways:
            raise ValueError("allocations exceed total ways")
        self._way_count = list(way_counts)

    def _way_range(self, partition: int) -> range:
        start = sum(self._way_count[:partition])
        return range(start, start + self._way_count[partition])

    def access(self, partition: int, addr: int) -> AccessResult:
        """Access ``addr``: hit anywhere in the set, insert in own ways."""
        self._clock += 1
        index = addr % self.num_sets
        ways = self._sets[index]
        found = self._where.get(addr)
        if found is not None:
            __, way = found
            entry = ways[way]
            ways[way] = (entry[0], self._clock, entry[2])
            self.hits[partition] += 1
            return AccessResult(hit=True)
        self.misses[partition] += 1
        victim_way = None
        oldest = None
        for way in self._way_range(partition):
            entry = ways[way]
            if entry is None:
                victim_way = way
                oldest = None
                break
            if oldest is None or entry[1] < oldest:
                oldest = entry[1]
                victim_way = way
        if victim_way is None:  # pragma: no cover - guarded by constructor
            raise RuntimeError("partition has no ways")
        evicted = None
        old = ways[victim_way]
        if old is not None:
            evicted = old[0]
            del self._where[evicted]
        ways[victim_way] = (addr, self._clock, partition)
        self._where[addr] = (index, victim_way)
        return AccessResult(hit=False, evicted=evicted)

    def resident_lines(self, partition: int) -> int:
        """Lines whose *owner* is ``partition`` (wherever they sit)."""
        count = 0
        for ways in self._sets:
            for entry in ways:
                if entry is not None and entry[2] == partition:
                    count += 1
        return count

    def __contains__(self, addr: int) -> bool:
        return addr in self._where

    @property
    def occupancy(self) -> int:
        """Lines currently resident across all partitions."""
        return len(self._where)


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
