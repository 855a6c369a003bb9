"""Trace-driven set-associative cache with LRU replacement.

This is the array behind Figure 2's reuse breakdown and the
``trace_replay`` kernel of ``repro bench``.
Addresses are line addresses (already shifted by the 64 B line size).

Storage layout (the PR-4 hot-path rewrite)
------------------------------------------

The cache keeps **flat preallocated line-indexed arrays** instead of
per-set Python lists: slot ``set * ways + way`` holds the line's tag
(``-1`` when empty) and an **integer LRU stamp** — a monotonically
increasing access clock.  Recency is ordered by stamp, so

* a **hit** is one dict probe plus one stamp store (O(1), versus the
  old O(ways) ``list.remove`` shuffle), and
* a **miss** claims the lowest-indexed empty way, else evicts the
  minimum-stamp (least recently used) line of the set.

Stamps are unique (the clock ticks once per access), so the victim is
always unique and identical to the old list-ordered choice; the naive
implementation is kept in :mod:`repro.cache.reference` and the
equivalence is property-tested access for access.

The flat arrays are plain Python lists — the fastest random-access
store the interpreter offers — mutated in place by both access paths;
the :attr:`SetAssociativeCache.tags` / :attr:`SetAssociativeCache.stamps`
properties materialize numpy views for introspection.  The batched
entry point :meth:`SetAssociativeCache.access_many` is the fast path:
it takes a numpy address vector, hoists the per-access state lookups
out of the loop, and returns a numpy hit mask without allocating a
per-access result object.  ``repro bench`` tracks its speedup over the
naive reference as the ``trace_replay`` kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

__all__ = ["AccessResult", "SetAssociativeCache"]


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    evicted: Optional[int] = None


class SetAssociativeCache:
    """A ``ways``-way set-associative cache of ``num_lines`` lines.

    Resident lines live in flat tag/stamp arrays (see the module
    docstring); recency within a set is ordered by integer LRU stamp,
    most recently used highest.
    """

    def __init__(self, num_lines: int, ways: int):
        if num_lines < 1 or ways < 1:
            raise ValueError("capacity and ways must be positive")
        if num_lines % ways != 0:
            raise ValueError("num_lines must be a multiple of ways")
        self.num_lines = num_lines
        self.ways = ways
        self.num_sets = num_lines // ways
        # Flat preallocated slot arrays: slot = set * ways + way.
        self._tags: List[int] = [-1] * num_lines
        self._stamps: List[int] = [0] * num_lines
        self._where: Dict[int, int] = {}  # addr -> slot
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def set_index(self, addr: int) -> int:
        """Set index for a line address (simple modulo hashing)."""
        return addr % self.num_sets

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def access(self, addr: int) -> AccessResult:
        """Access a line: LRU update on hit, LRU eviction on miss."""
        self._clock += 1
        slot = self._where.get(addr)
        if slot is not None:
            self._stamps[slot] = self._clock
            self.hits += 1
            return AccessResult(hit=True)
        self.misses += 1
        tags = self._tags
        base = (addr % self.num_sets) * self.ways
        end = base + self.ways
        evicted: Optional[int] = None
        try:
            victim = tags.index(-1, base, end)
        except ValueError:
            stamps = self._stamps[base:end]
            victim = base + stamps.index(min(stamps))
            evicted = tags[victim]
            del self._where[evicted]
        tags[victim] = addr
        self._stamps[victim] = self._clock
        self._where[addr] = victim
        return AccessResult(hit=False, evicted=evicted)

    def access_many(self, addrs) -> np.ndarray:
        """Access a whole address vector; returns the boolean hit mask.

        Semantically identical to calling :meth:`access` per element in
        order — same hits, same evictions, same final LRU state — but
        without per-access result objects or method dispatch.  This is
        the trace-replay hot path (used by the Figure 2
        characterization and timed by ``repro bench``).  ``addrs`` is
        any integer array-like; a plain list of ints is used as-is, so
        callers that already hold one skip the round-trip conversion.
        """
        if type(addrs) is list:
            addr_list = addrs
        else:
            addr_list = np.asarray(addrs, dtype=np.int64).tolist()
        tags = self._tags
        stamps = self._stamps
        where = self._where
        get = where.get
        ways = self.ways
        num_sets = self.num_sets
        clock = self._clock
        hits = 0
        misses = 0
        out = bytearray(len(addr_list))
        for i, addr in enumerate(addr_list):
            clock += 1
            slot = get(addr)
            if slot is not None:
                stamps[slot] = clock
                hits += 1
                out[i] = 1
                continue
            misses += 1
            base = (addr % num_sets) * ways
            end = base + ways
            try:
                victim = tags.index(-1, base, end)
            except ValueError:
                seg = stamps[base:end]
                victim = base + seg.index(min(seg))
                del where[tags[victim]]
            tags[victim] = addr
            stamps[victim] = clock
            where[addr] = victim
        self._clock = clock
        self.hits += hits
        self.misses += misses
        return np.frombuffer(bytes(out), dtype=np.bool_)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, addr: int) -> bool:
        return addr in self._where

    def __len__(self) -> int:
        return len(self._where)

    @property
    def occupancy(self) -> int:
        """Lines currently resident."""
        return len(self._where)

    @property
    def miss_ratio(self) -> float:
        """Observed miss ratio so far (0 if no accesses yet)."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    @property
    def tags(self) -> np.ndarray:
        """Flat slot->tag array (``-1`` = empty), slot = set*ways + way."""
        return np.asarray(self._tags, dtype=np.int64)

    @property
    def stamps(self) -> np.ndarray:
        """Flat slot->LRU-stamp array (higher = more recently used)."""
        return np.asarray(self._stamps, dtype=np.int64)

    def lru_order(self, index: int) -> List[int]:
        """Resident lines of one set, least recently used first."""
        base = index * self.ways
        entries = [
            (self._stamps[base + way], self._tags[base + way])
            for way in range(self.ways)
            if self._tags[base + way] != -1
        ]
        return [tag for __, tag in sorted(entries)]

    def flush(self) -> None:
        """Empty the cache and reset statistics."""
        self._tags = [-1] * self.num_lines
        self._stamps = [0] * self.num_lines
        self._where.clear()
        self._clock = 0
        self.hits = 0
        self.misses = 0
